#include "core/smt_core.h"

#include <algorithm>

#include "util/log.h"

namespace stretch
{

SmtCore::SmtCore(const CoreParams &params, MemoryHierarchy &hierarchy,
                 BranchUnit &branch_unit)
    : params(params), mem(hierarchy), bp(branch_unit),
      robRes("ROB", params.robEntries), lsqRes("LSQ", params.lsqEntries)
{
    STRETCH_ASSERT(params.fetchWidth > 0 && params.commitWidth > 0 &&
                       params.dispatchWidth > 0 && params.issueWidth > 0,
                   "zero pipeline width");
    for (auto &ts : threads)
        ts.ring.resize(params.robEntries);
    // Default: Intel-style equal static partitioning (Section IV-B).
    robRes.configure(ShareMode::Partitioned, params.robEntries / 2,
                     params.robEntries / 2);
    lsqRes.configure(ShareMode::Partitioned, params.lsqEntries / 2,
                     params.lsqEntries / 2);
}

void
SmtCore::attachThread(ThreadId tid, TraceGenerator *gen)
{
    STRETCH_ASSERT(tid < numSmtThreads, "bad thread id");
    STRETCH_ASSERT(threads[tid].count == 0 && threads[tid].fetchBuf.empty(),
                   "attachThread with instructions in flight");
    threads[tid].gen = gen;
    threads[tid].pendingValid = false;
    threads[tid].fetchBlockedUntil = curCycle;
    threads[tid].waitingBranch = false;
    threads[tid].regSeq.fill(0);
}

void
SmtCore::configureRob(ShareMode mode, unsigned limit0, unsigned limit1)
{
    robRes.configure(mode, limit0, limit1);
}

void
SmtCore::configureLsq(ShareMode mode, unsigned limit0, unsigned limit1)
{
    lsqRes.configure(mode, limit0, limit1);
}

unsigned
SmtCore::icount(ThreadId tid) const
{
    const ThreadState &ts = threads[tid];
    if (!ts.gen && ts.count == 0 && ts.fetchBuf.empty())
        return ~0u; // detached thread never wins selection
    return static_cast<unsigned>(ts.fetchBuf.size()) + robRes.usage(tid);
}

ThreadId
SmtCore::fetchPrimary()
{
    switch (params.fetchPolicy) {
      case FetchPolicy::RoundRobin:
        fetchRr = ThreadId(1) - fetchRr;
        return fetchRr;
      case FetchPolicy::Throttle: {
        // Slot 0 of every (1 + ratio) cycles belongs to the throttled
        // thread; all other slots belong to the favoured thread.
        Cycle window = params.throttleRatio + 1;
        bool ls_slot = (curCycle % window) == 0;
        return ls_slot ? params.throttledThread
                       : ThreadId(1) - params.throttledThread;
      }
      case FetchPolicy::Icount:
      default: {
        unsigned c0 = icount(0), c1 = icount(1);
        if (c0 == c1) {
            fetchRr = ThreadId(1) - fetchRr;
            return fetchRr;
        }
        return c0 < c1 ? ThreadId(0) : ThreadId(1);
      }
    }
}

void
SmtCore::fetchThread(ThreadId tid, unsigned &budget)
{
    ThreadState &ts = threads[tid];
    if (!ts.gen && !ts.pendingValid)
        return;
    if (curCycle < ts.fetchBlockedUntil || ts.waitingBranch)
        return;

    unsigned blocks_touched = 0;
    unsigned branches_seen = 0;
    Addr last_block = ~Addr(0);

    while (budget > 0 && ts.fetchBuf.size() < params.fetchBufferEntries) {
        if (!ts.pendingValid) {
            if (!ts.gen)
                break;
            ts.pending = ts.gen->next();
            ts.pendingValid = true;
        }
        const MicroOp &op = ts.pending;

        // Fetch-group limit: at most fetchMaxBlocks cache blocks.
        Addr blk = blockAddr(op.pc);
        if (blk != last_block) {
            if (blocks_touched >= params.fetchMaxBlocks)
                break;
            Cycle ready = mem.instrFetch(tid, op.pc, curCycle);
            if (ready > curCycle) {
                ts.fetchBlockedUntil = ready;
                ts.blockReason = FetchBlock::ICache;
                break;
            }
            ++blocks_touched;
            last_block = blk;
        }

        bool is_branch = op.cls == OpClass::Branch;
        if (is_branch && branches_seen >= params.fetchMaxBranches)
            break;

        FetchedOp fo{op, false};
        bool group_ends = false;
        if (is_branch) {
            ++branches_seen;
            BranchPrediction pred = bp.predict(tid, op.pc, op.isReturn);
            bp.update(tid, op.pc, op.taken, op.target, op.isCall,
                      op.isReturn);
            bool dir_correct = pred.taken == op.taken;
            bool tgt_correct =
                !op.taken || (pred.btbHit && pred.target == op.target);
            bp.recordOutcome(tid, dir_correct, tgt_correct);
            ++tstats[tid].branches;
            if (!dir_correct) {
                // Wrong direction: stop fetching this thread until the
                // branch resolves in the back-end.
                ++tstats[tid].branchMispredicts;
                fo.mispredicted = true;
                ts.waitingBranch = true;
                ts.blockReason = FetchBlock::BranchResolve;
                group_ends = true;
            } else if (op.taken && !tgt_correct) {
                // Right direction, unknown target: decode-stage redirect.
                ++tstats[tid].btbTargetMisses;
                ts.fetchBlockedUntil = curCycle + params.btbMissPenalty;
                ts.blockReason = FetchBlock::BtbRedirect;
                group_ends = true;
            } else if (op.taken) {
                // Correctly-predicted taken branch ends the fetch group.
                group_ends = true;
            }
        }

        ts.fetchBuf.push_back(fo);
        ts.pendingValid = false;
        --budget;
        ++tstats[tid].fetchedOps;
        if (group_ends)
            break;
    }
}

void
SmtCore::doFetch()
{
    unsigned budget = params.fetchWidth;
    ThreadId primary = fetchPrimary();
    ThreadId secondary = ThreadId(1) - primary;

    fetchThread(primary, budget);
    if (budget > 0) {
        // The favoured thread's slots are strict under throttling: the
        // throttled thread may not steal them (Section VI-B); in all other
        // policies (and on the throttled thread's own slot) the other
        // thread fills leftover width.
        bool allow_secondary = true;
        if (params.fetchPolicy == FetchPolicy::Throttle &&
            secondary == params.throttledThread) {
            allow_secondary = false;
        }
        if (allow_secondary)
            fetchThread(secondary, budget);
    }
}

void
SmtCore::dispatchThread(ThreadId tid, unsigned &budget)
{
    ThreadState &ts = threads[tid];
    while (budget > 0 && !ts.fetchBuf.empty()) {
        const FetchedOp &fo = ts.fetchBuf.front();
        bool is_mem = fo.op.isMem();
        if (!robRes.canAllocate(tid)) {
            ++tstats[tid].dispatchStallRob;
            break;
        }
        if (is_mem && !lsqRes.canAllocate(tid)) {
            ++tstats[tid].dispatchStallLsq;
            break;
        }

        std::uint32_t slot = slotIndex(ts, ts.count);
        Entry &e = ts.ring[slot];
        STRETCH_ASSERT(!e.valid, "ROB ring overwrite");
        e.op = fo.op;
        e.seq = seqCounter++;
        e.state = EntryState::Waiting;
        e.waitCount = 0;
        e.valid = true;
        e.mispredicted = fo.mispredicted;
        e.consumers.clear();
        ++ts.count;
        robRes.allocate(tid);
        if (is_mem)
            lsqRes.allocate(tid);

        // Register the entry with its producers (RAW dependences). Base
        // registers (< 8) are always ready.
        auto addDep = [&](std::uint8_t r) {
            if (r == noReg || r < 8)
                return;
            std::uint64_t pseq = ts.regSeq[r];
            if (pseq == 0)
                return;
            Entry &p = ts.ring[ts.regSlot[r]];
            if (p.valid && p.seq == pseq && p.state != EntryState::Done) {
                p.consumers.push_back({slot, e.seq});
                ++e.waitCount;
            }
        };
        addDep(e.op.src1);
        addDep(e.op.src2);

        if (e.op.dest != noReg && e.op.dest >= 8) {
            ts.regSeq[e.op.dest] = e.seq;
            ts.regSlot[e.op.dest] = slot;
        }

        if (e.waitCount == 0) {
            e.state = EntryState::Ready;
            ts.readyList.push_back(slot);
        }

        ts.fetchBuf.pop_front();
        --budget;
    }
}

void
SmtCore::doDispatch()
{
    unsigned budget = params.dispatchWidth;
    unsigned c0 = icount(0), c1 = icount(1);
    ThreadId primary = (c0 == c1) ? commitRr : (c0 < c1 ? 0 : 1);
    dispatchThread(primary, budget);
    if (budget > 0)
        dispatchThread(ThreadId(1) - primary, budget);
}

void
SmtCore::scheduleCompletion(ThreadId tid, std::uint32_t slot,
                            std::uint64_t seq, Cycle when)
{
    STRETCH_ASSERT(when > curCycle, "completion must be in the future");
    STRETCH_ASSERT(when - curCycle < evRingSize,
                   "completion beyond event-ring horizon");
    evRing[when % evRingSize].push_back({tid, slot, seq});
}

void
SmtCore::doIssue()
{
    // Gather ready candidates from both threads, oldest first.
    issueScratch.clear();
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        ThreadState &ts = threads[t];
        auto keep = ts.readyList.begin();
        for (std::uint32_t slot : ts.readyList) {
            Entry &e = ts.ring[slot];
            if (e.valid && e.state == EntryState::Ready) {
                issueScratch.push_back({e.seq, t, slot});
                *keep++ = slot;
            }
        }
        ts.readyList.erase(keep, ts.readyList.end());
    }
    std::sort(issueScratch.begin(), issueScratch.end(),
              [](const IssueCand &a, const IssueCand &b) {
                  return a.seq < b.seq;
              });

    unsigned budget = params.issueWidth;
    unsigned alu = params.intAluCount;
    unsigned mul = params.intMulCount;
    unsigned fpu = params.fpuCount;
    unsigned lsu = params.lsuCount;

    for (const IssueCand &cand : issueScratch) {
        if (budget == 0)
            break;
        ThreadState &ts = threads[cand.tid];
        Entry &e = ts.ring[cand.slot];
        if (!e.valid || e.seq != cand.seq || e.state != EntryState::Ready)
            continue;

        switch (e.op.cls) {
          case OpClass::IntAlu:
          case OpClass::Branch: {
            if (alu == 0)
                continue;
            --alu;
            unsigned lat = e.op.cls == OpClass::Branch
                               ? params.branchLatency
                               : params.intAluLatency;
            e.state = EntryState::Issued;
            scheduleCompletion(cand.tid, cand.slot, e.seq, curCycle + lat);
            --budget;
            break;
          }
          case OpClass::IntMul: {
            if (mul == 0)
                continue;
            --mul;
            e.state = EntryState::Issued;
            scheduleCompletion(cand.tid, cand.slot, e.seq,
                               curCycle + params.intMulLatency);
            --budget;
            break;
          }
          case OpClass::FpAlu: {
            if (fpu == 0)
                continue;
            --fpu;
            e.state = EntryState::Issued;
            scheduleCompletion(cand.tid, cand.slot, e.seq,
                               curCycle + params.fpuLatency);
            --budget;
            break;
          }
          case OpClass::Load:
          case OpClass::Store: {
            if (lsu == 0)
                continue;
            bool is_store = e.op.cls == OpClass::Store;
            DataAccessResult res = mem.dataAccess(cand.tid, e.op.pc,
                                                  e.op.effAddr, is_store,
                                                  curCycle);
            if (res.kind == DataAccessKind::BankBusy ||
                res.kind == DataAccessKind::MshrFull) {
                // Replay next cycle; stays in the ready list.
                continue;
            }
            --lsu;
            e.state = EntryState::Issued;
            Cycle done = is_store ? curCycle + 1 : res.readyCycle;
            if (done <= curCycle)
                done = curCycle + 1;
            scheduleCompletion(cand.tid, cand.slot, e.seq, done);
            --budget;
            break;
          }
        }
    }

    // Rebuild ready lists: drop entries that issued.
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        ThreadState &ts = threads[t];
        auto keep = ts.readyList.begin();
        for (std::uint32_t slot : ts.readyList) {
            Entry &e = ts.ring[slot];
            if (e.valid && e.state == EntryState::Ready)
                *keep++ = slot;
        }
        ts.readyList.erase(keep, ts.readyList.end());
    }
}

void
SmtCore::completeEntry(ThreadId tid, std::uint32_t slot)
{
    ThreadState &ts = threads[tid];
    Entry &e = ts.ring[slot];
    e.state = EntryState::Done;

    // Wake register consumers.
    for (const Consumer &c : e.consumers) {
        Entry &dep = ts.ring[c.slot];
        if (dep.valid && dep.seq == c.seq &&
            dep.state == EntryState::Waiting) {
            STRETCH_ASSERT(dep.waitCount > 0, "wait count underflow");
            if (--dep.waitCount == 0) {
                dep.state = EntryState::Ready;
                ts.readyList.push_back(c.slot);
            }
        }
    }
    e.consumers.clear();

    // Clear the producer mapping if this entry is still the last writer.
    if (e.op.dest != noReg && e.op.dest >= 8 &&
        ts.regSeq[e.op.dest] == e.seq) {
        ts.regSeq[e.op.dest] = 0;
    }

    // Resolved mispredicted branch: redirect fetch after the flush penalty.
    if (e.mispredicted) {
        ts.fetchBlockedUntil = curCycle + params.flushPenalty;
        ts.waitingBranch = false;
        ts.blockReason = FetchBlock::BranchResolve;
    }
}

void
SmtCore::doCompletions()
{
    auto &bucket = evRing[curCycle % evRingSize];
    for (const Event &ev : bucket) {
        ThreadState &ts = threads[ev.tid];
        Entry &e = ts.ring[ev.slot];
        if (e.valid && e.seq == ev.seq && e.state == EntryState::Issued)
            completeEntry(ev.tid, ev.slot);
    }
    bucket.clear();
}

void
SmtCore::doCommit()
{
    unsigned budget = params.commitWidth;
    ThreadId first = commitRr;
    commitRr = ThreadId(1) - commitRr;

    for (ThreadId t : {first, ThreadId(1 - first)}) {
        ThreadState &ts = threads[t];
        while (budget > 0 && ts.count > 0) {
            Entry &e = ts.ring[ts.head];
            if (!e.valid || e.state != EntryState::Done)
                break;
            if (e.op.isMem())
                lsqRes.release(t);
            robRes.release(t);
            ++tstats[t].committedOps;
            if (e.op.cls == OpClass::Load)
                ++tstats[t].loads;
            else if (e.op.cls == OpClass::Store)
                ++tstats[t].stores;
            e.valid = false;
            ts.head = (ts.head + 1) % params.robEntries;
            --ts.count;
            --budget;
        }
    }
}

void
SmtCore::accountCycle()
{
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        ThreadState &ts = threads[t];
        tstats[t].robOccupancySum += robRes.usage(t);
        unsigned mlp = mem.outstandingDemandMisses(t);
        if (mlp > 8)
            mlp = 8;
        ++tstats[t].mlpCycles[mlp];
        // Front-end stall attribution.
        if (ts.waitingBranch) {
            ++tstats[t].fetchStallBranchResolve;
        } else if (curCycle < ts.fetchBlockedUntil) {
            switch (ts.blockReason) {
              case FetchBlock::ICache:
                ++tstats[t].fetchStallICache;
                break;
              case FetchBlock::BranchResolve:
                ++tstats[t].fetchStallBranchResolve;
                break;
              case FetchBlock::BtbRedirect:
                ++tstats[t].fetchStallBtbRedirect;
                break;
              case FetchBlock::None:
                break;
            }
        }
    }
}

void
SmtCore::cycle()
{
    mem.tick(curCycle);
    doCompletions();
    doCommit();
    doIssue();
    doDispatch();
    doFetch();
    accountCycle();
    ++curCycle;
}

void
SmtCore::run(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        cycle();
}

std::uint64_t
SmtCore::runUntilCommitted(ThreadId tid, std::uint64_t ops,
                           std::uint64_t max_cycles)
{
    std::uint64_t target = tstats[tid].committedOps + ops;
    Cycle start = curCycle;
    std::uint64_t last_progress_cycle = curCycle;
    std::uint64_t last_committed = tstats[tid].committedOps;
    while (tstats[tid].committedOps < target) {
        cycle();
        if (tstats[tid].committedOps != last_committed) {
            last_committed = tstats[tid].committedOps;
            last_progress_cycle = curCycle;
        }
        STRETCH_ASSERT(curCycle - last_progress_cycle < 100000,
                       "no commit progress on thread ", unsigned(tid),
                       " for 100K cycles: pipeline deadlock");
        if (curCycle - start >= max_cycles)
            break;
    }
    return curCycle - start;
}

std::uint64_t
SmtCore::runUntilTotalCommitted(std::uint64_t ops, std::uint64_t max_cycles)
{
    std::uint64_t target = tstats[0].committedOps + tstats[1].committedOps +
                           ops;
    Cycle start = curCycle;
    std::uint64_t last_progress_cycle = curCycle;
    std::uint64_t committed = target - ops;
    while (tstats[0].committedOps + tstats[1].committedOps < target) {
        cycle();
        std::uint64_t c = tstats[0].committedOps + tstats[1].committedOps;
        if (c != committed) {
            committed = c;
            last_progress_cycle = curCycle;
        }
        STRETCH_ASSERT(curCycle - last_progress_cycle < 100000,
                       "no commit progress for 100K cycles: deadlock");
        if (curCycle - start >= max_cycles)
            break;
    }
    return curCycle - start;
}

double
SmtCore::uipc(ThreadId tid) const
{
    Cycle cycles = windowCycles();
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(tstats[tid].committedOps) /
           static_cast<double>(cycles);
}

void
SmtCore::clearStats()
{
    for (auto &s : tstats)
        s = ThreadStats{};
    statsStartCycle = curCycle;
}

} // namespace stretch
