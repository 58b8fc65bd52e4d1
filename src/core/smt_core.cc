#include "core/smt_core.h"

#include <algorithm>

#include "util/log.h"

namespace stretch
{

namespace
{

/** Cycle at which a run from @p start stops for its @p max_cycles cap.
 *  A run takes at least one cycle. */
Cycle
stopCycle(Cycle start, std::uint64_t max_cycles)
{
    max_cycles = std::max<std::uint64_t>(max_cycles, 1);
    return max_cycles < ~Cycle(0) - start ? start + max_cycles : ~Cycle(0);
}

} // namespace

SmtCore::SmtCore(const CoreParams &params, MemoryHierarchy &hierarchy,
                 BranchUnit &branch_unit)
    : params(params), mem(hierarchy), bp(branch_unit),
      robRes("ROB", params.robEntries), lsqRes("LSQ", params.lsqEntries)
{
    STRETCH_ASSERT(params.fetchWidth > 0 && params.commitWidth > 0 &&
                       params.dispatchWidth > 0 && params.issueWidth > 0,
                   "zero pipeline width");
    evRing.fill(noLink);
    for (auto &ts : threads) {
        ts.fetchQ.resize(params.fetchBufferEntries);
        ts.ring.resize(params.robEntries);
        ts.ready.assign((params.robEntries + 63) / 64, 0);
    }
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
    STRETCH_ASSERT(threads[tid].count == 0 && threads[tid].fetchCount == 0,
                   "attachThread with instructions in flight");
    threads[tid].gen = gen;
    threads[tid].pending = nullptr;
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
    if (!ts.gen && ts.count == 0 && ts.fetchCount == 0)
        return ~0u; // detached thread never wins selection
    return ts.fetchCount + robRes.usage(tid);
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
    if (!ts.gen && !ts.pending)
        return;
    if (curCycle < ts.fetchBlockedUntil || ts.waitingBranch)
        return;

    unsigned blocks_touched = 0;
    unsigned branches_seen = 0;
    Addr last_block = ~Addr(0);

    while (budget > 0 && ts.fetchCount < params.fetchBufferEntries) {
        if (!ts.pending) {
            if (!ts.gen)
                break;
            ts.pending = &ts.gen->next();
        }
        const MicroOp &op = *ts.pending;

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

        bool mispredicted = false;
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
                mispredicted = true;
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

        std::uint32_t tail = ts.fetchHead + ts.fetchCount;
        if (tail >= params.fetchBufferEntries)
            tail -= params.fetchBufferEntries;
        ts.fetchQ[tail] = {op.pc,   op.effAddr, op.cls,      op.dest,
                           op.src1, op.src2,    mispredicted};
        ++ts.fetchCount;
        ts.pending = nullptr;
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
    while (budget > 0 && ts.fetchCount > 0) {
        const FetchedOp &fo = ts.fetchQ[ts.fetchHead];
        bool is_mem = fo.cls == OpClass::Load || fo.cls == OpClass::Store;
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
        STRETCH_ASSERT(e.state == EntryState::Free, "ROB ring overwrite");
        e.seq = seqCounter++;
        e.pc = fo.pc;
        e.effAddr = fo.effAddr;
        e.mshrFullEpoch = 0;
        e.firstDep = noLink;
        e.cls = fo.cls;
        e.dest = fo.dest;
        e.state = EntryState::Waiting;
        e.waitCount = 0;
        e.mispredicted = fo.mispredicted;
        ++ts.count;
        robRes.allocate(tid);
        if (is_mem)
            lsqRes.allocate(tid);

        // Register the entry with its producers (RAW dependences). Base
        // registers (< 8) are always ready. A register with a producer
        // seq has an in-flight writer that has not completed: completion
        // clears the seq, and nothing leaves the ROB before completing.
        auto addDep = [&](unsigned src, std::uint8_t r) {
            if (r == noReg || r < 8)
                return;
            std::uint64_t pseq = ts.regSeq[r];
            if (pseq == 0)
                return;
            Entry &p = ts.ring[ts.regSlot[r]];
            STRETCH_ASSERT(p.seq == pseq && p.state != EntryState::Free &&
                               p.state != EntryState::Done,
                           "register ", unsigned(r),
                           " maps to a stale producer");
            e.nextDep[src] = p.firstDep;
            p.firstDep = slot << 1 | src;
            ++e.waitCount;
        };
        addDep(0, fo.src1);
        addDep(1, fo.src2);

        if (e.dest != noReg && e.dest >= 8) {
            ts.regSeq[e.dest] = e.seq;
            ts.regSlot[e.dest] = slot;
        }

        if (e.waitCount == 0) {
            e.state = EntryState::Ready;
            setReady(ts, slot);
        }

        if (++ts.fetchHead == params.fetchBufferEntries)
            ts.fetchHead = 0;
        --ts.fetchCount;
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
SmtCore::scheduleCompletion(ThreadId tid, std::uint32_t slot, Cycle when)
{
    STRETCH_ASSERT(when > curCycle, "completion must be in the future");
    STRETCH_ASSERT(when - curCycle < evRingSize,
                   "completion beyond event-ring horizon");
    std::uint32_t &head = evRing[when % evRingSize];
    threads[tid].ring[slot].nextEvent = head;
    head = slot << 1 | tid;
}

std::uint32_t
SmtCore::nextReady(const ThreadState &ts, std::uint32_t nth) const
{
    while (nth < ts.count) {
        std::uint32_t slot = slotIndex(ts, nth);
        std::uint32_t bit = slot & 63;
        std::uint64_t word = ts.ready[slot >> 6] >> bit;
        // A set bit past the youngest entry can only be an older entry
        // seen again after the walk wrapped into the head's word.
        if (word)
            return std::min(nth + __builtin_ctzll(word), ts.count);
        nth += std::min(64 - bit, params.robEntries - slot);
    }
    return ts.count;
}

void
SmtCore::doIssue()
{
    unsigned budget = params.issueWidth;
    unsigned alu = params.intAluCount;
    unsigned mul = params.intMulCount;
    unsigned fpu = params.fpuCount;
    unsigned lsu = params.lsuCount;

    // Oldest first: walk each thread's ready set in ring order from its
    // head (age order within a thread) and merge the two walks on seq.
    // Issuing books only future completions, so no op turns Ready here.
    struct Cursor
    {
        std::uint32_t nth;
        std::uint32_t slot;
        std::uint64_t seq; ///< ~0 once the walk has passed the youngest
    };
    std::array<Cursor, numSmtThreads> cur;
    auto seek = [&](ThreadId t, std::uint32_t from) {
        const ThreadState &ts = threads[t];
        Cursor &c = cur[t];
        c.nth = nextReady(ts, from);
        c.slot = slotIndex(ts, c.nth);
        c.seq = c.nth < ts.count ? ts.ring[c.slot].seq : ~std::uint64_t(0);
    };
    seek(0, 0);
    seek(1, 0);
    while (budget > 0) {
        ThreadId tid = cur[1].seq < cur[0].seq ? 1 : 0;
        if (cur[tid].seq == ~std::uint64_t(0))
            break;
        ThreadState &ts = threads[tid];
        std::uint32_t slot = cur[tid].slot;
        seek(tid, cur[tid].nth + 1);
        Entry &e = ts.ring[slot];

        Cycle done = 0;
        switch (e.cls) {
          case OpClass::IntAlu:
          case OpClass::Branch:
            if (alu == 0)
                continue;
            --alu;
            done = curCycle + (e.cls == OpClass::Branch
                                   ? params.branchLatency
                                   : params.intAluLatency);
            break;
          case OpClass::IntMul:
            if (mul == 0)
                continue;
            --mul;
            done = curCycle + params.intMulLatency;
            break;
          case OpClass::FpAlu:
            if (fpu == 0)
                continue;
            --fpu;
            done = curCycle + params.fpuLatency;
            break;
          case OpClass::Load:
          case OpClass::Store: {
            if (lsu == 0)
                continue;
            bool is_store = e.cls == OpClass::Store;
            DataAccessResult res =
                e.mshrFullEpoch == mem.mshrEpoch(tid)
                    ? mem.repeatMshrFull(tid, e.effAddr, curCycle)
                    : mem.dataAccess(tid, e.pc, e.effAddr, is_store,
                                     curCycle);
            // Replay next cycle; stays in the ready set.
            if (res.kind == DataAccessKind::MshrFull) {
                e.mshrFullEpoch = mem.mshrEpoch(tid);
                continue;
            }
            if (res.kind == DataAccessKind::BankBusy)
                continue;
            --lsu;
            done = is_store ? curCycle + 1 : res.readyCycle;
            if (done <= curCycle)
                done = curCycle + 1;
            break;
          }
        }
        e.state = EntryState::Issued;
        clearReady(ts, slot);
        scheduleCompletion(tid, slot, done);
        --budget;
    }
}

void
SmtCore::completeEntry(ThreadState &ts, std::uint32_t slot)
{
    Entry &e = ts.ring[slot];
    e.state = EntryState::Done;

    // Wake register consumers. Each still waits: it is younger than this
    // entry, so it cannot have left the ROB.
    for (std::uint32_t dep = e.firstDep; dep != noLink;) {
        std::uint32_t cslot = dep >> 1;
        Entry &c = ts.ring[cslot];
        dep = c.nextDep[dep & 1];
        STRETCH_ASSERT(c.waitCount > 0, "wait count underflow");
        if (--c.waitCount == 0) {
            c.state = EntryState::Ready;
            setReady(ts, cslot);
        }
    }

    // Clear the producer mapping if this entry is still the last writer.
    if (e.dest != noReg && e.dest >= 8 && ts.regSeq[e.dest] == e.seq)
        ts.regSeq[e.dest] = 0;

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
    // Completions within a cycle commute, so list order does not matter.
    std::uint32_t &head = evRing[curCycle % evRingSize];
    for (std::uint32_t ev = head; ev != noLink;) {
        ThreadState &ts = threads[ev & 1];
        std::uint32_t slot = ev >> 1;
        ev = ts.ring[slot].nextEvent;
        STRETCH_ASSERT(ts.ring[slot].state == EntryState::Issued,
                       "completion event for an entry that is not issued");
        completeEntry(ts, slot);
    }
    head = noLink;
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
            if (e.state != EntryState::Done)
                break;
            if (e.cls == OpClass::Load || e.cls == OpClass::Store)
                lsqRes.release(t);
            robRes.release(t);
            ++tstats[t].committedOps;
            if (e.cls == OpClass::Load)
                ++tstats[t].loads;
            else if (e.cls == OpClass::Store)
                ++tstats[t].stores;
            e.state = EntryState::Free;
            if (++ts.head == params.robEntries)
                ts.head = 0;
            --ts.count;
            --budget;
        }
    }
}

void
SmtCore::accountCycles(std::uint64_t n)
{
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        ThreadState &ts = threads[t];
        tstats[t].robOccupancySum += n * robRes.usage(t);
        unsigned mlp = mem.outstandingDemandMisses(t);
        if (mlp > 8)
            mlp = 8;
        tstats[t].mlpCycles[mlp] += n;
        // Front-end stall attribution.
        if (ts.waitingBranch) {
            tstats[t].fetchStallBranchResolve += n;
        } else if (curCycle < ts.fetchBlockedUntil) {
            switch (ts.blockReason) {
              case FetchBlock::ICache:
                tstats[t].fetchStallICache += n;
                break;
              case FetchBlock::BranchResolve:
                tstats[t].fetchStallBranchResolve += n;
                break;
              case FetchBlock::BtbRedirect:
                tstats[t].fetchStallBtbRedirect += n;
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
    accountCycles(1);
    ++curCycle;
}

void
SmtCore::skipIdle(Cycle limit)
{
    // No completion and no fill this cycle.
    if (curCycle >= limit || evRing[curCycle % evRingSize] != noLink)
        return;
    Cycle wake = std::min(limit, mem.nextFillCycle());
    if (wake <= curCycle)
        return;

    std::array<std::uint64_t, numSmtThreads> repeats{};
    std::array<std::uint64_t *, numSmtThreads> dispatchStall{};
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        const ThreadState &ts = threads[t];
        // Commit: the oldest entry has not completed.
        if (ts.count > 0 && ts.ring[ts.head].state == EntryState::Done)
            return;
        // Issue: every ready op is a load or store that repeats MshrFull
        // (an op that never got MshrFull holds epoch 0, which no
        // hierarchy epoch takes). None can claim a bank, so each repeat
        // finds its bank free.
        std::uint64_t epoch = mem.mshrEpoch(t);
        for (std::uint32_t n = nextReady(ts, 0); n < ts.count;
             n = nextReady(ts, n + 1)) {
            if (ts.ring[slotIndex(ts, n)].mshrFullEpoch != epoch)
                return;
            if (params.lsuCount > 0)
                ++repeats[t];
        }
        // Dispatch: the op at the front of the fetch queue is blocked.
        if (ts.fetchCount > 0) {
            OpClass cls = ts.fetchQ[ts.fetchHead].cls;
            if (!robRes.canAllocate(t))
                dispatchStall[t] = &tstats[t].dispatchStallRob;
            else if ((cls == OpClass::Load || cls == OpClass::Store) &&
                     !lsqRes.canAllocate(t))
                dispatchStall[t] = &tstats[t].dispatchStallLsq;
            else
                return;
        }
        // Fetch: the thread is stalled. A fetch block also ends the
        // stall attribution, so it bounds the skip. A throttled thread
        // that could fetch waits for its next fetch slot.
        if (!ts.waitingBranch && curCycle < ts.fetchBlockedUntil) {
            wake = std::min(wake, ts.fetchBlockedUntil);
        } else if (!ts.waitingBranch && (ts.gen || ts.pending) &&
                   ts.fetchCount < params.fetchBufferEntries) {
            if (params.fetchPolicy != FetchPolicy::Throttle ||
                t != params.throttledThread)
                return;
            Cycle window = params.throttleRatio + 1;
            Cycle slot = curCycle + (window - curCycle % window) % window;
            wake = std::min(wake, slot);
        }
    }
    if (wake <= curCycle)
        return;
    // The next completion bounds the skip; every booked completion lies
    // within the event ring's horizon.
    Cycle horizon = std::min(wake, curCycle + evRingSize);
    for (Cycle c = curCycle + 1; c < horizon; ++c) {
        if (evRing[c % evRingSize] != noLink) {
            wake = c;
            break;
        }
    }

    Cycle n = wake - curCycle;
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        if (repeats[t] > 0)
            mem.countMshrFullRepeats(t, n * repeats[t]);
        if (dispatchStall[t])
            *dispatchStall[t] += n;
    }
    accountCycles(n);
    // Commit alternates its first thread every cycle; fetch alternates
    // under round-robin, and under ICOUNT when the counts tie.
    if (n % 2 == 1) {
        commitRr = ThreadId(1) - commitRr;
        if (params.fetchPolicy == FetchPolicy::RoundRobin ||
            (params.fetchPolicy == FetchPolicy::Icount &&
             icount(0) == icount(1)))
            fetchRr = ThreadId(1) - fetchRr;
    }
    curCycle = wake;
}

void
SmtCore::run(std::uint64_t n)
{
    Cycle end = curCycle + n;
    while (curCycle < end) {
        skipIdle(end);
        if (curCycle < end)
            cycle();
    }
}

std::uint64_t
SmtCore::runUntilCommitted(ThreadId tid, std::uint64_t ops,
                           std::uint64_t max_cycles)
{
    std::uint64_t target = tstats[tid].committedOps + ops;
    Cycle start = curCycle;
    Cycle end = stopCycle(start, max_cycles);
    std::uint64_t last_progress_cycle = curCycle;
    std::uint64_t last_committed = tstats[tid].committedOps;
    while (tstats[tid].committedOps < target) {
        skipIdle(end);
        if (curCycle < end)
            cycle();
        if (tstats[tid].committedOps != last_committed) {
            last_committed = tstats[tid].committedOps;
            last_progress_cycle = curCycle;
        }
        STRETCH_ASSERT(curCycle - last_progress_cycle < 100000,
                       "no commit progress on thread ", unsigned(tid),
                       " for 100K cycles: pipeline deadlock");
        if (curCycle >= end)
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
    Cycle end = stopCycle(start, max_cycles);
    std::uint64_t last_progress_cycle = curCycle;
    std::uint64_t committed = target - ops;
    while (tstats[0].committedOps + tstats[1].committedOps < target) {
        skipIdle(end);
        if (curCycle < end)
            cycle();
        std::uint64_t c = tstats[0].committedOps + tstats[1].committedOps;
        if (c != committed) {
            committed = c;
            last_progress_cycle = curCycle;
        }
        STRETCH_ASSERT(curCycle - last_progress_cycle < 100000,
                       "no commit progress for 100K cycles: deadlock");
        if (curCycle >= end)
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
