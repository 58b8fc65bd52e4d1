/**
 * @file
 * Cycle-level dual-threaded SMT out-of-order core model.
 *
 * Models the Table II core: 6-wide fetch/decode/dispatch/commit, ICOUNT
 * thread selection in the front-end, a 192-entry ROB and 64-entry LSQ with
 * per-thread limit/usage partition registers (the Stretch mechanism),
 * functional-unit pools (4 int ALU, 2 int mul, 3 FPU, 2 LSU), round-robin
 * commit selection, and a 12-cycle branch-mispredict flush penalty.
 *
 * The partition limits are programmed once, before the first cycle: a
 * Stretch mode is a fixed configuration of a run (`sim::robSetupFor`),
 * so the model never switches modes or squashes on a live core.
 *
 * The model is trace-driven: branch wrong paths are approximated by
 * stopping a thread's fetch at a mispredicted branch until it resolves and
 * then charging the flush penalty — the standard trace-driven treatment.
 * Everything the paper studies (window occupancy, partitioning, fetch
 * policy, cache/BP contention) is modeled cycle by cycle.
 *
 * Issue is oldest first across both threads, within the issue width and
 * the functional-unit pools. Each thread keeps a ready set, one bit per
 * ROB slot. A thread's ROB ring holds its ops in age order from the
 * head, so issue walks each set from its head and merges the two walks
 * on the global sequence number. A load or store that gets MshrFull
 * stays ready and retries every cycle; while the hierarchy's MSHR epoch
 * is unchanged it retries through MemoryHierarchy::repeatMshrFull.
 *
 * run() and the runUntil*() loops jump over idle cycles: cycles in which
 * no fill or completion is due, no head entry has completed, every ready
 * op repeats MshrFull, dispatch is blocked and fetch is stalled. They
 * apply those cycles' counters in one step, so every statistic equals
 * stepping cycle() one cycle at a time.
 */

#ifndef STRETCH_CORE_SMT_CORE_H
#define STRETCH_CORE_SMT_CORE_H

#include <array>
#include <cstdint>
#include <vector>

#include "bp/branch_unit.h"
#include "cache/memory_hierarchy.h"
#include "core/partition.h"
#include "util/types.h"
#include "workload/generator.h"
#include "workload/op.h"

namespace stretch
{

/** Front-end thread-selection policy. */
enum class FetchPolicy
{
    Icount,     ///< fewest in-flight instructions first (Tullsen et al.)
    RoundRobin, ///< strict alternation
    Throttle,   ///< fixed 1:M fetch-cycle ratio (Section VI-B comparison)
};

/** Static core parameters (defaults mirror Table II). */
struct CoreParams
{
    unsigned fetchWidth = 6;
    unsigned fetchMaxBlocks = 2;   ///< cache blocks per fetch group
    unsigned fetchMaxBranches = 1; ///< branches per fetch group
    unsigned dispatchWidth = 6;
    unsigned issueWidth = 6;
    unsigned commitWidth = 6;

    unsigned robEntries = 192;
    unsigned lsqEntries = 64;
    unsigned fetchBufferEntries = 16; ///< per-thread fetch queue

    unsigned intAluCount = 4;
    unsigned intMulCount = 2;
    unsigned fpuCount = 3;
    unsigned lsuCount = 2;

    unsigned intAluLatency = 1;
    unsigned intMulLatency = 3;
    unsigned fpuLatency = 4;
    unsigned branchLatency = 1;

    unsigned flushPenalty = 12;   ///< fetch redirect after a mispredict
    unsigned btbMissPenalty = 5;  ///< decode-stage redirect for taken
                                  ///< branches with correct direction but
                                  ///< no BTB-supplied target

    FetchPolicy fetchPolicy = FetchPolicy::Icount;
    /** Throttle policy: throttled thread gets 1 slot in (1 + ratio). */
    unsigned throttleRatio = 1;
    ThreadId throttledThread = 0;
};

/** Per-thread performance counters over a measurement window. */
struct ThreadStats
{
    std::uint64_t committedOps = 0;
    std::uint64_t fetchedOps = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t btbTargetMisses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t dispatchStallRob = 0; ///< dispatch blocked: ROB limit
    std::uint64_t dispatchStallLsq = 0; ///< dispatch blocked: LSQ limit
    std::uint64_t robOccupancySum = 0;  ///< per-cycle sum for averaging
    /** Cycles with exactly n outstanding demand misses (n clamped to 8). */
    std::array<std::uint64_t, 9> mlpCycles{};
    /// @name Front-end stall accounting (cycles, by cause).
    /// @{
    std::uint64_t fetchStallICache = 0;
    std::uint64_t fetchStallBranchResolve = 0; ///< waiting + flush penalty
    std::uint64_t fetchStallBtbRedirect = 0;
    /// @}
};

/**
 * The SMT core. Attach one TraceGenerator per hardware thread (or just
 * thread 0 for isolated single-thread runs), then step cycles.
 */
class SmtCore
{
  public:
    SmtCore(const CoreParams &params, MemoryHierarchy &hierarchy,
            BranchUnit &branch_unit);

    /** Bind a workload stream to a hardware thread (nullptr detaches). */
    void attachThread(ThreadId tid, TraceGenerator *gen);

    /// @name Partition control (the Stretch software interface).
    /// @{
    /** Program the ROB partition; takes effect immediately. */
    void configureRob(ShareMode mode, unsigned limit0, unsigned limit1);
    /** Program the LSQ partition. */
    void configureLsq(ShareMode mode, unsigned limit0, unsigned limit1);
    /** ROB resource (for inspection/tests). */
    const PartitionedResource &rob() const { return robRes; }
    /** LSQ resource (for inspection/tests). */
    const PartitionedResource &lsq() const { return lsqRes; }
    /// @}

    /** Advance one cycle. */
    void cycle();

    /** Advance @p n cycles. */
    void run(std::uint64_t n);

    /**
     * Run until the given thread has committed @p ops more instructions.
     * @return cycles elapsed. Panics after @p max_cycles without progress.
     */
    std::uint64_t runUntilCommitted(ThreadId tid, std::uint64_t ops,
                                    std::uint64_t max_cycles = ~0ull);

    /**
     * Run until combined commits across both threads reach @p ops more.
     * @return cycles elapsed.
     */
    std::uint64_t runUntilTotalCommitted(std::uint64_t ops,
                                         std::uint64_t max_cycles = ~0ull);

    /** Absolute cycle count since construction. */
    Cycle now() const { return curCycle; }

    /** Cycles elapsed in the current measurement window. */
    Cycle windowCycles() const { return curCycle - statsStartCycle; }

    /** Stats of a thread for the current measurement window. */
    const ThreadStats &stats(ThreadId tid) const { return tstats[tid]; }

    /** Committed user instructions per cycle for a thread, this window. */
    double uipc(ThreadId tid) const;

    /** Start a fresh measurement window (end of warmup). */
    void clearStats();

    /** ROB occupancy of a thread right now (usage register value). */
    unsigned robOccupancy(ThreadId tid) const { return robRes.usage(tid); }

  private:
    /** In-flight instruction state; Free marks an empty ROB slot. */
    enum class EntryState : std::uint8_t
    {
        Free,
        Waiting,
        Ready,
        Issued,
        Done,
    };

    /** End of an intrusive list. */
    static constexpr std::uint32_t noLink = ~std::uint32_t(0);

    /**
     * ROB entry: the fields issue, completion and commit read. Two kinds
     * of intrusive list run through entries:
     * - a producer's consumers: a link is the consumer's slot << 1 | the
     *   source (0 or 1) that waits, and the consumer holds the next link
     *   of that source's list in nextDep;
     * - the completions due in one cycle: a link is slot << 1 | thread,
     *   and the issued entry holds the next link in nextEvent.
     */
    struct Entry
    {
        std::uint64_t seq = 0;
        Addr pc = 0;
        Addr effAddr = 0;
        /** Hierarchy mshrEpoch() when this access last got MshrFull
         *  (0 = never). */
        std::uint64_t mshrFullEpoch = 0;
        std::uint32_t firstDep = noLink;
        std::array<std::uint32_t, 2> nextDep{noLink, noLink};
        std::uint32_t nextEvent = noLink;
        OpClass cls = OpClass::IntAlu;
        std::uint8_t dest = noReg;
        EntryState state = EntryState::Free;
        std::uint8_t waitCount = 0;
        bool mispredicted = false; ///< resolves with a full flush penalty
    };

    /** A fetched op: what dispatch reads. */
    struct FetchedOp
    {
        Addr pc = 0;
        Addr effAddr = 0;
        OpClass cls = OpClass::IntAlu;
        std::uint8_t dest = noReg;
        std::uint8_t src1 = noReg;
        std::uint8_t src2 = noReg;
        bool mispredicted = false;
    };

    /** Why a thread's fetch is currently blocked (for stall accounting). */
    enum class FetchBlock : std::uint8_t
    {
        None,
        ICache,
        BranchResolve,
        BtbRedirect,
    };

    struct ThreadState
    {
        TraceGenerator *gen = nullptr;
        FetchBlock blockReason = FetchBlock::None;
        /** Op taken from the stream but not yet fetched (points into gen,
         *  valid until its next next()); nullptr if none. */
        const MicroOp *pending = nullptr;

        // Fetch queue: a ring of fetchBufferEntries ops.
        std::vector<FetchedOp> fetchQ;
        std::uint32_t fetchHead = 0;
        std::uint32_t fetchCount = 0;
        Cycle fetchBlockedUntil = 0;
        bool waitingBranch = false; ///< mispredict in flight; fetch stopped

        // Circular ROB storage (capacity = robEntries).
        std::vector<Entry> ring;
        std::uint32_t head = 0; ///< oldest entry slot
        std::uint32_t count = 0;

        // Architectural register producer map: seq/slot of last in-flight
        // writer (seq 0 = register value ready).
        std::array<std::uint64_t, numArchRegs> regSeq{};
        std::array<std::uint32_t, numArchRegs> regSlot{};

        /** Ready set: bit s is set iff ring[s] is Ready. */
        std::vector<std::uint64_t> ready;
    };

    // Pipeline stages (called oldest-to-youngest each cycle).
    void doCommit();
    void doCompletions();
    void doIssue();
    void doDispatch();
    void doFetch();
    /** Per-cycle occupancy and stall counters, for @p n cycles alike. */
    void accountCycles(std::uint64_t n);

    /**
     * Jump over the idle cycles from now up to @p limit: cycles in which
     * no stage can do more than bump its per-cycle counters. Applies
     * those counters for every cycle skipped, exactly as cycle() would.
     */
    void skipIdle(Cycle limit);

    void fetchThread(ThreadId tid, unsigned &budget);
    void dispatchThread(ThreadId tid, unsigned &budget);
    unsigned icount(ThreadId tid) const;
    ThreadId fetchPrimary();

    void scheduleCompletion(ThreadId tid, std::uint32_t slot, Cycle when);
    void completeEntry(ThreadState &ts, std::uint32_t slot);

    std::uint32_t
    slotIndex(const ThreadState &ts, std::uint32_t nth) const
    {
        std::uint32_t slot = ts.head + nth;
        return slot >= params.robEntries ? slot - params.robEntries : slot;
    }

    /** Offset from the head of the first Ready entry at offset @p nth or
     *  later; ts.count if there is none. */
    std::uint32_t nextReady(const ThreadState &ts, std::uint32_t nth) const;

    static void
    setReady(ThreadState &ts, std::uint32_t slot)
    {
        ts.ready[slot >> 6] |= std::uint64_t(1) << (slot & 63);
    }

    static void
    clearReady(ThreadState &ts, std::uint32_t slot)
    {
        ts.ready[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    }

    CoreParams params;
    MemoryHierarchy &mem;
    BranchUnit &bp;

    PartitionedResource robRes;
    PartitionedResource lsqRes;

    std::array<ThreadState, numSmtThreads> threads;
    std::array<ThreadStats, numSmtThreads> tstats;

    Cycle curCycle = 0;
    Cycle statsStartCycle = 0;
    std::uint64_t seqCounter = 1; ///< global age order across threads
    ThreadId commitRr = 0;
    ThreadId fetchRr = 0;

    // Completion-event ring: the head of each cycle's completion list,
    // indexed by cycle modulo its size.
    static constexpr std::size_t evRingSize = 1024;
    std::array<std::uint32_t, evRingSize> evRing;
};

} // namespace stretch

#endif // STRETCH_CORE_SMT_CORE_H
