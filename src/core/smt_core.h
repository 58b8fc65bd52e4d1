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
 */

#ifndef STRETCH_CORE_SMT_CORE_H
#define STRETCH_CORE_SMT_CORE_H

#include <array>
#include <cstdint>
#include <deque>
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
    /** In-flight instruction state. */
    enum class EntryState : std::uint8_t { Waiting, Ready, Issued, Done };

    /** Consumer record; the seq guards against slot reuse. */
    struct Consumer
    {
        std::uint32_t slot;
        std::uint64_t seq;
    };

    struct Entry
    {
        MicroOp op;
        std::uint64_t seq = 0;
        EntryState state = EntryState::Waiting;
        std::uint8_t waitCount = 0;
        bool valid = false;
        bool mispredicted = false; ///< resolves with a full flush penalty
        std::vector<Consumer> consumers; ///< dependents (same thread)
    };

    struct FetchedOp
    {
        MicroOp op;
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
        bool pendingValid = false;
        MicroOp pending; ///< op fetched from the stream but not yet consumed

        std::deque<FetchedOp> fetchBuf;
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

        std::vector<std::uint32_t> readyList; ///< slots ready to issue
    };

    struct Event
    {
        ThreadId tid;
        std::uint32_t slot;
        std::uint64_t seq;
    };

    // Pipeline stages (called oldest-to-youngest each cycle).
    void doCommit();
    void doCompletions();
    void doIssue();
    void doDispatch();
    void doFetch();
    void accountCycle();

    void fetchThread(ThreadId tid, unsigned &budget);
    void dispatchThread(ThreadId tid, unsigned &budget);
    unsigned icount(ThreadId tid) const;
    ThreadId fetchPrimary();

    void scheduleCompletion(ThreadId tid, std::uint32_t slot,
                            std::uint64_t seq, Cycle when);
    void completeEntry(ThreadId tid, std::uint32_t slot);

    std::uint32_t slotIndex(const ThreadState &ts, std::uint32_t nth) const
    {
        return (ts.head + nth) % params.robEntries;
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

    // Completion-event ring, indexed by cycle modulo its size.
    static constexpr std::size_t evRingSize = 1024;
    std::array<std::vector<Event>, evRingSize> evRing;

    /** Issue candidate collected from the per-thread ready lists. */
    struct IssueCand
    {
        std::uint64_t seq;
        ThreadId tid;
        std::uint32_t slot;
    };
    std::vector<IssueCand> issueScratch;
};

} // namespace stretch

#endif // STRETCH_CORE_SMT_CORE_H
