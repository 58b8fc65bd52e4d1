/**
 * @file
 * Memory hierarchy facade used by the SMT core model.
 *
 * Implements the Table II uncore: banked L1-I and L1-D (shared between
 * hardware threads or private per thread), an MSHR file with per-thread
 * quotas, a stride prefetcher, a way-partitioned NUCA LLC (28-cycle average
 * latency) and fixed-latency memory (75 ns). Bandwidth at the LLC/memory is
 * not modeled (fixed latency), matching the paper's focus on core-level
 * contention with a contention-free partitioned uncore.
 */

#ifndef STRETCH_CACHE_MEMORY_HIERARCHY_H
#define STRETCH_CACHE_MEMORY_HIERARCHY_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "cache/prefetcher.h"
#include "util/log.h"
#include "util/types.h"

namespace stretch
{

/** Hierarchy-wide configuration; defaults mirror Table II. */
struct HierarchyConfig
{
    CacheConfig l1i{64 * 1024, 8, 2, {}};
    CacheConfig l1d{64 * 1024, 8, 2, {}};
    /** Dynamically shared L1-I (false = full-size private per thread). */
    bool sharedL1i = true;
    /** Dynamically shared L1-D (false = full-size private per thread). */
    bool sharedL1d = true;

    unsigned l1dHitLatency = 3;
    unsigned llcLatency = 28;
    unsigned memLatency = 188; // 75 ns at 2.5 GHz

    std::uint64_t llcBytes = 8ull * 1024 * 1024;
    unsigned llcAssoc = 16;
    /**
     * LLC ways per thread (Intel CAT-style partitioning per Section V-A).
     * Empty = whole LLC for thread 0 (isolated runs).
     */
    std::vector<unsigned> llcWayPartition{8, 8};

    /** MSHRs per L1-D instance (Table II: 10). */
    unsigned mshrs = 10;
    /** Per-thread MSHR quota (Table II: 5 per thread when shared). */
    std::array<unsigned, numSmtThreads> mshrQuota{5, 5};

    /** Enable the stride prefetcher (Table II: tracks 32 PCs). */
    bool prefetchEnable = true;
    unsigned prefetchStreams = 32;
    unsigned prefetchDegree = 2;
};

/** Outcome kinds for a data-side access attempt. */
enum class DataAccessKind
{
    Hit,       ///< L1-D hit
    Miss,      ///< miss; MSHR allocated or merged, data at readyCycle
    MshrFull,  ///< no MSHR available; retry next cycle
    BankBusy,  ///< L1-D bank port conflict this cycle; retry next cycle
};

/** Result of a data-side access attempt. */
struct DataAccessResult
{
    DataAccessKind kind = DataAccessKind::Hit;
    /** Cycle when the loaded data is available to dependents. */
    Cycle readyCycle = 0;
};

/**
 * The memory system seen by the two hardware threads.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &cfg = {});

    /**
     * Advance internal state to @p now: complete due fills (install blocks,
     * free MSHRs) and reset per-cycle port arbitration. Call once per cycle
     * before any accesses for that cycle.
     */
    void
    tick(Cycle now)
    {
        if (bankCycle != now) {
            bankCycle = now;
            bankBusy = {0, 0};
        }
        if (now >= nextFill)
            completeFills(now);
    }

    /**
     * Instruction fetch of one cache block.
     * @return cycle when the block is available (== now on L1-I hit).
     */
    Cycle instrFetch(ThreadId tid, Addr pc, Cycle now);

    /**
     * Attempt a load/store access.
     *
     * Loads: a hit returns data at now + l1dHitLatency; a miss allocates or
     * merges into an MSHR and returns the fill cycle. Stores write-allocate
     * but complete into the store buffer immediately (the returned
     * readyCycle for stores is now + 1).
     */
    DataAccessResult dataAccess(ThreadId tid, Addr pc, Addr addr,
                                bool is_store, Cycle now);

    /**
     * MSHR epoch of the L1-D instance serving @p tid. It changes on every
     * fill and every MSHR allocation (demand or prefetch), the only events
     * that can turn an MshrFull access into anything else. Never 0.
     */
    std::uint64_t mshrEpoch(ThreadId tid) const
    {
        return epoch[l1dInstance(tid)];
    }

    /**
     * Repeat an access to @p addr that returned MshrFull while mshrEpoch()
     * read its current value: it gets MshrFull again, or BankBusy if its
     * bank is taken this cycle. Same result and counters as dataAccess,
     * without the tag walk or the MSHR scan.
     */
    DataAccessResult
    repeatMshrFull(ThreadId tid, Addr addr, Cycle now)
    {
        unsigned inst = l1dInstance(tid);
        STRETCH_ASSERT(bankCycle == now,
                       "tick() must run before accesses each cycle");
        if (bankBusy[inst] & bankBit(inst, addr))
            return {DataAccessKind::BankBusy, now + 1};
        l1d[inst].countMiss(tid);
        ++mshrFullCount[tid];
        return {DataAccessKind::MshrFull, now + 1};
    }

    /**
     * Pre-install a thread's steady-state blocks into its LLC partition
     * (stand-in for the long functional warming the paper's sampling
     * methodology performs).
     */
    void prefillLlc(ThreadId tid, const std::vector<Addr> &blocks);

    /** Outstanding demand loads to *memory* (LLC misses), the quantity
     *  Figure 7 calls concurrent memory requests in flight. */
    unsigned outstandingDemandMisses(ThreadId tid) const
    {
        return demandOut[tid];
    }

    /** Drop all cached state and in-flight requests. */
    void reset();

    /** Zero the statistics counters, keeping all cached state (used at the
     *  warmup/measurement boundary). */
    void clearStats();

    /**
     * Count @p n MshrFull results of repeatMshrFull for @p tid at once,
     * for accesses that found their bank free.
     */
    void
    countMshrFullRepeats(ThreadId tid, std::uint64_t n)
    {
        l1d[l1dInstance(tid)].countMiss(tid, n);
        mshrFullCount[tid] += n;
    }

    /** Earliest cycle at which tick() completes a fill; ~0 if none. */
    Cycle nextFillCycle() const { return nextFill; }

    /// @name Statistics
    /// @{
    /** Completed demand accesses that hit the L1-D (retries excluded). */
    std::uint64_t l1dHits(ThreadId tid) const { return l1dHitCount[tid]; }
    /** Demand accesses that entered the miss path (MSHR alloc or merge). */
    std::uint64_t l1dMisses(ThreadId tid) const { return l1dMissCount[tid]; }
    std::uint64_t l1iMisses(ThreadId tid) const;
    std::uint64_t llcHits(ThreadId tid) const { return llcHitCount[tid]; }
    std::uint64_t llcMisses(ThreadId tid) const { return llcMissCount[tid]; }
    std::uint64_t mshrFullStalls(ThreadId tid) const
    {
        return mshrFullCount[tid];
    }
    std::uint64_t prefetchesIssued() const { return prefetcher.issued(); }
    /// @}

    /** Configuration in force. */
    const HierarchyConfig &config() const { return cfg; }

  private:
    struct Mshr
    {
        Addr block = 0;
        Cycle readyCycle = 0;
        ThreadId tid = 0;
        bool valid = false;
        bool demand = false;   // at least one demand (non-prefetch) consumer
        bool toMemory = false; // missed the LLC (a true memory request)
    };

    Cache &l1iFor(ThreadId tid);
    unsigned l1dInstance(ThreadId tid) const
    {
        return cfg.sharedL1d ? 0 : tid;
    }

    /** LLC lookup + fill; returns total latency beyond L1. */
    unsigned llcAccess(ThreadId tid, Addr addr);

    /** Bank-port bit of @p addr in its L1-D instance's busy mask. */
    std::uint8_t
    bankBit(unsigned inst, Addr addr) const
    {
        return static_cast<std::uint8_t>(1u << l1d[inst].bank(addr));
    }

    /** Install every due fill, in MSHR-array order, and free its MSHR. */
    void completeFills(Cycle now);

    Mshr *findMshr(unsigned inst, Addr block);
    /** Claim the first free MSHR of @p inst for @p tid's miss on @p addr
     *  and look the block up in the LLC; nullptr if the file is full. */
    Mshr *allocateMshr(unsigned inst, ThreadId tid, Addr addr, bool demand,
                       Cycle now);
    void tryPrefetch(ThreadId tid, Addr pc, Addr addr, Cycle now);

    HierarchyConfig cfg;
    std::vector<Cache> l1i; // 1 (shared) or 2 (private)
    std::vector<Cache> l1d;
    Cache llc;
    StridePrefetcher prefetcher;

    // One MSHR file per L1-D instance, with its valid entries counted per
    // thread, its epoch (see mshrEpoch) and, over all files, the earliest
    // readyCycle of a valid entry (~0 when none).
    std::vector<std::vector<Mshr>> mshrFiles;
    std::array<std::array<unsigned, numSmtThreads>, 2> mshrUsed{};
    std::array<std::uint64_t, 2> epoch{1, 1};
    Cycle nextFill = ~Cycle(0);

    // Per-cycle bank arbitration for the (up to two) L1-D instances.
    Cycle bankCycle = ~Cycle(0);
    std::array<std::uint8_t, 2> bankBusy{0, 0}; // bitmask per instance

    std::uint64_t llcHitCount[numSmtThreads] = {0, 0};
    std::uint64_t llcMissCount[numSmtThreads] = {0, 0};
    std::uint64_t mshrFullCount[numSmtThreads] = {0, 0};
    std::uint64_t l1dHitCount[numSmtThreads] = {0, 0};
    std::uint64_t l1dMissCount[numSmtThreads] = {0, 0};
    std::array<unsigned, numSmtThreads> demandOut{0, 0};
    std::vector<Addr> prefetchScratch;
};

} // namespace stretch

#endif // STRETCH_CACHE_MEMORY_HIERARCHY_H
