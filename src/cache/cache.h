/**
 * @file
 * Set-associative cache tag array with LRU replacement and optional
 * way-partitioning.
 *
 * Used for the L1-I, L1-D and the LLC. Way-partitioning implements the
 * paper's LLC setup (Section V-A): capacity is split between the two
 * hardware threads in the style of Intel Cache Allocation Technology so
 * that LLC contention does not pollute the core-level studies.
 */

#ifndef STRETCH_CACHE_CACHE_H
#define STRETCH_CACHE_CACHE_H

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace stretch
{

/** Geometry and behaviour of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 8;
    unsigned banks = 2;
    /**
     * Way-partition per thread; empty = fully shared. Two entries give the
     * number of ways usable by threads 0 and 1 (must sum to <= assoc).
     */
    std::vector<unsigned> wayPartition;
};

/**
 * Tag array + replacement state. Timing (latencies, MSHRs, banking
 * arbitration) lives in MemoryHierarchy; this class answers hit/miss and
 * manages victims.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up a block; on hit, updates LRU.
     * @param tid requesting thread (relevant when way-partitioned).
     * @param dirty on hit, also mark the block dirty (store hit).
     * @return true on hit.
     */
    bool access(ThreadId tid, Addr addr, bool dirty = false);

    /**
     * Count @p n misses for @p tid without a lookup: the caller knows the
     * block is still absent because nothing was installed since its last
     * miss.
     */
    void countMiss(ThreadId tid, std::uint64_t n = 1) { missCount[tid] += n; }

    /** Hit test without disturbing replacement state. */
    bool probe(Addr addr) const;

    /**
     * Install a block, evicting within the thread's way-partition.
     * @param dirty marks the installed block dirty (store fill).
     * @param evicted_dirty set true if a dirty victim was evicted.
     * @return true if a valid block was evicted.
     */
    bool insert(ThreadId tid, Addr addr, bool dirty, bool &evicted_dirty);

    /** Mark an existing block dirty (store hit); no-op on miss. */
    void setDirty(Addr addr);

    /** Bank index of a block (block-address interleaved). */
    unsigned bank(Addr addr) const { return blockAddr(addr) & (cfg.banks - 1); }

    /** Invalidate everything. */
    void reset();

    /** Zero hit/miss counters without touching cached state. */
    void
    clearStats()
    {
        for (auto &h : hitCount)
            h = 0;
        for (auto &m : missCount)
            m = 0;
    }

    /** Number of sets. */
    std::uint64_t numSets() const { return sets; }

    /** Configured geometry. */
    const CacheConfig &config() const { return cfg; }

    /// @name Statistics
    /// @{
    std::uint64_t hits(ThreadId tid) const { return hitCount[tid]; }
    std::uint64_t misses(ThreadId tid) const { return missCount[tid]; }
    /// @}

  private:
    /** Tag of an empty way; no block address (addr >> 6) reaches it. */
    static constexpr Addr emptyTag = ~Addr(0);
    /** Way index meaning "not present". */
    static constexpr std::size_t noWay = ~std::size_t(0);

    /** Ways reserved for a thread: [firstWay, firstWay+numWays). */
    void threadWays(ThreadId tid, unsigned &first, unsigned &count) const;

    /** Index in lines of the first tag of @p addr's set. */
    std::size_t
    rowOf(Addr addr) const
    {
        return (blockAddr(addr) & (sets - 1)) * 2 * cfg.assoc;
    }

    /** Index in lines of the tag holding @p addr's block, or noWay. */
    std::size_t findWay(Addr addr) const;

    CacheConfig cfg;
    std::uint64_t sets;
    /**
     * Row-major by set: assoc tags, then assoc stamps; the stamp of the
     * way whose tag is at i sits at i + assoc. A stamp is
     * lastUse << 1 | dirty. lastUse values are unique, so the least stamp
     * is the least recently used way.
     */
    std::vector<std::uint64_t> lines;
    std::uint64_t useClock = 0;
    std::uint64_t hitCount[numSmtThreads] = {0, 0};
    std::uint64_t missCount[numSmtThreads] = {0, 0};
};

} // namespace stretch

#endif // STRETCH_CACHE_CACHE_H
