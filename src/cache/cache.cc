#include "cache/cache.h"

#include <algorithm>

#include "util/log.h"

namespace stretch
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &cfg) : cfg(cfg)
{
    STRETCH_ASSERT(cfg.assoc > 0, "associativity must be positive");
    STRETCH_ASSERT(isPow2(cfg.banks), "bank count must be a power of two");
    std::uint64_t blocks = cfg.sizeBytes / cacheBlockBytes;
    STRETCH_ASSERT(blocks % cfg.assoc == 0, "size/assoc mismatch");
    sets = blocks / cfg.assoc;
    STRETCH_ASSERT(isPow2(sets), "set count must be a power of two");
    if (!cfg.wayPartition.empty()) {
        STRETCH_ASSERT(cfg.wayPartition.size() == numSmtThreads,
                       "way partition needs one entry per thread");
        unsigned total = 0;
        for (unsigned w : cfg.wayPartition)
            total += w;
        STRETCH_ASSERT(total <= cfg.assoc, "way partition exceeds assoc");
    }
    lines.resize(sets * 2 * cfg.assoc);
    reset();
}

void
Cache::threadWays(ThreadId tid, unsigned &first, unsigned &count) const
{
    if (cfg.wayPartition.empty()) {
        first = 0;
        count = cfg.assoc;
        return;
    }
    first = 0;
    for (ThreadId t = 0; t < tid; ++t)
        first += cfg.wayPartition[t];
    count = cfg.wayPartition[tid];
}

std::size_t
Cache::findWay(Addr addr) const
{
    Addr blk = blockAddr(addr);
    std::size_t row = rowOf(addr);
    for (std::size_t w = row; w < row + cfg.assoc; ++w) {
        if (lines[w] == blk)
            return w;
    }
    return noWay;
}

bool
Cache::access(ThreadId tid, Addr addr, bool dirty)
{
    std::size_t way = findWay(addr);
    if (way != noWay) {
        std::uint64_t &stamp = lines[way + cfg.assoc];
        stamp = ++useClock << 1 | (stamp & 1) | dirty;
        ++hitCount[tid];
        return true;
    }
    ++missCount[tid];
    return false;
}

bool
Cache::probe(Addr addr) const
{
    return findWay(addr) != noWay;
}

bool
Cache::insert(ThreadId tid, Addr addr, bool dirty, bool &evicted_dirty)
{
    evicted_dirty = false;

    // Already present (e.g. racing prefetch): refresh.
    std::size_t hit = findWay(addr);
    if (hit != noWay) {
        std::uint64_t &stamp = lines[hit + cfg.assoc];
        stamp = ++useClock << 1 | (stamp & 1) | dirty;
        return false;
    }

    unsigned first = 0, count = 0;
    threadWays(tid, first, count);
    STRETCH_ASSERT(count > 0, "thread ", unsigned(tid),
                   " has zero ways in partition");

    // Victim: the first empty way, otherwise the least recently used.
    std::size_t begin = rowOf(addr) + first;
    const std::uint64_t *stamps = &lines[cfg.assoc];
    std::size_t victim = begin;
    for (std::size_t w = begin; w < begin + count; ++w) {
        if (lines[w] == emptyTag) {
            victim = w;
            break;
        }
        if (stamps[w] < stamps[victim])
            victim = w;
    }
    std::uint64_t &stamp = lines[victim + cfg.assoc];
    bool evicted = lines[victim] != emptyTag;
    evicted_dirty = evicted && (stamp & 1);
    lines[victim] = blockAddr(addr);
    stamp = ++useClock << 1 | dirty;
    return evicted;
}

void
Cache::setDirty(Addr addr)
{
    std::size_t way = findWay(addr);
    if (way != noWay)
        lines[way + cfg.assoc] |= 1;
}

void
Cache::reset()
{
    for (std::size_t row = 0; row < lines.size(); row += 2 * cfg.assoc) {
        std::fill_n(&lines[row], cfg.assoc, emptyTag);
        std::fill_n(&lines[row + cfg.assoc], cfg.assoc, 0);
    }
    useClock = 0;
    for (auto &h : hitCount)
        h = 0;
    for (auto &m : missCount)
        m = 0;
}

} // namespace stretch
