#include "cache/memory_hierarchy.h"

#include <algorithm>

#include "util/log.h"

namespace stretch
{

namespace
{

CacheConfig
llcConfigFrom(const HierarchyConfig &cfg)
{
    CacheConfig c;
    c.sizeBytes = cfg.llcBytes;
    c.assoc = cfg.llcAssoc;
    c.banks = 1;
    if (!cfg.llcWayPartition.empty()) {
        c.wayPartition.assign(cfg.llcWayPartition.begin(),
                              cfg.llcWayPartition.end());
    }
    return c;
}

} // namespace

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg)
    : cfg(cfg), llc(llcConfigFrom(cfg)),
      prefetcher(cfg.prefetchStreams, cfg.prefetchDegree)
{
    unsigned icount = cfg.sharedL1i ? 1 : numSmtThreads;
    unsigned dcount = cfg.sharedL1d ? 1 : numSmtThreads;
    for (unsigned i = 0; i < icount; ++i)
        l1i.emplace_back(cfg.l1i);
    for (unsigned i = 0; i < dcount; ++i)
        l1d.emplace_back(cfg.l1d);
    mshrFiles.assign(dcount, std::vector<Mshr>(cfg.mshrs));
}

Cache &
MemoryHierarchy::l1iFor(ThreadId tid)
{
    return cfg.sharedL1i ? l1i[0] : l1i[tid];
}

void
MemoryHierarchy::completeFills(Cycle now)
{
    nextFill = ~Cycle(0);
    for (unsigned inst = 0; inst < mshrFiles.size(); ++inst) {
        for (auto &m : mshrFiles[inst]) {
            if (!m.valid)
                continue;
            if (m.readyCycle > now) {
                nextFill = std::min(nextFill, m.readyCycle);
                continue;
            }
            bool evicted_dirty = false;
            l1d[inst].insert(m.tid, m.block << cacheBlockShift, false,
                             evicted_dirty);
            // Dirty writeback timing is not modeled.
            if (m.demand && m.toMemory)
                --demandOut[m.tid];
            m.valid = false;
            --mshrUsed[inst][m.tid];
            ++epoch[inst];
        }
    }
}

unsigned
MemoryHierarchy::llcAccess(ThreadId tid, Addr addr)
{
    if (llc.access(tid, addr)) {
        ++llcHitCount[tid];
        return cfg.llcLatency;
    }
    ++llcMissCount[tid];
    bool evicted_dirty = false;
    llc.insert(tid, addr, false, evicted_dirty);
    return cfg.llcLatency + cfg.memLatency;
}

Cycle
MemoryHierarchy::instrFetch(ThreadId tid, Addr pc, Cycle now)
{
    Cache &cache = l1iFor(tid);
    if (cache.access(tid, pc))
        return now;
    unsigned lat = llcAccess(tid, pc);
    bool evicted_dirty = false;
    cache.insert(tid, pc, false, evicted_dirty);
    return now + lat;
}

MemoryHierarchy::Mshr *
MemoryHierarchy::findMshr(unsigned inst, Addr block)
{
    for (auto &m : mshrFiles[inst]) {
        if (m.valid && m.block == block)
            return &m;
    }
    return nullptr;
}

MemoryHierarchy::Mshr *
MemoryHierarchy::allocateMshr(unsigned inst, ThreadId tid, Addr addr,
                              bool demand, Cycle now)
{
    for (auto &m : mshrFiles[inst]) {
        if (m.valid)
            continue;
        m.valid = true;
        m.demand = demand;
        m.tid = tid;
        m.block = blockAddr(addr);
        unsigned lat = llcAccess(tid, addr);
        m.readyCycle = now + lat;
        m.toMemory = lat > cfg.llcLatency;
        ++mshrUsed[inst][tid];
        ++epoch[inst];
        nextFill = std::min(nextFill, m.readyCycle);
        return &m;
    }
    return nullptr;
}

void
MemoryHierarchy::tryPrefetch(ThreadId tid, Addr pc, Addr addr, Cycle now)
{
    if (!cfg.prefetchEnable)
        return;
    prefetchScratch.clear();
    prefetcher.observe(tid, pc, addr, prefetchScratch);
    unsigned inst = l1dInstance(tid);
    Cache &cache = l1d[inst];
    // Prefetches may not exhaust the thread's MSHR quota: two entries stay
    // reserved for demand misses so streams cannot starve random accesses.
    unsigned quota = cfg.mshrQuota[tid] > 2 ? cfg.mshrQuota[tid] - 2 : 0;
    for (Addr target : prefetchScratch) {
        if (cache.probe(target) || findMshr(inst, blockAddr(target)))
            continue;
        if (mshrUsed[inst][tid] >= quota ||
            !allocateMshr(inst, tid, target, false, now))
            break;
    }
}

DataAccessResult
MemoryHierarchy::dataAccess(ThreadId tid, Addr pc, Addr addr, bool is_store,
                            Cycle now)
{
    DataAccessResult res;
    unsigned inst = l1dInstance(tid);
    Cache &cache = l1d[inst];

    // Bank port arbitration: one access per bank per cycle.
    STRETCH_ASSERT(bankCycle == now,
                   "tick() must run before accesses each cycle");
    std::uint8_t mask = bankBit(inst, addr);
    if (bankBusy[inst] & mask) {
        res.kind = DataAccessKind::BankBusy;
        res.readyCycle = now + 1;
        return res;
    }

    if (cache.access(tid, addr, is_store)) {
        bankBusy[inst] |= mask;
        ++l1dHitCount[tid];
        res.kind = DataAccessKind::Hit;
        res.readyCycle = now + (is_store ? 1 : cfg.l1dHitLatency);
        tryPrefetch(tid, pc, addr, now);
        return res;
    }

    // Miss: merge into a pending MSHR if one covers this block.
    if (Mshr *m = findMshr(inst, blockAddr(addr))) {
        bankBusy[inst] |= mask;
        ++l1dMissCount[tid];
        if (!m->demand && !is_store) {
            m->demand = true;
            if (m->toMemory)
                ++demandOut[m->tid];
        }
        res.kind = DataAccessKind::Miss;
        res.readyCycle =
            is_store ? now + 1 : m->readyCycle + cfg.l1dHitLatency;
        tryPrefetch(tid, pc, addr, now);
        return res;
    }

    // Need a fresh MSHR, subject to the per-thread quota.
    const auto &used = mshrUsed[inst];
    if (used[tid] >= cfg.mshrQuota[tid] || used[0] + used[1] >= cfg.mshrs) {
        ++mshrFullCount[tid];
        res.kind = DataAccessKind::MshrFull;
        res.readyCycle = now + 1;
        return res;
    }
    bankBusy[inst] |= mask;
    ++l1dMissCount[tid];
    Mshr *slot = allocateMshr(inst, tid, addr, !is_store, now);
    if (slot->demand && slot->toMemory)
        ++demandOut[tid];

    res.kind = DataAccessKind::Miss;
    res.readyCycle =
        is_store ? now + 1 : slot->readyCycle + cfg.l1dHitLatency;
    tryPrefetch(tid, pc, addr, now);
    return res;
}

void
MemoryHierarchy::prefillLlc(ThreadId tid, const std::vector<Addr> &blocks)
{
    bool evicted_dirty = false;
    for (Addr a : blocks)
        llc.insert(tid, a, false, evicted_dirty);
}

void
MemoryHierarchy::reset()
{
    for (auto &c : l1i)
        c.reset();
    for (auto &c : l1d)
        c.reset();
    llc.reset();
    prefetcher.reset();
    for (auto &file : mshrFiles)
        std::fill(file.begin(), file.end(), Mshr{});
    mshrUsed = {};
    for (auto &e : epoch)
        ++e;
    nextFill = ~Cycle(0);
    bankCycle = ~Cycle(0);
    bankBusy = {0, 0};
    demandOut = {0, 0};
    for (auto &v : llcHitCount)
        v = 0;
    for (auto &v : llcMissCount)
        v = 0;
    for (auto &v : mshrFullCount)
        v = 0;
    for (auto &v : l1dHitCount)
        v = 0;
    for (auto &v : l1dMissCount)
        v = 0;
}

void
MemoryHierarchy::clearStats()
{
    for (auto &v : llcHitCount)
        v = 0;
    for (auto &v : llcMissCount)
        v = 0;
    for (auto &v : mshrFullCount)
        v = 0;
    for (auto &v : l1dHitCount)
        v = 0;
    for (auto &v : l1dMissCount)
        v = 0;
    // L1-I statistics live in the cache tag arrays; snapshot offsets are
    // handled by callers via l1iMisses deltas, so reset those too.
    for (auto &c : l1i)
        c.clearStats();
    for (auto &c : l1d)
        c.clearStats();
    llc.clearStats();
}

std::uint64_t
MemoryHierarchy::l1iMisses(ThreadId tid) const
{
    const Cache &c = cfg.sharedL1i ? l1i[0] : l1i[tid];
    return c.misses(tid);
}

} // namespace stretch
