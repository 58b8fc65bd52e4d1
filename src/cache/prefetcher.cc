#include "cache/prefetcher.h"

namespace stretch
{

StridePrefetcher::StridePrefetcher(unsigned streams, unsigned degree)
    : streams(streams), degree(degree), table(streams)
{
}

void
StridePrefetcher::observe(ThreadId tid, Addr pc, Addr addr,
                          std::vector<Addr> &out_prefetches)
{
    // Fully-associative lookup over the small table.
    Entry *entry = nullptr;
    for (auto &e : table) {
        if (e.pc == pc && e.tid == tid && e.valid) {
            entry = &e;
            break;
        }
    }

    if (!entry) {
        // Allocate a fresh stream in the first free entry, otherwise in
        // the least recently used one.
        Entry *victim = &table[0];
        for (auto &e : table) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
        *victim = Entry{};
        victim->valid = true;
        victim->pc = pc;
        victim->tid = tid;
        victim->lastAddr = addr;
        victim->lastUse = ++useClock;
        return;
    }

    entry->lastUse = ++useClock;
    std::int64_t stride =
        static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(entry->lastAddr);
    if (stride == entry->stride && stride != 0) {
        if (entry->confidence < 3)
            ++entry->confidence;
    } else {
        entry->stride = stride;
        entry->confidence = stride != 0 ? 1 : 0;
    }
    entry->lastAddr = addr;

    if (entry->confidence >= 2) {
        for (unsigned d = 1; d <= degree; ++d) {
            Addr target = addr + static_cast<Addr>(entry->stride * d);
            // Only cross-block prefetches are useful.
            if (blockAddr(target) != blockAddr(addr)) {
                out_prefetches.push_back(target);
                ++issuedCount;
            }
        }
    }
}

void
StridePrefetcher::reset()
{
    for (auto &e : table)
        e = Entry{};
    useClock = 0;
    issuedCount = 0;
}

} // namespace stretch
