/**
 * @file
 * PC-indexed stride prefetcher (Table II: tracks up to 32 load/store PCs).
 */

#ifndef STRETCH_CACHE_PREFETCHER_H
#define STRETCH_CACHE_PREFETCHER_H

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace stretch
{

/**
 * Classic reference-prediction-table stride prefetcher. Each tracked PC
 * holds the last address and a confirmed stride; two consecutive matching
 * strides arm the entry and prefetches are emitted one block ahead.
 */
class StridePrefetcher
{
  public:
    /**
     * @param streams number of tracked PCs (Table II: 32).
     * @param degree blocks prefetched ahead once a stream is confirmed.
     */
    explicit StridePrefetcher(unsigned streams = 32, unsigned degree = 2);

    /**
     * Observe a demand access.
     * @param pc address of the load/store instruction.
     * @param addr effective address.
     * @param out_prefetches candidate prefetch addresses (appended).
     */
    void observe(ThreadId tid, Addr pc, Addr addr,
                 std::vector<Addr> &out_prefetches);

    /** Drop all training state. */
    void reset();

    /** Prefetch candidates emitted so far. */
    std::uint64_t issued() const { return issuedCount; }

  private:
    struct Entry
    {
        Addr pc = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint64_t lastUse = 0;
        ThreadId tid = 0;
        std::uint8_t confidence = 0;
        bool valid = false;
    };

    unsigned streams;
    unsigned degree;
    std::vector<Entry> table;
    std::uint64_t useClock = 0;
    std::uint64_t issuedCount = 0;
};

} // namespace stretch

#endif // STRETCH_CACHE_PREFETCHER_H
