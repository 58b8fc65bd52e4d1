/**
 * @file
 * Run independent simulations in parallel and join.
 *
 * The simulator's parallelism is embarrassing: per-core fleet simulations,
 * per-node rack runs, sweep variants and per-sample runner iterations share
 * no mutable state, so all they need is "run fn(i) for every i, then join".
 * Determinism is preserved by construction rather than by the schedule:
 * every index derives its RNG seed from itself (mixSeed(seed, index)) and
 * writes its result into an index-addressed slot, and callers reduce the
 * slots in index order, so the order in which threads happen to take
 * indices can never change a result bit.
 */

#ifndef STRETCH_UTIL_PARALLEL_FOR_H
#define STRETCH_UTIL_PARALLEL_FOR_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace stretch
{

/**
 * Run fn(i) for every i in [0, n) on up to @p threads threads, the caller
 * included, and join. threads == 0 selects the hardware concurrency;
 * threads == 1 or n <= 1 runs on the caller alone, with no thread
 * started. Calls may nest: each one starts and joins its own threads.
 *
 * Every index runs exactly once even when some throw; the first exception
 * caught is rethrown after every index has run and every thread has
 * joined.
 */
inline void
parallelFor(unsigned threads, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());

    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr firstError;
    auto fail = [&](std::exception_ptr err) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError)
            firstError = std::move(err);
    };
    auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                fail(std::current_exception());
            }
        }
    };

    std::vector<std::thread> helpers;
    const std::size_t helperCount =
        n <= 1 ? 0 : std::min<std::size_t>(threads, n) - 1;
    try {
        helpers.reserve(helperCount);
        for (std::size_t t = 0; t < helperCount; ++t)
            helpers.emplace_back(work);
    } catch (...) {
        // No thread to spare: the threads already started and the
        // caller still run every index.
        fail(std::current_exception());
    }
    work();
    for (std::thread &h : helpers)
        h.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace stretch

#endif // STRETCH_UTIL_PARALLEL_FOR_H
