/**
 * @file
 * Process-wide memoisation of measured core operating points.
 *
 * `runFleet` measures every core's LS capacity and batch UIPC by running
 * a full microarchitectural simulation per operating point — by far the
 * dominant cost of a fleet experiment. Those simulations are pure
 * functions of their `RunConfig` (plus the global quick factor), so
 * sweeping benches that run many fleet variants over identical cores
 * (e.g. `bench_fig15_diurnal_fleet`'s static / slack / throttle
 * variants) used to re-simulate the same configurations once per
 * variant. The cache keys results on the full configuration and returns
 * the memoised `RunResult` on a repeat measurement.
 *
 * The key deliberately excludes `RunConfig::parallelism`: sample-level
 * parallelism is bit-identical to serial execution by construction, so
 * it cannot change the result. It *includes* the global
 * `sim::quickFactor()` because the runner scales its sampling effort by
 * it at run time.
 *
 * Thread-safety: all entry points are mutex-guarded, and misses are
 * single-flight per key: the first thread to miss a key simulates it
 * (outside the lock, so distinct keys still measure in parallel) while
 * any other thread missing the same key blocks on the first thread's
 * result instead of duplicating the simulation. Hit/miss counts are
 * therefore exact — every measure() call is exactly one hit or one
 * miss, and each distinct key misses exactly once. Returned references
 * stay valid until `clear()` (std::map never invalidates on insert).
 *
 * Persistence: `saveTo`/`loadFrom` round-trip the memo through a
 * versioned text file (doubles as raw uint64 bit patterns, so reloaded
 * results are bit-identical), keyed by the same config keys — which
 * embed the quick factor, so a file saved under one sampling scale
 * never answers another. A missing, corrupt, or format-stale file
 * loads nothing and the cache falls back to fresh measurement; the
 * outcome distinguishes "no file" (normal on a first run) from "file
 * rejected" (warned, so CI cache corruption is visible). Setting the
 * environment variable `STRETCH_OPPOINT_CACHE` to a file path makes the
 * process seed the cache from that file on first use and write the
 * merged contents back at exit — how the CI bench job persists
 * measured operating points across runs.
 */

#ifndef STRETCH_SIM_OP_POINT_CACHE_H
#define STRETCH_SIM_OP_POINT_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "sim/runner.h"

namespace stretch::sim
{

/** What a loadFrom call did, and why. */
struct CacheLoadOutcome
{
    enum class Status
    {
        Loaded,     ///< file parsed cleanly; `added` entries merged
        FileAbsent, ///< nothing at the path (normal on a first run)
        BadFormat,  ///< magic/version mismatch or corruption; warned,
                    ///< nothing admitted
    };
    Status status = Status::FileAbsent;
    std::size_t added = 0; ///< entries merged (existing entries win)
};

/** Memoising cache of `sim::run` results, keyed by configuration. */
class OperatingPointCache
{
  public:
    /** The process-wide instance every fleet/bench measurement shares. */
    static OperatingPointCache &instance();

    /**
     * Memoised `sim::run(cfg)`: a repeat measurement of an identical
     * configuration returns the cached result without re-simulating,
     * and a measurement already in flight on another thread is waited
     * for rather than duplicated (the waiter counts as a hit). The
     * reference stays valid until clear().
     */
    const RunResult &measure(const RunConfig &cfg);

    /** True when a measurement of @p cfg is already cached. */
    bool contains(const RunConfig &cfg) const;

    /** Cache key of a configuration (exposed for tests). */
    static std::string key(const RunConfig &cfg);

    /// @name Instrumentation.
    /// @{
    std::uint64_t hits() const;   ///< measurements answered from cache
    std::uint64_t misses() const; ///< measurements that simulated
    std::size_t size() const;     ///< distinct configurations cached
    /// @}

    /** Drop every entry and reset the counters (tests that must observe
     *  two real measurements call this between runs). */
    void clear();

    /// @name Disk persistence (cross-process reuse of measured points).
    /// @{
    /**
     * Write every cached entry to @p path (atomic enough for the
     * single-writer bench/CI use case: written to a temp file in the
     * same directory, then renamed). Returns false when the file cannot
     * be written.
     */
    bool saveTo(const std::string &path) const;

    /**
     * Merge the entries of a file previously written by saveTo into the
     * cache (existing entries win — the in-process result is at least
     * as fresh). All-or-nothing: a format-version mismatch or any parse
     * corruption admits nothing and leaves the cache untouched. The
     * outcome says which case occurred — `FileAbsent` (normal on a
     * first run, silent) vs. `BadFormat` (a warning is logged so CI
     * cache corruption is visible instead of silently re-measuring) vs.
     * `Loaded` with the number of entries added.
     */
    CacheLoadOutcome loadFrom(const std::string &path);

    /** On-disk format version written by saveTo; bump when the entry
     *  layout (or anything the key omits) changes meaning. */
    static constexpr int formatVersion = 3;
    /// @}

  private:
    OperatingPointCache() = default;

    mutable std::mutex mu;
    std::map<std::string, RunResult> memo;
    std::set<std::string> inflight;    ///< keys being simulated right now
    std::condition_variable flightCv;  ///< signals a flight's completion
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace stretch::sim

#endif // STRETCH_SIM_OP_POINT_CACHE_H
