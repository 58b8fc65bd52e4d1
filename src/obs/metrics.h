/**
 * @file
 * Metric registry: one queryable source for a run's counters, gauges,
 * and latency tails.
 *
 * Before this layer existed, run statistics were scattered across
 * `CoreModeStats`, `ClassOutcome`, monitor accessors, and ad-hoc locals
 * in `fleet.cc` — each consumer re-aggregated its own view. The
 * registry collects them under dotted names (`engine.completions`,
 * `qos.violation_windows`, `class.search.latency_ms`, ...) so a report
 * writer, a test, or a future autoscaling controller can query one
 * snapshot instead of chasing struct fields.
 *
 * Cost model: registration (`counter`/`gauge`/`tail`) is O(log n) and
 * returns a *stable reference* — the maps are node-based, so handles
 * survive later registrations. Hot paths keep the reference and bump it
 * with plain `++`/`+=` (O(1), no lookup, no atomics: the dispatcher is
 * single-threaded). The fleet fills most metrics once at end of run
 * from tallies it already keeps, so an attached registry adds nothing
 * to the event loop.
 */

#ifndef STRETCH_OBS_METRICS_H
#define STRETCH_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "stats/streaming_tail.h"

namespace stretch::obs
{

class JsonWriter;

/**
 * Named counters (uint64), gauges (double), and latency tails
 * (`stats::StreamingTail`), keyed by dotted metric name. See the file
 * header for the cost model. Not thread-safe; one registry observes one
 * run.
 */
class MetricRegistry
{
  public:
    /** The counter named @p name, created at zero on first use.
     *  The reference stays valid for the registry's lifetime. */
    std::uint64_t &counter(const std::string &name);

    /** The gauge named @p name, created at 0.0 on first use. */
    double &gauge(const std::string &name);

    /** The latency-tail histogram named @p name, created empty on
     *  first use. */
    stats::StreamingTail &tail(const std::string &name);

    /// @name Read-side queries.
    /// @{
    /** Counter value; 0 if never registered. */
    std::uint64_t counterValue(const std::string &name) const;
    /** Gauge value; 0.0 if never registered. */
    double gaugeValue(const std::string &name) const;
    /** True if a counter/gauge/tail of that name exists. */
    bool has(const std::string &name) const;
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counterMap;
    }
    const std::map<std::string, stats::StreamingTail> &tails() const
    {
        return tailMap;
    }
    /// @}

    /**
     * Append the registry as one JSON object value:
     *
     *     {"counters": {..sorted..},
     *      "gauges": {..sorted..},
     *      "tails": {name: {count, mean, min, max, p50, p95, p99,
     *                       p999}, ...}}
     *
     * Caller owns surrounding structure (key or array slot).
     */
    void writeJson(JsonWriter &w) const;

  private:
    // std::map, not unordered_map: node-based storage is what makes the
    // handle references stable, and sorted iteration gives the report
    // deterministic field order for free.
    std::map<std::string, std::uint64_t> counterMap;
    std::map<std::string, double> gaugeMap;
    std::map<std::string, stats::StreamingTail> tailMap;
};

} // namespace stretch::obs

#endif // STRETCH_OBS_METRICS_H
