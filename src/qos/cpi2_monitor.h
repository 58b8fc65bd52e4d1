/**
 * @file
 * CPI²-style software QoS monitor extended for Stretch (Section IV-C).
 *
 * Google's CPI² framework monitors per-task performance at runtime and
 * throttles antagonists when a latency-sensitive task suffers. Stretch
 * extends the monitor with a QoS metric — windowed tail latency — that
 * measures available performance slack, and a decision policy:
 *
 *   - ample slack (tail well below target)  -> engage B-mode
 *   - slack shrinking                       -> return to Baseline (or
 *                                              Q-mode when provisioned)
 *   - persistent violations                 -> throttle the co-runner, the
 *                                              original CPI² corrective
 *                                              action
 *
 * The monitor also implements CPI²'s antagonist detection on CPI samples
 * (outliers beyond mean + 2 sigma of the recent history). When the fleet
 * dispatcher feeds it per-request signal (completion latency plus a
 * CPI-style slowdown proxy), a violating window whose newest CPI sample
 * is an outlier escalates straight to throttling — the antagonist has
 * been identified, so the ladder skips the remaining tolerance windows.
 * Outlier samples are counted in batches: every few hundred samples, and
 * whenever the count is read, one pass judges the pending samples. The
 * pass slides sums of the window's values and squares, and bounds how far
 * their rounding and the per-sample mean-and-deviation arithmetic's can
 * move the threshold. A sample outside those bounds is decided by them,
 * a window of equal values directly, and anything else replays the
 * per-sample arithmetic, so the count equals a per-sample check bit for
 * bit at a fraction of its cost.
 *
 * Units and determinism: latencies, the QoS target, and reported tails
 * are all in the caller's latency unit (the fleet dispatcher feeds
 * milliseconds of request sojourn time); CPI samples are dimensionless
 * ratios. The monitor is a plain state machine — not thread-safe, no
 * hidden clock or RNG — so identical call sequences always produce
 * identical decisions.
 */

#ifndef STRETCH_QOS_CPI2_MONITOR_H
#define STRETCH_QOS_CPI2_MONITOR_H

#include <cstdint>
#include <vector>

#include "qos/stretch_mode.h"

namespace stretch
{

/** Monitor tuning knobs. */
struct MonitorConfig
{
    /** QoS latency target (same unit as recorded latencies). */
    double qosTarget = 100.0;
    /** Tail percentile defining the QoS metric (e.g. 99.0). */
    double tailPercentile = 99.0;
    /** Engage B-mode when tail < engageFraction * target. */
    double engageFraction = 0.60;
    /** Leave B-mode when tail > disengageFraction * target (hysteresis). */
    double disengageFraction = 0.85;
    /** Provision a Q-mode configuration (optional per Section IV-B). */
    bool hasQMode = true;
};

/** Decision emitted at the end of a monitoring window. */
struct MonitorDecision
{
    StretchMode mode = StretchMode::Baseline;
    bool throttleCoRunner = false;
    double tailLatency = 0.0;
};

/**
 * Sliding-window tail-latency monitor with the Stretch decision ladder.
 */
class Cpi2Monitor
{
  public:
    explicit Cpi2Monitor(const MonitorConfig &cfg = {});

    /** Record one request latency. */
    void recordLatency(double latency);

    /** Latencies accumulated in the current window. */
    std::size_t windowFill() const { return window.size(); }

    /**
     * Evaluate whatever has accumulated in the current window — the
     * fleet decides on control-quantum boundaries, not request counts —
     * and return the desired operating point; resets the window.
     * Returns the previous decision unchanged when the window is empty.
     */
    MonitorDecision evaluateWindowNow();

    /**
     * Evaluate a pre-aggregated tail-latency observation (used when the
     * monitor is fed whole measurement windows, e.g. from the queueing
     * substrate, rather than per-request latencies).
     */
    MonitorDecision evaluateTail(double tail_latency);

    /**
     * Re-aim the monitor at a new QoS target mid-run (an SLO reshuffle):
     * subsequent window evaluations judge against the new target and
     * percentile. Accumulated window samples, the violation ladder, and
     * the throttle state deliberately carry over — the reshuffle changes
     * the goalpost, not the observed history.
     */
    void retarget(double qos_target, double tail_percentile);

    /** Most recent decision (initially Baseline, unthrottled). */
    const MonitorDecision &current() const { return last; }

    /// @name CPI²-style antagonist detection.
    /// @{
    /**
     * Record a CPI sample of the protected task (dimensionless; the fleet
     * dispatcher feeds sojourn-time / service-time slowdown ratios as the
     * CPI analogue). An outlier sample makes the next violating window
     * throttle immediately instead of waiting out the tolerance count.
     */
    void recordCpi(double cpi);
    /** True if the newest CPI sample is an outlier: above mean + 2 sigma
     *  of the up to 63 samples before it, from the 8th sample on. */
    bool cpiOutlier() const;
    /** Recorded CPI samples that were outliers when they were newest. */
    std::uint64_t cpiOutlierCount() const;
    /// @}

    /** Number of windows whose tail violated the QoS target. */
    std::uint64_t violationWindows() const { return violations; }

    /** Total windows evaluated (violating or not) — the denominator the
     *  telemetry layer pairs with violationWindows(). */
    std::uint64_t windowsEvaluated() const { return windowsEval; }

    /** Times the decision ladder newly engaged co-runner throttling. */
    std::uint64_t throttleEngagements() const { return throttleEngages; }

  private:
    MonitorConfig cfg;
    std::vector<double> window;
    MonitorDecision last;
    unsigned consecutiveViolations = 0;
    std::uint64_t violations = 0;
    std::uint64_t throttleEngages = 0;
    std::uint64_t windowsEval = 0;

    /** Outliers among cpiLog[from, end). */
    std::uint64_t judgeCpi(std::size_t from) const;

    /** The newest 64 CPI samples plus every sample not yet judged. */
    std::vector<double> cpiLog;
    /** Stream position of cpiLog's first sample. */
    std::uint64_t cpiLogStart = 0;
    /** Leading cpiLog samples already judged into cpiOutliers. */
    std::size_t cpiJudged = 0;
    std::uint64_t cpiOutliers = 0;
};

} // namespace stretch

#endif // STRETCH_QOS_CPI2_MONITOR_H
