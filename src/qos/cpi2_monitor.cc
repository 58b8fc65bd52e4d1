#include "qos/cpi2_monitor.h"

#include <algorithm>
#include <cmath>

#include "stats/summary.h"
#include "util/log.h"

namespace stretch
{

namespace
{

/** Engage Q-mode (if provisioned) when tail > qmodeFraction * target. */
constexpr double qmodeFraction = 0.95;

/** Violating windows tolerated before throttling the co-runner. */
constexpr unsigned violationsBeforeThrottle = 2;

/** CPI history length for antagonist detection: the newest sample and
 *  the window of samples before it that judges it. */
constexpr std::size_t cpiHistory = 64;
constexpr std::size_t cpiWindow = cpiHistory - 1;

/** Samples in the history before the newest one is judged at all. */
constexpr std::size_t cpiMinSamples = 8;

/** Samples recorded between two batched outlier counts. */
constexpr std::size_t cpiBatch = 256;

/** Windows one batched pass judges side by side. */
constexpr std::size_t cpiLanes = 16;

/**
 * Outliers among x[len, len + Lanes): lane j judges x[len + j] against
 * the window x[j, j + len) with exactly stats::RunningStat's operations,
 * in its order, so each verdict equals `newest > rs.mean() + 2.0 *
 * rs.stddev()` over that window. The lanes share no state, so their
 * divisions overlap instead of waiting on one chain.
 */
template <std::size_t Lanes>
unsigned
judgeWindows(const double *x, std::size_t len)
{
    double mean[Lanes] = {};
    double m2[Lanes] = {};
    for (std::size_t i = 0; i < len; ++i) {
        const double n = static_cast<double>(i + 1);
        const double *row = x + i;
        for (std::size_t j = 0; j < Lanes; ++j) {
            const double delta = row[j] - mean[j];
            mean[j] += delta / n;
            m2[j] += delta * (row[j] - mean[j]);
        }
    }
    unsigned outliers = 0;
    for (std::size_t j = 0; j < Lanes; ++j) {
        const double sd = std::sqrt(m2[j] / static_cast<double>(len - 1));
        if (x[len + j] > mean[j] + 2.0 * sd)
            ++outliers;
    }
    return outliers;
}

} // namespace

Cpi2Monitor::Cpi2Monitor(const MonitorConfig &cfg) : cfg(cfg)
{
    STRETCH_ASSERT(cfg.qosTarget > 0.0, "QoS target must be positive");
    STRETCH_ASSERT(cfg.tailPercentile > 0.0 && cfg.tailPercentile <= 100.0,
                   "tail percentile must be in (0, 100]");
    STRETCH_ASSERT(cfg.engageFraction < cfg.disengageFraction,
                   "engage threshold must sit below disengage threshold");
}

void
Cpi2Monitor::recordLatency(double latency)
{
    window.push_back(latency);
}

MonitorDecision
Cpi2Monitor::evaluateWindowNow()
{
    if (window.empty())
        return last;
    double tail = stats::percentile(window, cfg.tailPercentile);
    window.clear();
    return evaluateTail(tail);
}

void
Cpi2Monitor::retarget(double qos_target, double tail_percentile)
{
    STRETCH_ASSERT(qos_target > 0.0, "QoS target must be positive");
    STRETCH_ASSERT(tail_percentile > 0.0 && tail_percentile <= 100.0,
                   "tail percentile must be in (0, 100]");
    cfg.qosTarget = qos_target;
    cfg.tailPercentile = tail_percentile;
}

MonitorDecision
Cpi2Monitor::evaluateTail(double tail)
{
    MonitorDecision d = last;
    d.tailLatency = tail;
    ++windowsEval;

    if (tail > cfg.qosTarget) {
        ++violations;
        // First corrective action: disengage B-mode (step to Baseline or
        // Q-mode). If violations persist across windows, fall back to the
        // CPI2 ladder and throttle the co-runner. A CPI outlier names the
        // antagonist directly, so the tolerance count is skipped.
        ++consecutiveViolations;
        d.mode = cfg.hasQMode ? StretchMode::QosBoost : StretchMode::Baseline;
        if (consecutiveViolations > violationsBeforeThrottle ||
            cpiOutlier()) {
            d.throttleCoRunner = true;
        }
    } else {
        consecutiveViolations = 0;
        if (d.throttleCoRunner && tail < cfg.engageFraction * cfg.qosTarget) {
            // Load has receded: lift the throttle first.
            d.throttleCoRunner = false;
            d.mode = StretchMode::Baseline;
        } else if (!d.throttleCoRunner) {
            switch (last.mode) {
              case StretchMode::BatchBoost:
                // Hysteresis: stay in B-mode until slack shrinks.
                if (tail > cfg.disengageFraction * cfg.qosTarget) {
                    d.mode =
                        cfg.hasQMode && tail > qmodeFraction * cfg.qosTarget
                            ? StretchMode::QosBoost
                            : StretchMode::Baseline;
                }
                break;
              case StretchMode::Baseline:
              case StretchMode::QosBoost:
                if (tail < cfg.engageFraction * cfg.qosTarget) {
                    d.mode = StretchMode::BatchBoost;
                } else if (cfg.hasQMode &&
                           tail > qmodeFraction * cfg.qosTarget) {
                    d.mode = StretchMode::QosBoost;
                } else if (last.mode == StretchMode::QosBoost &&
                           tail < cfg.disengageFraction * cfg.qosTarget) {
                    d.mode = StretchMode::Baseline;
                }
                break;
            }
        }
    }

    if (d.throttleCoRunner && !last.throttleCoRunner)
        ++throttleEngages;
    last = d;
    return d;
}

void
Cpi2Monitor::recordCpi(double cpi)
{
    cpiLog.push_back(cpi);
    if (cpiLog.size() - cpiJudged < cpiBatch)
        return;
    cpiOutliers += judgeCpi(cpiJudged);
    // Later samples' windows and cpiOutlier() read only the newest
    // cpiHistory samples.
    const std::size_t drop = cpiLog.size() - cpiHistory;
    cpiLog.erase(cpiLog.begin(), cpiLog.begin() + drop);
    cpiLogStart += drop;
    cpiJudged = cpiHistory;
}

bool
Cpi2Monitor::cpiOutlier() const
{
    return !cpiLog.empty() && judgeCpi(cpiLog.size() - 1) > 0;
}

std::uint64_t
Cpi2Monitor::cpiOutlierCount() const
{
    return cpiOutliers + judgeCpi(cpiJudged);
}

std::uint64_t
Cpi2Monitor::judgeCpi(std::size_t from) const
{
    const double *x = cpiLog.data();
    std::uint64_t outliers = 0;
    for (std::size_t i = from; i < cpiLog.size();) {
        // Samples recorded before this one; a monitor's first samples
        // have partial windows.
        const std::uint64_t seen = cpiLogStart + i;
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>(seen, cpiWindow));
        if (seen + 1 < cpiMinSamples) {
            ++i;
        } else if (len == cpiWindow && i + cpiLanes <= cpiLog.size()) {
            outliers += judgeWindows<cpiLanes>(x + i - len, len);
            i += cpiLanes;
        } else {
            outliers += judgeWindows<1>(x + i - len, len);
            ++i;
        }
    }
    return outliers;
}

} // namespace stretch
