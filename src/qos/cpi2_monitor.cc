#include "qos/cpi2_monitor.h"

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

/** CPI history length for antagonist detection. */
constexpr std::size_t cpiHistory = 64;

} // namespace

Cpi2Monitor::Cpi2Monitor(const MonitorConfig &cfg) : cfg(cfg)
{
    STRETCH_ASSERT(cfg.qosTarget > 0.0, "QoS target must be positive");
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
    cpiSamples.push_back(cpi);
    if (cpiSamples.size() > cpiHistory)
        cpiSamples.erase(cpiSamples.begin());
}

bool
Cpi2Monitor::cpiOutlier() const
{
    if (cpiSamples.size() < 8)
        return false;
    stats::RunningStat rs;
    for (std::size_t i = 0; i + 1 < cpiSamples.size(); ++i)
        rs.add(cpiSamples[i]);
    double newest = cpiSamples.back();
    return newest > rs.mean() + 2.0 * rs.stddev();
}

} // namespace stretch
