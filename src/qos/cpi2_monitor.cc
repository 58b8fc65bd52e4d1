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

/** Whether @p newest is an outlier over the window w[0, len): exactly
 *  the per-sample rule, `newest > mean + 2 sd` as stats::RunningStat
 *  computes them. */
bool
replayVerdict(const double *w, std::size_t len, double newest)
{
    stats::RunningStat rs;
    for (std::size_t i = 0; i < len; ++i)
        rs.add(w[i]);
    return newest > rs.mean() + 2.0 * rs.stddev();
}

/**
 * Outliers among x[n, n + count), n = cpiWindow: sample x[n + j] is
 * judged against the window x[j, j + n), and every verdict equals
 * replayVerdict's.
 *
 * Most verdicts come from sliding sums S1 = sum w and S2 = sum w^2 over
 * the window, computed fresh for the first window and slid one sample
 * at a time. They estimate RunningStat's mean and m2 = sum (w - mean)^2
 * as S1 / n and S2 - S1 * mean. Both computations round; with u = 2^-53,
 * R = max |x| over every window of the call and k <= count slides, the
 * standard first-order bounds are:
 *   - sums: |S1' - S1| <= e1 = (n^2 + 2k(n + 2)) u R, and
 *     |S2' - S2| <= e2 = (n^2 + n + 2k(n + 2)) u R^2: recursive summation
 *     of n terms (squared for S2), then at most 2 (n + 2) u R per slide
 *     (u R^2 for S2);
 *   - estimates: |mean' - mean| <= e1 / n + 2 u R, and
 *     |m2' - m2| <= e2 + 2 R e1 + 4 n u R^2;
 *   - RunningStat's Welford steps: its mean is within (n + 4 H_n) u R
 *     <= 2 n u R of the exact mean, and its m2 within
 *     (8.5 n^2 + 12.5 n) u R^2 <= 9 n^2 u R^2 of the exact m2 (each
 *     step's terms are at most 2R, each partial m2 at most i R^2).
 * So RunningStat's mean and m2 lie within eMean and eM2 of the
 * estimates, each twice the sum of its bounds (the factor covers the
 * second-order terms). Its m2 is never negative: every Welford term's
 * two factors share a sign. Its threshold mean + 2 sqrt(m2 / (n - 1))
 * then lies in [lo, hi], built from the m2 interval's ends, with a
 * slack of 16 u (R + 2 sd) for the square root, the division and the
 * additions on either side.
 *
 * A newest sample above hi is an outlier, one at or below lo is not,
 * and one in between replays the window exactly. A window of n equal
 * finite values v has RunningStat mean v and m2 0 exactly, so its
 * verdict is `newest > v`. Sums that are not finite (a NaN or infinity
 * in the span) give NaN bounds and replay; so does an R whose square
 * could overflow or whose roundings could underflow.
 */
std::uint64_t
judgeFullWindows(const double *x, std::size_t count)
{
    constexpr std::size_t n = cpiWindow;
    constexpr double fn = static_cast<double>(n);
    constexpr double u = 0x1.0p-53;
    constexpr double invN = 1.0 / fn;
    constexpr double invDof = 1.0 / (fn - 1.0);

    double r = 0.0;
    for (std::size_t i = 0; i + 1 < n + count; ++i)
        r = std::max(r, std::fabs(x[i]));
    const bool bounded = r >= 0x1.0p-400 && r <= 0x1.0p500;
    const double k = static_cast<double>(count);
    const double e1 = (fn * fn + 2.0 * k * (fn + 2.0)) * u * r;
    const double e2 = (fn * fn + fn + 2.0 * k * (fn + 2.0)) * u * r * r;
    const double eMean = 2.0 * (e1 / fn + (2.0 * fn + 2.0) * u * r);
    const double eM2 =
        2.0 * (e2 + 2.0 * r * e1 + (9.0 * fn + 4.0) * fn * u * r * r);

    double s1 = 0.0;
    double s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        s1 += x[i];
        s2 += x[i] * x[i];
    }
    // Equal values ending the window, up to n.
    std::size_t run = 1;
    while (run < n && x[n - 1 - run] == x[n - 1])
        ++run;

    std::uint64_t outliers = 0;
    for (std::size_t j = 0; j < count; ++j) {
        const double *w = x + j;
        if (j > 0) {
            const double in = w[n - 1];
            const double out = w[-1];
            s1 += in - out;
            s2 += in * in - out * out;
            run = in == w[n - 2] ? std::min(run + 1, n) : 1;
        }
        const double y = w[n];
        if (run == n && std::isfinite(w[0])) {
            outliers += y > w[0] ? 1 : 0;
            continue;
        }
        if (bounded) {
            const double mean = s1 * invN;
            const double m2 = s2 - s1 * mean;
            const double sdLo = std::sqrt(std::max(m2 - eM2, 0.0) * invDof);
            const double sdHi = std::sqrt((m2 + eM2) * invDof);
            const double slack = 16.0 * u * (r + 2.0 * sdHi);
            if (y > mean + eMean + 2.0 * sdHi + slack) {
                ++outliers;
                continue;
            }
            if (y <= mean - eMean + 2.0 * sdLo - slack)
                continue;
        }
        outliers += replayVerdict(w, n, y) ? 1 : 0;
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
    const double tail = stats::selectPercentile(window, cfg.tailPercentile);
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
    std::size_t i = from;
    // A monitor's first samples have partial windows (cpiLog still
    // holds the whole stream then).
    for (; i < cpiLog.size() && cpiLogStart + i < cpiWindow; ++i)
        if (i + 1 >= cpiMinSamples)
            outliers += replayVerdict(x, i, x[i]) ? 1 : 0;
    if (i < cpiLog.size())
        outliers += judgeFullWindows(x + i - cpiWindow, cpiLog.size() - i);
    return outliers;
}

} // namespace stretch
