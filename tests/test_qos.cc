/**
 * @file
 * Unit tests for the Stretch control plane: the CPI2-style monitor's
 * decision ladder.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

#include "qos/cpi2_monitor.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace stretch
{
namespace
{

MonitorConfig
monitorConfig()
{
    MonitorConfig cfg;
    cfg.qosTarget = 100.0;
    return cfg;
}

void
feedWindow(Cpi2Monitor &mon, double latency)
{
    for (int i = 0; i < 8; ++i)
        mon.recordLatency(latency);
}

/**
 * A seeded CPI stream in blocks of 64 samples. A quarter of the blocks
 * are lognormal noise, a quarter milder noise with rare spikes, and half
 * are 63 samples of exactly 1.0 (a window with sigma = 0) followed by a
 * probe at 1.0, just above it, a little above it or far above it.
 */
std::vector<double>
cpiStream(std::size_t blocks)
{
    Rng rng(0xc512);
    std::vector<double> cpi;
    for (std::size_t b = 0; b < blocks; ++b) {
        switch (rng.below(4)) {
        case 0:
            for (int i = 0; i < 64; ++i)
                cpi.push_back(rng.lognormal(0.0, 0.5));
            break;
        case 1:
            for (int i = 0; i < 64; ++i) {
                const double x = rng.lognormal(0.0, 0.3);
                cpi.push_back(rng.chance(0.02) ? 10.0 * x : x);
            }
            break;
        default: {
            cpi.insert(cpi.end(), 63, 1.0);
            const double probes[] = {1.0, 1.0 + 1e-12, 1.2, 4.0};
            cpi.push_back(probes[rng.below(4)]);
            break;
        }
        }
    }
    return cpi;
}

/** Running stats of the up to 63 samples before cpi[k]. */
stats::RunningStat
windowBefore(const std::vector<double> &cpi, std::size_t k)
{
    stats::RunningStat rs;
    for (std::size_t i = k > 63 ? k - 63 : 0; i < k; ++i)
        rs.add(cpi[i]);
    return rs;
}

TEST(Monitor, EngagesBModeOnSlack)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 20.0); // far below the 100 ms target
    MonitorDecision d = mon.evaluateWindowNow();
    EXPECT_EQ(d.mode, StretchMode::BatchBoost);
    EXPECT_FALSE(d.throttleCoRunner);
}

TEST(Monitor, StaysBaselineInMidBand)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 75.0); // between engage (60) and qmode (95) thresholds
    EXPECT_EQ(mon.evaluateWindowNow().mode, StretchMode::Baseline);
}

TEST(Monitor, HysteresisKeepsBMode)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 20.0);
    mon.evaluateWindowNow(); // B-mode engaged
    feedWindow(mon, 75.0); // above engage (60) but below disengage (85)
    EXPECT_EQ(mon.evaluateWindowNow().mode, StretchMode::BatchBoost);
    feedWindow(mon, 90.0); // above disengage
    EXPECT_NE(mon.evaluateWindowNow().mode, StretchMode::BatchBoost);
}

TEST(Monitor, ViolationDisengagesThenThrottles)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 20.0);
    mon.evaluateWindowNow(); // B-mode
    feedWindow(mon, 120.0); // violation 1: step out of B-mode
    MonitorDecision d1 = mon.evaluateWindowNow();
    EXPECT_NE(d1.mode, StretchMode::BatchBoost);
    EXPECT_FALSE(d1.throttleCoRunner);
    feedWindow(mon, 120.0); // violation 2
    mon.evaluateWindowNow();
    feedWindow(mon, 120.0); // violation 3: beyond tolerance -> throttle
    MonitorDecision d3 = mon.evaluateWindowNow();
    EXPECT_TRUE(d3.throttleCoRunner);
    EXPECT_EQ(mon.violationWindows(), 3u);
}

TEST(Monitor, RecoveryLiftsThrottle)
{
    Cpi2Monitor mon(monitorConfig());
    for (int i = 0; i < 4; ++i) {
        feedWindow(mon, 150.0);
        mon.evaluateWindowNow();
    }
    ASSERT_TRUE(mon.current().throttleCoRunner);
    feedWindow(mon, 20.0); // load receded
    MonitorDecision d = mon.evaluateWindowNow();
    EXPECT_FALSE(d.throttleCoRunner);
    // Next quiet window re-engages B-mode.
    feedWindow(mon, 20.0);
    EXPECT_EQ(mon.evaluateWindowNow().mode, StretchMode::BatchBoost);
}

TEST(Monitor, QModeWithoutProvisioningFallsToBaseline)
{
    MonitorConfig cfg = monitorConfig();
    cfg.hasQMode = false;
    Cpi2Monitor mon(cfg);
    feedWindow(mon, 120.0);
    EXPECT_EQ(mon.evaluateWindowNow().mode, StretchMode::Baseline);
}

TEST(Monitor, QModeEngagedNearTarget)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 97.0); // above qmodeFraction (95) but below target
    EXPECT_EQ(mon.evaluateWindowNow().mode, StretchMode::QosBoost);
}

TEST(Monitor, TailUsesConfiguredPercentile)
{
    Cpi2Monitor mon(monitorConfig());
    // 95 fast requests and five slow ones: p99 captures the outliers.
    for (int i = 0; i < 95; ++i)
        mon.recordLatency(10.0);
    for (int i = 0; i < 5; ++i)
        mon.recordLatency(500.0);
    MonitorDecision d = mon.evaluateWindowNow();
    EXPECT_GT(d.tailLatency, 100.0);
}

TEST(Monitor, EvaluateWindowNowUsesPartialWindow)
{
    Cpi2Monitor mon(monitorConfig());
    // Three samples are enough for a quantum-boundary decision.
    mon.recordLatency(20.0);
    mon.recordLatency(25.0);
    mon.recordLatency(30.0);
    EXPECT_EQ(mon.windowFill(), 3u);
    MonitorDecision d = mon.evaluateWindowNow();
    EXPECT_EQ(d.mode, StretchMode::BatchBoost);
    EXPECT_EQ(mon.windowFill(), 0u); // window consumed
}

TEST(Monitor, EvaluateWindowNowEmptyKeepsLastDecision)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 20.0);
    mon.evaluateWindowNow(); // B-mode engaged
    MonitorDecision d = mon.evaluateWindowNow();
    EXPECT_EQ(d.mode, StretchMode::BatchBoost);
    EXPECT_EQ(mon.violationWindows(), 0u); // no window was evaluated
}

TEST(Monitor, CpiOutlierDetection)
{
    Cpi2Monitor mon(monitorConfig());
    for (int i = 0; i < 32; ++i)
        mon.recordCpi(1.0 + 0.01 * (i % 5));
    EXPECT_FALSE(mon.cpiOutlier());
    mon.recordCpi(3.0);
    EXPECT_TRUE(mon.cpiOutlier());
}

TEST(Monitor, BatchedOutlierCountMatchesPerSample)
{
    const std::vector<double> cpi = cpiStream(94);
    ASSERT_GE(cpi.size(), 6000u);
    // Around the first partial windows, the first full one and the
    // first batch boundaries.
    const std::vector<std::size_t> reads = {1,   7,   8,   63,  64,  65,
                                            255, 256, 257, 1000};
    Cpi2Monitor mon(monitorConfig());
    std::uint64_t expected = 0;
    std::uint64_t flatWindows = 0;
    std::size_t nextRead = 0;
    for (std::size_t k = 0; k < cpi.size(); ++k) {
        mon.recordCpi(cpi[k]);
        // The per-sample rule: cpi[k] against mean + 2 sigma of the up
        // to 63 samples before it, from the 8th sample on.
        const stats::RunningStat rs = windowBefore(cpi, k);
        const bool outlier =
            k >= 7 && cpi[k] > rs.mean() + 2.0 * rs.stddev();
        if (outlier)
            ++expected;
        if (k >= 7 && rs.stddev() == 0.0)
            ++flatWindows;
        ASSERT_EQ(mon.cpiOutlier(), outlier) << "sample " << k;
        if (nextRead < reads.size() && k + 1 == reads[nextRead]) {
            EXPECT_EQ(mon.cpiOutlierCount(), expected)
                << "after " << k + 1 << " samples";
            ++nextRead;
        }
    }
    EXPECT_EQ(mon.cpiOutlierCount(), expected);
    // The stream reaches both verdicts, sigma = 0 windows included.
    EXPECT_GT(expected, 100u);
    EXPECT_LT(expected, cpi.size() / 4);
    EXPECT_GT(flatWindows, 10u);
}

/**
 * Every sample of @p cpi through one monitor: cpiOutlier() after each,
 * and cpiOutlierCount() at every 256-sample batch edge, checked against
 * the per-sample RunningStat rule.
 */
void
expectPerSampleVerdicts(const std::vector<double> &cpi)
{
    Cpi2Monitor mon(monitorConfig());
    std::uint64_t expected = 0;
    for (std::size_t k = 0; k < cpi.size(); ++k) {
        mon.recordCpi(cpi[k]);
        const stats::RunningStat rs = windowBefore(cpi, k);
        const bool outlier =
            k >= 7 && cpi[k] > rs.mean() + 2.0 * rs.stddev();
        if (outlier)
            ++expected;
        ASSERT_EQ(mon.cpiOutlier(), outlier)
            << "sample " << k << " = " << cpi[k];
        const std::size_t edge = (k + 1) % 256;
        if (edge <= 1 || edge == 255) {
            ASSERT_EQ(mon.cpiOutlierCount(), expected)
                << "after " << k + 1 << " samples";
        }
    }
    EXPECT_EQ(mon.cpiOutlierCount(), expected);
}

TEST(Monitor, FilteredVerdictsMatchAtTheThreshold)
{
    Rng rng(0x7e5d);
    std::vector<double> cpi;
    // Probes at the exact RunningStat threshold of the 63 samples before
    // them and up to 4 ulps either side, over windows of many scales.
    for (double scale : {1.0, 1e-3, 1e6, 1e-100, 1e-200, -1.0}) {
        for (int ulps = -4; ulps <= 4; ++ulps) {
            for (int i = 0; i < 63; ++i)
                cpi.push_back(scale * rng.lognormal(0.0, 0.5));
            const stats::RunningStat rs = windowBefore(cpi, cpi.size());
            double y = rs.mean() + 2.0 * rs.stddev();
            for (int step = 0; step < std::abs(ulps); ++step)
                y = std::nextafter(y, ulps > 0 ? HUGE_VAL : -HUGE_VAL);
            cpi.push_back(y);
        }
    }
    // Runs of 62 to 65 equal values across a batch edge, each probed at,
    // just above and just below the value.
    for (std::size_t run = 62; run <= 65; ++run) {
        while ((cpi.size() + run / 2) % 256 != 0)
            cpi.push_back(rng.lognormal(0.0, 0.3));
        const double v = 1.0 + 0.25 * static_cast<double>(run - 62);
        cpi.insert(cpi.end(), run, v);
        for (double y : {v, std::nextafter(v, HUGE_VAL), v,
                         std::nextafter(v, -HUGE_VAL), 2.0 * v})
            cpi.push_back(y);
    }
    // Windows spread by only +-1e-12 around 1.0, probed near their
    // threshold.
    for (int i = 0; i < 400; ++i) {
        if (i % 64 == 63) {
            const stats::RunningStat rs = windowBefore(cpi, cpi.size());
            double y = rs.mean() + 2.0 * rs.stddev();
            for (std::uint64_t step = rng.below(3); step > 0; --step)
                y = std::nextafter(y, rng.chance(0.5) ? 2.0 : 0.0);
            cpi.push_back(y);
        } else {
            cpi.push_back(1.0 + 1e-12 * (2.0 * rng.uniform() - 1.0));
        }
    }
    // A 1e9 spike, then small values: the spike cancels out of the
    // sliding sum of squares once it leaves the window.
    cpi.push_back(1e9);
    for (int i = 0; i < 300; ++i)
        cpi.push_back(rng.chance(0.05) ? 3.0 : rng.lognormal(0.0, 0.1));
    // Values whose squares overflow: some spread wide (RunningStat's m2
    // overflows too), some narrow enough for a finite threshold.
    for (int i = 0; i < 300; ++i)
        cpi.push_back(1e155 * rng.lognormal(0.0, 0.5));
    for (int i = 0; i < 300; ++i)
        cpi.push_back(1e160 * (1.0 + (rng.chance(0.05) ? 1e-8 : 1e-10) *
                                         rng.uniform()));
    // One infinite sample amid ordinary ones.
    for (int i = 0; i < 300; ++i)
        cpi.push_back(i == 100 ? HUGE_VAL : rng.lognormal(0.0, 0.5));
    expectPerSampleVerdicts(cpi);
}

TEST(Monitor, WindowTailMatchesSortedPercentile)
{
    auto bits = [](double d) {
        std::uint64_t u;
        std::memcpy(&u, &d, sizeof u);
        return u;
    };
    Rng rng(0x7a11);
    for (double pct : {50.0, 90.0, 99.0, 99.9, 100.0}) {
        MonitorConfig cfg = monitorConfig();
        cfg.tailPercentile = pct;
        Cpi2Monitor mon(cfg);
        for (int trial = 0; trial < 200; ++trial) {
            const std::size_t n = 1 + rng.below(300);
            // Half the windows draw from a few values, so ties abound.
            const bool ties = rng.chance(0.5);
            std::vector<double> window;
            for (std::size_t i = 0; i < n; ++i) {
                const double v =
                    ties ? static_cast<double>(1 + rng.below(5))
                         : rng.lognormal(2.0, 1.0);
                window.push_back(v);
                mon.recordLatency(v);
            }
            std::vector<double> sorted = window;
            std::sort(sorted.begin(), sorted.end());
            const double want = stats::percentileSorted(sorted, pct);
            SCOPED_TRACE(testing::Message() << "pct " << pct << ", n " << n);
            EXPECT_EQ(bits(stats::selectPercentile(window, pct)), bits(want));
            EXPECT_EQ(bits(mon.evaluateWindowNow().tailLatency), bits(want));
        }
    }
}

TEST(Monitor, EvaluateTailDirectFeed)
{
    Cpi2Monitor mon(monitorConfig());
    EXPECT_EQ(mon.evaluateTail(10.0).mode, StretchMode::BatchBoost);
    EXPECT_EQ(mon.evaluateTail(120.0).mode, StretchMode::QosBoost);
    mon.evaluateTail(70.0);
    EXPECT_EQ(mon.evaluateTail(20.0).mode, StretchMode::BatchBoost);
}

TEST(Monitor, CpiOutlierFastPathsThrottle)
{
    // Without CPI signal, a single violating window only steps the mode.
    Cpi2Monitor slow(monitorConfig());
    MonitorDecision d = slow.evaluateTail(120.0);
    EXPECT_FALSE(d.throttleCoRunner);

    // With an antagonist named by the CPI outlier detector, the same
    // violating window throttles immediately — the corrective action
    // skips the remaining tolerance windows.
    Cpi2Monitor fast(monitorConfig());
    for (int i = 0; i < 32; ++i)
        fast.recordCpi(1.0 + 0.01 * (i % 5));
    fast.recordCpi(3.0);
    ASSERT_TRUE(fast.cpiOutlier());
    d = fast.evaluateTail(120.0);
    EXPECT_TRUE(d.throttleCoRunner);
    EXPECT_EQ(fast.throttleEngagements(), 1u);
}

TEST(Monitor, ThrottleEngagementsCountDistinctEngages)
{
    Cpi2Monitor mon(monitorConfig());
    for (int i = 0; i < 4; ++i)
        mon.evaluateTail(150.0); // violations -> throttle
    ASSERT_TRUE(mon.current().throttleCoRunner);
    EXPECT_EQ(mon.throttleEngagements(), 1u); // held, not re-engaged
    mon.evaluateTail(20.0); // recovery lifts the throttle
    EXPECT_FALSE(mon.current().throttleCoRunner);
    for (int i = 0; i < 4; ++i)
        mon.evaluateTail(150.0);
    EXPECT_EQ(mon.throttleEngagements(), 2u);
}

TEST(MonitorDeathTest, TailPercentileOutsideRangePanics)
{
    MonitorConfig cfg = monitorConfig();
    cfg.tailPercentile = 100.0;
    Cpi2Monitor top(cfg); // the top of the range is valid
    cfg.tailPercentile = 0.0;
    EXPECT_DEATH({ Cpi2Monitor mon(cfg); }, "tail percentile must be in");
    cfg.tailPercentile = 150.0;
    EXPECT_DEATH({ Cpi2Monitor mon(cfg); }, "tail percentile must be in");
}

} // namespace
} // namespace stretch
