/**
 * @file
 * Unit tests for the Stretch control plane: the CPI2-style monitor's
 * decision ladder.
 */

#include <gtest/gtest.h>

#include "qos/cpi2_monitor.h"

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

} // namespace
} // namespace stretch
