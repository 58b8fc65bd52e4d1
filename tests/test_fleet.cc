/**
 * @file
 * Fleet-layer tests: serial/parallel bit-identity, placement-policy unit
 * tests over fixed capacities, the dynamic per-core mode-control loop,
 * and N=1 fleet equivalence with sim::run.
 */

#include <cstdint>
#include <gtest/gtest.h>

#include "sim/fleet.h"
#include "sim/op_point_cache.h"
#include "sim/runner.h"

namespace stretch::sim
{
namespace
{

/** Force the next runFleet to really re-measure: determinism tests
 *  compare two *fresh* runs, not a run against its own memo. */
void
clearOperatingPoints()
{
    OperatingPointCache::instance().clear();
}

/** Small-but-real colocation config so fleet tests stay fast. */
RunConfig
smallConfig()
{
    RunConfig cfg;
    cfg.workload0 = "web_search";
    cfg.workload1 = "zeusmp";
    cfg.samples = 2;
    cfg.warmupOps = 2000;
    cfg.measureOps = 5000;
    return cfg;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        EXPECT_EQ(a.uipc[t], b.uipc[t]); // bit-identical, not approximate
        EXPECT_EQ(a.stats[t].committedOps, b.stats[t].committedOps);
        EXPECT_EQ(a.stats[t].fetchedOps, b.stats[t].fetchedOps);
        EXPECT_EQ(a.stats[t].branchMispredicts, b.stats[t].branchMispredicts);
        EXPECT_EQ(a.stats[t].dispatchStallRob, b.stats[t].dispatchStallRob);
        EXPECT_EQ(a.stats[t].robOccupancySum, b.stats[t].robOccupancySum);
        EXPECT_EQ(a.l1dMissCount[t], b.l1dMissCount[t]);
        EXPECT_EQ(a.l1iMissCount[t], b.l1iMissCount[t]);
        EXPECT_EQ(a.llcMissCount[t], b.llcMissCount[t]);
    }
    EXPECT_EQ(a.totalCycles, b.totalCycles);
}

TEST(FleetDeterminism, SerialAndParallelAreBitIdentical)
{
    FleetConfig fleet = homogeneousFleet(4, smallConfig());
    fleet.requests = 2000;

    FleetConfig serial = fleet;
    serial.threads = 1;
    FleetConfig parallel = fleet;
    parallel.threads = 4;

    FleetResult a = runFleet(serial);
    clearOperatingPoints();
    FleetResult b = runFleet(parallel);

    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i)
        expectIdentical(a.cores[i], b.cores[i]);
    EXPECT_EQ(a.totalLsUipc, b.totalLsUipc);
    EXPECT_EQ(a.totalBatchUipc, b.totalBatchUipc);
    EXPECT_EQ(a.lsUipc.median, b.lsUipc.median);
    EXPECT_EQ(a.dispatch.latencyMs.p99, b.dispatch.latencyMs.p99);
    EXPECT_EQ(a.dispatch.placed, b.dispatch.placed);
    EXPECT_EQ(a.dispatch.throughputRps, b.dispatch.throughputRps);
}

TEST(FleetDeterminism, RunnerParallelSamplesAreBitIdentical)
{
    RunConfig cfg = smallConfig();
    cfg.samples = 4;

    RunConfig serial = cfg;
    serial.parallelism = 1;
    RunConfig parallel = cfg;
    parallel.parallelism = 4;

    expectIdentical(run(serial), run(parallel));
}

TEST(FleetDeterminism, SameSeedSameResults)
{
    FleetConfig fleet = homogeneousFleet(2, smallConfig());
    fleet.requests = 1000;
    FleetResult a = runFleet(fleet);
    clearOperatingPoints();
    FleetResult b = runFleet(fleet);
    for (std::size_t i = 0; i < a.cores.size(); ++i)
        expectIdentical(a.cores[i], b.cores[i]);
    EXPECT_EQ(a.dispatch.latencyMs.median, b.dispatch.latencyMs.median);
}

TEST(FleetEquivalence, SingleCoreFleetMatchesRun)
{
    RunConfig cfg = smallConfig();

    // The core keeps its own seed (homogeneousFleet would decorrelate it).
    FleetConfig fleet;
    fleet.cores = {cfg};
    fleet.requests = 500;

    FleetResult fr = runFleet(fleet);
    RunResult direct = run(cfg);

    ASSERT_EQ(fr.cores.size(), 1u);
    expectIdentical(fr.cores[0], direct);
    EXPECT_EQ(fr.totalLsUipc, direct.uipc[0]);
    EXPECT_EQ(fr.totalBatchUipc, direct.uipc[1]);
}

TEST(FleetDecorrelation, HomogeneousCoresGetDistinctSeeds)
{
    FleetConfig fleet = homogeneousFleet(4, smallConfig());
    for (std::size_t i = 0; i < fleet.cores.size(); ++i)
        for (std::size_t j = i + 1; j < fleet.cores.size(); ++j)
            EXPECT_NE(fleet.cores[i].seed, fleet.cores[j].seed);
}

// ---- Placement-policy unit tests over fixed capacities ----------------

/** Mode-independent capacities: every mode serves at the given rate. */
std::vector<ModeRates>
flatRates(const std::vector<double> &rates)
{
    std::vector<ModeRates> out;
    for (double rate : rates)
        out.push_back(ModeRates::flat(rate));
    return out;
}

TEST(Placement, RoundRobinSpreadsEvenly)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({1.0, 1.0, 1.0, 1.0});
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.requests = 4000;
    cfg.arrivalRatePerMs = 2.0;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    for (std::uint64_t placed : out.placed)
        EXPECT_EQ(placed, 1000u);
}

TEST(Placement, RoundRobinSkipsNonServingCores)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({1.0, 0.0, 1.0});
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.requests = 2000;
    cfg.arrivalRatePerMs = 1.0;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    EXPECT_EQ(out.placed[0], 1000u);
    EXPECT_EQ(out.placed[1], 0u);
    EXPECT_EQ(out.placed[2], 1000u);
}

TEST(Placement, LeastLoadedSendsMoreWorkToFasterCores)
{
    // A 4x faster core drains its backlog 4x quicker, so shortest-queue
    // placement must route it a clear majority of the stream.
    DispatchConfig cfg;
    cfg.rates = flatRates({4.0, 1.0});
    cfg.policy = PlacementPolicy::LeastLoaded;
    cfg.requests = 5000;
    cfg.arrivalRatePerMs = 4.0;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    EXPECT_GT(out.placed[0], out.placed[1]);
    EXPECT_GT(out.placed[0], 5000u * 6 / 10);
}

TEST(Placement, QosAwareAvoidsSlowCoresAtLowLoad)
{
    // At trivial load queues are almost always empty; predicted latency
    // is then demand/rate, which the fast core wins. The slow core only
    // sees the rare request arriving into a momentary backlog.
    DispatchConfig cfg;
    cfg.rates = flatRates({4.0, 1.0});
    cfg.policy = PlacementPolicy::QosAware;
    cfg.requests = 1000;
    cfg.arrivalRatePerMs = 0.1;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    EXPECT_GT(out.placed[0], 950u);
    EXPECT_LT(out.placed[1], 50u);
}

TEST(Placement, QosAwareBeatsRoundRobinTailOnSkewedFleet)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({4.0, 1.0, 1.0, 0.5});
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.requests = 8000;
    cfg.arrivalRatePerMs = 3.0;
    cfg.seed = 7;
    DispatchOutcome rr = dispatchRequests(cfg);
    cfg.policy = PlacementPolicy::QosAware;
    DispatchOutcome qos = dispatchRequests(cfg);
    EXPECT_LT(qos.latencyMs.p99, rr.latencyMs.p99);
    EXPECT_LT(qos.latencyMs.median, rr.latencyMs.median);
}

TEST(Placement, DispatchIsDeterministicInSeed)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({2.0, 1.0});
    cfg.policy = PlacementPolicy::LeastLoaded;
    cfg.requests = 3000;
    cfg.arrivalRatePerMs = 2.0;
    cfg.seed = 99;
    DispatchOutcome a = dispatchRequests(cfg);
    DispatchOutcome b = dispatchRequests(cfg);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.latencyMs.p99, b.latencyMs.p99);
    EXPECT_EQ(a.elapsedMs, b.elapsedMs);

    cfg.seed = 100;
    DispatchOutcome c = dispatchRequests(cfg);
    EXPECT_NE(a.latencyMs.median, c.latencyMs.median);
}

TEST(Placement, AutoArrivalRateIsSeventyPercentOfCapacity)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({2.0, 3.0});
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.requests = 100;
    cfg.arrivalRatePerMs = 0.0;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    EXPECT_DOUBLE_EQ(out.offeredRatePerMs, 0.7 * 5.0);
}

TEST(Placement, PolicyNamesAreStable)
{
    EXPECT_STREQ(toString(PlacementPolicy::RoundRobin), "round-robin");
    EXPECT_STREQ(toString(PlacementPolicy::LeastLoaded), "least-loaded");
    EXPECT_STREQ(toString(PlacementPolicy::PowerOfTwo), "power-of-two");
    EXPECT_STREQ(toString(PlacementPolicy::QosAware), "qos-aware");
    EXPECT_STREQ(toString(ModePolicyKind::Static), "static");
    EXPECT_STREQ(toString(ModePolicyKind::BacklogHysteresis),
                 "backlog-hysteresis");
    EXPECT_STREQ(toString(ModePolicyKind::SlackDriven), "slack-driven");
}

TEST(Placement, PowerOfTwoIsDeterministicInSeed)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({2.0, 1.0, 1.0, 0.5});
    cfg.policy = PlacementPolicy::PowerOfTwo;
    cfg.requests = 4000;
    cfg.arrivalRatePerMs = 2.5;
    cfg.seed = 11;
    DispatchOutcome a = dispatchRequests(cfg);
    DispatchOutcome b = dispatchRequests(cfg);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.latencyMs.p99, b.latencyMs.p99);
    EXPECT_EQ(a.elapsedMs, b.elapsedMs);

    cfg.seed = 12;
    DispatchOutcome c = dispatchRequests(cfg);
    EXPECT_NE(a.placed, c.placed);
}

TEST(Placement, PowerOfTwoSpreadsAndSkipsNonServingCores)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({1.0, 0.0, 1.0, 1.0});
    cfg.policy = PlacementPolicy::PowerOfTwo;
    cfg.requests = 6000;
    cfg.arrivalRatePerMs = 2.0;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    EXPECT_EQ(out.placed[1], 0u);
    // Load-aware two-choice placement keeps every serving core busy.
    for (std::size_t c : {0u, 2u, 3u})
        EXPECT_GT(out.placed[c], 6000u / 6);
}

TEST(Placement, PowerOfTwoBeatsRoundRobinTailOnSkewedFleet)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({4.0, 1.0, 1.0, 0.5});
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.requests = 8000;
    cfg.arrivalRatePerMs = 3.0;
    cfg.seed = 7;
    DispatchOutcome rr = dispatchRequests(cfg);
    cfg.policy = PlacementPolicy::PowerOfTwo;
    DispatchOutcome p2 = dispatchRequests(cfg);
    EXPECT_LT(p2.latencyMs.p99, rr.latencyMs.p99);
}

TEST(Placement, LeastLoadedSkipsZeroRateCores)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({2.0, 0.0, 1.0});
    cfg.policy = PlacementPolicy::LeastLoaded;
    cfg.requests = 4000;
    cfg.arrivalRatePerMs = 2.0;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    EXPECT_EQ(out.placed[1], 0u);
    EXPECT_EQ(out.placed[0] + out.placed[2], 4000u);
    // Heterogeneous rates: the faster core drains quicker and takes more.
    EXPECT_GT(out.placed[0], out.placed[2]);
}

TEST(Placement, QosAwareSkipsZeroRateCores)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({0.0, 3.0, 1.0});
    cfg.policy = PlacementPolicy::QosAware;
    cfg.requests = 4000;
    cfg.arrivalRatePerMs = 2.5;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    EXPECT_EQ(out.placed[0], 0u);
    EXPECT_GT(out.placed[1], out.placed[2]);
}

TEST(Placement, TailSummaryCarriesP999)
{
    DispatchConfig cfg;
    cfg.rates = flatRates({1.0, 1.0});
    cfg.policy = PlacementPolicy::LeastLoaded;
    cfg.requests = 5000;
    cfg.arrivalRatePerMs = 1.5;
    cfg.seed = 7;
    DispatchOutcome out = dispatchRequests(cfg);
    EXPECT_GE(out.latencyMs.p999, out.latencyMs.p99);
    EXPECT_LE(out.latencyMs.p999, out.latencyMs.max);
    EXPECT_GT(out.latencyMs.p999, 0.0);
}

// ---- Dynamic per-core mode control ------------------------------------

/** Two serving cores whose capacity depends on the engaged mode the way a
 *  Stretch core's does: B-mode sheds LS capacity, Q-mode buys extra. */
DispatchConfig
dynamicConfig()
{
    DispatchConfig cfg;
    cfg.rates = {ModeRates{2.0, 1.7, 2.4}, ModeRates{2.0, 1.7, 2.4}};
    cfg.policy = PlacementPolicy::LeastLoaded;
    cfg.requests = 20000;
    cfg.seed = 21;
    return cfg;
}

std::uint64_t
coreTransitions(const DispatchOutcome &out, std::size_t c)
{
    return out.modeStats[c].transitions;
}

TEST(ModeControl, StaticPolicyNeverTransitions)
{
    DispatchConfig cfg = dynamicConfig();
    DispatchOutcome out = dispatchRequests(cfg);
    ASSERT_EQ(out.modeStats.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(coreTransitions(out, c), 0u);
        EXPECT_EQ(out.modeStats[c].flushMs, 0.0);
        EXPECT_EQ(out.modeStats[c].finalMode, StretchMode::Baseline);
        EXPECT_DOUBLE_EQ(
            out.modeStats[c].residencyMs[modeIndex(StretchMode::Baseline)],
            out.elapsedMs);
    }
}

TEST(ModeControl, StaticModeHoldsAndRetimesService)
{
    DispatchConfig cfg = dynamicConfig();
    cfg.control.staticMode = StretchMode::QosBoost;
    DispatchOutcome q = dispatchRequests(cfg);
    EXPECT_EQ(q.modeStats[0].finalMode, StretchMode::QosBoost);
    EXPECT_EQ(coreTransitions(q, 0), 0u);
    EXPECT_DOUBLE_EQ(
        q.modeStats[0].residencyMs[modeIndex(StretchMode::QosBoost)],
        q.elapsedMs);

    // The faster Q-mode rate must show up as lower sojourn times.
    cfg.control.staticMode = StretchMode::BatchBoost;
    DispatchOutcome b = dispatchRequests(cfg);
    EXPECT_LT(q.latencyMs.median, b.latencyMs.median);
}

TEST(ModeControl, BacklogPolicyTransitionsAndAccounts)
{
    DispatchConfig cfg = dynamicConfig();
    cfg.control.kind = ModePolicyKind::BacklogHysteresis;
    cfg.control.quantumMs = 0.5;
    DispatchOutcome out = dispatchRequests(cfg);

    std::uint64_t total = out.totalTransitions();
    EXPECT_GT(total, 0u);
    for (std::size_t c = 0; c < 2; ++c) {
        const CoreModeStats &m = out.modeStats[c];
        // Flush cost is charged per transition (up to accumulation
        // rounding: flushMs is summed one transition at a time).
        EXPECT_NEAR(m.flushMs,
                    static_cast<double>(m.transitions) * modeFlushCostMs,
                    1e-12 * static_cast<double>(m.transitions + 1));
        // Residency partitions the whole run.
        double residency =
            m.residencyMs[0] + m.residencyMs[1] + m.residencyMs[2];
        EXPECT_NEAR(residency, out.elapsedMs, 1e-9 * out.elapsedMs);
    }
}

TEST(ModeControl, WideHysteresisBandDoesNotFlapUnderSteadyLoad)
{
    // Steady moderate load inside a wide hysteresis band: the policy may
    // engage B-mode when the queue idles out, but must not oscillate.
    DispatchConfig cfg = dynamicConfig();
    cfg.rates = {ModeRates{2.0, 1.9, 2.2}, ModeRates{2.0, 1.9, 2.2}};
    cfg.arrivalRatePerMs = 0.5 * 4.0; // 50% load
    cfg.control.kind = ModePolicyKind::BacklogHysteresis;
    cfg.control.quantumMs = 0.5;
    cfg.control.engageBelowMs = 0.05; // near-idle queues only
    cfg.control.disengageAboveMs = 8.0;
    cfg.control.qmodeAboveMs = 50.0; // far outside steady-state backlog
    DispatchOutcome out = dispatchRequests(cfg);

    for (std::size_t c = 0; c < 2; ++c) {
        // Thousands of quantum boundaries; a flapping controller would
        // rack up transitions at every other one.
        EXPECT_LE(coreTransitions(out, c), 4u);
        EXPECT_EQ(out.modeStats[c].residencyMs[modeIndex(
                      StretchMode::QosBoost)],
                  0.0);
    }
}

TEST(ModeControl, OverloadEscalatesToQMode)
{
    DispatchConfig cfg = dynamicConfig();
    cfg.arrivalRatePerMs = 1.3 * 4.0; // 130% of baseline capacity
    cfg.control.kind = ModePolicyKind::BacklogHysteresis;
    cfg.control.quantumMs = 0.5;
    DispatchOutcome out = dispatchRequests(cfg);

    // While arrivals keep coming the backlog is unbounded, so Q-mode
    // dominates the run; once the stream ends the queue drains and the
    // policy may step back down, so the final mode is not asserted.
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_GE(coreTransitions(out, c), 1u);
        EXPECT_GT(out.modeStats[c].residencyMs[modeIndex(
                      StretchMode::QosBoost)],
                  0.5 * out.elapsedMs);
    }
}

TEST(ModeControl, SlackDrivenFollowsTheMonitorLadder)
{
    DispatchConfig cfg = dynamicConfig();
    cfg.arrivalRatePerMs = 0.4 * 4.0; // ample slack
    cfg.control.kind = ModePolicyKind::SlackDriven;
    cfg.control.quantumMs = 0.5;
    cfg.control.monitor.qosTarget = 20.0; // sojourn target in ms, generous
    DispatchOutcome out = dispatchRequests(cfg);

    // With latencies far under target the ladder engages B-mode and
    // stays there: one transition per core, B-mode dominating residency.
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_GE(coreTransitions(out, c), 1u);
        EXPECT_GT(out.modeStats[c].residencyMs[modeIndex(
                      StretchMode::BatchBoost)],
                  0.8 * out.elapsedMs);
        EXPECT_EQ(out.modeStats[c].finalMode, StretchMode::BatchBoost);
    }
}

TEST(ModeControl, ZeroRateCoresCarryNoModeTimeline)
{
    DispatchConfig cfg = dynamicConfig();
    cfg.rates.push_back(ModeRates{}); // a core that cannot serve
    cfg.control.kind = ModePolicyKind::BacklogHysteresis;
    DispatchOutcome out = dispatchRequests(cfg);
    const CoreModeStats &idle = out.modeStats[2];
    EXPECT_EQ(idle.transitions, 0u);
    EXPECT_EQ(idle.residencyMs[0] + idle.residencyMs[1] + idle.residencyMs[2],
              0.0);
    EXPECT_EQ(out.placed[2], 0u);
}

TEST(ModeControl, BurstyArrivalsAreDeterministic)
{
    DispatchConfig cfg = dynamicConfig();
    cfg.burstRatio = 4.0;
    cfg.control.kind = ModePolicyKind::BacklogHysteresis;
    DispatchOutcome a = dispatchRequests(cfg);
    DispatchOutcome b = dispatchRequests(cfg);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.latencyMs.p999, b.latencyMs.p999);
    EXPECT_EQ(a.totalTransitions(), b.totalTransitions());
}

// ---- Co-runner throttling (the closed CPI² actuation loop) ------------

/** Overloaded two-core config whose monitor must walk the full ladder:
 *  violations step to Q-mode, persist, and order throttling; the
 *  throttled LS rate is well above every mode rate so actuation shows. */
DispatchConfig
throttleConfig()
{
    DispatchConfig cfg;
    cfg.rates = {ModeRates{2.0, 1.7, 2.4, 3.4},
                 ModeRates{2.0, 1.7, 2.4, 3.4}};
    cfg.policy = PlacementPolicy::LeastLoaded;
    cfg.requests = 20000;
    cfg.seed = 33;
    cfg.arrivalRatePerMs = 1.1 * 4.0; // 110% of baseline capacity
    cfg.control.kind = ModePolicyKind::SlackDriven;
    cfg.control.quantumMs = 0.5;
    cfg.control.monitor.qosTarget = 5.0; // ms of sojourn; overload violates
    return cfg;
}

TEST(ThrottleControl, LadderEngagesAndDisengagesWithHysteresis)
{
    DispatchOutcome out = dispatchRequests(throttleConfig());

    EXPECT_GE(out.totalThrottleEngagements(), 1u);
    EXPECT_GT(out.totalThrottleMs(), 0.0);
    for (std::size_t c = 0; c < 2; ++c) {
        const CoreModeStats &m = out.modeStats[c];
        // The ladder really cycles: a second engagement implies a lift in
        // between, and the post-stream drain recovers the tail so the
        // run ends unthrottled.
        EXPECT_GE(m.throttleEngagements, 2u);
        EXPECT_FALSE(m.throttledAtEnd);
        EXPECT_LT(m.throttleMs, out.elapsedMs);
        // Engagement needs violationsBeforeThrottle+1 violating windows
        // and release needs deep recovery, so a sane controller cycles
        // far slower than the quantum clock (no flapping).
        double quanta = out.elapsedMs / 0.5;
        EXPECT_LT(static_cast<double>(m.throttleEngagements),
                  quanta / 8.0);
        // The monitor saw real per-request CPI signal.
        EXPECT_GT(m.cpiOutliers, 0u);
    }
}

TEST(ThrottleControl, ActuationCutsTailVsNeverThrottle)
{
    DispatchConfig cfg = throttleConfig();
    cfg.control.honorThrottle = false;
    DispatchOutcome never = dispatchRequests(cfg);
    EXPECT_EQ(never.totalThrottleMs(), 0.0);
    EXPECT_EQ(never.totalThrottleEngagements(), 0u);

    cfg.control.honorThrottle = true;
    DispatchOutcome acted = dispatchRequests(cfg);
    EXPECT_GT(acted.totalThrottleMs(), 0.0);

    // Suppressing the co-runner frees real LS capacity: the tail and the
    // makespan both improve against the identical arrival stream.
    EXPECT_LT(acted.latencyMs.p99, never.latencyMs.p99);
    EXPECT_LT(acted.latencyMs.median, never.latencyMs.median);
}

TEST(ThrottleControl, ZeroThrottledRateOnlyMarksResidency)
{
    // throttledLs == 0 means "no throttled operating point measured":
    // the dispatcher still tracks residency, but rates never change, so
    // the outcome is identical to ignoring the throttle decision.
    DispatchConfig cfg = throttleConfig();
    for (ModeRates &r : cfg.rates)
        r.throttledLs = 0.0;
    DispatchOutcome marked = dispatchRequests(cfg);
    cfg.control.honorThrottle = false;
    DispatchOutcome ignored = dispatchRequests(cfg);

    EXPECT_GT(marked.totalThrottleMs(), 0.0);
    EXPECT_EQ(marked.latencyMs.p99, ignored.latencyMs.p99);
    EXPECT_EQ(marked.placed, ignored.placed);
}

// ---- Diurnal load replay ----------------------------------------------

TEST(DiurnalDispatch, TimelineFollowsTheTraceDeterministically)
{
    DispatchConfig cfg;
    cfg.rates = {ModeRates::flat(2.0), ModeRates::flat(2.0)};
    cfg.policy = PlacementPolicy::LeastLoaded;
    cfg.seed = 77;
    cfg.diurnalTrace = queueing::DiurnalTrace::webSearchCluster();
    cfg.msPerHour = 20.0;
    cfg.timelineBucketMs = 20.0; // one bucket per replayed hour
    cfg.arrivalRatePerMs = 3.5;  // peak rate, below capacity
    // Enough arrivals to cover a full replayed day at the mean rate.
    cfg.requests = static_cast<std::uint64_t>(
        cfg.arrivalRatePerMs * cfg.diurnalTrace->meanLoad() * 24.0 *
        cfg.msPerHour);

    DispatchOutcome a = dispatchRequests(cfg);
    DispatchOutcome b = dispatchRequests(cfg);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.latencyMs.p99, b.latencyMs.p99);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());

    // The timeline partitions every completion and mirrors the trace:
    // the midday plateau (hours 12-15) far outdraws the overnight trough
    // (hours 2-5).
    ASSERT_GE(a.timeline.size(), 22u);
    std::uint64_t total = 0, night = 0, midday = 0;
    for (std::size_t h = 0; h < a.timeline.size(); ++h) {
        const TimelineBucket &tb = a.timeline[h];
        EXPECT_EQ(tb.startMs, static_cast<double>(h) * 20.0);
        EXPECT_EQ(tb.p50Ms, b.timeline[h].p50Ms);
        total += tb.completions;
        if (h >= 2 && h <= 5)
            night += tb.completions;
        if (h >= 12 && h <= 15)
            midday += tb.completions;
    }
    EXPECT_EQ(total, cfg.requests);
    EXPECT_LT(static_cast<double>(night),
              0.75 * static_cast<double>(midday));
    EXPECT_NEAR(a.timeline[14].loadFraction,
                cfg.diurnalTrace->loadAt(14.5), 1e-12);
}

TEST(FleetDiurnal, ReplayWithThrottlingIsBitIdenticalAcrossThreads)
{
    FleetConfig fleet = homogeneousFleet(2, smallConfig());
    fleet.policy = PlacementPolicy::LeastLoaded;
    fleet.diurnalTrace = queueing::DiurnalTrace::youtubeCluster();
    fleet.msPerHour = 15.0;
    fleet.timelineBucketMs = 15.0;
    fleet.requests = 3000;
    fleet.control.kind = ModePolicyKind::SlackDriven;
    fleet.control.quantumMs = 0.5;
    fleet.control.monitor.qosTarget = 1.0;

    FleetConfig serial = fleet;
    serial.threads = 1;
    FleetConfig parallel = fleet;
    parallel.threads = 0;
    FleetResult a = runFleet(serial);
    clearOperatingPoints();
    FleetResult b = runFleet(parallel);

    EXPECT_EQ(a.dispatch.placed, b.dispatch.placed);
    EXPECT_EQ(a.dispatch.latencyMs.p99, b.dispatch.latencyMs.p99);
    EXPECT_EQ(a.effectiveBatchUipc, b.effectiveBatchUipc);
    ASSERT_EQ(a.dispatch.timeline.size(), b.dispatch.timeline.size());
    for (std::size_t h = 0; h < a.dispatch.timeline.size(); ++h) {
        EXPECT_EQ(a.dispatch.timeline[h].completions,
                  b.dispatch.timeline[h].completions);
        EXPECT_EQ(a.dispatch.timeline[h].p99Ms,
                  b.dispatch.timeline[h].p99Ms);
        EXPECT_EQ(a.dispatch.timeline[h].throttledCoreMs,
                  b.dispatch.timeline[h].throttledCoreMs);
    }
    for (std::size_t c = 0; c < a.dispatch.modeStats.size(); ++c) {
        EXPECT_EQ(a.dispatch.modeStats[c].throttleMs,
                  b.dispatch.modeStats[c].throttleMs);
        EXPECT_EQ(a.dispatch.modeStats[c].throttleEngagements,
                  b.dispatch.modeStats[c].throttleEngagements);
        EXPECT_EQ(a.dispatch.modeStats[c].cpiOutliers,
                  b.dispatch.modeStats[c].cpiOutliers);
    }
}

TEST(FleetThrottle, ClosedLoopSuppressesBatchAndMovesTheTail)
{
    // The acceptance bar: against a never-throttle baseline over the same
    // stream, honouring throttleCoRunner must measurably change batch
    // throughput (suppressed while throttled) and the p99 tail.
    FleetConfig fleet = homogeneousFleet(2, smallConfig());
    fleet.policy = PlacementPolicy::LeastLoaded;
    fleet.requests = 8000;
    fleet.threads = 0;
    fleet.control.kind = ModePolicyKind::SlackDriven;
    fleet.control.quantumMs = 0.5;
    // Tight sojourn target at the default 70%-of-capacity load: the
    // ladder violates, steps to Q-mode, and orders throttling.
    fleet.control.monitor.qosTarget = 0.8;

    FleetResult throttled = runFleet(fleet);
    FleetConfig never = fleet;
    never.control.honorThrottle = false;
    FleetResult baseline = runFleet(never);

    // The whole comparison is thread-count independent: a serial rerun
    // of the throttled fleet reproduces it bit for bit.
    FleetConfig serial = fleet;
    serial.threads = 1;
    clearOperatingPoints();
    FleetResult repeat = runFleet(serial);
    EXPECT_EQ(repeat.effectiveBatchUipc, throttled.effectiveBatchUipc);
    EXPECT_EQ(repeat.dispatch.latencyMs.p99,
              throttled.dispatch.latencyMs.p99);
    EXPECT_EQ(repeat.dispatch.totalThrottleMs(),
              throttled.dispatch.totalThrottleMs());

    ASSERT_GT(throttled.dispatch.totalThrottleEngagements(), 0u);
    ASSERT_GT(throttled.dispatch.totalThrottleMs(), 0.0);
    EXPECT_EQ(baseline.dispatch.totalThrottleMs(), 0.0);

    // The throttled operating point was measured: LS gains capacity over
    // Q-mode, the batch side collapses below every mode's rate.
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_GT(throttled.modeRates[c].throttledLs,
                  throttled.modeRates[c].qmode);
        EXPECT_GT(throttled.modeRates[c].throttledLs, 0.0);
        const FleetResult::BatchOperatingPoints &bp =
            throttled.batchPoints[c];
        EXPECT_GT(bp.throttled, 0.0);
        for (double by_mode : bp.byMode)
            EXPECT_LT(bp.throttled, by_mode);
    }

    // Batch throughput is measurably suppressed and the tail moves.
    EXPECT_LT(throttled.effectiveBatchUipc, baseline.effectiveBatchUipc);
    EXPECT_LT(throttled.dispatch.latencyMs.p99,
              baseline.dispatch.latencyMs.p99);
}

TEST(FleetHeterogeneous, SlotParametersArePlumbedNotBaked)
{
    // heterogeneousFleet must carry slot overrides in `slots` (applied
    // at measurement time), leave the cloned RunConfigs untouched, and
    // decorrelate per-core seeds exactly like homogeneousFleet.
    RunConfig base = smallConfig();
    std::vector<CoreSlot> slots(3);
    slots[1].robEntries = 96;
    slots[1].lsqEntries = 32;
    slots[2].bmodeSkew = SkewConfig{28, 60};

    FleetConfig fleet = heterogeneousFleet(base, slots);
    ASSERT_EQ(fleet.cores.size(), 3u);
    ASSERT_EQ(fleet.slots.size(), 3u);
    EXPECT_EQ(fleet.slots[0].robEntries, 0u); // zero = keep RunConfig's
    EXPECT_EQ(fleet.slots[1].robEntries, 96u);
    EXPECT_EQ(fleet.slots[1].lsqEntries, 32u);
    EXPECT_EQ(fleet.slots[2].bmodeSkew.lsRobEntries, 28u);
    EXPECT_EQ(fleet.seed, base.seed);
    for (std::size_t i = 0; i < fleet.cores.size(); ++i) {
        EXPECT_EQ(fleet.cores[i].workload0, base.workload0);
        EXPECT_EQ(fleet.cores[i].workload1, base.workload1);
        // Physical sizes stay the base's; the override lives in the slot.
        EXPECT_EQ(fleet.cores[i].robEntries, base.robEntries);
        EXPECT_EQ(fleet.cores[i].lsqEntries, base.lsqEntries);
        EXPECT_EQ(fleet.cores[i].seed, mixSeed(base.seed, i));
    }
}

TEST(FleetHeterogeneous, AllZeroSlotsMatchAHomogeneousFleet)
{
    // A zero-valued CoreSlot must be a no-op: same measured capacities
    // and dispatch as the slot-free fleet of the same size.
    RunConfig base = smallConfig();
    FleetConfig het = heterogeneousFleet(base, std::vector<CoreSlot>(2));
    FleetConfig hom = homogeneousFleet(2, base);
    het.requests = hom.requests = 300;

    FleetResult a = runFleet(het);
    FleetResult b = runFleet(hom);
    ASSERT_EQ(a.modeRates.size(), b.modeRates.size());
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(a.modeRates[c].baseline, b.modeRates[c].baseline);
    EXPECT_EQ(a.dispatch.latencyMs.p99, b.dispatch.latencyMs.p99);
    EXPECT_EQ(a.dispatch.placed, b.dispatch.placed);
}

TEST(FleetHeterogeneous, SlotsShapeMeasuredCapacity)
{
    RunConfig base = smallConfig();
    std::vector<CoreSlot> slots(2);
    slots[1].robEntries = 96; // a little core: half the window
    slots[1].lsqEntries = 32;
    slots[1].bmodeSkew = SkewConfig{28, 68};
    slots[1].qmodeSkew = SkewConfig{68, 28};

    FleetConfig fleet = heterogeneousFleet(base, slots);
    fleet.policy = PlacementPolicy::LeastLoaded;
    fleet.requests = 3000;
    fleet.threads = 0;
    fleet.control.kind = ModePolicyKind::SlackDriven;
    fleet.control.monitor.qosTarget = 1.0;

    FleetResult r = runFleet(fleet);

    // The little core's window halves, so every measured operating point
    // sits below the big core's.
    EXPECT_LT(r.modeRates[1].baseline, r.modeRates[0].baseline);
    EXPECT_LT(r.modeRates[1].qmode, r.modeRates[0].qmode);
    EXPECT_LT(r.modeRates[1].throttledLs, r.modeRates[0].throttledLs);
    // Per-slot skews preserve the Stretch ordering within each class.
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_LT(r.modeRates[c].bmode, r.modeRates[c].baseline);
        EXPECT_GT(r.modeRates[c].qmode, r.modeRates[c].bmode);
    }
    // The load-aware dispatcher leans on the faster big core.
    EXPECT_GT(r.dispatch.placed[0], r.dispatch.placed[1]);
}

TEST(FleetDynamicModes, ClosedLoopIsBitIdenticalSerialVsParallel)
{
    FleetConfig fleet = homogeneousFleet(3, smallConfig());
    fleet.requests = 4000;
    fleet.policy = PlacementPolicy::LeastLoaded;
    fleet.control.kind = ModePolicyKind::BacklogHysteresis;
    fleet.control.quantumMs = 0.5;

    FleetConfig serial = fleet;
    serial.threads = 1;
    FleetConfig parallel = fleet;
    parallel.threads = 0;

    FleetResult a = runFleet(serial);
    clearOperatingPoints();
    FleetResult b = runFleet(parallel);

    // The acceptance bar: a dynamic fleet run actually flips mode
    // registers, reports residency, and parallelism changes nothing.
    EXPECT_GT(a.dispatch.totalTransitions(), 0u);
    ASSERT_EQ(a.dispatch.modeStats.size(), b.dispatch.modeStats.size());
    for (std::size_t c = 0; c < a.dispatch.modeStats.size(); ++c) {
        const CoreModeStats &ma = a.dispatch.modeStats[c];
        const CoreModeStats &mb = b.dispatch.modeStats[c];
        EXPECT_EQ(ma.transitions, mb.transitions);
        EXPECT_EQ(ma.finalMode, mb.finalMode);
        for (std::size_t m = 0; m < numStretchModes; ++m)
            EXPECT_EQ(ma.residencyMs[m], mb.residencyMs[m]); // bit-identical
        EXPECT_EQ(a.modeRates[c].baseline, b.modeRates[c].baseline);
        EXPECT_EQ(a.modeRates[c].bmode, b.modeRates[c].bmode);
        EXPECT_EQ(a.modeRates[c].qmode, b.modeRates[c].qmode);
    }
    EXPECT_EQ(a.dispatch.latencyMs.p99, b.dispatch.latencyMs.p99);
    EXPECT_EQ(a.dispatch.latencyMs.p999, b.dispatch.latencyMs.p999);
    EXPECT_EQ(a.dispatch.placed, b.dispatch.placed);

    // The three operating points were really measured: B-mode (56-entry
    // LS ROB) sheds LS capacity relative to Baseline (96) and Q-mode
    // (136); the Q-vs-Baseline gain is small enough to be noisy at this
    // test's tiny sampling, so only the robust orderings are asserted.
    for (const ModeRates &r : a.modeRates) {
        EXPECT_LT(r.bmode, r.baseline);
        EXPECT_GT(r.qmode, r.bmode);
    }
}

// ---- Golden traffic streams --------------------------------------------
//
// Exact outputs of drawn-traffic dispatch, pinned bit-for-bit. Arrival
// gaps, class tags and demand draws feed every figure below, so any
// change to how the dispatcher generates its traffic fails here.

/** Four flat cores of unequal speed under the given placement policy. */
DispatchConfig
goldenConfig(PlacementPolicy policy)
{
    DispatchConfig cfg;
    cfg.rates = {ModeRates::flat(1.0), ModeRates::flat(0.8),
                 ModeRates::flat(1.2), ModeRates::flat(0.6)};
    cfg.policy = policy;
    cfg.requests = 6000;
    cfg.seed = 2024;
    return cfg;
}

/** The pinned figures of one dispatch run. */
struct DispatchPin
{
    double elapsedMs;
    double p99Ms;
    double maxMs;
    std::vector<std::uint64_t> placed;
    std::vector<std::uint64_t> classCompleted;
};

void
expectPinned(const DispatchOutcome &out, const DispatchPin &pin)
{
    EXPECT_EQ(out.elapsedMs, pin.elapsedMs);
    EXPECT_EQ(out.latencyMs.p99, pin.p99Ms);
    EXPECT_EQ(out.latencyMs.max, pin.maxMs);
    EXPECT_EQ(out.placed, pin.placed);
    std::vector<std::uint64_t> completed;
    for (const ClassOutcome &co : out.perClass)
        completed.push_back(co.completed);
    EXPECT_EQ(completed, pin.classCompleted);
}

TEST(TrafficGolden, DispatchPoisson)
{
    expectPinned(dispatchRequests(goldenConfig(PlacementPolicy::LeastLoaded)),
                 {2371.3705482199316, 5.9843546017929121, 9.3211342880987615,
                  {1896, 1453, 1755, 896},
                  {}});
}

TEST(TrafficGolden, DispatchMmpp)
{
    DispatchConfig cfg = goldenConfig(PlacementPolicy::PowerOfTwo);
    cfg.arrivalRatePerMs = 2.6;
    cfg.burstRatio = 4.0;
    cfg.dwellLowMs = 30.0;
    cfg.dwellHighMs = 8.0;
    expectPinned(dispatchRequests(cfg),
                 {2592.3784583625538, 33.124764150103772, 39.494490349097305,
                  {1712, 1416, 1842, 1030},
                  {}});
}

TEST(TrafficGolden, DispatchDiurnal)
{
    DispatchConfig cfg = goldenConfig(PlacementPolicy::QosAware);
    cfg.diurnalTrace = queueing::DiurnalTrace::webSearchCluster();
    cfg.msPerHour = 20.0;
    expectPinned(dispatchRequests(cfg),
                 {2417.4275753407405, 12.968712349342937, 16.799108692789332,
                  {1594, 1417, 1671, 1318},
                  {}});
}

TEST(TrafficGolden, DispatchTwoClassesOnOneStream)
{
    DispatchConfig cfg = goldenConfig(PlacementPolicy::ClassAware);
    cfg.classes =
        workloads::ServiceClassRegistry::searchAnalyticsPair(8.0, 80.0);
    expectPinned(dispatchRequests(cfg),
                 {2374.1122626896135, 21.937410968480304, 44.349296907409325,
                  {1750, 1038, 2271, 941},
                  {4021, 1979}});
}

TEST(TrafficGolden, DispatchPerClassStreams)
{
    // A bursty MMPP class beside a Poisson one, then both classes
    // replaying the day six hours apart.
    DispatchConfig cfg = goldenConfig(PlacementPolicy::LeastLoaded);
    cfg.classes =
        workloads::ServiceClassRegistry::searchAnalyticsPair(8.0, 80.0);
    cfg.classes.classAt(1).traffic.burstRatio = 4.0;
    cfg.classes.classAt(1).traffic.dwellLowMs = 30.0;
    cfg.classes.classAt(1).traffic.dwellHighMs = 8.0;
    cfg.perClassArrivals = true;
    expectPinned(dispatchRequests(cfg),
                 {2440.8846912321242, 11.71870833325926, 51.775597380901672,
                  {1850, 1433, 1803, 914},
                  {3999, 2001}});

    cfg.diurnalTrace = queueing::DiurnalTrace::webSearchCluster();
    cfg.msPerHour = 20.0;
    cfg.classes.classAt(1).traffic.phaseOffsetHours = 6.0;
    expectPinned(dispatchRequests(cfg),
                 {2450.7720577091, 18.437394067492292, 35.757256439480443,
                  {1769, 1365, 1922, 944},
                  {3962, 2038}});
}

} // namespace
} // namespace stretch::sim
