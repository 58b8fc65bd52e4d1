/**
 * @file
 * Incident-layer tests: the engine's scheduled-event channel, the
 * dispatcher's incident actions, the typed-incident compiler, and the
 * drill catalog run as a pass/fail QoS regression suite (one ctest
 * case per preset + incident pairing).
 */

#include <cctype>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "queueing/event_engine.h"
#include "scenario/presets.h"
#include "sim/fleet.h"
#include "util/rng.h"

namespace stretch::scenario
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Engine: the scheduled-event control channel ----------------------

/** Fixed-gap, fixed-demand policy (exact arithmetic); @p hooks fill
 *  makePolicy's optional trailing arguments. */
template <class... Hooks>
auto
fixedTraffic(queueing::EventEngine &engine, double gap, double demand,
             Hooks... hooks)
{
    return queueing::makePolicy(
        [gap] { return queueing::EventEngine::Arrival{gap, 0}; },
        [demand](std::uint32_t) { return demand; },
        [&engine](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [](std::size_t, double start, double d) { return start + d; },
        hooks...);
}

TEST(ControlChannel, FiresAtExactTimesBeforeCoincidingQuantum)
{
    queueing::EventEngine engine(1);
    std::vector<std::pair<char, double>> log; // 'c'ontrol / 'q'uantum / 'd'one
    std::vector<double> controls = {1.7, 2.0, 2.0, 5.25};
    std::size_t next = 0;
    // Arrivals at 1..10 ms, 0.4 ms demands, quantum boundaries at 1..10:
    // all event times are exact, so ordering is observable exactly.
    auto policy = fixedTraffic(
        engine, 1.0, 0.4,
        [&](const queueing::Completion &c) {
            log.push_back({'d', c.finishMs});
        },
        queueing::NoopShed{}, [&](double t) { log.push_back({'q', t}); },
        1.0, 0.0,
        [&]() -> double {
            return next < controls.size() ? controls[next] : kInf;
        },
        [&](double t) {
            log.push_back({'c', t});
            ++next;
        });
    engine.run(10, policy);

    // Event times never regress, and control events land at their exact
    // scheduled instants.
    double last = 0.0;
    std::vector<double> fired;
    for (const auto &[kind, t] : log) {
        EXPECT_GE(t, last) << "event log regressed at " << kind;
        last = t;
        if (kind == 'c')
            fired.push_back(t);
    }
    EXPECT_EQ(fired, controls);

    // The two t=2.0 control events fire before the t=2.0 quantum
    // boundary (one onControl call per pending event, loop refires).
    std::vector<char> at2;
    for (const auto &[kind, t] : log) {
        if (t == 2.0 && kind != 'd')
            at2.push_back(kind);
    }
    EXPECT_EQ(at2, (std::vector<char>{'c', 'c', 'q'}));
}

TEST(ControlChannel, AlwaysInfiniteChannelIsBitIdenticalToNone)
{
    auto replay = [](auto next_control, auto on_control) {
        queueing::EventEngine engine(2);
        Rng rng(99, 0x1abe1);
        std::vector<double> finishes;
        auto policy = queueing::makePolicy(
            [&] {
                return queueing::EventEngine::Arrival{rng.exponential(0.4),
                                                      0};
            },
            [&](std::uint32_t) { return rng.exponential(1.0); },
            [&](double, double, std::uint32_t) {
                return engine.leastFreeServer();
            },
            [](std::size_t, double s, double d) { return s + d; },
            [&](const queueing::Completion &c) {
                finishes.push_back(c.finishMs);
            },
            queueing::NoopShed{}, queueing::NoopQuantum{}, 0.5, 0.0,
            next_control, on_control);
        engine.run(4000, policy);
        return finishes;
    };
    EXPECT_EQ(replay(queueing::NoopControlNext{}, queueing::NoopControlFire{}),
              replay([] { return kInf; },
                     [](double) { FAIL() << "empty channel fired"; }));
}

// ---- Dispatcher: neutral incidents are bit-identical ------------------

sim::DispatchConfig
dispatchBase(std::uint64_t seed)
{
    sim::DispatchConfig cfg;
    cfg.rates = {sim::ModeRates{2.0, 1.7, 2.4}, sim::ModeRates{2.0, 1.7, 2.4},
                 sim::ModeRates{2.0, 1.7, 2.4}};
    cfg.policy = sim::PlacementPolicy::LeastLoaded;
    cfg.requests = 5000;
    cfg.seed = seed;
    cfg.control.kind = sim::ModePolicyKind::BacklogHysteresis;
    cfg.control.quantumMs = 0.5;
    cfg.timelineBucketMs = 50.0;
    return cfg;
}

/** Exact equality of everything the dispatcher reports (the property
 *  is bit-identity, not statistical closeness). */
void
expectIdentical(const sim::DispatchOutcome &a, const sim::DispatchOutcome &b)
{
    EXPECT_EQ(a.elapsedMs, b.elapsedMs);
    EXPECT_EQ(a.latencyMs.median, b.latencyMs.median);
    EXPECT_EQ(a.latencyMs.p99, b.latencyMs.p99);
    EXPECT_EQ(a.latencyMs.max, b.latencyMs.max);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.busyMs, b.busyMs);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].completions, b.timeline[i].completions);
        EXPECT_EQ(a.timeline[i].p99Ms, b.timeline[i].p99Ms);
    }
}

TEST(IncidentIdentity, EmptyAndNeutralIncidentListsAreBitIdentical)
{
    using Kind = sim::IncidentAction::Kind;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        sim::DispatchOutcome quiet = sim::dispatchRequests(dispatchBase(seed));

        // The same run with *neutral* incidents: scale-by-1 actions
        // exercise the whole control channel (events fire, state is
        // written) without changing any consumed value.
        sim::DispatchConfig cfg = dispatchBase(seed);
        sim::IncidentAction arrival;
        arrival.kind = Kind::ArrivalScale;
        arrival.atMs = 120.0;
        arrival.value = 1.0;
        sim::IncidentAction rate;
        rate.kind = Kind::CoreRateScale;
        rate.atMs = 333.25;
        rate.value = 1.0;
        rate.core = 1;
        cfg.incidents = {arrival, rate};
        sim::DispatchOutcome neutral = sim::dispatchRequests(cfg);

        expectIdentical(quiet, neutral);
    }
}

// ---- Dispatcher: retry-storm amplification ----------------------------

/** A retry storm as raw dispatcher actions: start at @p from, feedback
 *  ticks every @p tick ms, end at @p to. */
std::vector<sim::IncidentAction>
stormActions(double from, double to, double tick, double amp,
             double threshold)
{
    using Kind = sim::IncidentAction::Kind;
    std::vector<sim::IncidentAction> actions;
    sim::IncidentAction start;
    start.kind = Kind::RetryStormStart;
    start.atMs = from;
    start.value = amp;
    start.value2 = threshold;
    actions.push_back(start);
    for (double t = from + tick; t < to; t += tick) {
        sim::IncidentAction a;
        a.kind = Kind::RetryStormTick;
        a.atMs = t;
        actions.push_back(a);
    }
    sim::IncidentAction end;
    end.kind = Kind::RetryStormEnd;
    end.atMs = to;
    actions.push_back(end);
    return actions;
}

sim::DispatchOutcome
stormRun(double amp)
{
    sim::DispatchConfig cfg = dispatchBase(7);
    cfg.requests = 8000;
    // Lateness bound below the mean service time (0.5 ms at rate 2), so
    // a meaningful fraction of completions count as late and the
    // feedback loop has something to amplify.
    cfg.incidents = stormActions(200.0, 700.0, 25.0, amp, 0.6);
    return sim::dispatchRequests(cfg);
}

TEST(RetryStorm, AmplificationIsDeterministicAndMonotone)
{
    // Deterministic: the same amplification replays bit-identically.
    expectIdentical(stormRun(3.0), stormRun(3.0));

    // Monotone: a higher amplification factor never *lowers* the
    // offered load — the stream of N requests finishes no later.
    double prev = kInf;
    for (double amp : {0.0, 1.0, 3.0, 6.0}) {
        double elapsed = stormRun(amp).elapsedMs;
        EXPECT_LE(elapsed, prev) << "amp " << amp << " slowed arrivals";
        prev = elapsed;
    }

    // And the storm actually bites: amp 6 ends the stream strictly
    // earlier than no amplification.
    EXPECT_LT(stormRun(6.0).elapsedMs, stormRun(0.0).elapsedMs);
}

// ---- Typed-incident compiler ------------------------------------------

Scenario
tinyScenario()
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "mcf";
    return ScenarioBuilder()
        .name("tiny")
        .addCore(core)
        .addCore(core)
        .serviceClasses(
            workloads::ServiceClassRegistry::searchAnalyticsPair(6.0, 75.0))
        .expect();
}

TEST(IncidentCompiler, FlashCrowdCompilesToScaleAndRestore)
{
    Scenario s = tinyScenario();
    s.incidents = {FlashCrowd{10.0, 40.0, 2.5}};
    std::vector<sim::IncidentAction> actions = compileIncidents(s);
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[0].kind, sim::IncidentAction::Kind::ArrivalScale);
    EXPECT_EQ(actions[0].atMs, 10.0);
    EXPECT_EQ(actions[0].value, 2.5);
    EXPECT_EQ(actions[1].atMs, 40.0);
    EXPECT_EQ(actions[1].value, 1.0);
}

TEST(IncidentCompiler, RetryStormMaterialisesTicksAndAutoThreshold)
{
    Scenario s = tinyScenario();
    s.incidents = {RetryStorm{0.0, 10.0, 2.0, 3.0}};
    std::vector<sim::IncidentAction> actions = compileIncidents(s);
    // start + ticks at 3, 6, 9 + end
    ASSERT_EQ(actions.size(), 5u);
    EXPECT_EQ(actions[0].kind, sim::IncidentAction::Kind::RetryStormStart);
    EXPECT_EQ(actions[0].value, 2.0);
    // Auto threshold = the tightest class SLO (search at 6 ms).
    EXPECT_EQ(actions[0].value2, 6.0);
    EXPECT_EQ(actions[1].kind, sim::IncidentAction::Kind::RetryStormTick);
    EXPECT_EQ(actions[1].atMs, 3.0);
    EXPECT_EQ(actions[4].kind, sim::IncidentAction::Kind::RetryStormEnd);
    EXPECT_EQ(actions[4].atMs, 10.0);
}

TEST(IncidentCompiler, SloReshuffleResolvesFactorAgainstOldTarget)
{
    Scenario s = tinyScenario();
    s.incidents = {SloReshuffle{"search", 5.0, 0.5},
                   SloReshuffle{"analytics", 7.0, 0.0, 100.0}};
    std::vector<sim::IncidentAction> actions = compileIncidents(s);
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[0].kind,
              sim::IncidentAction::Kind::ClassSloRetarget);
    EXPECT_EQ(actions[0].value, 3.0); // 0.5 x the 6 ms search SLO
    EXPECT_EQ(actions[1].value, 100.0); // absolute target wins
}

TEST(IncidentCompiler, ActionsSortByTimeWithListOrderBreakingTies)
{
    Scenario s = tinyScenario();
    s.incidents = {CoreFailure{1, 50.0}, CoreDegradation{0, 20.0, 0.5},
                   FlashCrowd{20.0, 60.0, 1.5}};
    std::vector<sim::IncidentAction> actions = compileIncidents(s);
    ASSERT_EQ(actions.size(), 4u);
    // t=20: degradation (listed first) before the crowd's onset.
    EXPECT_EQ(actions[0].kind, sim::IncidentAction::Kind::CoreRateScale);
    EXPECT_EQ(actions[1].kind, sim::IncidentAction::Kind::ArrivalScale);
    EXPECT_EQ(actions[2].kind, sim::IncidentAction::Kind::CoreFail);
    EXPECT_EQ(actions[3].atMs, 60.0);
}

TEST(IncidentCompiler, TimeScalingCoversEveryTimeField)
{
    std::vector<Incident> incidents = {
        RetryStorm{0.2, 0.6, 2.0, 0.01}, CoreDegradation{0, 0.3, 0.5, 0.7}};
    scaleIncidentTimes(incidents, 1000.0);
    const RetryStorm &storm = std::get<RetryStorm>(incidents[0]);
    EXPECT_EQ(storm.startMs, 200.0);
    EXPECT_EQ(storm.endMs, 600.0);
    EXPECT_EQ(storm.tickMs, 10.0);
    const CoreDegradation &deg = std::get<CoreDegradation>(incidents[1]);
    EXPECT_EQ(deg.atMs, 300.0);
    EXPECT_EQ(deg.restoreMs, 700.0);

    std::vector<QosAssertion> assertions = {
        classTailAtMost("search", 9.0, 0.25, 0.5),
        recoveryWithin("search", 8.0, 0.25, 0.6)};
    scaleAssertionTimes(assertions, 1000.0);
    EXPECT_EQ(assertions[0].bound, 9.0); // latency bounds are not times
    EXPECT_EQ(assertions[0].fromMs, 250.0);
    EXPECT_EQ(assertions[0].untilMs, 500.0);
    EXPECT_EQ(assertions[1].bound, 250.0); // the recovery allowance is
    EXPECT_EQ(assertions[1].fromMs, 600.0);
    EXPECT_EQ(assertions[1].latencyBoundMs, 8.0);
}

TEST(IncidentValidation, BuilderReportsInvalidIncidents)
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "mcf";
    BuildResult bad =
        ScenarioBuilder()
            .addCore(core)
            .addCore(core)
            .incident(FlashCrowd{50.0, 10.0, 2.0})          // ends first
            .incident(CoreFailure{7, 10.0})                 // no such core
            .incident(SloReshuffle{"search", 5.0, 0.5})     // no classes
            .tryBuild();
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.errorText().find("must end after it starts"),
              std::string::npos);
    EXPECT_NE(bad.errorText().find("targets core 7"), std::string::npos);
    EXPECT_NE(bad.errorText().find("unknown service class 'search'"),
              std::string::npos);
}

TEST(IncidentValidation, FailingEveryCoreIsRejected)
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "mcf";
    BuildResult bad = ScenarioBuilder()
                          .addCore(core)
                          .addCore(core)
                          .incident(CoreFailure{0, 10.0})
                          .incident(CoreFailure{1, 20.0})
                          .tryBuild();
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.errorText().find("at least one core must survive"),
              std::string::npos);
}

// ---- The drill catalog: one regression case per pairing ---------------

std::vector<std::string>
drillNames()
{
    std::vector<std::string> names;
    for (const Drill &d : drillCatalog())
        names.push_back(d.name);
    return names;
}

class DrillCase : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DrillCase, HoldsItsQosAssertions)
{
    const Drill &d = drill(GetParam());
    DrillOutcome o = runDrill(d);
    ASSERT_FALSE(o.assertions.empty());
    for (const AssertionResult &a : o.assertions)
        EXPECT_TRUE(a.pass) << d.name << ": " << a.detail;
    EXPECT_TRUE(o.pass) << d.description;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, DrillCase, ::testing::ValuesIn(drillNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(DrillDeterminism, SameDrillSameVerdictBitForBit)
{
    // One drill per preset; re-running must replay exactly.
    for (const char *name :
         {"fig13/flash-crowd", "fig15/retry-storm", "guardrail/slo-tighten",
          "mix/storm-plus-degradation"}) {
        DrillOutcome a = runDrill(drill(name));
        DrillOutcome b = runDrill(drill(name));
        EXPECT_EQ(a.horizonMs, b.horizonMs) << name;
        expectIdentical(a.result.dispatch, b.result.dispatch);
        ASSERT_EQ(a.assertions.size(), b.assertions.size());
        for (std::size_t i = 0; i < a.assertions.size(); ++i) {
            EXPECT_EQ(a.assertions[i].pass, b.assertions[i].pass) << name;
            EXPECT_EQ(a.assertions[i].observed, b.assertions[i].observed)
                << name;
        }
    }
}

TEST(DrillTeeth, GuardrailFlashCrowdNeedsClassAwareControl)
{
    // The documented teeth pairing: the same drill that passes under
    // the preset's class-aware routing + honoured throttle FAILS when
    // the control config is lobotomised — proof the assertions bind.
    const Drill &d = drill("guardrail/flash-crowd");
    EXPECT_TRUE(runDrill(d).pass);

    DrillOutcome blind = runDrill(d, [](Scenario &s) {
        s.placement = sim::PlacementPolicy::RoundRobin;
        s.control.honorThrottle = false;
    });
    EXPECT_FALSE(blind.pass);
    // Both the windowed tail bound and the attainment floor break.
    ASSERT_EQ(blind.assertions.size(), 2u);
    EXPECT_FALSE(blind.assertions[0].pass) << blind.assertions[0].detail;
    EXPECT_FALSE(blind.assertions[1].pass) << blind.assertions[1].detail;
}

} // namespace
} // namespace stretch::scenario
