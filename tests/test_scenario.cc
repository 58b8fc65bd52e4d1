/**
 * @file
 * Scenario-layer tests: builder validation (every rejection actionable
 * and accumulated), lowering equivalence with hand-built FleetConfigs
 * (bit-identical, including the shared-stream two-class case), probe
 * calibration of relative quantities, and Sweep's cartesian expansion.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "scenario/scenario.h"
#include "sim/op_point_cache.h"

namespace stretch::scenario
{
namespace
{

/** Small-but-real colocation config so scenario tests stay fast. */
sim::RunConfig
smallConfig()
{
    sim::RunConfig cfg;
    cfg.workload0 = "web_search";
    cfg.workload1 = "zeusmp";
    cfg.samples = 2;
    cfg.warmupOps = 2000;
    cfg.measureOps = 5000;
    return cfg;
}

bool
anyErrorContains(const BuildResult &r, const std::string &needle)
{
    return std::any_of(r.errors.begin(), r.errors.end(),
                       [&](const std::string &e) {
                           return e.find(needle) != std::string::npos;
                       });
}

TEST(ScenarioBuilder, RejectsEmptyTopology)
{
    BuildResult r = ScenarioBuilder().tryBuild();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorContains(r, "topology is empty"));
    EXPECT_TRUE(anyErrorContains(r, "cores(")); // actionable: names the fix
}

TEST(ScenarioBuilder, RejectsNonPositiveSlo)
{
    workloads::ServiceClass bad;
    bad.name = "broken";
    bad.sloMs = 0.0;
    BuildResult r = ScenarioBuilder()
                        .cores(2, smallConfig())
                        .serviceClass(bad)
                        .tryBuild();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorContains(r, "SLO <= 0"));
    EXPECT_TRUE(anyErrorContains(r, "'broken'")); // names the class
}

TEST(ScenarioBuilder, RejectsZeroWeightSum)
{
    workloads::ServiceClass a;
    a.name = "a";
    a.weight = 0.0;
    workloads::ServiceClass b;
    b.name = "b";
    b.weight = 0.0;
    BuildResult r = ScenarioBuilder()
                        .cores(1, smallConfig())
                        .serviceClass(a)
                        .serviceClass(b)
                        .tryBuild();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorContains(r, "class weights sum to 0"));
}

TEST(ScenarioBuilder, RejectsClassAwarePlacementWithoutClasses)
{
    BuildResult r = ScenarioBuilder()
                        .cores(2, smallConfig())
                        .placement(sim::PlacementPolicy::ClassAware)
                        .tryBuild();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorContains(r, "class-aware placement"));
}

TEST(ScenarioBuilder, RejectsConflictingRateSpecs)
{
    BuildResult r = ScenarioBuilder()
                        .cores(1, smallConfig())
                        .arrivalRate(2.0)
                        .meanLoad(0.7)
                        .tryBuild();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorContains(r, "one rate specification"));
}

TEST(ScenarioBuilder, RejectsDayStreamAndHourlyTimelineWithoutTrace)
{
    BuildResult r = ScenarioBuilder()
                        .cores(1, smallConfig())
                        .dayLongStream()
                        .hourlyTimeline()
                        .tryBuild();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorContains(r, "dayLongStream"));
    EXPECT_TRUE(anyErrorContains(r, "hourlyTimeline"));
}

TEST(ScenarioBuilder, RejectsDisabledPerClassArrivalsWithCustomTraffic)
{
    workloads::ServiceClass cls;
    cls.name = "bursty";
    cls.traffic.burstRatio = 4.0;
    BuildResult r = ScenarioBuilder()
                        .cores(1, smallConfig())
                        .serviceClass(cls)
                        .perClassArrivals(false)
                        .tryBuild();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorContains(r, "explicitly disabled"));
}

TEST(ScenarioBuilder, AccumulatesEveryViolation)
{
    workloads::ServiceClass bad;
    bad.name = "";
    bad.sloMs = -1.0;
    BuildResult r = ScenarioBuilder()
                        .serviceClass(bad) // no name, bad SLO
                        .burstiness(0.5)   // ratio < 1
                        .tryBuild();       // and no topology
    ASSERT_FALSE(r.ok());
    EXPECT_GE(r.errors.size(), 4u); // all reported, not die-on-first
    EXPECT_NE(r.errorText().find(";"), std::string::npos);
}

TEST(ScenarioBuilder, AutoEnablesPerClassArrivalsOnCustomTraffic)
{
    workloads::ServiceClass plain;
    plain.name = "plain";
    workloads::ServiceClass shifted = plain;
    shifted.name = "shifted";
    shifted.traffic.phaseOffsetHours = 6.0;

    Scenario no_custom = ScenarioBuilder()
                             .cores(1, smallConfig())
                             .serviceClass(plain)
                             .expect();
    EXPECT_FALSE(no_custom.perClassArrivals);

    Scenario custom = ScenarioBuilder()
                          .cores(1, smallConfig())
                          .serviceClass(plain)
                          .serviceClass(shifted)
                          .expect();
    EXPECT_TRUE(custom.perClassArrivals);
}

TEST(ScenarioBuilder, ExplicitSeedSurvivesCoresCall)
{
    // cores(n, base) adopts base.seed for the dispatch streams, but an
    // explicit seed() wins regardless of call order.
    Scenario adopted = ScenarioBuilder().cores(2, smallConfig()).expect();
    EXPECT_EQ(adopted.seed, smallConfig().seed);

    Scenario pinned_before =
        ScenarioBuilder().seed(7).cores(2, smallConfig()).expect();
    EXPECT_EQ(pinned_before.seed, 7u);

    Scenario pinned_after =
        ScenarioBuilder().cores(2, smallConfig()).seed(7).expect();
    EXPECT_EQ(pinned_after.seed, 7u);
}

TEST(ScenarioLowering, MatchesHandBuiltFleetConfigBitIdentically)
{
    sim::RunConfig base = smallConfig();

    Scenario s = ScenarioBuilder()
                     .cores(2, base)
                     .requests(2000)
                     .burstiness(3.0)
                     .placement(sim::PlacementPolicy::PowerOfTwo)
                     .expect();
    sim::FleetResult via_scenario = run(s);

    sim::FleetConfig hand = sim::homogeneousFleet(2, base);
    hand.requests = 2000;
    hand.burstRatio = 3.0;
    hand.policy = sim::PlacementPolicy::PowerOfTwo;
    sim::FleetResult via_hand = sim::runFleet(hand);

    // Bit-identical, not approximate: the scenario layer is sugar over
    // the same lowering, not a second engine.
    ASSERT_EQ(via_scenario.cores.size(), via_hand.cores.size());
    for (std::size_t i = 0; i < via_hand.cores.size(); ++i)
        EXPECT_EQ(via_scenario.cores[i].uipc[0], via_hand.cores[i].uipc[0]);
    EXPECT_EQ(via_scenario.dispatch.latencyMs.p99,
              via_hand.dispatch.latencyMs.p99);
    EXPECT_EQ(via_scenario.dispatch.placed, via_hand.dispatch.placed);
    EXPECT_EQ(via_scenario.dispatch.throughputRps,
              via_hand.dispatch.throughputRps);
}

TEST(ScenarioLowering, TwoClassSharedStreamIsBitIdenticalToFleetWide)
{
    // The tentpole acceptance: a two-class scenario whose classes do NOT
    // customise their traffic lowers to the fleet-wide shared stream —
    // bit-identical to the hand-built class-tagged dispatch.
    sim::RunConfig base = smallConfig();
    workloads::ServiceClassRegistry reg =
        workloads::ServiceClassRegistry::searchAnalyticsPair(6.0, 75.0);

    Scenario s = ScenarioBuilder()
                     .cores(2, base)
                     .requests(3000)
                     .serviceClasses(reg)
                     .expect();
    EXPECT_FALSE(s.perClassArrivals); // both classes share one process
    sim::FleetResult via_scenario = run(s);

    sim::FleetConfig hand = sim::homogeneousFleet(2, base);
    hand.requests = 3000;
    hand.classes = reg;
    sim::FleetResult via_hand = sim::runFleet(hand);

    ASSERT_EQ(via_scenario.dispatch.perClass.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(via_scenario.dispatch.perClass[k].completed,
                  via_hand.dispatch.perClass[k].completed);
        EXPECT_EQ(via_scenario.dispatch.perClass[k].latencyMs.p99,
                  via_hand.dispatch.perClass[k].latencyMs.p99);
        EXPECT_EQ(via_scenario.dispatch.perClass[k].sloAttainment,
                  via_hand.dispatch.perClass[k].sloAttainment);
    }
    EXPECT_EQ(via_scenario.dispatch.latencyMs.p999,
              via_hand.dispatch.latencyMs.p999);

    // Flip one class onto its own process: the per-class timeline must
    // now differ from the shared stream (the phase/burst shape is real).
    Scenario split = s;
    split.perClassArrivals = true;
    split.classes.classAt(1).traffic.burstRatio = 6.0;
    sim::FleetResult bursty = run(split);
    EXPECT_NE(bursty.dispatch.perClass[1].latencyMs.p99,
              via_hand.dispatch.perClass[1].latencyMs.p99);
}

TEST(ScenarioCalibration, ResolvesLoadFractionsAndQosTarget)
{
    sim::RunConfig base = smallConfig();

    // Flat mean load: arrival rate = fraction x measured capacity.
    Scenario flat = ScenarioBuilder()
                        .cores(2, base)
                        .requests(500)
                        .meanLoad(0.5)
                        .modePolicy(sim::ModePolicyKind::SlackDriven)
                        .qosTargetFactor(4.0)
                        .expect();
    EXPECT_TRUE(flat.needsCalibration());
    sim::FleetConfig lowered = lower(flat);

    sim::FleetConfig probe = sim::homogeneousFleet(2, base);
    probe.requests = flat.calibrationRequests;
    sim::FleetResult probe_result = sim::runFleet(probe);
    double capacity = 0.0;
    for (const sim::ModeRates &r : probe_result.modeRates)
        capacity += r.baseline;

    EXPECT_DOUBLE_EQ(lowered.arrivalRatePerMs, 0.5 * capacity);
    EXPECT_DOUBLE_EQ(lowered.control.monitor.qosTarget,
                     4.0 * probe_result.dispatch.latencyMs.p99);

    // Under a trace the mean-load target divides by the trace mean, and
    // the day-long stream sizes itself from the resolved peak.
    queueing::DiurnalTrace trace = queueing::DiurnalTrace::webSearchCluster();
    Scenario day = ScenarioBuilder()
                       .cores(2, base)
                       .diurnal(trace, 20.0)
                       .meanLoad(0.5)
                       .dayLongStream()
                       .expect();
    sim::FleetConfig day_cfg = lower(day);
    EXPECT_DOUBLE_EQ(day_cfg.arrivalRatePerMs,
                     0.5 * capacity / trace.meanLoad());
    EXPECT_EQ(day_cfg.requests,
              static_cast<std::uint64_t>(day_cfg.arrivalRatePerMs *
                                         trace.meanLoad() * 24.0 * 20.0));

    // Peak-load fraction pins the peak rate directly.
    Scenario peak = ScenarioBuilder()
                        .cores(2, base)
                        .diurnal(trace, 20.0)
                        .peakLoad(1.1)
                        .expect();
    EXPECT_DOUBLE_EQ(lower(peak).arrivalRatePerMs, 1.1 * capacity);
}

TEST(ScenarioSweep, ExpandsTheCartesianProductWithLabels)
{
    Scenario base = ScenarioBuilder()
                        .cores(1, smallConfig())
                        .requests(0)
                        .expect();

    Sweep sweep(base);
    sweep.over("policy",
               {{"rr",
                 [](Scenario &s) {
                     s.placement = sim::PlacementPolicy::RoundRobin;
                 }},
                {"qos",
                 [](Scenario &s) {
                     s.placement = sim::PlacementPolicy::QosAware;
                 }}})
        .over("load", {{"70%", [](Scenario &s) { s.meanLoadFraction = 0.7; }},
                       {"90%", [](Scenario &s) { s.meanLoadFraction = 0.9; }},
                       {"110%",
                        [](Scenario &s) { s.meanLoadFraction = 1.1; }}});

    std::vector<Sweep::Variant> vars = sweep.variants();
    ASSERT_EQ(vars.size(), 6u); // 2 x 3, last axis fastest
    EXPECT_EQ(vars[0].label, "policy=rr, load=70%");
    EXPECT_EQ(vars[1].label, "policy=rr, load=90%");
    EXPECT_EQ(vars[3].label, "policy=qos, load=70%");
    EXPECT_EQ(vars[5].label, "policy=qos, load=110%");
    EXPECT_EQ(vars[5].coords[0].first, "policy");
    EXPECT_EQ(vars[5].coords[1].second, "110%");

    // Patches really applied, base untouched.
    EXPECT_EQ(vars[3].scenario.placement, sim::PlacementPolicy::QosAware);
    EXPECT_DOUBLE_EQ(vars[5].scenario.meanLoadFraction, 1.1);
    EXPECT_EQ(base.placement, sim::PlacementPolicy::RoundRobin);
    EXPECT_DOUBLE_EQ(base.meanLoadFraction, 0.0);
}

TEST(ScenarioSweepDeath, DuplicateAxisNameIsFatal)
{
    // Two axes with one name would expand to colliding "axis=point"
    // labels; over() rejects the collision at registration time.
    Scenario base =
        ScenarioBuilder().cores(1, smallConfig()).requests(0).expect();
    Sweep sweep(base);
    sweep.over("load", {{"70%", [](Scenario &s) {
                             s.meanLoadFraction = 0.7;
                         }}});
    EXPECT_DEATH(sweep.over("load", {{"90%",
                                      [](Scenario &s) {
                                          s.meanLoadFraction = 0.9;
                                      }}}),
                 "duplicate sweep axis 'load'");
}

TEST(ScenarioSweepDeath, DuplicatePointLabelWithinAxisIsFatal)
{
    Scenario base =
        ScenarioBuilder().cores(1, smallConfig()).requests(0).expect();
    Sweep sweep(base);
    EXPECT_DEATH(
        sweep.over("load",
                   {{"70%", [](Scenario &s) { s.meanLoadFraction = 0.7; }},
                    {"70%", [](Scenario &s) { s.meanLoadFraction = 0.9; }}}),
        "duplicate point label '70%'");
}

TEST(ScenarioSweep, SharedPointLabelAcrossAxesStaysUnambiguous)
{
    // The same label on *different* axes is legitimate — the axis name
    // in each "axis=point" coordinate keeps variant labels unique.
    Scenario base =
        ScenarioBuilder().cores(1, smallConfig()).requests(0).expect();
    Sweep sweep(base);
    sweep.over("load", {{"default", [](Scenario &s) {
                             s.meanLoadFraction = 0.7;
                         }}})
        .over("policy", {{"default", [](Scenario &s) {
                              s.placement = sim::PlacementPolicy::QosAware;
                          }}});
    std::vector<Sweep::Variant> vars = sweep.variants();
    ASSERT_EQ(vars.size(), 1u);
    EXPECT_EQ(vars[0].label, "load=default, policy=default");
}

TEST(ScenarioSweep, RunsVariantsThroughTheSharedOperatingPointCache)
{
    sim::OperatingPointCache &cache = sim::OperatingPointCache::instance();
    cache.clear();

    Scenario base = ScenarioBuilder()
                        .cores(1, smallConfig())
                        .requests(300)
                        .expect();
    Sweep sweep(base);
    sweep.over("policy",
               {{"rr",
                 [](Scenario &s) {
                     s.placement = sim::PlacementPolicy::RoundRobin;
                 }},
                {"ll", [](Scenario &s) {
                     s.placement = sim::PlacementPolicy::LeastLoaded;
                 }}});
    std::vector<Sweep::Outcome> outcomes = sweep.run();
    ASSERT_EQ(outcomes.size(), 2u);

    // Identical cores across variants: one measurement, one reuse.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_GE(cache.hits(), 1u);
    EXPECT_EQ(outcomes[0].result.cores[0].uipc[0],
              outcomes[1].result.cores[0].uipc[0]);
    EXPECT_EQ(outcomes[0].variant.coords[0].second, "rr");
    EXPECT_EQ(outcomes[1].variant.coords[0].second, "ll");
}

TEST(ScenarioSweep, ParallelRunIsBitIdenticalToSerial)
{
    // Sweep::run dispatches variants onto the thread pool; every result
    // must match the serial (threads=1) expansion bit for bit, in the
    // same order — variant independence plus index-addressed slots.
    auto makeSweep = [](unsigned threads) {
        Scenario base = ScenarioBuilder()
                            .cores(2, smallConfig())
                            .requests(400)
                            .threads(threads)
                            .expect();
        Sweep sweep(base);
        sweep.over("policy",
                   {{"rr",
                     [](Scenario &s) {
                         s.placement = sim::PlacementPolicy::RoundRobin;
                     }},
                    {"ll",
                     [](Scenario &s) {
                         s.placement = sim::PlacementPolicy::LeastLoaded;
                     }}})
            .over("load", {{"low",
                            [](Scenario &s) {
                                s.arrivalRatePerMs = 0.0;
                            }},
                           {"explicit", [](Scenario &s) {
                                s.arrivalRatePerMs = 1.0;
                            }}});
        return sweep.run();
    };

    std::vector<Sweep::Outcome> serial = makeSweep(1);
    std::vector<Sweep::Outcome> parallel = makeSweep(4);
    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].variant.label, parallel[i].variant.label);
        EXPECT_EQ(serial[i].result.dispatch.latencyMs.p99,
                  parallel[i].result.dispatch.latencyMs.p99);
        EXPECT_EQ(serial[i].result.dispatch.elapsedMs,
                  parallel[i].result.dispatch.elapsedMs);
        EXPECT_EQ(serial[i].result.cores[0].uipc[0],
                  parallel[i].result.cores[0].uipc[0]);
    }
}

} // namespace
} // namespace stretch::scenario
