/**
 * @file
 * Service-class subsystem tests: the registry's class mix and demand
 * distributions, the class-aware router (hot-class pinning, hour-aware
 * reservation, admission control), per-class dispatch reporting, and the
 * per-class monitor wiring into the SlackDriven ladder.
 */

#include <cstdint>
#include <gtest/gtest.h>

#include "queueing/diurnal.h"
#include "sim/class_router.h"
#include "sim/fleet.h"
#include "util/rng.h"
#include "workload/service_class.h"

namespace stretch
{
namespace
{

using workloads::ClassId;
using workloads::DemandShape;
using workloads::ServiceClass;
using workloads::ServiceClassRegistry;

ServiceClass
makeClass(const std::string &name, double slo_ms, unsigned priority,
          bool sheddable, double weight = 1.0)
{
    ServiceClass c;
    c.name = name;
    c.sloMs = slo_ms;
    c.priority = priority;
    c.sheddable = sheddable;
    c.weight = weight;
    return c;
}

/** Tight interactive class + loose sheddable bulk class. */
ServiceClassRegistry
twoClasses(double tight_slo, double loose_slo, double tight_weight = 1.0,
           double loose_weight = 1.0)
{
    ServiceClassRegistry reg;
    reg.add(makeClass("tight", tight_slo, 0, false, tight_weight));
    reg.add(makeClass("loose", loose_slo, 1, true, loose_weight));
    return reg;
}

// ---- Registry ---------------------------------------------------------

TEST(ServiceClassRegistry, IdsFollowInsertionOrder)
{
    ServiceClassRegistry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.add(makeClass("a", 1.0, 0, false)), 0u);
    EXPECT_EQ(reg.add(makeClass("b", 2.0, 1, true)), 1u);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.byName("a"), 0u);
    EXPECT_EQ(reg.byName("b"), 1u);
    EXPECT_EQ(reg.at(1).name, "b");
    EXPECT_DOUBLE_EQ(reg.totalWeight(), 2.0);
}

TEST(ServiceClassRegistry, WeightedSamplingMatchesTheMix)
{
    ServiceClassRegistry reg;
    reg.add(makeClass("heavy", 1.0, 0, false, 3.0));
    reg.add(makeClass("light", 1.0, 1, false, 1.0));

    Rng rng(7);
    std::uint64_t counts[2] = {0, 0};
    const int draws = 40000;
    for (int i = 0; i < draws; ++i)
        ++counts[reg.sample(rng)];
    double heavy_frac = double(counts[0]) / draws;
    EXPECT_NEAR(heavy_frac, 0.75, 0.02);
}

TEST(ServiceClassRegistry, SamplingIsDeterministicInSeed)
{
    ServiceClassRegistry reg = twoClasses(1.0, 10.0);
    Rng a(21), b(21);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(reg.sample(a), reg.sample(b));
        EXPECT_EQ(reg.drawDemand(0, a), reg.drawDemand(0, b));
    }
}

TEST(ServiceClassDemand, FixedIsExact)
{
    ServiceClassRegistry reg;
    ServiceClass c = makeClass("fixed", 1.0, 0, false);
    c.shape = DemandShape::Fixed;
    c.meanDemand = 2.5;
    reg.add(c);
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(reg.drawDemand(0, rng), 2.5);
}

TEST(ServiceClassDemand, LognormalHasTheConfiguredMean)
{
    ServiceClassRegistry reg;
    ServiceClass c = makeClass("ln", 1.0, 0, false);
    c.shape = DemandShape::Lognormal;
    c.meanDemand = 3.0;
    c.logSigma = 0.4;
    reg.add(c);
    Rng rng(11);
    double sum = 0.0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        sum += reg.drawDemand(0, rng);
    EXPECT_NEAR(sum / draws, 3.0, 0.15);
}

TEST(ServiceClassDemand, ParetoHasTheConfiguredMeanAndHeavyTail)
{
    ServiceClassRegistry reg;
    ServiceClass c = makeClass("pareto", 1.0, 0, false);
    c.shape = DemandShape::Pareto;
    c.meanDemand = 2.0;
    c.paretoAlpha = 2.5;
    reg.add(c);
    Rng rng(13);
    double sum = 0.0, max_seen = 0.0;
    const int draws = 40000;
    for (int i = 0; i < draws; ++i) {
        double d = reg.drawDemand(0, rng);
        // Pareto(xm, alpha) support starts at xm = mean*(alpha-1)/alpha.
        EXPECT_GE(d, 2.0 * 1.5 / 2.5 - 1e-12);
        sum += d;
        max_seen = std::max(max_seen, d);
    }
    EXPECT_NEAR(sum / draws, 2.0, 0.15);
    EXPECT_GT(max_seen, 10.0); // the tail really is heavy
}

TEST(ServiceClassRegistry, ShapeNamesAreStable)
{
    EXPECT_STREQ(toString(DemandShape::Fixed), "fixed");
    EXPECT_STREQ(toString(DemandShape::Lognormal), "lognormal");
    EXPECT_STREQ(toString(DemandShape::Pareto), "pareto");
}

TEST(ServiceClassRegistry, SearchAnalyticsPairIsTheCanonicalMix)
{
    ServiceClassRegistry reg =
        ServiceClassRegistry::searchAnalyticsPair(2.0, 50.0);
    ASSERT_EQ(reg.size(), 2u);
    const ServiceClass &search = reg.at(reg.byName("search"));
    const ServiceClass &analytics = reg.at(reg.byName("analytics"));
    EXPECT_LT(search.sloMs, analytics.sloMs);
    EXPECT_EQ(search.priority, 0u);
    EXPECT_FALSE(search.sheddable);
    EXPECT_TRUE(analytics.sheddable);
    EXPECT_EQ(analytics.shape, DemandShape::Pareto);
    EXPECT_LT(search.batchTolerance, 0.5);
}

// ---- ClassRouter ------------------------------------------------------

TEST(ClassRouter, PartitionsBigAndLittleByMeasuredRate)
{
    ServiceClassRegistry reg = twoClasses(1.0, 100.0);
    // Core 1 and 2 are the fast ones; core 4 cannot serve at all.
    std::vector<double> rates{1.0, 4.0, 4.0, 1.0, 0.0};
    sim::ClassRouter router(reg, rates, sim::ClassRouterConfig{});
    EXPECT_EQ(router.bigCores(), (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(router.littleCores(), (std::vector<std::size_t>{0, 3}));
    EXPECT_TRUE(router.isHot(0));
    EXPECT_FALSE(router.isHot(1));
}

TEST(ClassRouter, PinsHotClassesToBigCoresAndLooseToLittle)
{
    ServiceClassRegistry reg = twoClasses(1.0, 100.0);
    std::vector<double> rates{1.0, 4.0, 4.0, 1.0};
    sim::ClassRouter router(reg, rates, sim::ClassRouterConfig{});
    queueing::EventEngine engine(4); // all queues idle

    // Without a trace the big-core reservation always holds.
    EXPECT_TRUE(router.reservedAt(0.0));
    std::size_t hot = router.route(0, 0.0, 1.0, engine, rates);
    EXPECT_TRUE(hot == 1 || hot == 2);
    std::size_t loose = router.route(1, 0.0, 1.0, engine, rates);
    EXPECT_TRUE(loose == 0 || loose == 3);
}

TEST(ClassRouter, BatchIntolerantClassCountsAsHot)
{
    ServiceClassRegistry reg;
    ServiceClass c = makeClass("fragile", 10.0, 3, false);
    c.batchTolerance = 0.2; // low tolerance => hot despite the tier
    reg.add(c);
    std::vector<double> rates{1.0, 4.0};
    sim::ClassRouter router(reg, rates, sim::ClassRouterConfig{});
    EXPECT_TRUE(router.isHot(0));
    queueing::EventEngine engine(2);
    EXPECT_EQ(router.route(0, 0.0, 1.0, engine, rates), 1u);
}

TEST(ClassRouter, HourAwareReservationFollowsTheTrace)
{
    ServiceClassRegistry reg = twoClasses(1.0, 100.0);
    std::vector<double> rates{1.0, 4.0, 4.0, 1.0};
    auto trace = queueing::DiurnalTrace::webSearchCluster();
    const double ms_per_hour = 10.0;
    sim::ClassRouter router(reg, rates, sim::ClassRouterConfig{}, &trace,
                            ms_per_hour);
    queueing::EventEngine engine(4);

    // 2pm plateau: reserved — loose traffic stays on the little cores.
    double peak = 14.0 * ms_per_hour;
    EXPECT_TRUE(router.reservedAt(peak));
    std::size_t at_peak = router.route(1, peak, 1.0, engine, rates);
    EXPECT_TRUE(at_peak == 0 || at_peak == 3);

    // 3am trough: the reservation lifts and the idle big cores (4x the
    // rate, so 1/4 the predicted latency) soak up loose traffic too.
    double trough = 3.0 * ms_per_hour;
    EXPECT_LT(trace.loadAt(3.0), 0.6);
    EXPECT_FALSE(router.reservedAt(trough));
    std::size_t at_trough = router.route(1, trough, 1.0, engine, rates);
    EXPECT_TRUE(at_trough == 1 || at_trough == 2);
}

TEST(ClassRouter, ShedsOnlySheddableClassesOverBudget)
{
    ServiceClassRegistry reg = twoClasses(0.01, 0.01); // SLO: 0.01 ms
    std::vector<double> rates{1.0, 1.0};
    sim::ClassRouterConfig cfg;
    sim::ClassRouter router(reg, rates, cfg);
    queueing::EventEngine engine(2);

    // Idle queues, demand 1.0 at rate 1.0 => predicted 1 ms >> 0.03 ms.
    EXPECT_NE(router.route(0, 0.0, 1.0, engine, rates),
              queueing::EventEngine::shed); // tight class is never shed
    EXPECT_EQ(router.route(1, 0.0, 1.0, engine, rates),
              queueing::EventEngine::shed);

    // Admission is predicted-latency based, so a cheap request of the
    // same class is admitted again (self-correcting, not a latch).
    EXPECT_NE(router.route(1, 0.0, 0.005, engine, rates),
              queueing::EventEngine::shed);

    cfg.shedEnabled = false;
    sim::ClassRouter lenient(reg, rates, cfg);
    EXPECT_NE(lenient.route(1, 0.0, 1.0, engine, rates),
              queueing::EventEngine::shed);
}

// ---- Class-tagged dispatch --------------------------------------------

/** Two fast + two slow cores, flat rates (no mode dependence). */
sim::DispatchConfig
classDispatchConfig(double arrival_rate)
{
    sim::DispatchConfig cfg;
    cfg.rates = {sim::ModeRates::flat(4.0), sim::ModeRates::flat(4.0),
                 sim::ModeRates::flat(1.0), sim::ModeRates::flat(1.0)};
    cfg.requests = 20000;
    cfg.arrivalRatePerMs = arrival_rate;
    cfg.seed = 17;
    return cfg;
}

TEST(ClassDispatch, PerClassOutcomesPartitionTheStream)
{
    sim::DispatchConfig cfg = classDispatchConfig(3.0);
    cfg.classes = twoClasses(2.0, 50.0);
    cfg.policy = sim::PlacementPolicy::ClassAware;
    sim::DispatchOutcome out = sim::dispatchRequests(cfg);

    ASSERT_EQ(out.perClass.size(), 2u);
    EXPECT_EQ(out.perClass[0].name, "tight");
    EXPECT_EQ(out.perClass[1].name, "loose");
    std::uint64_t offered = 0;
    for (const sim::ClassOutcome &co : out.perClass) {
        offered += co.completed + co.shed;
        EXPECT_GE(co.sloAttainment, 0.0);
        EXPECT_LE(co.sloAttainment, 1.0);
        EXPECT_GT(co.completed, 0u);
        EXPECT_GE(co.tailMs, co.latencyMs.median);
    }
    EXPECT_EQ(offered, cfg.requests);
    EXPECT_EQ(out.perClass[0].shed, 0u); // tight class is not sheddable
    EXPECT_DOUBLE_EQ(out.perClass[0].sloTargetMs, 2.0);
    // Completions (not arrivals) drive the reported throughput.
    std::uint64_t completed =
        out.perClass[0].completed + out.perClass[1].completed;
    EXPECT_EQ(completed + out.totalShed, cfg.requests);
}

TEST(ClassDispatch, IsDeterministicInSeed)
{
    sim::DispatchConfig cfg = classDispatchConfig(3.0);
    cfg.classes = twoClasses(2.0, 50.0);
    cfg.policy = sim::PlacementPolicy::ClassAware;
    sim::DispatchOutcome a = sim::dispatchRequests(cfg);
    sim::DispatchOutcome b = sim::dispatchRequests(cfg);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.totalShed, b.totalShed);
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(a.perClass[k].completed, b.perClass[k].completed);
        EXPECT_EQ(a.perClass[k].tailMs, b.perClass[k].tailMs);
        EXPECT_EQ(a.perClass[k].sloAttainment, b.perClass[k].sloAttainment);
    }
}

TEST(ClassDispatch, ClassAwareBeatsClassBlindRoundRobinOnTheTightTail)
{
    // The acceptance bar: same tagged stream, same cores; pinning the
    // tight class to the two fast cores (and keeping bulk off them) must
    // beat class-blind round-robin on the tight class's p99.
    sim::DispatchConfig cfg = classDispatchConfig(3.0);
    cfg.classes = twoClasses(2.0, 50.0);
    cfg.classRouting.shedEnabled = false; // pure placement comparison

    cfg.policy = sim::PlacementPolicy::RoundRobin;
    sim::DispatchOutcome blind = sim::dispatchRequests(cfg);
    cfg.policy = sim::PlacementPolicy::ClassAware;
    sim::DispatchOutcome aware = sim::dispatchRequests(cfg);

    ASSERT_EQ(blind.perClass.size(), 2u);
    ASSERT_EQ(aware.perClass.size(), 2u);
    EXPECT_EQ(blind.totalShed, 0u);
    EXPECT_EQ(aware.totalShed, 0u);
    EXPECT_LT(aware.perClass[0].latencyMs.p99,
              blind.perClass[0].latencyMs.p99);
    EXPECT_GT(aware.perClass[0].sloAttainment,
              blind.perClass[0].sloAttainment);
}

TEST(ClassDispatch, SheddingProtectsTheFleetUnderOverload)
{
    // 130% of capacity: without admission control every queue diverges.
    // With it, the sheddable bulk class is clipped while the tight class
    // keeps completing everything.
    sim::DispatchConfig cfg = classDispatchConfig(1.3 * 10.0);
    cfg.classes = twoClasses(2.0, 20.0);
    cfg.policy = sim::PlacementPolicy::ClassAware;
    sim::DispatchOutcome out = sim::dispatchRequests(cfg);

    EXPECT_GT(out.totalShed, 0u);
    EXPECT_EQ(out.perClass[0].shed, 0u);
    EXPECT_GT(out.perClass[1].shed, 0u);
    EXPECT_EQ(out.totalShed, out.perClass[1].shed);

    // Shed requests count against attainment: the loose class cannot
    // report a perfect SLO by dropping its queue.
    sim::DispatchConfig no_shed = cfg;
    no_shed.classRouting.shedEnabled = false;
    sim::DispatchOutcome kept = sim::dispatchRequests(no_shed);
    EXPECT_EQ(kept.totalShed, 0u);
    // Clipping bulk arrivals keeps the tight tail ahead of the unshed run.
    EXPECT_LE(out.perClass[0].latencyMs.p99,
              kept.perClass[0].latencyMs.p99);
}

TEST(ClassDispatch, TimelineCarriesPerClassCells)
{
    sim::DispatchConfig cfg = classDispatchConfig(3.0);
    cfg.classes = twoClasses(2.0, 50.0);
    cfg.policy = sim::PlacementPolicy::ClassAware;
    cfg.diurnalTrace = queueing::DiurnalTrace::webSearchCluster();
    cfg.msPerHour = 20.0;
    cfg.timelineBucketMs = 20.0;
    cfg.arrivalRatePerMs = 4.0; // peak rate
    cfg.requests = static_cast<std::uint64_t>(
        cfg.arrivalRatePerMs * cfg.diurnalTrace->meanLoad() * 24.0 *
        cfg.msPerHour);
    sim::DispatchOutcome out = sim::dispatchRequests(cfg);

    ASSERT_FALSE(out.timeline.empty());
    std::uint64_t cells = 0, sheds = 0;
    for (const sim::TimelineBucket &tb : out.timeline) {
        ASSERT_EQ(tb.perClass.size(), 2u);
        std::uint64_t in_bucket = 0;
        for (const sim::TimelineBucket::ClassCell &cell : tb.perClass) {
            in_bucket += cell.completions;
            sheds += cell.shed;
        }
        EXPECT_EQ(in_bucket, tb.completions); // classes partition buckets
        cells += in_bucket;
    }
    std::uint64_t completed =
        out.perClass[0].completed + out.perClass[1].completed;
    EXPECT_EQ(cells, completed);
    EXPECT_EQ(sheds, out.totalShed);
}

// ---- Per-class monitors in the SlackDriven ladder ---------------------

/** Mode-dependent rates so ladder decisions are visible in residency. */
sim::DispatchConfig
slackConfig()
{
    sim::DispatchConfig cfg;
    cfg.rates = {sim::ModeRates{2.0, 1.7, 2.4, 3.4},
                 sim::ModeRates{2.0, 1.7, 2.4, 3.4}};
    cfg.policy = sim::PlacementPolicy::LeastLoaded;
    cfg.requests = 20000;
    cfg.seed = 29;
    cfg.arrivalRatePerMs = 0.8 * 4.0;
    cfg.control.kind = sim::ModePolicyKind::SlackDriven;
    cfg.control.quantumMs = 0.5;
    return cfg;
}

TEST(ClassMonitors, TightestClassDrivesTheLadder)
{
    // All-loose mix: latencies sit far under every SLO, so the ladder
    // banks B-mode.
    sim::DispatchConfig loose = slackConfig();
    loose.classes = twoClasses(500.0, 1000.0, 1.0, 1.0);
    sim::DispatchOutcome relaxed = sim::dispatchRequests(loose);
    double bmode = 0.0;
    for (const sim::CoreModeStats &m : relaxed.modeStats)
        bmode += m.residencyMs[sim::modeIndex(StretchMode::BatchBoost)];
    EXPECT_GT(bmode, 0.0);
    EXPECT_EQ(relaxed.totalThrottleEngagements(), 0u);

    // Adding one tight class (10% of traffic) must flip the same fleet
    // into protection: its per-class monitor violates, escalates to
    // Q-mode, and orders co-runner throttling — even though 90% of the
    // stream is perfectly happy.
    sim::DispatchConfig mixed = slackConfig();
    mixed.classes = twoClasses(0.5, 1000.0, 0.1, 0.9);
    sim::DispatchOutcome guarded = sim::dispatchRequests(mixed);
    double qmode = 0.0;
    for (const sim::CoreModeStats &m : guarded.modeStats)
        qmode += m.residencyMs[sim::modeIndex(StretchMode::QosBoost)];
    EXPECT_GT(qmode, 0.0);
    EXPECT_GT(guarded.totalThrottleEngagements(), 0u);
    EXPECT_GT(guarded.totalThrottleMs(), 0.0);
}

TEST(ClassMonitors, PerClassLaddersAreDeterministic)
{
    sim::DispatchConfig cfg = slackConfig();
    cfg.classes = twoClasses(0.5, 1000.0, 0.1, 0.9);
    sim::DispatchOutcome a = sim::dispatchRequests(cfg);
    sim::DispatchOutcome b = sim::dispatchRequests(cfg);
    EXPECT_EQ(a.totalTransitions(), b.totalTransitions());
    EXPECT_EQ(a.totalThrottleMs(), b.totalThrottleMs());
    EXPECT_EQ(a.perClass[0].tailMs, b.perClass[0].tailMs);
}

} // namespace
} // namespace stretch
