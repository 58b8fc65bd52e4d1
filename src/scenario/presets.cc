#include "scenario/presets.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace stretch::scenario
{

namespace
{

/** Core microarchitectural sampling shared by every preset: sized for
 *  test budgets (the benches keep their own full-size configs). */
sim::RunConfig
presetCore(const std::string &ls, const std::string &batch)
{
    sim::RunConfig cfg;
    cfg.workload0 = ls;
    cfg.workload1 = batch;
    cfg.samples = 2;
    cfg.warmupOps = 2000;
    cfg.measureOps = 5000;
    return cfg;
}

/** The 2-big + 2-little heterogeneous slot layout the fig15 bench and
 *  the qos_guardrail example share. */
std::vector<sim::CoreSlot>
bigLittleSlots()
{
    std::vector<sim::CoreSlot> slots(4);
    slots[2].robEntries = slots[3].robEntries = 128;
    slots[2].lsqEntries = slots[3].lsqEntries = 48;
    slots[2].bmodeSkew = slots[3].bmodeSkew = SkewConfig{40, 88};
    slots[2].qmodeSkew = slots[3].qmodeSkew = SkewConfig{88, 40};
    return slots;
}

/** Figure 13 flavour: a homogeneous web_search fleet with zeusmp batch
 *  co-runners under backlog-hysteresis software scheduling. */
Scenario
fig13SwScheduling()
{
    return ScenarioBuilder()
        .name("fig13-sw-scheduling")
        .cores(2, presetCore("web_search", "zeusmp"))
        .requests(12000)
        .meanLoad(0.7)
        .placement(sim::PlacementPolicy::QosAware)
        .modePolicy(sim::ModePolicyKind::BacklogHysteresis)
        .controlQuantum(0.5)
        .qosTarget(8.0)
        .expect();
}

/** Figure 15 flavour: the heterogeneous fleet replaying the web-search
 *  diurnal trace under slack-driven control. */
Scenario
fig15Diurnal()
{
    return ScenarioBuilder()
        .name("fig15-diurnal")
        .cores(presetCore("web_search", "mcf"), bigLittleSlots())
        .coRunner(2, "zeusmp")
        .coRunner(3, "zeusmp")
        .requests(15000)
        .diurnal(queueing::DiurnalTrace::webSearchCluster(), 75.0)
        .meanLoad(0.65)
        .placement(sim::PlacementPolicy::QosAware)
        .modePolicy(sim::ModePolicyKind::SlackDriven)
        .controlQuantum(0.5)
        .qosTargetFactor(4.0)
        .expect();
}

/** The qos_guardrail example's two-tenant fleet: search (6 ms @ p99)
 *  and sheddable analytics (75 ms @ p95) on 2 big + 2 little cores,
 *  class-aware routing, slack-driven per-class control. */
Scenario
twoTenantGuardrail()
{
    return ScenarioBuilder()
        .name("two-tenant-guardrail")
        .cores(presetCore("web_search", "mcf"), bigLittleSlots())
        .coRunner(2, "zeusmp")
        .coRunner(3, "zeusmp")
        .requests(15000)
        .meanLoad(0.65)
        .serviceClasses(
            workloads::ServiceClassRegistry::searchAnalyticsPair(6.0, 75.0))
        .placement(sim::PlacementPolicy::ClassAware)
        .modePolicy(sim::ModePolicyKind::SlackDriven)
        .controlQuantum(0.5)
        .expect();
}

/** Search + analytics where the analytics tenant sources its own 3x
 *  MMPP burst stream (per-class arrival superposition). */
Scenario
searchAnalyticsMix()
{
    workloads::ServiceClassRegistry pair =
        workloads::ServiceClassRegistry::searchAnalyticsPair(8.0, 80.0);
    pair.classAt(pair.byName("analytics")).traffic.burstRatio = 3.0;
    return ScenarioBuilder()
        .name("search-analytics-mix")
        .cores(2, presetCore("web_search", "mcf"))
        .requests(12000)
        .meanLoad(0.65)
        .serviceClasses(pair)
        .placement(sim::PlacementPolicy::ClassAware)
        .modePolicy(sim::ModePolicyKind::SlackDriven)
        .controlQuantum(0.5)
        .qosTarget(8.0)
        .expect();
}

/** Rack flavour: four 2-core web_search nodes behind a JSQ(2) ingress
 *  with stale (1 ms) backlog signals and a bursty two-tenant mix —
 *  the cluster-layer counterpart of fig13. Heavy-tailed demands plus
 *  MMPP bursts are what separate load-aware steering from round-robin
 *  when a node fails (see the rack drills and the teeth test). */
Scenario
rackWebSearch()
{
    cluster::IngressConfig ingress;
    ingress.policy = cluster::IngressPolicy::Jsq;
    ingress.probes = 2;
    ingress.signalDelayMs = 1.0;
    // Heavier bulk jobs than the single-node pair: one straggling
    // analytics query can pin a whole 2-core node, which is exactly the
    // imbalance load-aware steering exists to route around (and what
    // blind round-robin keeps feeding — the teeth gap).
    workloads::ServiceClassRegistry classes =
        workloads::ServiceClassRegistry::searchAnalyticsPair(8.0, 80.0);
    workloads::ServiceClass &bulk =
        classes.classAt(classes.byName("analytics"));
    bulk.paretoAlpha = 1.6;
    bulk.meanDemand = 3.0;
    bulk.weight = 0.25;
    return ScenarioBuilder()
        .name("rack-web-search")
        .cores(2, presetCore("web_search", "zeusmp"))
        .nodes(4)
        .ingress(ingress)
        .requests(20000)
        // Class demands are not unit-mean (the bulk tenant averages 3x),
        // so the effective utilisation is the load fraction times the
        // mix mean demand (1.4): ~0.63 quiet, ~0.84 once one of four
        // nodes is gone — the region where load-aware steering and
        // blind round-robin separate.
        .meanLoad(0.45)
        .burstiness(2.5)
        .serviceClasses(classes)
        .placement(sim::PlacementPolicy::ClassAware)
        .modePolicy(sim::ModePolicyKind::SlackDriven)
        .controlQuantum(0.5)
        .expect();
}

struct PresetEntry
{
    const char *name;
    Scenario (*build)();
};

const PresetEntry kPresets[] = {
    {"fig13-sw-scheduling", fig13SwScheduling},
    {"fig15-diurnal", fig15Diurnal},
    {"two-tenant-guardrail", twoTenantGuardrail},
    {"search-analytics-mix", searchAnalyticsMix},
    {"rack-web-search", rackWebSearch},
};

} // namespace

Scenario
preset(const std::string &name)
{
    for (const PresetEntry &p : kPresets) {
        if (name == p.name)
            return p.build();
    }
    STRETCH_FATAL("unknown scenario preset '", name,
                  "' (see scenario::presetNames())");
}

std::vector<std::string>
presetNames()
{
    std::vector<std::string> names;
    for (const PresetEntry &p : kPresets)
        names.emplace_back(p.name);
    return names;
}

namespace
{

/**
 * The curated catalog. Times are fractions of the run horizon;
 * latency bounds are absolute milliseconds, calibrated against the
 * deterministic preset runs with ~1.5-2x headroom over the observed
 * worst bucket so the suite flags regressions, not noise (there is
 * none — every drill is bit-reproducible).
 */
std::vector<Drill>
buildCatalog()
{
    std::vector<Drill> drills;

    // --- fig13-sw-scheduling (fleet-level bounds; no classes) --------
    drills.push_back(
        {"fig13/quiet", "fig13-sw-scheduling",
         "steady state holds the backlog-hysteresis tail",
         {},
         {fleetTailAtMost(10.0)}});
    drills.push_back(
        {"fig13/flash-crowd", "fig13-sw-scheduling",
         "1.3x flash crowd mid-run; tail bounded during, recovers after",
         {FlashCrowd{0.30, 0.55, 1.3}},
         {fleetTailAtMost(60.0, 0.30, 0.55),
          recoveryWithin("", 10.0, 0.30, 0.55)}});
    drills.push_back(
        {"fig13/retry-storm", "fig13-sw-scheduling",
         "latency-coupled retry storm; amplification stays contained",
         {RetryStorm{0.30, 0.60, 0.5, 0.015, 3.0}},
         {fleetTailAtMost(60.0, 0.30, 0.60),
          recoveryWithin("", 10.0, 0.30, 0.60)}});
    drills.push_back(
        {"fig13/antagonist-phase", "fig13-sw-scheduling",
         "co-runner phase change halves one core's capacity",
         {AntagonistPhaseChange{0, 0.30, 0.60, 0.5}},
         {fleetTailAtMost(40.0, 0.30, 0.60),
          recoveryWithin("", 10.0, 0.30, 0.60)}});
    drills.push_back(
        {"fig13/core-degradation", "fig13-sw-scheduling",
         "one core thermally degraded to half speed, then restored",
         {CoreDegradation{1, 0.35, 0.5, 0.65}},
         {fleetTailAtMost(40.0, 0.35, 0.65),
          recoveryWithin("", 10.0, 0.30, 0.65)}});
    drills.push_back(
        {"fig13/core-failure", "fig13-sw-scheduling",
         "losing one of two cores while upstream sheds 35% of traffic; "
         "the survivor absorbs the rest",
         {CoreFailure{1, 0.50}, FlashCrowd{0.50, 2.0, 0.65}},
         {fleetTailAtMost(120.0, 0.50)}});

    // --- fig15-diurnal ------------------------------------------------
    drills.push_back(
        {"fig15/quiet", "fig15-diurnal",
         "diurnal replay holds the slack-driven tail",
         {},
         {fleetTailAtMost(25.0)}});
    drills.push_back(
        {"fig15/flash-crowd", "fig15-diurnal",
         "flash crowd on top of the diurnal ramp",
         {FlashCrowd{0.35, 0.55, 1.25}},
         {fleetTailAtMost(60.0, 0.35, 0.55),
          recoveryWithin("", 12.0, 0.30, 0.55)}});
    drills.push_back(
        {"fig15/retry-storm", "fig15-diurnal",
         "retry storm against the resolved relative QoS target",
         {RetryStorm{0.35, 0.60, 2.0, 0.015}},
         {fleetTailAtMost(60.0, 0.35, 0.60)}});
    drills.push_back(
        {"fig15/antagonist-phase", "fig15-diurnal",
         "big-core co-runner turns cache-hostile for a third of the day",
         {AntagonistPhaseChange{0, 0.30, 0.60, 0.6}},
         {fleetTailAtMost(40.0, 0.30, 0.60),
          recoveryWithin("", 12.0, 0.30, 0.60)}});
    drills.push_back(
        {"fig15/little-core-failure", "fig15-diurnal",
         "losing a little core; the heterogeneous fleet re-routes",
         {CoreFailure{3, 0.60}},
         {fleetTailAtMost(130.0, 0.60)}});

    // --- two-tenant-guardrail (per-class bounds) ----------------------
    drills.push_back(
        {"guardrail/quiet", "two-tenant-guardrail",
         "steady state: both tenants hold their SLOs",
         {},
         {classTailAtMost("search", 9.0),
          attainmentAtLeast("search", 0.95),
          attainmentAtLeast("analytics", 0.90)}});
    drills.push_back(
        {"guardrail/flash-crowd", "two-tenant-guardrail",
         "1.2x flash crowd; class-aware routing keeps search inside its "
         "SLO (fails under class-blind round-robin — see the teeth "
         "test)",
         {FlashCrowd{0.30, 0.55, 1.2}},
         {classTailAtMost("search", 12.0, 0.30, 0.55),
          attainmentAtLeast("search", 0.90)}});
    drills.push_back(
        {"guardrail/retry-storm", "two-tenant-guardrail",
         "retry storm keyed to the search SLO",
         {RetryStorm{0.30, 0.55, 0.6, 0.015}},
         {classTailAtMost("search", 20.0, 0.30, 0.55),
          attainmentAtLeast("search", 0.85)}});
    drills.push_back(
        {"guardrail/antagonist-phase", "two-tenant-guardrail",
         "big-core co-runner phase change under class-aware routing",
         {AntagonistPhaseChange{0, 0.30, 0.60, 0.6}},
         {classTailAtMost("search", 20.0, 0.30, 0.60),
          attainmentAtLeast("search", 0.85)}});
    drills.push_back(
        {"guardrail/little-core-failure", "two-tenant-guardrail",
         "losing a little (analytics) core; search unaffected",
         {CoreFailure{3, 0.50}},
         {classTailAtMost("search", 75.0),
          attainmentAtLeast("search", 0.45)}});
    drills.push_back(
        {"guardrail/big-core-failure", "two-tenant-guardrail",
         "losing a big (search) core; the surviving big core absorbs",
         {CoreFailure{0, 0.60}},
         {classTailAtMost("search", 100.0, 0.60),
          attainmentAtLeast("analytics", 0.70)}});
    drills.push_back(
        {"guardrail/slo-tighten", "two-tenant-guardrail",
         "search SLO tightened to 75% mid-run; attainment holds",
         {SloReshuffle{"search", 0.50, 0.75}},
         {attainmentAtLeast("search", 0.90),
          classTailAtMost("search", 9.0)}});
    drills.push_back(
        {"guardrail/slo-relax", "two-tenant-guardrail",
         "analytics SLO relaxed to 100 ms mid-run",
         {SloReshuffle{"analytics", 0.40, 0.0, 100.0}},
         {attainmentAtLeast("analytics", 0.90),
          attainmentAtLeast("search", 0.95)}});
    drills.push_back(
        {"guardrail/crowd-plus-antagonist", "two-tenant-guardrail",
         "flash crowd while a big-core co-runner misbehaves",
         {FlashCrowd{0.30, 0.50, 1.2},
          AntagonistPhaseChange{1, 0.35, 0.55, 0.7}},
         {classTailAtMost("search", 55.0, 0.30, 0.55),
          attainmentAtLeast("search", 0.70)}});
    drills.push_back(
        {"guardrail/degradation-recovery", "two-tenant-guardrail",
         "big core degraded then restored; search tail recovers",
         {CoreDegradation{0, 0.35, 0.6, 0.55}},
         {recoveryWithin("search", 9.0, 0.30, 0.55),
          attainmentAtLeast("search", 0.85)}});

    // --- search-analytics-mix (bursty per-class arrivals) -------------
    drills.push_back(
        {"mix/quiet", "search-analytics-mix",
         "bursty analytics tenant; search holds its tail anyway",
         {},
         {classTailAtMost("search", 12.0),
          attainmentAtLeast("search", 0.90)}});
    drills.push_back(
        {"mix/flash-crowd", "search-analytics-mix",
         "fleet-wide flash crowd on top of the bursty tenant",
         {FlashCrowd{0.30, 0.50, 1.25}},
         {classTailAtMost("search", 30.0, 0.30, 0.50),
          attainmentAtLeast("search", 0.80)}});
    drills.push_back(
        {"mix/retry-storm", "search-analytics-mix",
         "retry storm keyed to the search SLO",
         {RetryStorm{0.30, 0.55, 0.5, 0.015}},
         {classTailAtMost("search", 30.0, 0.30, 0.55),
          attainmentAtLeast("search", 0.80)}});
    drills.push_back(
        {"mix/antagonist-phase", "search-analytics-mix",
         "co-runner phase change halves one of two cores",
         {AntagonistPhaseChange{1, 0.30, 0.60, 0.65}},
         {classTailAtMost("search", 30.0, 0.30, 0.60),
          attainmentAtLeast("search", 0.80)}});
    drills.push_back(
        {"mix/core-degradation", "search-analytics-mix",
         "core degraded then restored; search tail recovers",
         {CoreDegradation{0, 0.40, 0.5, 0.60}},
         {recoveryWithin("search", 12.0, 0.30, 0.60),
          attainmentAtLeast("search", 0.80)}});
    drills.push_back(
        {"mix/slo-tighten", "search-analytics-mix",
         "search SLO tightened to 80% mid-run",
         {SloReshuffle{"search", 0.50, 0.8}},
         {attainmentAtLeast("search", 0.85),
          classTailAtMost("search", 12.0)}});
    // --- rack-web-search (cluster layer) ------------------------------
    // Rack drills bound the merged cluster-level view: fleet tails and
    // whole-run class attainment (the merged timeline carries no
    // per-class cells, so ClassTailAtMost stays out of rack drills).
    // The absolute bars look loose next to the single-node drills
    // because the rack preset's bulk tenant draws alpha-1.6 Pareto
    // demands — a single straggling query can pin a 2-core node for
    // hundreds of milliseconds, which is the imbalance the steering
    // policies are measured against (observed JSQ(2) worst buckets run
    // 130-220 ms; blind round-robin 360-390 ms on the same stream).
    drills.push_back(
        {"rack/quiet", "rack-web-search",
         "steady state: the JSQ(2) ingress holds the rack-wide tail",
         {},
         {fleetTailAtMost(250.0),
          attainmentAtLeast("search", 0.45)}});
    drills.push_back(
        {"rack/node-failure", "rack-web-search",
         "one of four nodes fails mid-run; JSQ(2) re-steers its queue "
         "and holds the p99 bound that blind round-robin misses (the "
         "teeth pairing asserted in tests/test_cluster.cc)",
         {NodeFailure{3, 0.50}},
         {fleetTailAtMost(200.0, 0.50),
          attainmentAtLeast("search", 0.35)}});
    drills.push_back(
        {"rack/node-degradation", "rack-web-search",
         "one node at 40% capacity for a third of the run, then "
         "restored; the ingress steers around it and the tail recovers "
         "(round-robin blows both the bound and the recovery allowance)",
         {NodeDegradation{2, 0.30, 0.4, 0.60}},
         {fleetTailAtMost(280.0, 0.30, 0.60),
          recoveryWithin("", 40.0, 0.15, 0.60),
          attainmentAtLeast("search", 0.40)}});
    drills.push_back(
        {"rack/flash-crowd", "rack-web-search",
         "1.25x flash crowd across the whole rack",
         {FlashCrowd{0.30, 0.55, 1.25}},
         {fleetTailAtMost(250.0, 0.30, 0.55),
          recoveryWithin("", 40.0, 0.30, 0.55)}});

    drills.push_back(
        {"mix/storm-plus-degradation", "search-analytics-mix",
         "retry storm while a core is degraded",
         {RetryStorm{0.30, 0.50, 0.4, 0.015},
          CoreDegradation{1, 0.35, 0.75, 0.60}},
         {classTailAtMost("search", 40.0, 0.30, 0.60),
          attainmentAtLeast("search", 0.75)}});

    return drills;
}

} // namespace

const std::vector<Drill> &
drillCatalog()
{
    static const std::vector<Drill> catalog = buildCatalog();
    return catalog;
}

const Drill &
drill(const std::string &name)
{
    for (const Drill &d : drillCatalog()) {
        if (d.name == name)
            return d;
    }
    STRETCH_FATAL("unknown incident drill '", name,
                  "' (see scenario::drillCatalog())");
}

DrillOutcome
runDrill(const Drill &d, const std::function<void(Scenario &)> &tweak)
{
    Scenario s = preset(d.preset);
    if (tweak)
        tweak(s);
    const bool rack = s.nodes > 1;

    // Resolve the horizon: lower once (memoised calibration, shared
    // operating points — the real run below re-measures nothing) and
    // size it from the resolved rate. Under a trace the dispatcher
    // rate is the peak rate, so the mean trace load rescales it.
    // Rack scenarios lower to a ClusterConfig whose rate and request
    // count are rack-wide already.
    double ratePerMs = 0.0;
    double requests = 0.0;
    double meanLoad = 1.0;
    if (rack) {
        cluster::ClusterConfig quiet = lowerRack(s);
        ratePerMs = quiet.arrivalRatePerMs;
        requests = static_cast<double>(quiet.requests);
    } else {
        sim::FleetConfig quiet = lower(s);
        ratePerMs = quiet.arrivalRatePerMs;
        requests = static_cast<double>(quiet.requests);
        meanLoad = s.diurnalTrace ? s.diurnalTrace->meanLoad() : 1.0;
    }
    STRETCH_ASSERT(ratePerMs > 0.0, "drill '", d.name,
                   "' resolved no arrival rate");
    double horizonMs = requests / (ratePerMs * meanLoad);

    std::vector<Incident> incidents = d.incidents;
    scaleIncidentTimes(incidents, horizonMs);
    s.incidents = std::move(incidents);

    std::vector<QosAssertion> assertions = d.assertions;
    scaleAssertionTimes(assertions, horizonMs);

    // Windowed assertions need a timeline; default to 24 buckets over
    // the horizon when the preset does not pick its own granularity.
    double bucketMs =
        s.hourlyTimeline ? s.msPerHour : s.timelineBucketMs;
    if (bucketMs <= 0.0) {
        bucketMs = horizonMs / 24.0;
        s.timelineBucketMs = bucketMs;
    }

    DrillOutcome out;
    out.horizonMs = horizonMs;
    InstrumentedRun r = runInstrumented(s);
    out.assertions = evaluate(assertions, r.result, bucketMs);
    out.pass = std::all_of(out.assertions.begin(), out.assertions.end(),
                           [](const AssertionResult &v) { return v.pass; });
    // A rack's node tracers stay out of the single-tracer slot, and its
    // report cuts no events into the assertion windows.
    if (!rack && !r.traces.empty())
        out.trace = r.traces.front();
    out.metrics = r.metrics;

    // The artifacts are written after evaluation, so the drill report
    // carries the assertion verdicts.
    if (!s.reportPath.empty() || !s.tracePath.empty()) {
        obs::RunReport rep =
            makeReport(s, r.result, out.metrics.get(), out.trace.get());
        rep.label = d.name;
        for (const AssertionResult &v : out.assertions) {
            obs::RunReport::Assertion a;
            a.kind = toString(v.assertion.kind);
            a.className = v.assertion.className;
            a.bound = v.assertion.bound;
            a.fromMs = v.assertion.fromMs;
            a.untilMs = v.assertion.untilMs;
            a.observed = v.observed;
            a.pass = v.pass;
            a.detail = v.detail;
            if (v.window) {
                a.hasWindow = true;
                a.windowFromMs = v.window->fromMs;
                a.windowUntilMs = v.window->untilMs;
            }
            rep.assertions.push_back(std::move(a));
        }
        writeArtifacts(s, r, rep);
    }
    out.result = std::move(r.result);
    return out;
}

} // namespace stretch::scenario
