/**
 * @file
 * QoS guardrail, fleet edition: two service classes with different SLOs
 * — tier-0 interactive "search" and sheddable bulk "analytics" — share a
 * heterogeneous Stretch fleet (2 big + 2 little cores) with batch
 * co-runners riding along. The class-aware router pins search to the big
 * cores and keeps analytics off them; per-class CPI²-style monitors walk
 * the Stretch ladder against each class's own SLO, so the tightest class
 * on a core drives its mode and co-runner throttle.
 *
 * Written against the scenario API. Three runs over one scenario:
 * class-aware routing vs. class-blind round-robin on the same shared
 * tagged stream (a placement sweep), then the same fleet with the
 * analytics tenant sourcing its *own bursty arrival process* — the
 * per-class arrival superposition — to show what a misbehaving tenant's
 * bursts do to each class's tail. Every run after the first reuses the
 * measured operating points via the process-wide cache.
 */

#include <cstdio>

#include "scenario/scenario.h"
#include "sim/op_point_cache.h"

using namespace stretch;

namespace
{

void
printPerClass(const char *label, const sim::DispatchOutcome &d)
{
    std::printf("%s\n", label);
    std::printf("  %-10s %9s %7s %9s %9s %9s %11s\n", "class", "SLO(ms)",
                "shed", "p50(ms)", "p99(ms)", "tail(ms)", "attainment");
    for (const sim::ClassOutcome &co : d.perClass) {
        std::printf("  %-10s %9.2f %7llu %9.3f %9.3f %9.3f %10.1f%% %s\n",
                    co.name.c_str(), co.sloTargetMs,
                    static_cast<unsigned long long>(co.shed),
                    co.latencyMs.median, co.latencyMs.p99, co.tailMs,
                    100.0 * co.sloAttainment, co.sloMet() ? "MET" : "MISS");
    }
}

} // namespace

int
main()
{
    // A small-but-real fleet: web_search + mcf on two big (192-entry
    // ROB) cores, web_search + zeusmp on two little (128-entry) cores.
    sim::RunConfig base;
    base.workload0 = "web_search";
    base.workload1 = "mcf";
    base.samples = 2;
    base.warmupOps = 4000;
    base.measureOps = 10000;

    std::vector<sim::CoreSlot> slots(4);
    slots[2].robEntries = slots[3].robEntries = 128;
    slots[2].lsqEntries = slots[3].lsqEntries = 48;
    slots[2].bmodeSkew = slots[3].bmodeSkew = SkewConfig{40, 88};
    slots[2].qmodeSkew = slots[3].qmodeSkew = SkewConfig{88, 40};

    // The two tenants: search must answer in 6 ms at p99; analytics
    // tolerates 75 ms and may be shed under pressure. Slack-driven
    // control with per-class monitors: each core's ladder reacts to the
    // tightest class it is serving.
    scenario::Scenario fleet =
        scenario::ScenarioBuilder()
            .name("qos-guardrail")
            .cores(base, slots)
            .coRunner(2, "zeusmp")
            .coRunner(3, "zeusmp")
            .requests(30000)
            .serviceClasses(
                workloads::ServiceClassRegistry::searchAnalyticsPair(6.0,
                                                                     75.0))
            .placement(sim::PlacementPolicy::ClassAware)
            .modePolicy(sim::ModePolicyKind::SlackDriven)
            .controlQuantum(0.5)
            .expect();

    scenario::Sweep sweep(fleet);
    sweep.over("routing",
               {{"class-aware",
                 [](scenario::Scenario &s) {
                     s.placement = sim::PlacementPolicy::ClassAware;
                 }},
                {"round-robin", [](scenario::Scenario &s) {
                     s.placement = sim::PlacementPolicy::RoundRobin;
                 }}});
    std::vector<scenario::Sweep::Outcome> outcomes = sweep.run();
    const sim::FleetResult &aware = outcomes[0].result;
    const sim::FleetResult &blind = outcomes[1].result;

    std::printf("two-class fleet: 2 big + 2 little cores, search SLO "
                "6 ms @ p99, analytics SLO 75 ms @ p95\n\n");
    printPerClass("class-aware routing (hot class pinned to big cores):",
                  aware.dispatch);
    std::printf("\n");
    printPerClass("class-blind round-robin (same tagged stream):",
                  blind.dispatch);

    // Per-class arrival processes: let the analytics tenant source its
    // own MMPP-2 burst stream (4x rate surges) while search stays
    // Poisson — the superposition replaces the shared weighted stream,
    // and the guardrail has to absorb a misbehaving co-tenant.
    scenario::Scenario bursty = fleet;
    bursty.classes.classAt(bursty.classes.byName("analytics"))
        .traffic.burstRatio = 4.0;
    bursty.perClassArrivals = true;
    sim::FleetResult surge = scenario::run(bursty);
    std::printf("\n");
    printPerClass("class-aware routing, analytics sourcing its own 4x "
                  "burst stream:",
                  surge.dispatch);

    const sim::DispatchOutcome &d = aware.dispatch;
    double residency[sim::numStretchModes] = {};
    double total = 0.0, throttled = 0.0;
    for (const sim::CoreModeStats &m : d.modeStats) {
        for (std::size_t i = 0; i < sim::numStretchModes; ++i) {
            residency[i] += m.residencyMs[i];
            total += m.residencyMs[i];
        }
        throttled += m.throttleMs;
    }
    std::printf("\nclass-aware fleet control: baseline %.0f%%, B-mode "
                "%.0f%%, Q-mode %.0f%%, throttled %.0f%% of core-time, "
                "%llu mode transitions, %llu throttle engagements\n",
                100.0 * residency[0] / total, 100.0 * residency[1] / total,
                100.0 * residency[2] / total, 100.0 * throttled / total,
                static_cast<unsigned long long>(d.totalTransitions()),
                static_cast<unsigned long long>(
                    d.totalThrottleEngagements()));
    std::printf("operating-point cache: %llu measured, %llu reused\n",
                static_cast<unsigned long long>(
                    sim::OperatingPointCache::instance().misses()),
                static_cast<unsigned long long>(
                    sim::OperatingPointCache::instance().hits()));
    return 0;
}
