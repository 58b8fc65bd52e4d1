/**
 * @file
 * Dynamic Stretch quickstart: close the loop between the request
 * dispatcher and each core's Stretch mode.
 *
 * A 4-core fleet colocates web_search with mcf. Each core's LS capacity
 * is measured in all three operating points (Baseline / B-mode / Q-mode),
 * then the same bursty request stream is dispatched under three control
 * policies — mode held at Baseline, backlog hysteresis, and the
 * CPI²-monitor slack ladder — each serving core switching its own mode
 * at control-quantum boundaries, paying the flush cost on every change.
 *
 * Written against the scenario API: the rack, the bursty traffic, and
 * the relative QoS target live in one scenario; a one-axis sweep runs
 * the three control policies with operating points measured once.
 *
 * Build:  cmake -B build -S . && cmake --build build -j
 * Run:    ./build/fleet_dynamic_modes
 */

#include <cstdio>

#include "scenario/scenario.h"

using namespace stretch;

namespace
{

void
report(const char *label, const sim::FleetResult &r)
{
    const sim::DispatchOutcome &d = r.dispatch;
    std::printf("%-20s p50 %7.3f ms  p99 %7.3f ms  p99.9 %7.3f ms  "
                "%8.1f kreq/s  %4lu transitions\n",
                label, d.latencyMs.median, d.latencyMs.p99, d.latencyMs.p999,
                d.throughputRps / 1000.0,
                static_cast<unsigned long>(d.totalTransitions()));
    for (std::size_t i = 0; i < d.modeStats.size(); ++i) {
        const sim::CoreModeStats &m = d.modeStats[i];
        double total = m.residencyMs[0] + m.residencyMs[1] + m.residencyMs[2];
        if (total <= 0.0)
            continue;
        std::printf("    core %zu: %5.1f%% Baseline, %5.1f%% B-mode, "
                    "%5.1f%% Q-mode, %3lu changes (%.2f ms flushed), "
                    "ends in %s\n",
                    i, 100.0 * m.residencyMs[0] / total,
                    100.0 * m.residencyMs[1] / total,
                    100.0 * m.residencyMs[2] / total,
                    static_cast<unsigned long>(m.transitions), m.flushMs,
                    toString(m.finalMode));
    }
}

} // namespace

int
main()
{
    sim::RunConfig base;
    base.workload0 = "web_search"; // latency-sensitive thread
    base.workload1 = "mcf";        // memory-hungry batch co-runner
    base.samples = 2;
    base.warmupOps = 4000;
    base.measureOps = 10000;

    // MMPP-2 bursts stress the control loop; the QoS target is derived
    // from a flat-load calibration probe (1x its p99 sojourn), so the
    // slack ladder has real violations to react to once bursts queue up.
    scenario::Scenario fleet =
        scenario::ScenarioBuilder()
            .name("fleet-dynamic-modes")
            .cores(4, base)
            .requests(30000)
            .burstiness(4.0)
            .placement(sim::PlacementPolicy::PowerOfTwo)
            .modePolicy(sim::ModePolicyKind::SlackDriven)
            .controlQuantum(0.5)
            .qosTargetFactor(1.0)
            .expect();

    scenario::Sweep sweep(fleet);
    sweep.over("control",
               {{"static baseline",
                 [](scenario::Scenario &s) {
                     // The mode is set once and never changed.
                     s.control.kind = sim::ModePolicyKind::Static;
                 }},
                {"backlog-hysteresis",
                 [](scenario::Scenario &s) {
                     // Engage B-mode when the queue is near-empty, fall
                     // back as it builds, escalate to Q-mode under depth.
                     s.control.kind = sim::ModePolicyKind::BacklogHysteresis;
                 }},
                {"slack-driven", [](scenario::Scenario &s) {
                     // The CPI²-style monitor watches completion latencies
                     // against the sojourn target and walks its ladder.
                     s.control.kind = sim::ModePolicyKind::SlackDriven;
                 }}});

    std::printf("4-core fleet: web_search + mcf, bursty arrivals, "
                "power-of-two placement\n\n");

    std::vector<scenario::Sweep::Outcome> outcomes = sweep.run();
    for (const scenario::Sweep::Outcome &o : outcomes)
        report(o.variant.coords[0].second.c_str(), o.result);

    std::printf("\nB-mode trades LS capacity for batch throughput; the "
                "dynamic policies engage it\nonly while the dispatch "
                "backlog (or measured tail slack) says the QoS target\n"
                "can absorb the hit, and buy the capacity back with "
                "Q-mode under pressure.\n");
    const sim::FleetResult &backlog = outcomes[1].result;
    std::printf("\nPer-core capacity by mode (req/ms): ");
    for (std::size_t i = 0; i < backlog.modeRates.size(); ++i)
        std::printf("core %zu %.2f/%.2f/%.2f  ", i,
                    backlog.modeRates[i].baseline,
                    backlog.modeRates[i].bmode, backlog.modeRates[i].qmode);
    std::printf("\n");
    return 0;
}
