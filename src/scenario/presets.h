/**
 * @file
 * Named scenario presets and the incident drill catalog.
 *
 * A preset is a curated, paper-faithful `Scenario` addressable by name
 * — the fig13 software-scheduling fleet, the fig15 diurnal
 * heterogeneous fleet, the two-tenant QoS guardrail, and the bursty
 * search/analytics mix — sized for test-suite budgets (the benches keep
 * their own full-size builds). A *drill* pairs a preset with typed
 * incidents and the QoS assertions the paper's control loops are
 * expected to hold through them; the drill catalog is the repo's
 * QoS regression suite (each entry is one ctest case; see
 * tests/test_incidents.cc).
 *
 * Drill times are stored as *fractions* of the run horizon (0..1), so
 * one catalog entry is meaningful regardless of the resolved arrival
 * rate: `runDrill` lowers the preset once to resolve the rate, derives
 * the horizon, scales the incident and assertion times by it, and runs.
 * Everything is deterministic in the preset seed — the same drill
 * yields the same verdict on every machine.
 */

#ifndef STRETCH_SCENARIO_PRESETS_H
#define STRETCH_SCENARIO_PRESETS_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/incidents.h"
#include "scenario/scenario.h"

namespace stretch::scenario
{

/** Build the named preset scenario (fatal on an unknown name; see
 *  `presetNames` for the registry). */
Scenario preset(const std::string &name);

/** Names of every registered preset, in registry order. */
std::vector<std::string> presetNames();

/**
 * One incident drill: a preset, the faults injected into it, and the
 * QoS bounds the run must hold. Incident and assertion times are
 * fractions of the run horizon (see file header); latency bounds are
 * absolute milliseconds.
 */
struct Drill
{
    std::string name;        ///< "preset/slug" (the ctest case name)
    std::string preset;      ///< preset the drill runs on
    std::string description; ///< what the drill demonstrates
    std::vector<Incident> incidents;      ///< times as horizon fractions
    std::vector<QosAssertion> assertions; ///< times as horizon fractions
};

/** The curated drill catalog (every entry is one regression case). */
const std::vector<Drill> &drillCatalog();

/** Catalog entry by name (fatal on an unknown drill). */
const Drill &drill(const std::string &name);

/** A finished drill: the run, the scaled-and-evaluated assertions, and
 *  the overall verdict. When the drill ran instrumented (the tweak set
 *  `tracePath`/`reportPath`), the live tracer/registry ride along for
 *  cross-checking — null otherwise. A rack drill's per-node tracers do
 *  not ride along: its `trace` stays null. */
struct DrillOutcome
{
    sim::FleetResult result;
    std::vector<AssertionResult> assertions;
    double horizonMs = 0.0; ///< resolved run horizon the times scaled to
    bool pass = false;      ///< every assertion passed
    std::shared_ptr<obs::EngineTracer> trace;
    std::shared_ptr<obs::MetricRegistry> metrics;
};

/**
 * Run one drill end to end: build the preset, apply @p tweak (tests use
 * it to *break* the control configuration and prove the assertions have
 * teeth), resolve the horizon, scale the incident/assertion times, run,
 * and evaluate. Deterministic in the preset seed.
 *
 * When the tweak sets the scenario's `tracePath`/`reportPath`, the run
 * is instrumented and the artifacts are written after evaluation — the
 * run report carries the assertion verdicts, and each failed assertion
 * attaches the trace window around its violating buckets.
 */
DrillOutcome runDrill(const Drill &d,
                      const std::function<void(Scenario &)> &tweak = {});

} // namespace stretch::scenario

#endif // STRETCH_SCENARIO_PRESETS_H
