/**
 * @file
 * The scenario layer: one composable front door for fleet experiments.
 *
 * Every bench, example, and test used to hand-assemble the
 * `RunConfig`/`DispatchConfig`/`FleetConfig`/`ModeControlConfig`
 * knob-soup — a dozen call sites clone-and-mutating `FleetConfig`, each
 * re-deriving the same calibration boilerplate (measure a static probe,
 * sum its capacity, scale a QoS target off its p99). The scenario layer
 * replaces that with a validated `Scenario` value type describing a
 * whole experiment in domain terms — topology, traffic, control,
 * reporting — built via a fluent `ScenarioBuilder` that rejects invalid
 * scenarios with actionable messages, plus `Sweep`, a declarative
 * cartesian variant expansion that runs labelled variants through the
 * same engine with shared `OperatingPointCache` reuse.
 *
 * Lowering: `scenario::run` resolves relative quantities (load
 * fractions of measured capacity, QoS targets as multiples of a probe
 * p99, day-sized request streams) by running a small static calibration
 * probe when needed — reusing the process-wide operating-point cache —
 * and then lowers onto the stable low-level core, `sim::runFleet`:
 *
 *     Scenario ──lower()──► sim::FleetConfig ──runFleet──►
 *         queueing::EventEngine dispatch ──► sim::FleetResult
 *
 * The low-level structs stay public and untouched; the scenario layer
 * is sugar with validation, not a replacement substrate.
 *
 * Units match the fleet layer: times in milliseconds of simulated time,
 * rates in requests per millisecond, load fractions in [0, ~1.x] of
 * measured baseline capacity. Everything is deterministic in the
 * scenario seed; `run` is bit-identical to hand-building the lowered
 * `FleetConfig` and calling `runFleet` yourself.
 */

#ifndef STRETCH_SCENARIO_SCENARIO_H
#define STRETCH_SCENARIO_SCENARIO_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "obs/report.h"
#include "scenario/incidents.h"
#include "sim/fleet.h"

namespace stretch::scenario
{

/** Stream length of the calibration probe (when one is needed). */
inline constexpr std::uint64_t calibrationRequests = 6000;

/**
 * A validated description of one fleet experiment. Construct via
 * `ScenarioBuilder` (which enforces the invariants below); the fields
 * are plain data so `Sweep` patches — and tests — can mutate a copy
 * after validation. `lower`/`run` re-assert the load-bearing
 * invariants, so a patch cannot silently produce a nonsense run.
 *
 * The request stream is the inherited `sim::TrafficSpec`, handed to the
 * lowered fleet or rack in one assignment. Its `arrivalRatePerMs` stays
 * 0 when a load fraction below sets the rate.
 */
struct Scenario : sim::TrafficSpec
{
    /** Experiment name (used in sweep labels and logs). */
    std::string name = "scenario";

    /// @name Topology.
    /// @{
    /** One entry per SMT core; each a complete colocation pair. */
    std::vector<sim::RunConfig> cores;
    /** Optional per-slot physical overrides (empty or index-matched). */
    std::vector<sim::CoreSlot> slots;
    /** Rack width: 1 = a single fleet (the historical path); > 1
     *  replicates the cores topology onto every node of a cluster
     *  behind the ingress (`runRack`). `requests` and rate fields
     *  then describe the whole rack, and load fractions resolve
     *  against the summed node capacities. */
    unsigned nodes = 1;
    /** Ingress steering for rack scenarios (ignored when nodes == 1). */
    cluster::IngressConfig ingress;
    /// @}

    /// @name Traffic beyond the inherited stream.
    /// @{
    /** Size the stream to span one replayed 24 h day (diurnal only);
     *  overrides `requests`. */
    bool dayRequests = false;
    /** Target *mean* load as a fraction of measured baseline capacity
     *  (0 = unset). Resolved against a calibration probe. */
    double meanLoadFraction = 0.0;
    /** Target *peak* rate as a fraction of measured baseline capacity
     *  (0 = unset); equals the mean without a trace. */
    double peakLoadFraction = 0.0;
    /// @}

    /// @name Control.
    /// @{
    sim::PlacementPolicy placement = sim::PlacementPolicy::RoundRobin;
    sim::ClassRouterConfig classRouting;
    sim::ModeControlConfig control;
    /** QoS target as a multiple of the calibration probe's p99 sojourn
     *  (0 = use `control.monitor.qosTarget` as an absolute value). */
    double qosTargetFactor = 0.0;
    /// @}

    /// @name Incidents.
    /// @{
    /** Typed mid-run faults, compiled by `lower` to the dispatcher's
     *  scheduled-action list (see scenario/incidents.h). Empty = a
     *  quiet run, bit-identical to one before the incident layer. */
    std::vector<Incident> incidents;
    /// @}

    /// @name Reporting.
    /// @{
    /** One timeline bucket per replayed hour (diurnal only);
     *  overrides timelineBucketMs. */
    bool hourlyTimeline = false;
    /** Write a versioned run-report JSON manifest here after the run
     *  (empty = off). Enables the metric registry for the run. */
    std::string reportPath;
    /** Write a Chrome trace_event JSON file here after the run (empty =
     *  off). Enables the engine tracer; the simulated outcome stays
     *  bit-identical to an untraced run. */
    std::string tracePath;
    /// @}

    unsigned threads = 0; ///< worker threads (0 = hardware)

    /** True when lowering must run a calibration probe first (a load
     *  fraction, a relative QoS target, or a day-sized stream whose
     *  rate is not explicit). */
    bool needsCalibration() const;
};

/** Outcome of `ScenarioBuilder::tryBuild`: either a valid scenario or
 *  the full list of validation errors (never both). */
struct BuildResult
{
    std::optional<Scenario> scenario;
    std::vector<std::string> errors;

    /** Did validation pass? */
    bool ok() const { return scenario.has_value(); }

    /** All error messages joined with "; " (empty when ok). */
    std::string errorText() const;
};

/**
 * Fluent builder for `Scenario`. Setters accumulate; `tryBuild`
 * validates everything at once and reports *every* violation with an
 * actionable message (what was wrong, and which call fixes it), so a
 * misconfigured experiment fails with the full list instead of
 * die-on-first. `expect()` is the assert-style variant: it returns the
 * scenario or terminates with the joined messages — the right call in
 * examples and benches where an invalid scenario is a programming
 * error.
 */
class ScenarioBuilder
{
  public:
    ScenarioBuilder() = default;

    /** Name used in sweep labels and logs. */
    ScenarioBuilder &name(std::string n);

    /// @name Topology.
    /// @{
    /** Homogeneous fleet: @p n cores cloned from @p base with
     *  decorrelated seeds (replaces any previous topology). */
    ScenarioBuilder &cores(unsigned n, const sim::RunConfig &base);
    /** Heterogeneous fleet: one core per slot, cloned from @p base with
     *  the slot's physical overrides (replaces any previous topology). */
    ScenarioBuilder &cores(const sim::RunConfig &base,
                           std::vector<sim::CoreSlot> slots);
    /** Append one explicit core. */
    ScenarioBuilder &addCore(sim::RunConfig core);
    /** Replace the batch co-runner on core @p index. */
    ScenarioBuilder &coRunner(std::size_t index, std::string workload);
    /** Rack width: replicate the cores topology onto @p n nodes behind
     *  the ingress (1 = the historical single-fleet path). */
    ScenarioBuilder &nodes(unsigned n);
    /** Replace the whole ingress-steering block (rack scenarios). */
    ScenarioBuilder &ingress(cluster::IngressConfig cfg);
    /// @}

    /// @name Traffic.
    /// @{
    ScenarioBuilder &requests(std::uint64_t n);
    /** Size the stream to span one replayed 24 h day. */
    ScenarioBuilder &dayLongStream();
    /** Absolute arrival rate (peak rate under a trace). */
    ScenarioBuilder &arrivalRate(double rate_per_ms);
    /** Target mean load as a fraction of measured capacity. */
    ScenarioBuilder &meanLoad(double fraction);
    /** Target peak rate as a fraction of measured capacity. */
    ScenarioBuilder &peakLoad(double fraction);
    /** MMPP-2 burstiness (ratio 1 = Poisson). */
    ScenarioBuilder &burstiness(double ratio, double dwell_low_ms = 200.0,
                                double dwell_high_ms = 40.0);
    /** Replay a 24-hour trace at @p ms_per_hour time compression. */
    ScenarioBuilder &diurnal(queueing::DiurnalTrace trace,
                             double ms_per_hour);
    /** Add one service class (validated at build, not fatally here). */
    ScenarioBuilder &serviceClass(workloads::ServiceClass cls);
    /** Add every class of an existing registry. */
    ScenarioBuilder &serviceClasses(
        const workloads::ServiceClassRegistry &registry);
    /** Force per-class arrival processes on (auto-enabled when any
     *  class customises its traffic) or explicitly off. */
    ScenarioBuilder &perClassArrivals(bool on = true);
    /// @}

    /// @name Incidents.
    /// @{
    /** Inject one typed mid-run incident (validated at build against
     *  the topology and classes; see scenario/incidents.h). */
    ScenarioBuilder &incident(Incident incident);
    /// @}

    /// @name Control.
    /// @{
    ScenarioBuilder &placement(sim::PlacementPolicy policy);
    ScenarioBuilder &modePolicy(sim::ModePolicyKind kind);
    ScenarioBuilder &controlQuantum(double quantum_ms);
    /** Absolute QoS target (ms of sojourn; SlackDriven). */
    ScenarioBuilder &qosTarget(double target_ms);
    /** QoS target as a multiple of the calibration probe's p99. */
    ScenarioBuilder &qosTargetFactor(double factor);
    /// @}

    /// @name Reporting.
    /// @{
    ScenarioBuilder &timeline(double bucket_ms);
    /** One timeline bucket per replayed hour. */
    ScenarioBuilder &hourlyTimeline();
    /** Emit a run-report JSON manifest to @p path after the run. */
    ScenarioBuilder &reportTo(std::string path);
    /** Emit a Chrome trace_event JSON file to @p path after the run. */
    ScenarioBuilder &traceTo(std::string path);
    /// @}

    /// @name Runtime.
    /// @{
    /** Dispatch-stream seed. An explicit seed survives a later
     *  cores(n, base) call (which otherwise adopts base.seed). */
    ScenarioBuilder &seed(std::uint64_t s);
    ScenarioBuilder &threads(unsigned n);
    /// @}

    /** Validate and build, reporting every violation. */
    BuildResult tryBuild() const;

    /** Validate and build; terminates with the joined messages when the
     *  scenario is invalid (expect-style: invalid == programming bug). */
    Scenario expect() const;

  private:
    Scenario draft;
    std::vector<workloads::ServiceClass> pendingClasses;
    std::optional<bool> perClassOverride;
    bool seedExplicit = false;
};

/**
 * Resolve a scenario to the `FleetConfig` that `run` would execute.
 * When the scenario uses relative quantities (`needsCalibration()`),
 * this runs the static calibration probe — through the shared
 * `OperatingPointCache`, so a subsequent `run` of the same scenario
 * re-measures nothing.
 */
sim::FleetConfig lower(const Scenario &s);

/** Run a scenario end to end: calibrate (if needed), lower, dispatch.
 *  When `reportPath`/`tracePath` are set the run is instrumented and
 *  the artifacts are written before returning (`runInstrumented`, then
 *  `writeArtifacts`); otherwise this is the zero-overhead fast path (no
 *  tracer, no registry, the untouched engine loop). Rack scenarios
 *  (nodes > 1) route through `runRack` and return the merged
 *  cluster-level view. */
sim::FleetResult run(const Scenario &s);

/**
 * Resolve a rack scenario (nodes > 1) to the `ClusterConfig` that
 * `runRack` would execute: the per-node fleet is the scenario lowered
 * as a single node (shared calibration/operating-point caches), the
 * rack is its homogeneous replication with decorrelated per-node
 * seeds, rate fractions resolve against the summed node capacities,
 * and the scenario's incidents compile to ingress `NodeAction`s
 * (FlashCrowd / NodeDegradation / NodeFailure only — fatal on any
 * other kind, which `ScenarioBuilder` already rejects).
 */
cluster::ClusterConfig lowerRack(const Scenario &s);

/** Run a rack scenario end to end through `cluster::runCluster`.
 *  `tracePath` writes the merged per-node Chrome trace; `reportPath`
 *  writes a run report over the merged cluster-level result with the
 *  `ingress.*` / `cluster.*` metric fill attached. */
cluster::ClusterResult runRack(const Scenario &s);

/**
 * A finished run plus whichever observability objects the scenario's
 * reporting paths enabled: one tracer per node when `tracePath` was set
 * (a fleet is one node), the registry when `reportPath` was — none
 * otherwise.
 */
struct InstrumentedRun
{
    /** The fleet result, or a rack's merged cluster-level view. */
    sim::FleetResult result;
    /** A rack's per-node results, ingress stats and steered streams
     *  (its `merged` view is `result`); empty for a fleet. */
    cluster::ClusterResult rack;
    std::vector<std::shared_ptr<obs::EngineTracer>> traces;
    std::shared_ptr<obs::MetricRegistry> metrics;
};

/** Run a fleet or rack scenario with whatever instrumentation its
 *  reporting paths enable, writing NO files: callers pass the run to
 *  `writeArtifacts`, after adding what they want to its report (the
 *  drill runner adds assertion verdicts). The simulated result is
 *  bit-identical to `run`. */
InstrumentedRun runInstrumented(const Scenario &s);

/** Write the artifacts @p s asks for: @p r's tracers as one Chrome
 *  trace (`obs::writeClusterTraceFile`) to `tracePath`, then @p report
 *  to `reportPath`. Either path may be empty. */
void writeArtifacts(const Scenario &s, const InstrumentedRun &r,
                    const obs::RunReport &report);

/** Assemble a run report for @p s: identity (label, seed, config
 *  echo), the effective timeline bucket, and borrowed pointers to the
 *  result/metrics/trace (which must outlive the report's
 *  serialization). Callers append assertion verdicts before writing. */
obs::RunReport makeReport(const Scenario &s, const sim::FleetResult &result,
                          const obs::MetricRegistry *metrics,
                          const obs::EngineTracer *trace);

/** Derive a per-variant artifact path from a sweep-level base path:
 *  the variant label — sanitized to [A-Za-z0-9._-] — is inserted
 *  before the extension ("runs/day.json" + "policy=qos" →
 *  "runs/day-policy-qos.json"). */
std::string variantArtifactPath(const std::string &base,
                                const std::string &label);

/**
 * Declarative cartesian sweep over scenario variants.
 *
 *     Sweep sweep(base);
 *     sweep.over("policy", {{"round-robin", [](Scenario &s) { ... }},
 *                           {"qos-aware", [](Scenario &s) { ... }}})
 *          .over("load",
 *                {{"70%", [](Scenario &s) { s.meanLoadFraction = 0.7; }},
 *                 {"90%", [](Scenario &s) { s.meanLoadFraction = 0.9; }}});
 *     for (const Sweep::Outcome &o : sweep.run())
 *         ... o.variant.label, o.result.dispatch.latencyMs.p99 ...
 *
 * Axes expand in declaration order with the last axis varying fastest;
 * each variant is the base scenario with one patch per axis applied in
 * axis order. All variants run through `scenario::run`, so identical
 * cores across variants are measured once (the shared operating-point
 * cache) — the fig15-style sweep speedup for free.
 */
class Sweep
{
  public:
    /** Mutation one axis point applies to the base scenario. */
    using Patch = std::function<void(Scenario &)>;

    /** One labelled point on an axis. */
    struct Point
    {
        std::string label;
        Patch apply;
    };

    explicit Sweep(Scenario base);

    /** Add an axis (at least one point). Fatal on a duplicate axis name
     *  or duplicate point labels within the axis — either would expand
     *  to colliding variant labels, silently corrupting any table or
     *  cache keyed on them. Returns *this for chaining. */
    Sweep &over(std::string axis, std::vector<Point> points);

    /** One expanded variant: its coordinates and patched scenario. */
    struct Variant
    {
        /** "axis=point, axis2=point2" (the row label). */
        std::string label;
        /** (axis, point label) pairs in axis order. */
        std::vector<std::pair<std::string, std::string>> coords;
        Scenario scenario;
    };

    /** Cartesian expansion (without running anything). */
    std::vector<Variant> variants() const;

    /** A variant together with its fleet result. */
    struct Outcome
    {
        Variant variant;
        sim::FleetResult result;
    };

    /**
     * Run every variant through `scenario::run`; outcomes come back in
     * expansion order. Variants execute in parallel on the base
     * scenario's thread budget (`base.threads`; 1 = serial, 0 =
     * hardware concurrency), bit-identical to the serial loop: every
     * variant is an independent simulation writing an index-addressed
     * slot, and shared probe work converges in single-flight caches.
     * When the base scenario sets `reportPath`/`tracePath`, each
     * variant writes its own artifacts at
     * `variantArtifactPath(base path, variant label)`.
     */
    std::vector<Outcome> run() const;

  private:
    struct Axis
    {
        std::string name;
        std::vector<Point> points;
    };

    Scenario base;
    std::vector<Axis> axes;
};

} // namespace stretch::scenario

#endif // STRETCH_SCENARIO_SCENARIO_H
