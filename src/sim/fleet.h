/**
 * @file
 * Fleet layer: many Stretch SMT cores serving one request stream, with a
 * closed per-core dynamic mode-control loop.
 *
 * The paper evaluates a single dual-threaded core; a datacenter deploys
 * racks of them. The fleet layer instantiates N cores — each a complete
 * RunConfig colocation pair — runs their microarchitectural simulations in
 * parallel (each core's seed derives only from (fleet seed, core
 * index), so parallel and serial execution are bit-identical), then
 * dispatches a shared request stream across the cores on the
 * `queueing::EventEngine` discrete-event substrate with a pluggable
 * placement policy.
 *
 * On top of the shared engine sits the paper's headline *dynamic* Stretch
 * story: each serving core has a `Cpi2Monitor` fed by request-level
 * completion latencies, and a pluggable mode policy picks the core's
 * Stretch mode at control-quantum boundaries as backlog and slack
 * change. A mode is plain configuration: each core's capacity is
 * measured at every mode before dispatch starts (`sim::robSetupFor`),
 * and a mode change is charged as `modeFlushCostMs` of lost service
 * capacity. Per-core mode residency/transition counts are reported in
 * the dispatch outcome.
 *
 * The monitor's full CPI² decision ladder is closed: completion latencies
 * and CPI-style slowdown proxies feed each core's monitor, and when the
 * ladder orders co-runner throttling the dispatcher suppresses the batch
 * thread on that core — the latency-sensitive thread serves at its
 * measured throttled capacity while the batch thread's throughput
 * contribution collapses — until the monitor disengages. Fleets may also
 * replay a 24-hour `queueing::DiurnalTrace` as the arrival process and
 * mix heterogeneous (big/little ROB) core slots.
 *
 * The LS stream itself can be multi-tenant: a `ServiceClassRegistry`
 * tags every arrival with a service class (per-class demand
 * distribution, SLO, priority tier, batch tolerance), the `ClassAware`
 * placement policy routes through a `ClassRouter` (hot classes pinned to
 * big cores, hour-aware reservation, per-class admission/shedding),
 * per-core SlackDriven monitors track each class against its own SLO so
 * the ladder reacts to the tightest class on the core, and
 * `DispatchOutcome::perClass` reports per-class latency percentiles and
 * SLO attainment. Operating-point measurements are memoised in the
 * process-wide `OperatingPointCache`, so repeated fleet runs over
 * identical cores skip the microarchitectural re-simulation.
 *
 * Units: all simulated times (latencies, residencies, quanta, backlog)
 * are milliseconds; service rates are requests per millisecond; control
 * policies run at quantum boundaries (multiples of
 * `ModeControlConfig::quantumMs`). Everything here is deterministic in
 * the config seeds — `runFleet` is bit-identical for any thread count,
 * and `dispatchRequests` is single-threaded by construction.
 */

#ifndef STRETCH_SIM_FLEET_H
#define STRETCH_SIM_FLEET_H

#include <array>
#include <cstdint>
#include <vector>

#include "qos/cpi2_monitor.h"
#include "qos/stretch_mode.h"
#include "sim/class_router.h"
#include "sim/runner.h"
#include "sim/traffic.h"
#include "stats/streaming_tail.h"
#include "stats/summary.h"

namespace stretch::obs
{
class EngineTracer;
class MetricRegistry;
} // namespace stretch::obs

namespace stretch::sim
{

/** How the fleet dispatcher picks a core for each arriving request. */
enum class PlacementPolicy
{
    RoundRobin,  ///< rotate over serving-capable cores, blind to load
    LeastLoaded, ///< shortest backlog (pending work in ms), ties to lowest id
    PowerOfTwo,  ///< two random candidates, shorter backlog wins (load-aware
                 ///< at O(1) cost; Mitzenmacher's power of two choices)
    QosAware,    ///< minimize this request's predicted completion latency
    ClassAware,  ///< ClassRouter: pin hot classes to big cores, hour-aware
                 ///< reservation, per-class admission (needs classes)
};

/** Human-readable policy name. */
const char *toString(PlacementPolicy policy);

/** How a fleet core's Stretch mode is driven during dispatch. */
enum class ModePolicyKind
{
    Static,            ///< hold one mode for the whole run (seed behaviour)
    BacklogHysteresis, ///< backlog thresholds with a hysteresis band
    SlackDriven,       ///< Cpi2Monitor tail-latency decision ladder
};

/** Human-readable mode-policy name. */
const char *toString(ModePolicyKind kind);

/** Number of Stretch operating points (Baseline, B-mode, Q-mode). */
inline constexpr std::size_t numStretchModes = 3;

/** Index of a mode in residency/rate arrays. */
constexpr std::size_t
modeIndex(StretchMode mode)
{
    return static_cast<std::size_t>(mode);
}

/** A core's latency-sensitive service rate in each mode (requests/ms). */
struct ModeRates
{
    double baseline = 0.0;
    double bmode = 0.0;
    double qmode = 0.0;

    /**
     * LS service rate while the batch co-runner is throttled (requests/ms).
     * Measured at the Q-mode partition with the co-runner fetch-throttled
     * on top — the ladder only orders throttling after stepping to Q-mode
     * — so it normally sits above `qmode`. 0 means no throttled operating
     * point was measured: a throttled core then keeps its engaged mode's
     * rate, so throttling only suppresses the batch side.
     */
    double throttledLs = 0.0;

    /** Rate under the given mode. */
    double
    rate(StretchMode mode) const
    {
        switch (mode) {
        case StretchMode::BatchBoost:
            return bmode;
        case StretchMode::QosBoost:
            return qmode;
        case StretchMode::Baseline:
        default:
            return baseline;
        }
    }

    /** Uniform rates: a core whose capacity ignores its mode. */
    static ModeRates
    flat(double rate_per_ms)
    {
        return {rate_per_ms, rate_per_ms, rate_per_ms};
    }
};

/** Per-core dynamic mode-control configuration. */
struct ModeControlConfig
{
    ModePolicyKind kind = ModePolicyKind::Static;

    /** Mode held by every serving core when kind == Static. */
    StretchMode staticMode = StretchMode::Baseline;

    /** Control quantum: the policy runs at every multiple of this. */
    double quantumMs = 0.5;

    /// @name BacklogHysteresis thresholds (ms of queued work).
    /// Engage B-mode only with a near-empty queue, hold it until the
    /// backlog climbs out of the hysteresis band, and escalate to Q-mode
    /// under a deep queue. engageBelowMs < disengageAboveMs < qmodeAboveMs.
    /// @{
    double engageBelowMs = 0.2;
    double disengageAboveMs = 1.0;
    double qmodeAboveMs = 3.0;
    /// @}

    /** SlackDriven: the Cpi2Monitor decision-ladder knobs. qosTarget is in
     *  milliseconds of request sojourn time. */
    MonitorConfig monitor;

    /**
     * Act on `MonitorDecision::throttleCoRunner` (SlackDriven only):
     * suppress the batch thread on a core whose monitor orders throttling
     * and serve at the throttled LS rate until the ladder disengages.
     * Disable to measure a never-throttle baseline against the same
     * stream.
     */
    bool honorThrottle = true;
};

/** Capacity charged per mode change (ms): the pipeline flush and
 *  repartition drain of Section IV-C. */
inline constexpr double modeFlushCostMs = 0.005;

/** Mode and throttle timeline of one core over a dispatch run. */
struct CoreModeStats
{
    /** Simulated time spent in each mode, indexed by modeIndex(). */
    std::array<double, numStretchModes> residencyMs{};
    /** Mode changes (each costs `modeFlushCostMs` of capacity). */
    std::uint64_t transitions = 0;
    /** Service capacity consumed by mode-change flushes. */
    double flushMs = 0.0;
    /** Mode engaged when the run ended. */
    StretchMode finalMode = StretchMode::Baseline;

    /// @name Co-runner throttling (the CPI² corrective action).
    /// @{
    /** Simulated time with the batch co-runner suppressed (overlaps the
     *  mode residencies above — throttling is orthogonal to the mode). */
    double throttleMs = 0.0;
    /** Distinct throttle engagements ordered by the monitor ladder. */
    std::uint64_t throttleEngagements = 0;
    /** Completions whose CPI-proxy sample was an antagonist outlier. */
    std::uint64_t cpiOutliers = 0;
    /** Throttle still engaged when the run ended. */
    bool throttledAtEnd = false;
    /// @}
};

/**
 * One scheduled mid-run control action on the dispatcher, applied at an
 * exact simulated timestamp through the engine's scheduled-event channel.
 * This is the compiled, plain-data form of the scenario layer's typed
 * incidents (`scenario::Incident`); same-timestamp actions apply in list
 * order, and an empty action list is bit-identical to pre-incident
 * dispatch.
 */
struct IncidentAction
{
    enum class Kind
    {
        /** Set the fleet-wide arrival-rate multiplier to `value` (gaps
         *  are divided by it; 1 restores nominal traffic). */
        ArrivalScale,
        /** Set core `core`'s capacity multiplier to `value` (applies on
         *  top of the mode/throttle rate; 1 restores full capacity). */
        CoreRateScale,
        /** Permanently remove core `core` from the serving set: placed
         *  work drains, nothing new is routed there. */
        CoreFail,
        /** Retarget class `classId`'s SLO to `value` ms (and, when
         *  `value2` > 0, the percentile it binds at): admission budgets,
         *  per-class monitors, and subsequent attainment accounting all
         *  follow the new target. `ClassOutcome::sloTargetMs` reports
         *  the target in force at the end of the run. */
        ClassSloRetarget,
        /** Begin a retry storm: from here until RetryStormEnd the
         *  arrival-rate multiplier couples to observed latency. `value`
         *  is the amplification gain, `value2` the lateness threshold in
         *  ms (a completion counts as "late" above it). */
        RetryStormStart,
        /** Re-evaluate the storm: the multiplier becomes
         *  1 + gain * (late completions / completions) over the window
         *  since the previous tick. */
        RetryStormTick,
        /** End the storm (the arrival multiplier returns to base). */
        RetryStormEnd,
    };

    Kind kind = Kind::ArrivalScale;
    double atMs = 0.0;       ///< exact simulated application time
    double value = 1.0;      ///< scale / new SLO ms / storm gain (by kind)
    double value2 = 0.0;     ///< storm lateness threshold / SLO percentile
    std::size_t core = 0;    ///< target core (core-scoped kinds only)
    std::uint32_t classId = 0; ///< target class (ClassSloRetarget only)
};

/** Human-readable incident-action kind (also the trace event name). */
const char *toString(IncidentAction::Kind kind);

/**
 * One pre-steered arrival, handed to the dispatcher by the cluster
 * ingress: the absolute arrival time at this node, the class tag, the
 * unit-mean demand the ingress already drew for the request, and any
 * latency the request accumulated *before* reaching the node (failover
 * re-steering). The dispatcher replays the stream instead of drawing
 * its own arrivals and demands, and adds `latencyOffsetMs`
 * to the recorded sojourn — end-to-end accounting — while the control
 * loop's monitors keep seeing the node-local sojourn only (the node
 * cannot react to time the request spent elsewhere).
 */
struct InjectedArrival
{
    double atMs = 0.0;            ///< arrival time at this node
    std::uint32_t classId = 0;    ///< service-class tag
    double demand = 1.0;          ///< unit-mean demand units
    double latencyOffsetMs = 0.0; ///< pre-arrival delay (steering cost)
};

/**
 * How a request stream is served: the drawn traffic (TrafficSpec) plus
 * the placement, incidents, control loop and taps. DispatchConfig and
 * FleetConfig share it, so runFleet hands it to the dispatcher in one
 * assignment.
 */
struct DispatchSpec : TrafficSpec
{
    PlacementPolicy policy = PlacementPolicy::RoundRobin;

    /** Routing/admission knobs for PlacementPolicy::ClassAware. */
    ClassRouterConfig classRouting;

    /**
     * Scheduled mid-run incidents, applied at exact simulated timestamps
     * through the engine's scheduled-event channel (sorted by time
     * internally; list order breaks ties). The incident machinery never
     * consumes RNG draws and scales consumed values instead of changing
     * what is drawn, so an empty list — or a list of neutral scale-1
     * actions — dispatches bit-identically to a config without any.
     */
    std::vector<IncidentAction> incidents;

    /**
     * Per-core dynamic Stretch mode control. In a fleet run, any
     * non-Static policy (or a non-Baseline static mode) makes runFleet
     * measure each core's LS capacity under all three operating points,
     * so the dispatcher can retime requests as a core's mode changes.
     */
    ModeControlConfig control;

    /// @name Observability taps (non-owning; both optional).
    /// With `tracer` set the dispatcher runs the engine loop through a
    /// `obs::TracedPolicy` wrapper and records Chrome trace events; null
    /// instantiates the exact untraced loop — no per-event branch — and
    /// either way the simulation results are bit-identical (the tracer
    /// only observes). With `metrics` set the dispatcher fills the
    /// registry once at end of run from tallies it already keeps.
    /// @{
    obs::EngineTracer *tracer = nullptr;
    obs::MetricRegistry *metrics = nullptr;
    /// @}

    /**
     * Pre-steered arrival stream (non-owning; the cluster ingress sets
     * it). When non-null the dispatcher replays exactly these arrivals:
     * times, class tags, and demands come from the records — `requests`,
     * the rate and burstiness knobs, and the demand distributions are
     * all ignored, while a diurnal trace still labels timeline buckets
     * and shapes class-aware reservations — and each record's
     * `latencyOffsetMs` is added to its recorded sojourn. The list must
     * be sorted by `atMs`.
     */
    const std::vector<InjectedArrival> *injected = nullptr;

    /**
     * Latency-quantile fidelity. False (default) records completions
     * into streaming log-scale histograms (stats::StreamingTail): O(1)
     * per completion, bounded memory, quantiles within one histogram
     * bin (< 0.8% relative) of the exact order statistic. True keeps
     * every raw sample and reproduces sort-based type-7 quantiles
     * bit-for-bit, for checks that compare tails exactly (a rack sets
     * its nodes' copy from `cluster::ClusterConfig`).
     */
    bool exactTailQuantiles = false;

    /**
     * Keep the raw latency recorders in the outcome (fleet-wide,
     * per-class, and per-timeline-bucket) so a cluster merge can combine
     * per-node tails exactly — StreamingTail merges are associative and
     * exact-mode recorders concatenate — instead of re-deriving
     * quantiles from the folded summaries.
     */
    bool keepRecorders = false;
};

/** Full description of a request-dispatch experiment over fixed cores:
 *  the dispatch spec plus each core's per-mode service rates. */
struct DispatchConfig : DispatchSpec
{
    /** Per-mode service rates per core; a core with baseline == 0 cannot
     *  serve (e.g. an idle LS thread). The default offered rate is 70%
     *  of the summed baseline rates (TrafficSpec::offeredRatePerMs). */
    std::vector<ModeRates> rates;
};

/** Latency/throughput summary of one timeline bucket (see
 *  TrafficSpec::timelineBucketMs). */
struct TimelineBucket
{
    double startMs = 0.0;           ///< bucket start (simulated time)
    std::uint64_t completions = 0;  ///< requests finishing in the bucket
    double p50Ms = 0.0;             ///< median sojourn time in the bucket
    double p99Ms = 0.0;             ///< p99 sojourn time in the bucket
    /** Trace load fraction at the bucket midpoint (0 without a trace). */
    double loadFraction = 0.0;
    /** Core-milliseconds spent throttled inside the bucket (summed over
     *  cores, accumulated at quantum granularity). */
    double throttledCoreMs = 0.0;

    /** Per-class slice of one timeline bucket. */
    struct ClassCell
    {
        std::uint64_t completions = 0; ///< class completions in the bucket
        std::uint64_t shed = 0;        ///< class arrivals shed in the bucket
        double p99Ms = 0.0;            ///< class p99 sojourn in the bucket
    };

    /** Index-matched to the class registry; empty without classes. */
    std::vector<ClassCell> perClass;
};

/** Per-class dispatch outcome (latency distribution + SLO attainment). */
struct ClassOutcome
{
    std::string name;              ///< class name (from the registry)
    std::uint64_t completed = 0;   ///< requests admitted and finished
    std::uint64_t shed = 0;        ///< requests dropped at admission
    stats::ViolinSummary latencyMs; ///< sojourn times of completed requests
    double sloTargetMs = 0.0;      ///< the class SLO (from the registry)
    double tailPercentile = 99.0;  ///< percentile the SLO binds at
    /** Sojourn time at the class's own tail percentile. */
    double tailMs = 0.0;
    /**
     * Fraction of *offered* requests (completed + shed) that met the
     * SLO; a shed request counts as a miss, so shedding cannot game the
     * attainment number.
     */
    double sloAttainment = 0.0;

    /** Completions that met the SLO (the attainment numerator) — kept
     *  as a count so cluster merges can re-derive attainment exactly. */
    std::uint64_t sloGood = 0;

    /** Did the class meet its SLO at its tail percentile? Judged on
     *  attainment over offered requests (at least tailPercentile% under
     *  target), so shed requests count against the verdict too. */
    bool
    sloMet() const
    {
        return completed > 0 && sloAttainment >= tailPercentile / 100.0;
    }
};

/** Outcome of dispatching a request stream over the fleet's cores. */
struct DispatchOutcome
{
    std::vector<std::uint64_t> placed; ///< requests placed on each core
    std::vector<double> busyMs;        ///< per-core busy (serving) time
    stats::ViolinSummary latencyMs;    ///< request sojourn-time summary
    double elapsedMs = 0.0;            ///< last completion time
    double throughputRps = 0.0;        ///< completed requests per second
    double offeredRatePerMs = 0.0;     ///< arrival rate actually used
    /** Per-core mode residency/transition timeline, index-matched to the
     *  cores (all-zero residency for non-serving cores). */
    std::vector<CoreModeStats> modeStats;

    /** Per-bucket latency timeline (empty unless timelineBucketMs > 0). */
    std::vector<TimelineBucket> timeline;

    /** Per-class outcomes, index-matched to the class registry (empty
     *  without classes). */
    std::vector<ClassOutcome> perClass;

    /** Requests dropped at admission across all classes. */
    std::uint64_t totalShed = 0;

    /// @name Raw latency recorders (populated only when the config set
    /// `keepRecorders`; empty otherwise). Index conventions match
    /// `perClass` and `timeline`. The cluster layer merges these across
    /// nodes to build exact fleet-of-fleets tails.
    /// @{
    stats::TailRecorder latencyRecorder;
    std::vector<stats::TailRecorder> classRecorders;
    std::vector<stats::TailRecorder> timelineRecorders;
    /// @}

    /** Sum of mode transitions across the fleet. */
    std::uint64_t totalTransitions() const;

    /** Sum of throttle engagements across the fleet. */
    std::uint64_t totalThrottleEngagements() const;

    /** Total core-milliseconds spent with the co-runner throttled. */
    double totalThrottleMs() const;
};

/** Run a dispatch experiment on the discrete-event queueing engine. */
DispatchOutcome dispatchRequests(const DispatchConfig &cfg);

/**
 * Per-slot physical core parameters for heterogeneous (big/little)
 * fleets. A zero field keeps the corresponding value from the slot's
 * `RunConfig` (sizes) or the default skews (`defaultBmodeSkew`,
 * `defaultQmodeSkew`).
 */
struct CoreSlot
{
    unsigned robEntries = 0; ///< physical ROB entries; 0 = RunConfig's
    unsigned lsqEntries = 0; ///< physical LSQ entries; 0 = RunConfig's
    /** B-mode skew for this slot; {0,0} = the default. Must fit the
     *  slot's ROB (ls + batch <= robEntries). */
    SkewConfig bmodeSkew{0, 0};
    /** Q-mode skew for this slot; {0,0} = the default. */
    SkewConfig qmodeSkew{0, 0};
};

/** Full description of a fleet experiment: the dispatch spec (handed
 *  to the dispatcher) plus the cores that serve it. */
struct FleetConfig : DispatchSpec
{
    /** One entry per SMT core; each is a complete colocation pair. */
    std::vector<RunConfig> cores;

    /**
     * Optional heterogeneous core classes: either empty (every core uses
     * its RunConfig sizes and the default skews) or index-matched to
     * `cores`. Slot overrides apply to every capacity measurement —
     * big/little fleets get per-slot mode skews sized to their ROBs.
     */
    std::vector<CoreSlot> slots;

    /** Pool workers for per-core simulations: 1 = serial, 0 = hardware. */
    unsigned threads = 0;
};

/**
 * Convenience: a fleet of @p n cores cloned from @p base, each with a
 * decorrelated seed (deriveSeed(base.seed, core index)).
 */
FleetConfig homogeneousFleet(unsigned n, const RunConfig &base);

/**
 * Convenience: a heterogeneous fleet with one core per entry of
 * @p slots, each core cloned from @p base with a decorrelated seed and
 * its slot's physical parameters (e.g. mix 192-entry "big" and 128-entry
 * "little" ROB configurations with per-slot mode skews).
 */
FleetConfig heterogeneousFleet(const RunConfig &base,
                               std::vector<CoreSlot> slots);

/** Aggregated outcome of a fleet run. */
struct FleetResult
{
    /** Per-core microarchitectural results, index-matched to the config
     *  (measured in the Baseline operating point under dynamic control). */
    std::vector<RunResult> cores;

    /** Request-dispatch outcome across the fleet. */
    DispatchOutcome dispatch;

    /// @name Fleet-level throughput (summed core UIPC by thread class).
    /// @{
    double totalLsUipc = 0.0;
    double totalBatchUipc = 0.0;
    /// @}

    /// @name Across-core UIPC distributions (QoS uniformity).
    /// @{
    stats::ViolinSummary lsUipc;
    stats::ViolinSummary batchUipc;
    /// @}

    /** Per-mode service rates per core (equal across modes when the fleet
     *  ran without dynamic mode control; `throttledLs` is measured only
     *  when the control loop can actually throttle). */
    std::vector<ModeRates> modeRates;

    /** Batch-thread UIPC of one core at each operating point. */
    struct BatchOperatingPoints
    {
        /** Batch UIPC under each mode, indexed by modeIndex(). */
        std::array<double, numStretchModes> byMode{};
        /** Batch UIPC while fetch-throttled 1:R (the suppressed rate). */
        double throttled = 0.0;
    };

    /** Per-core batch operating points (equal across modes when the fleet
     *  ran without dynamic mode control). */
    std::vector<BatchOperatingPoints> batchPoints;

    /**
     * Fleet batch throughput (summed UIPC) weighted by each core's
     * dispatch-time mode residency and throttle residency: time spent
     * throttled contributes the suppressed batch rate, the rest the
     * engaged mode's rate (throttle time is assumed spread across modes
     * in residency proportion). Equals `totalBatchUipc` for static
     * baseline fleets — the measurable cost of the QoS actuator.
     */
    double effectiveBatchUipc = 0.0;
};

/**
 * Run every core's simulation (on up to cfg.threads threads), then dispatch
 * the request stream and aggregate. Results are bit-identical for any
 * thread count.
 */
FleetResult runFleet(const FleetConfig &cfg);

} // namespace stretch::sim

#endif // STRETCH_SIM_FLEET_H
