/**
 * @file
 * Cluster layer: N fleet nodes behind an ingress load balancer.
 *
 * One `sim::runFleet` is one machine; the rack-scale layer simulates a
 * *fleet of fleets* — RackSched's two-layer blueprint, inter-server
 * steering composed on top of Stretch's intra-server mode control. The
 * run has three phases:
 *
 *  1. **Capacity measurement.** Each node's operating points are
 *     measured through the normal fleet path (memoised in the
 *     process-wide `OperatingPointCache`, so homogeneous racks pay for
 *     one node), yielding per-node aggregate service capacity in
 *     requests/ms.
 *  2. **Ingress steering (serial).** One cluster-wide stream is drawn
 *     by the dispatcher's own `sim::TrafficSource` (Poisson, MMPP-2 or
 *     diurnal replay, per-class superposition with phase offsets,
 *     class tags and demands) on the ingress's RNG streams, and each
 *     request is steered to a node by the configured `IngressPolicy`.
 *     Every node takes the same trace, so node timelines and class-aware
 *     reservations follow the day the ingress replayed. The ingress
 *     models every node as a fluid FCFS queue draining at its measured
 *     capacity and steers on *stale* backlog signals: queue signals
 *     refresh every `IngressConfig::signalDelayMs` (liveness is known
 *     immediately — health checks are fast, load telemetry is not).
 *     Node-scoped incidents (`NodeAction`) fail or degrade nodes
 *     mid-stream with ingress re-steering of queued work. The output is
 *     one `sim::InjectedArrival` list per node plus `IngressStats`.
 *  3. **Node execution (parallel).** Every node runs the full
 *     `sim::runFleet` — per-core microarchitectural operating points,
 *     discrete-event dispatch, mode control, telemetry — over its
 *     injected arrival list, under `parallelFor`. Each node's
 *     result depends only on its own config and list, so serial and
 *     parallel execution are bit-identical; per-node RNG streams
 *     derive from (cluster seed, node stream, node index).
 *
 * Results merge into a `ClusterResult`: per-node `sim::FleetResult`s
 * plus a synthesized cluster-level view whose latency tails come from
 * exact `stats::TailRecorder` merges (associative histogram adds in
 * streaming mode, sample pooling in exact mode), per-class SLO
 * attainment re-derived from summed counts, and ingress metrics
 * (steering decisions, failovers, spillovers, signal staleness).
 *
 * The fluid ingress model is an *approximation used only for steering
 * signals* — real latencies always come from the per-node discrete-
 * event engines — mirroring production ingress, which also steers on
 * coarse, stale load signals rather than perfect queue knowledge.
 */

#ifndef STRETCH_CLUSTER_CLUSTER_H
#define STRETCH_CLUSTER_CLUSTER_H

#include <cstdint>
#include <vector>

#include "sim/fleet.h"
#include "stats/streaming_tail.h"

namespace stretch::cluster
{

/** How the ingress picks a node for each arriving request. */
enum class IngressPolicy
{
    /** Cycle over live nodes, ignoring load. The baseline every other
     *  policy is judged against. */
    RoundRobin,
    /** Join-the-shortest-queue over `probes` random live candidates
     *  (power-of-d choices), judged on the stale backlog signal. */
    Jsq,
    /** Consistent-hash class→node pinning: every class has a home node
     *  on a hash ring; requests spill to the next live ring node when
     *  the home is dead or its backlog signal is past the spillover
     *  threshold. */
    FlowAffinity,
    /** Steer each class to the nodes whose measured capacity serves it
     *  best: classes ranked by SLO tightness get preferred node subsets
     *  (capacity-ranked, sized by the class's arrival share); requests
     *  spill to the globally least-loaded node past the threshold. */
    ClassAware,
};

/** Human-readable policy name (also the metric label). */
const char *toString(IngressPolicy policy);

/** Ingress steering configuration. */
struct IngressConfig
{
    IngressPolicy policy = IngressPolicy::Jsq;

    /** JSQ(d) probe count: how many distinct live nodes the balancer
     *  polls per decision. 0 — or any value >= the live node count —
     *  scans every live node (JSQ(all)). */
    unsigned probes = 2;

    /** Queue-signal refresh period: steering sees backlog signals up to
     *  this many milliseconds old (0 = perfectly fresh). Node liveness
     *  is always known immediately. */
    double signalDelayMs = 1.0;
};

/**
 * One node-scoped incident applied at the ingress (sorted by time at
 * run start; list order breaks ties). The cluster layer compiles
 * scenario-level NodeFailure/NodeDegradation/FlashCrowd incidents to
 * these.
 */
struct NodeAction
{
    enum class Kind
    {
        /** Set the cluster arrival-rate multiplier to `value` (gaps are
         *  divided by it at consumption; 1 restores nominal). */
        ArrivalScale,
        /** Node `node` fails: the ingress marks it dead immediately,
         *  re-steers its still-queued requests to live nodes (each pays
         *  the failover delay), and routes nothing to it afterwards.
         *  Work already started drains (connection-drain semantics). */
        NodeFail,
        /** Node `node` serves at `value` x nominal capacity: the
         *  ingress discounts its fluid drain rate AND every core of the
         *  node is slowed by a `CoreRateScale` incident, so the real
         *  engine and the steering signal degrade together. Value 1
         *  restores nominal. */
        NodeDegrade,
    };

    Kind kind = Kind::ArrivalScale;
    double atMs = 0.0;    ///< exact simulated application time
    std::size_t node = 0; ///< target node (node-scoped kinds only)
    double value = 1.0;   ///< arrival factor / capacity factor
};

/**
 * Full description of a rack experiment: the cluster-wide traffic
 * (TrafficSpec, drawn at the ingress; its seed also drives the probes),
 * N nodes and the ingress. The default rate is 70% of the summed
 * measured node capacities. Every node takes the spec's classes, diurnal
 * trace, timeline buckets and quantile fidelity, so ingress tags and node
 * accounting always agree and the merged timeline shares the node
 * buckets.
 */
struct ClusterConfig : sim::TrafficSpec
{
    /** One complete fleet per node (homogeneous replication via
     *  `homogeneousCluster`, or an explicit heterogeneous list). */
    std::vector<sim::FleetConfig> nodes;

    IngressConfig ingress;

    /** Node-scoped incidents applied at the ingress. */
    std::vector<NodeAction> actions;

    /** Pool workers for node execution: 1 = serial, 0 = hardware.
     *  Results are bit-identical for any value. */
    unsigned threads = 0;

    /** Exact latency quantiles on every node and in the merged view
     *  (see `sim::DispatchSpec::exactTailQuantiles`). */
    bool exactTailQuantiles = false;

    /// @name Observability taps (non-owning; both optional).
    /// `nodeTracers` is empty or index-matched to `nodes`; each node's
    /// engine records into its own tracer (given pid node+1, so
    /// `obs::writeClusterTrace` merges them into one rack trace).
    /// `metrics` receives the ingress.* and cluster.* metric fill.
    /// @{
    std::vector<obs::EngineTracer *> nodeTracers;
    obs::MetricRegistry *metrics = nullptr;
    /// @}
};

/**
 * Convenience: a rack of @p n nodes cloned from @p node. Per-node
 * dispatch seeds derive from (node.seed, node stream, node index) —
 * decorrelated placement/steering streams — while the per-core
 * microarchitectural configs stay identical across nodes, so the
 * operating-point cache measures one node and answers for the rack.
 * The node's traffic becomes the rack's, with the request count and an
 * explicit rate scaled by @p n.
 */
ClusterConfig homogeneousCluster(unsigned n, const sim::FleetConfig &node);

/** Ingress-side counters and distributions for one cluster run. */
struct IngressStats
{
    std::uint64_t decisions = 0;   ///< requests steered at arrival
    std::uint64_t failovers = 0;   ///< queued requests moved off dead nodes
    std::uint64_t spillovers = 0;  ///< affinity/class-aware off-home steers
    std::uint64_t signalRefreshes = 0; ///< backlog-signal refresh rounds
    /** Requests finally delivered to each node (after failover),
     *  index-matched to the nodes. */
    std::vector<std::uint64_t> steered;
    /** Measured aggregate service capacity per node (req/ms). */
    std::vector<double> capacityPerMs;
    /** Signal age at each signal-consulting steering decision (ms). */
    stats::StreamingTail signalStalenessMs;
};

/** Aggregated outcome of a cluster run. */
struct ClusterResult
{
    /** Per-node fleet results, index-matched to the config. */
    std::vector<sim::FleetResult> nodes;

    /**
     * Synthesized cluster-level view: a `sim::FleetResult` over the
     * whole rack, so fleet-shaped consumers (QoS assertion evaluation,
     * run reports) work unchanged. Core-indexed vectors concatenate the
     * nodes in index order; the fleet latency summary, per-class
     * outcomes, and fleet-level timeline come from exact `TailRecorder`
     * merges of the per-node recorders (per-class timeline cells are
     * not merged and stay empty).
     */
    sim::FleetResult merged;

    IngressStats ingress;

    /** Per-node injected arrival lists (what the ingress steered;
     *  kept for inspection and replay). */
    std::vector<std::vector<sim::InjectedArrival>> injected;

    /** Makespan over nodes (max node elapsedMs). */
    double elapsedMs = 0.0;
};

/**
 * Run a cluster experiment end to end (the three phases above).
 * Deterministic in the config seeds: bit-identical for any `threads`,
 * and the serial ingress never consumes node-run entropy.
 */
ClusterResult runCluster(const ClusterConfig &cfg);

} // namespace stretch::cluster

#endif // STRETCH_CLUSTER_CLUSTER_H
