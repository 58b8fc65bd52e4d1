/**
 * @file
 * Cluster-layer tests: serial/parallel bit-identity over many seeds,
 * ingress policy behaviour (steering counts, failover,
 * degradation avoidance), tail-merge exactness, rack scenario builder
 * validation, and the rack drill teeth pairing (JSQ(2) passes the
 * node-failure QoS assertions that blind round-robin misses).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

#include "cluster/cluster.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "sim/fleet.h"
#include "stats/streaming_tail.h"
#include "util/rng.h"

namespace stretch
{
namespace
{

/** Small-but-real two-core node so cluster tests stay fast; the
 *  operating-point cache keeps remeasurement out of the loop. */
sim::FleetConfig
smallNode()
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "zeusmp";
    core.samples = 2;
    core.warmupOps = 2000;
    core.measureOps = 5000;
    sim::FleetConfig node = sim::homogeneousFleet(2, core);
    node.requests = 2000;
    return node;
}

/** Four-node rack over the small node with bursty arrivals. */
cluster::ClusterConfig
smallRack(unsigned nodes = 4)
{
    cluster::ClusterConfig cfg =
        cluster::homogeneousCluster(nodes, smallNode());
    cfg.requests = 2000;
    cfg.burstRatio = 2.0;
    return cfg;
}

void
expectSameDispatch(const sim::DispatchOutcome &a,
                   const sim::DispatchOutcome &b)
{
    EXPECT_EQ(a.latencyMs.count, b.latencyMs.count);
    EXPECT_EQ(a.latencyMs.mean, b.latencyMs.mean);
    EXPECT_EQ(a.latencyMs.p99, b.latencyMs.p99);
    EXPECT_EQ(a.latencyMs.p999, b.latencyMs.p999);
    EXPECT_EQ(a.latencyMs.max, b.latencyMs.max);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.totalShed, b.totalShed);
    EXPECT_EQ(a.throughputRps, b.throughputRps);
}

TEST(ClusterDeterminism, SerialAndParallelBitIdenticalAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        cluster::ClusterConfig serial = smallRack();
        serial.seed = seed;
        serial.threads = 1;
        cluster::ClusterConfig parallel = serial;
        parallel.threads = 4;

        cluster::ClusterResult a = cluster::runCluster(serial);
        cluster::ClusterResult b = cluster::runCluster(parallel);

        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSameDispatch(a.merged.dispatch, b.merged.dispatch);
        ASSERT_EQ(a.nodes.size(), b.nodes.size());
        for (std::size_t j = 0; j < a.nodes.size(); ++j)
            expectSameDispatch(a.nodes[j].dispatch, b.nodes[j].dispatch);
        EXPECT_EQ(a.ingress.decisions, b.ingress.decisions);
        EXPECT_EQ(a.ingress.steered, b.ingress.steered);
        ASSERT_EQ(a.injected.size(), b.injected.size());
        for (std::size_t j = 0; j < a.injected.size(); ++j)
            EXPECT_EQ(a.injected[j].size(), b.injected[j].size());
    }
}

TEST(ClusterDeterminism, SteeredStreamsMatchAcrossThreadCounts)
{
    // With more than one thread a second thread draws the traffic ahead
    // of the steering loop and hands it over in blocks. The preset's
    // classed, bursty stream spans several blocks here, and a node
    // fails at half horizon, so failover re-steers queued work and the
    // nodes that take it need their streams sorted.
    scenario::Scenario s = scenario::preset("rack-web-search");
    s.requests = 14000;
    const cluster::ClusterConfig quiet = scenario::lowerRack(s);
    const double horizonMs =
        static_cast<double>(quiet.requests) / quiet.arrivalRatePerMs;
    s.incidents = {scenario::NodeFailure{0, 0.5 * horizonMs}};
    std::uint64_t failovers = 0;
    for (cluster::IngressPolicy policy :
         {cluster::IngressPolicy::RoundRobin, cluster::IngressPolicy::Jsq,
          cluster::IngressPolicy::FlowAffinity,
          cluster::IngressPolicy::ClassAware}) {
        SCOPED_TRACE(cluster::toString(policy));
        s.ingress.policy = policy;
        cluster::ClusterConfig serial = scenario::lowerRack(s);
        serial.threads = 1;
        cluster::ClusterConfig parallel = serial;
        parallel.threads = 4;
        const cluster::ClusterResult a = cluster::runCluster(serial);
        const cluster::ClusterResult b = cluster::runCluster(parallel);

        const cluster::IngressStats &ia = a.ingress;
        const cluster::IngressStats &ib = b.ingress;
        failovers += ia.failovers;
        EXPECT_EQ(ia.decisions, s.requests);
        EXPECT_EQ(ia.decisions, ib.decisions);
        EXPECT_EQ(ia.failovers, ib.failovers);
        EXPECT_EQ(ia.spillovers, ib.spillovers);
        EXPECT_EQ(ia.signalRefreshes, ib.signalRefreshes);
        EXPECT_EQ(ia.steered, ib.steered);
        EXPECT_EQ(ia.capacityPerMs, ib.capacityPerMs);
        EXPECT_EQ(ia.signalStalenessMs.count(),
                  ib.signalStalenessMs.count());
        EXPECT_EQ(ia.signalStalenessMs.mean(), ib.signalStalenessMs.mean());
        EXPECT_EQ(ia.signalStalenessMs.max(), ib.signalStalenessMs.max());
        ASSERT_EQ(a.injected.size(), b.injected.size());
        for (std::size_t j = 0; j < a.injected.size(); ++j) {
            const std::vector<sim::InjectedArrival> &sa = a.injected[j];
            const std::vector<sim::InjectedArrival> &sb = b.injected[j];
            ASSERT_EQ(sa.size(), sb.size()) << "node " << j;
            for (std::size_t k = 0; k < sa.size(); ++k) {
                ASSERT_EQ(sa[k].atMs, sb[k].atMs) << "node " << j << " #" << k;
                ASSERT_EQ(sa[k].classId, sb[k].classId)
                    << "node " << j << " #" << k;
                ASSERT_EQ(sa[k].demand, sb[k].demand)
                    << "node " << j << " #" << k;
                ASSERT_EQ(sa[k].latencyOffsetMs, sb[k].latencyOffsetMs)
                    << "node " << j << " #" << k;
            }
        }
    }
    // Node 0's queue is empty at the failure under some policies, not
    // under all.
    EXPECT_GT(failovers, 0u);
}

TEST(ClusterDeterminism, ExactTailsBitIdenticalAcrossNodeMerge)
{
    // Satellite check: with exact sort-based quantiles the merged
    // cluster tail pools per-node samples, so the merge must be
    // bit-identical however the nodes are scheduled.
    cluster::ClusterConfig serial = smallRack();
    serial.exactTailQuantiles = true;
    serial.threads = 1;
    cluster::ClusterConfig parallel = serial;
    parallel.threads = 4;

    cluster::ClusterResult a = cluster::runCluster(serial);
    cluster::ClusterResult b = cluster::runCluster(parallel);
    EXPECT_EQ(a.merged.dispatch.latencyMs.p99,
              b.merged.dispatch.latencyMs.p99);
    EXPECT_EQ(a.merged.dispatch.latencyMs.p999,
              b.merged.dispatch.latencyMs.p999);
    EXPECT_EQ(a.merged.dispatch.latencyMs.median,
              b.merged.dispatch.latencyMs.median);
}

TEST(ClusterMerge, StreamingTailNodeMergeMatchesSingleStream)
{
    // The merged cluster histogram is a bin-wise add of the per-node
    // histograms, so splitting one stream across "nodes" and merging
    // reproduces the single-stream quantiles exactly, not just within
    // a bin.
    Rng rng(7);
    stats::StreamingTail single;
    std::vector<stats::StreamingTail> perNode(4);
    for (int i = 0; i < 40000; ++i) {
        const double v = rng.lognormal(0.0, 1.2);
        single.record(v);
        perNode[static_cast<std::size_t>(i) % perNode.size()].record(v);
    }
    stats::StreamingTail merged;
    for (const stats::StreamingTail &t : perNode)
        merged.merge(t);

    EXPECT_EQ(merged.count(), single.count());
    // Partial sums accumulate in a different order, so the mean agrees
    // to rounding, not bit-for-bit.
    EXPECT_NEAR(merged.mean(), single.mean(), 1e-9 * single.mean());
    EXPECT_DOUBLE_EQ(merged.min(), single.min());
    EXPECT_DOUBLE_EQ(merged.max(), single.max());
    for (double pct : {50.0, 90.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(merged.percentile(pct), single.percentile(pct));
}

TEST(ClusterMerge, MergedCountsCoverTheWholeStream)
{
    cluster::ClusterResult r = cluster::runCluster(smallRack());
    EXPECT_EQ(r.ingress.decisions, 2000u);
    std::uint64_t steered = 0, injected = 0;
    for (std::uint64_t s : r.ingress.steered)
        steered += s;
    for (const auto &list : r.injected)
        injected += list.size();
    EXPECT_EQ(steered, 2000u);
    EXPECT_EQ(injected, 2000u);
    EXPECT_EQ(r.merged.dispatch.latencyMs.count + r.merged.dispatch.totalShed,
              2000u);
    std::uint64_t nodeCompletions = 0;
    for (const sim::FleetResult &n : r.nodes)
        nodeCompletions += n.dispatch.latencyMs.count;
    EXPECT_EQ(r.merged.dispatch.latencyMs.count, nodeCompletions);
}

TEST(ClusterIngress, EveryPolicySteersTheFullStream)
{
    for (cluster::IngressPolicy policy :
         {cluster::IngressPolicy::RoundRobin, cluster::IngressPolicy::Jsq,
          cluster::IngressPolicy::FlowAffinity,
          cluster::IngressPolicy::ClassAware}) {
        cluster::ClusterConfig cfg = smallRack();
        cfg.classes = workloads::ServiceClassRegistry::searchAnalyticsPair(
            8.0, 80.0);
        cfg.ingress.policy = policy;

        cluster::ClusterResult r = cluster::runCluster(cfg);
        SCOPED_TRACE(cluster::toString(policy));
        EXPECT_EQ(r.ingress.decisions, cfg.requests);
        ASSERT_EQ(r.ingress.capacityPerMs.size(), cfg.nodes.size());
        for (double c : r.ingress.capacityPerMs)
            EXPECT_GT(c, 0.0);
        // FlowAffinity pins each class to a home node (two classes can
        // legitimately leave nodes idle); the load-blind and load-aware
        // policies spread over every node.
        std::uint64_t total = 0, nodesServing = 0;
        for (std::uint64_t s : r.ingress.steered) {
            total += s;
            nodesServing += s > 0 ? 1 : 0;
            if (policy != cluster::IngressPolicy::FlowAffinity) {
                EXPECT_GT(s, cfg.requests / 20);
            }
        }
        EXPECT_EQ(total, cfg.requests);
        EXPECT_GE(nodesServing, 2u); // >= one home node per class
        EXPECT_GT(r.merged.dispatch.latencyMs.count, 0u);
    }
}

TEST(ClusterIngress, RoundRobinIgnoresLoadExactly)
{
    cluster::ClusterConfig cfg = smallRack();
    cfg.ingress.policy = cluster::IngressPolicy::RoundRobin;
    cluster::ClusterResult r = cluster::runCluster(cfg);
    for (std::uint64_t s : r.ingress.steered)
        EXPECT_EQ(s, cfg.requests / cfg.nodes.size());
}

TEST(ClusterIngress, NodeFailureReSteersAndStopsRouting)
{
    cluster::ClusterConfig cfg = smallRack();
    const double failAt = 100.0;
    cfg.actions.push_back({cluster::NodeAction::Kind::NodeFail, failAt, 3, 0});

    cluster::ClusterResult r = cluster::runCluster(cfg);
    // Nothing lands on the dead node after the failure instant.
    for (const sim::InjectedArrival &a : r.injected[3])
        EXPECT_LE(a.atMs, failAt);
    // The dead node serves far less than the survivors.
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_GT(r.ingress.steered[j], 2 * r.ingress.steered[3]);
    // The whole stream still completes (or is accounted as shed).
    EXPECT_EQ(r.merged.dispatch.latencyMs.count + r.merged.dispatch.totalShed,
              cfg.requests);
}

TEST(ClusterIngress, JsqAvoidsADegradedNode)
{
    cluster::ClusterConfig cfg = smallRack();
    cfg.actions.push_back(
        {cluster::NodeAction::Kind::NodeDegrade, 0.0, 1, 0.25});

    cluster::ClusterResult r = cluster::runCluster(cfg);
    // Load-aware steering starves the slow node relative to every
    // healthy peer; blind round-robin would keep feeding it.
    for (std::size_t j : {std::size_t(0), std::size_t(2), std::size_t(3)})
        EXPECT_GT(r.ingress.steered[j], r.ingress.steered[1]);

    cluster::ClusterConfig rr = cfg;
    rr.ingress.policy = cluster::IngressPolicy::RoundRobin;
    cluster::ClusterResult blind = cluster::runCluster(rr);
    EXPECT_EQ(blind.ingress.steered[1], cfg.requests / cfg.nodes.size());
    EXPECT_GT(blind.merged.dispatch.latencyMs.p99,
              r.merged.dispatch.latencyMs.p99);
}

TEST(ClusterIngress, ReplaysTheDiurnalTrace)
{
    const queueing::DiurnalTrace trace =
        queueing::DiurnalTrace::webSearchCluster();
    cluster::ClusterConfig cfg = smallRack();
    cfg.requests = 6000;
    cfg.diurnalTrace = trace;
    cfg.msPerHour = 10.0;
    cfg.timelineBucketMs = cfg.msPerHour;
    cluster::ClusterResult r = cluster::runCluster(cfg);

    // Rate 0 offers 70% of the summed capacity as the mean load, so the
    // peak rate is normalised by the trace's mean load.
    double capacity = 0.0;
    for (double c : r.ingress.capacityPerMs)
        capacity += c;
    EXPECT_DOUBLE_EQ(r.merged.dispatch.offeredRatePerMs,
                     0.7 * capacity / trace.meanLoad());

    // Arrivals per hour of the day, over the whole replayed days.
    const double dayMs = 24.0 * cfg.msPerHour;
    double lastMs = 0.0;
    for (const std::vector<sim::InjectedArrival> &node : r.injected)
        for (const sim::InjectedArrival &a : node)
            lastMs = std::max(lastMs, a.atMs - a.latencyOffsetMs);
    const double days = std::floor(lastMs / dayMs);
    ASSERT_GE(days, 1.0);
    std::vector<std::uint64_t> perHour(24, 0);
    for (const std::vector<sim::InjectedArrival> &node : r.injected) {
        for (const sim::InjectedArrival &a : node) {
            const double at = a.atMs - a.latencyOffsetMs;
            if (at < days * dayMs)
                ++perHour[static_cast<std::size_t>(at / cfg.msPerHour) % 24];
        }
    }
    const auto [quietest, busiest] =
        std::minmax_element(perHour.begin(), perHour.end());
    EXPECT_GE(*busiest, 2 * *quietest);

    // The nodes replay the same day: their timelines carry its load.
    ASSERT_FALSE(r.nodes[0].dispatch.timeline.empty());
    EXPECT_GT(r.nodes[0].dispatch.timeline.front().loadFraction, 0.0);
}

TEST(ClusterConfigTest, HomogeneousClusterDecorrelatesNodeSeeds)
{
    sim::FleetConfig node = smallNode();
    cluster::ClusterConfig cfg = cluster::homogeneousCluster(4, node);
    ASSERT_EQ(cfg.nodes.size(), 4u);
    for (std::size_t j = 0; j < cfg.nodes.size(); ++j) {
        // Dispatch seeds decorrelate; the microarchitectural core
        // configs stay identical so the op-point cache stays hot.
        for (std::size_t k = j + 1; k < cfg.nodes.size(); ++k)
            EXPECT_NE(cfg.nodes[j].seed, cfg.nodes[k].seed);
        ASSERT_EQ(cfg.nodes[j].cores.size(), node.cores.size());
        for (std::size_t c = 0; c < node.cores.size(); ++c) {
            EXPECT_EQ(cfg.nodes[j].cores[c].workload0,
                      node.cores[c].workload0);
            EXPECT_EQ(cfg.nodes[j].cores[c].seed, node.cores[c].seed);
        }
    }
}

// ---------------------------------------------------- golden ingress streams
//
// Exact ingress output, pinned bit-for-bit: a 64-bit FNV-1a hash over
// every injected record the nodes receive, plus the ingress counters.
// Any change to the ingress's arrival, class-tag or demand draws — or to
// how gaps split at action boundaries — fails here.

std::uint64_t
injectedHash(const cluster::ClusterResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    auto bits = [](double d) {
        std::uint64_t u;
        std::memcpy(&u, &d, sizeof u);
        return u;
    };
    for (const std::vector<sim::InjectedArrival> &node : r.injected) {
        mix(node.size());
        for (const sim::InjectedArrival &a : node) {
            mix(bits(a.atMs));
            mix(a.classId);
            mix(bits(a.demand));
            mix(bits(a.latencyOffsetMs));
        }
    }
    return h;
}

/** The pinned figures of one cluster run. */
struct IngressPin
{
    std::uint64_t hash;
    std::uint64_t decisions;
    std::uint64_t failovers;
    std::uint64_t spillovers;
    std::uint64_t signalRefreshes;
    std::vector<std::uint64_t> steered;
};

void
expectPinned(const cluster::ClusterResult &r, const IngressPin &pin)
{
    EXPECT_EQ(injectedHash(r), pin.hash);
    EXPECT_EQ(r.ingress.decisions, pin.decisions);
    EXPECT_EQ(r.ingress.failovers, pin.failovers);
    EXPECT_EQ(r.ingress.spillovers, pin.spillovers);
    EXPECT_EQ(r.ingress.signalRefreshes, pin.signalRefreshes);
    EXPECT_EQ(r.ingress.steered, pin.steered);
}

TEST(TrafficGolden, ClusterSmallRack)
{
    expectPinned(cluster::runCluster(smallRack()),
                 {0x0f8e40d77598474eull, 2000, 0, 0, 236,
                  {556, 520, 484, 440}});
}

TEST(TrafficGolden, ClusterSmallRackWithClasses)
{
    // Two classes on the shared stream, under a flash crowd (gaps split
    // at both scale changes) and a node failure.
    cluster::ClusterConfig cfg = smallRack();
    cfg.classes = workloads::ServiceClassRegistry::searchAnalyticsPair(
        8.0, 80.0);
    cfg.actions = {{cluster::NodeAction::Kind::ArrivalScale, 20.0, 0, 1.8},
                   {cluster::NodeAction::Kind::NodeFail, 30.0, 2, 1.0},
                   {cluster::NodeAction::Kind::ArrivalScale, 45.0, 0, 1.0}};
    expectPinned(cluster::runCluster(cfg),
                 {0x16a4959c7cf5ed53ull, 2000, 18, 0, 216,
                  {642, 629, 76, 653}});

    // The same classes on per-class streams, one of them bursty.
    cfg.actions.clear();
    cfg.perClassArrivals = true;
    cfg.classes.classAt(1).traffic.burstRatio = 4.0;
    expectPinned(cluster::runCluster(cfg),
                 {0xe1b9b24ae4b55f6aull, 2000, 0, 0, 229,
                  {493, 511, 503, 493}});
}

TEST(TrafficGolden, ClusterFailoverCascade)
{
    // Node 1 fails at 30 ms and its queue fails over (0.5 ms later) to
    // one node; that node fails at 31 ms, before the moved records have
    // started, so they fail over a second time and keep their original
    // arrival. A flash crowd and a degraded node ride along.
    constexpr double firstFailMs = 30.0;
    constexpr double failoverDelayMs = 0.5;
    struct Case
    {
        cluster::IngressPolicy policy;
        std::size_t second; ///< the node node 1's queue moved to
        IngressPin pin;
    };
    const Case cases[] = {
        {cluster::IngressPolicy::RoundRobin, 0,
         {0x1f2a872059807fa8ull, 2000, 17, 0, 151, {80, 79, 927, 914}}},
        {cluster::IngressPolicy::Jsq, 3,
         {0x0aee8385765d940full, 2000, 54, 0, 151, {955, 71, 928, 46}}},
        {cluster::IngressPolicy::FlowAffinity, 3,
         {0xb00d77a3699ee4c6ull, 2000, 55, 1900, 151, {726, 77, 1196, 1}}},
        {cluster::IngressPolicy::ClassAware, 2,
         {0x82b3349953ee2b95ull, 2000, 59, 1656, 151, {1235, 92, 50, 623}}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(cluster::toString(c.policy));
        cluster::ClusterConfig cfg = smallRack();
        cfg.classes = workloads::ServiceClassRegistry::searchAnalyticsPair(
            8.0, 80.0);
        cfg.ingress.policy = c.policy;
        cfg.actions = {
            {cluster::NodeAction::Kind::ArrivalScale, 10.0, 0, 1.6},
            {cluster::NodeAction::Kind::NodeDegrade, 15.0, 3, 0.5},
            {cluster::NodeAction::Kind::NodeFail, firstFailMs, 1, 1.0}};
        const cluster::ClusterResult single = cluster::runCluster(cfg);
        const auto movedOnce = [&](const cluster::ClusterResult &r) {
            std::uint64_t k = 0;
            for (const std::vector<sim::InjectedArrival> &node : r.injected)
                for (const sim::InjectedArrival &a : node)
                    k += a.atMs == firstFailMs + failoverDelayMs ? 1 : 0;
            return k;
        };
        ASSERT_GT(single.ingress.failovers, 0u);
        ASSERT_EQ(movedOnce(single), single.ingress.failovers);

        cfg.actions.push_back(
            {cluster::NodeAction::Kind::NodeFail, 31.0, c.second, 1.0});
        const cluster::ClusterResult cascade = cluster::runCluster(cfg);
        EXPECT_GT(cascade.ingress.failovers, single.ingress.failovers);
        // Records moved at the first failure moved again.
        EXPECT_LT(movedOnce(cascade), single.ingress.failovers);
        expectPinned(cascade, c.pin);
    }
}

// ---------------------------------------------------------- scenario layer

scenario::ScenarioBuilder
rackBuilder()
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "zeusmp";
    core.samples = 2;
    core.warmupOps = 2000;
    core.measureOps = 5000;
    return scenario::ScenarioBuilder()
        .name("rack-test")
        .cores(2, core)
        .nodes(4)
        .requests(2000)
        .meanLoad(0.5);
}

bool
anyErrorMentions(const scenario::BuildResult &r, const std::string &needle)
{
    for (const std::string &e : r.errors)
        if (e.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(RackValidation, ZeroNodesIsRejected)
{
    scenario::BuildResult r = rackBuilder().nodes(0).tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "nodes(0)")) << r.errorText();
}

TEST(RackValidation, DiurnalReplayIsRejectedOnRacks)
{
    scenario::BuildResult r =
        rackBuilder()
            .diurnal(queueing::DiurnalTrace::webSearchCluster(), 50.0)
            .tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "diurnal")) << r.errorText();
}

TEST(RackValidation, SingleNodeIncidentsAreRejectedOnRacks)
{
    scenario::BuildResult r =
        rackBuilder()
            .incident(scenario::CoreFailure{0, 0.5})
            .tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "not supported in rack scenarios"))
        << r.errorText();
}

TEST(RackValidation, NodeIncidentsNeedARack)
{
    scenario::BuildResult r =
        rackBuilder()
            .nodes(1)
            .incident(scenario::NodeFailure{0, 0.5})
            .tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "needs a rack scenario"))
        << r.errorText();
}

TEST(RackValidation, NodeIncidentsMustTargetARealNode)
{
    scenario::BuildResult r =
        rackBuilder().incident(scenario::NodeFailure{4, 0.5}).tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "targets node 4")) << r.errorText();
}

TEST(RackValidation, FailingEveryNodeIsRejected)
{
    scenario::ScenarioBuilder b = rackBuilder();
    for (std::size_t j = 0; j < 4; ++j)
        b.incident(scenario::NodeFailure{j, 0.5});
    scenario::BuildResult r = b.tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "at least one node must survive"))
        << r.errorText();
}

TEST(RackValidation, RepeatedFailureOfOneNodeIsNotTotal)
{
    // Failing a node again is a no-op, so two failures of node 0 leave
    // node 1 serving the rest of the stream.
    scenario::BuildResult r = rackBuilder()
                                  .nodes(2)
                                  .incident(scenario::NodeFailure{0, 1.0})
                                  .incident(scenario::NodeFailure{0, 2.0})
                                  .tryBuild();
    ASSERT_TRUE(r.ok()) << r.errorText();
    const cluster::ClusterResult rack = scenario::runRack(*r.scenario);
    ASSERT_EQ(rack.ingress.steered.size(), 2u);
    EXPECT_GT(rack.ingress.steered[1], rack.ingress.steered[0]);
    EXPECT_EQ(rack.ingress.steered[0] + rack.ingress.steered[1], 2000u);
}

TEST(RackScenario, RunRoutesRacksThroughTheClusterLayer)
{
    scenario::Scenario s = rackBuilder().expect();
    sim::FleetResult merged = scenario::run(s);
    EXPECT_EQ(merged.dispatch.latencyMs.count + merged.dispatch.totalShed,
              2000u);
    // Rack lowering scales the stream across nodes: 4 nodes of the
    // 2-core config, concatenated in the merged core view.
    EXPECT_EQ(merged.cores.size(), 8u);
}

// ------------------------------------------------------------ drill teeth

TEST(RackTeeth, JsqPassesNodeFailureDrillRoundRobinFails)
{
    // The ISSUE acceptance pairing: after a mid-run node failure the
    // preset's JSQ(2) ingress passes the drill's p99 + attainment
    // assertions, while the same drill steered blind round-robin
    // fails — specifically on the windowed p99 bound (liveness is
    // known to both policies; load-awareness is the difference).
    const scenario::Drill &d = scenario::drill("rack/node-failure");
    scenario::DrillOutcome jsq = scenario::runDrill(d);
    EXPECT_TRUE(jsq.pass);
    for (const scenario::AssertionResult &a : jsq.assertions)
        EXPECT_TRUE(a.pass) << a.detail;

    scenario::DrillOutcome blind =
        scenario::runDrill(d, [](scenario::Scenario &s) {
            s.ingress.policy = cluster::IngressPolicy::RoundRobin;
        });
    EXPECT_FALSE(blind.pass);
    ASSERT_EQ(blind.assertions.size(), 2u);
    EXPECT_FALSE(blind.assertions[0].pass) << blind.assertions[0].detail;
}

TEST(RackTeeth, DegradationDrillNeedsLoadAwareSteering)
{
    // Same pairing on the degradation drill: round-robin keeps feeding
    // the slow node, blowing both the windowed bound and the recovery
    // allowance.
    const scenario::Drill &d = scenario::drill("rack/node-degradation");
    scenario::DrillOutcome blind =
        scenario::runDrill(d, [](scenario::Scenario &s) {
            s.ingress.policy = cluster::IngressPolicy::RoundRobin;
        });
    EXPECT_FALSE(blind.pass);
}

} // namespace
} // namespace stretch
