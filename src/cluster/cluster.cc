#include "cluster/cluster.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/parallel_for.h"
#include "util/rng.h"
#include "util/seed_stream.h"

namespace stretch::cluster
{

const char *
toString(IngressPolicy policy)
{
    switch (policy) {
    case IngressPolicy::RoundRobin:
        return "RoundRobin";
    case IngressPolicy::Jsq:
        return "Jsq";
    case IngressPolicy::FlowAffinity:
        return "FlowAffinity";
    case IngressPolicy::ClassAware:
        return "ClassAware";
    }
    return "?";
}

namespace
{

/// @name Ingress RNG stream tags (decorrelated from the dispatcher's
/// 0xa221/0xde3a/0x9b1c/0xc1a5 streams and from each other).
/// @{
constexpr std::uint64_t kNodeStream = 0x4e0d;     ///< per-node dispatch seeds
constexpr std::uint64_t kArrivalStream = 0x16a1;  ///< ingress arrival gaps
constexpr std::uint64_t kDemandStream = 0x16d3;   ///< ingress demand draws
constexpr std::uint64_t kProbeStream = 0x16b2;    ///< JSQ(d) candidate picks
constexpr std::uint64_t kClassTagStream = 0x16c7; ///< weighted class tags
constexpr std::uint64_t kRingStream = 0x8119;     ///< hash-ring point salt
constexpr std::uint64_t kFlowKeyStream = 0xf10a;  ///< class flow-key salt
/// @}

/** Latency a failover pays re-steering queued work off a dead node. */
constexpr double kFailoverDelayMs = 0.5;

/** Requests the drawing side hands to the steering side at a time. */
constexpr std::uint64_t kDrawBlock = 4096;

/** FlowAffinity: hash-ring points per node (more points = smoother
 *  class spread). */
constexpr unsigned kVirtualNodesPerNode = 16;

/** FlowAffinity/ClassAware: spill off the preferred node when its
 *  backlog signal exceeds this many milliseconds. */
constexpr double kSpilloverBacklogMs = 8.0;

/**
 * The ingress's fluid view of one node: backlog in milliseconds of work
 * draining at the measured aggregate capacity, plus every request
 * steered to it in FCFS order. The backlog is lazily drained at event
 * times; `workMs` is the backlog at `lastMs`.
 */
struct NodeView
{
    double nominalCapacity = 0.0; ///< measured req/ms at full health
    double capacity = 0.0;        ///< current (possibly degraded) rate
    bool alive = true;
    double workMs = 0.0; ///< backlog (ms of queueing) at lastMs
    double lastMs = 0.0; ///< time of the last backlog update
    double signalMs = 0.0; ///< last *published* backlog (stale signal)
    std::vector<sim::InjectedArrival> out; ///< steered stream
    bool unsorted = false; ///< a record arrives before its predecessor
    /// @name Failover bookkeeping, kept only for a node that will fail.
    /// @{
    bool canFail = false;
    std::vector<double> startMs; ///< fluid service start of each record
    std::vector<double> origMs;  ///< original cluster arrival of each
    /// @}
};

/** Backlog of @p nv at time @p t (>= nv.lastMs clamps to lazy drain;
 *  earlier times read the last known value — see drainTo). */
double
backlogAt(const NodeView &nv, double t)
{
    if (t <= nv.lastMs)
        return nv.workMs;
    return std::max(0.0, nv.workMs - (t - nv.lastMs));
}

/**
 * Advance @p nv's lazy drain to time @p t. Failover enqueues work
 * slightly in the future (the failover delay), so a later event at an
 * earlier time is a no-op rather than a rewind — the fluid model is a
 * steering signal, not the engine, and the error is bounded by the
 * failover delay.
 */
void
drainTo(NodeView &nv, double t)
{
    if (t > nv.lastMs) {
        nv.workMs = std::max(0.0, nv.workMs - (t - nv.lastMs));
        nv.lastMs = t;
    }
}

/** Enqueue one request at node @p nv arriving there at @p at_ms. */
void
enqueue(NodeView &nv, double at_ms, double orig_ms, double demand,
        std::uint32_t cls)
{
    drainTo(nv, at_ms);
    if (!nv.out.empty() && at_ms < nv.out.back().atMs)
        nv.unsorted = true;
    nv.out.push_back({at_ms, cls, demand, at_ms - orig_ms});
    if (nv.canFail) {
        nv.startMs.push_back(at_ms + nv.workMs);
        nv.origMs.push_back(orig_ms);
    }
    nv.workMs += demand / nv.capacity;
}

/** One request as drawn, before steering: its raw gap, class tag and
 *  demand. No initialisers: the drawing side writes every slot before
 *  the steering side reads it. */
struct Draw
{
    double gapMs;
    double demand;
    std::uint32_t classId;
};

/** Everything phase 1 produces: per-node steered streams + counters. */
struct SteeringOutput
{
    std::vector<std::vector<sim::InjectedArrival>> injected;
    IngressStats stats;
    double ratePerMs = 0.0; ///< cluster arrival rate actually used
};

/**
 * Phase 1: the serial ingress simulation. Synthesizes the cluster-wide
 * arrival stream, applies node actions at exact timestamps, steers each
 * request by the configured policy over stale backlog signals, and
 * fails over queued work off dead nodes.
 *
 * No draw depends on a steering decision: gaps, class tags and demands
 * come from their own streams, and arrival scaling applies after the
 * draw. So unless `cfg.threads == 1`, a second thread draws the whole
 * stream ahead of the steering loop and hands it over in blocks; with
 * one thread the draws all run first, on the caller.
 */
SteeringOutput
steerArrivals(const ClusterConfig &cfg, const std::vector<double> &capacity)
{
    const std::size_t n = cfg.nodes.size();
    const IngressConfig &ing = cfg.ingress;
    const bool hasClasses = !cfg.classes.empty();

    SteeringOutput so;
    so.stats.capacityPerMs = capacity;
    so.stats.steered.assign(n, 0);

    std::vector<NodeView> nodes(n);
    double totalCapacity = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        nodes[j].nominalCapacity = capacity[j];
        nodes[j].capacity = capacity[j];
        STRETCH_ASSERT(capacity[j] > 0.0,
                       "node ", j, " measured zero service capacity");
        totalCapacity += capacity[j];
    }
    for (const NodeAction &a : cfg.actions)
        if (a.kind == NodeAction::Kind::NodeFail)
            nodes[a.node].canFail = true;

    so.ratePerMs = cfg.offeredRatePerMs(totalCapacity);

    // The dispatcher's own traffic source on the ingress's streams, so a
    // rack of one node sees the same *kind* of traffic a fleet does.
    sim::TrafficSource traffic(
        cfg, so.ratePerMs,
        {Rng(util::deriveSeed(cfg.seed, kArrivalStream, 0)),
         Rng(util::deriveSeed(cfg.seed, kClassTagStream, 0)),
         Rng(util::deriveSeed(cfg.seed, kDemandStream, 0)), kArrivalStream});
    Rng probeRng(util::deriveSeed(cfg.seed, kProbeStream, 0));

    // Live-node bookkeeping (rebuilt on liveness changes — rare).
    std::vector<std::size_t> live(n);
    for (std::size_t j = 0; j < n; ++j)
        live[j] = j;
    auto rebuildLive = [&] {
        live.clear();
        for (std::size_t j = 0; j < n; ++j)
            if (nodes[j].alive)
                live.push_back(j);
        STRETCH_ASSERT(!live.empty(), "every cluster node has failed");
    };

    // Stale signal publication. With a zero delay the signal reads are
    // live; otherwise all signals refresh together on a fixed schedule
    // (one telemetry scrape for the whole rack).
    double lastRefreshMs = 0.0;
    double nextRefreshMs = ing.signalDelayMs;
    auto refreshSignals = [&](double t) {
        if (ing.signalDelayMs <= 0.0)
            return;
        while (nextRefreshMs <= t) {
            for (NodeView &nv : nodes)
                if (nv.alive)
                    nv.signalMs = backlogAt(nv, nextRefreshMs);
            lastRefreshMs = nextRefreshMs;
            nextRefreshMs += ing.signalDelayMs;
            ++so.stats.signalRefreshes;
        }
    };
    auto signalOf = [&](std::size_t j, double t) {
        return ing.signalDelayMs <= 0.0 ? backlogAt(nodes[j], t)
                                        : nodes[j].signalMs;
    };
    auto recordStaleness = [&](double t) {
        so.stats.signalStalenessMs.record(
            ing.signalDelayMs <= 0.0 ? 0.0 : t - lastRefreshMs);
    };
    /** Live node with the smallest signal (ties to the lowest id). */
    auto leastSignal = [&](double t) {
        std::size_t best = static_cast<std::size_t>(-1);
        double bestSig = 0.0;
        for (std::size_t j : live) {
            const double s = signalOf(j, t);
            if (best == static_cast<std::size_t>(-1) || s < bestSig) {
                best = j;
                bestSig = s;
            }
        }
        return best;
    };

    // FlowAffinity hash ring: kVirtualNodesPerNode points per node, point
    // position = deriveSeed(seed, ring stream, node, replica). The class
    // flow key hashes onto the ring and walks clockwise to its home.
    std::vector<std::pair<std::uint64_t, std::size_t>> ring;
    std::vector<std::uint64_t> flowKey;
    if (ing.policy == IngressPolicy::FlowAffinity) {
        for (std::size_t j = 0; j < n; ++j)
            for (unsigned r = 0; r < kVirtualNodesPerNode; ++r)
                ring.emplace_back(
                    util::deriveSeed(cfg.seed, kRingStream, j, r), j);
        std::sort(ring.begin(), ring.end());
        const std::size_t k = hasClasses ? cfg.classes.size() : 1;
        for (std::size_t c = 0; c < k; ++c)
            flowKey.push_back(
                util::deriveSeed(cfg.seed, kFlowKeyStream, c));
    }

    // ClassAware preferred sets: rank nodes by measured capacity (ties
    // to the lowest id), rank classes by SLO tightness, and give each
    // class a contiguous block of the capacity ranking sized by its
    // arrival share (at least one node each; the tightest class gets the
    // beefiest nodes).
    std::vector<std::vector<std::size_t>> preferred;
    if (ing.policy == IngressPolicy::ClassAware) {
        std::vector<std::size_t> ranked(n);
        for (std::size_t j = 0; j < n; ++j)
            ranked[j] = j;
        std::sort(ranked.begin(), ranked.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (capacity[a] != capacity[b])
                          return capacity[a] > capacity[b];
                      return a < b;
                  });
        if (!hasClasses) {
            preferred.push_back(ranked);
        } else {
            const std::size_t k = cfg.classes.size();
            std::vector<std::size_t> order(k);
            for (std::size_t c = 0; c < k; ++c)
                order[c] = c;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          const double sa = cfg.classes.at(
                              static_cast<workloads::ClassId>(a)).sloMs;
                          const double sb = cfg.classes.at(
                              static_cast<workloads::ClassId>(b)).sloMs;
                          if (sa != sb)
                              return sa < sb;
                          return a < b;
                      });
            const std::vector<double> shares = cfg.classes.arrivalShares();
            preferred.assign(k, {});
            double cum = 0.0;
            for (std::size_t r = 0; r < k; ++r) {
                const std::size_t cls = order[r];
                std::size_t lo = static_cast<std::size_t>(
                    cum * static_cast<double>(n) + 1e-9);
                cum += shares[cls];
                std::size_t hi =
                    r + 1 == k ? n
                               : static_cast<std::size_t>(
                                     cum * static_cast<double>(n) + 1e-9);
                lo = std::min(lo, n - 1);
                hi = std::max(hi, lo + 1);
                hi = std::min(hi, n);
                preferred[cls].assign(ranked.begin() + lo,
                                      ranked.begin() + hi);
            }
        }
    }

    std::size_t rrCursor = n - 1; // first RoundRobin pick is node 0
    std::vector<std::size_t> probeScratch;

    auto steer = [&](double t, std::uint32_t cls) -> std::size_t {
        switch (ing.policy) {
        case IngressPolicy::RoundRobin: {
            do {
                rrCursor = (rrCursor + 1) % n;
            } while (!nodes[rrCursor].alive);
            return rrCursor;
        }
        case IngressPolicy::Jsq: {
            recordStaleness(t);
            const std::size_t d = ing.probes;
            if (d == 0 || d >= live.size()) {
                return leastSignal(t);
            }
            // d distinct candidates via a partial Fisher-Yates over the
            // live list; best (signal, id) wins.
            probeScratch = live;
            std::size_t best = static_cast<std::size_t>(-1);
            double bestSig = 0.0;
            for (std::size_t i = 0; i < d; ++i) {
                const std::size_t pick =
                    i + static_cast<std::size_t>(
                            probeRng.below(probeScratch.size() - i));
                std::swap(probeScratch[i], probeScratch[pick]);
                const std::size_t j = probeScratch[i];
                const double s = signalOf(j, t);
                if (best == static_cast<std::size_t>(-1) || s < bestSig ||
                    (s == bestSig && j < best)) {
                    best = j;
                    bestSig = s;
                }
            }
            return best;
        }
        case IngressPolicy::FlowAffinity: {
            recordStaleness(t);
            const std::uint64_t key =
                flowKey[hasClasses ? cls : 0];
            auto it = std::lower_bound(
                ring.begin(), ring.end(),
                std::make_pair(key, std::size_t{0}));
            // Walk clockwise to the first live node: the class's home.
            std::size_t home = static_cast<std::size_t>(-1);
            for (std::size_t step = 0; step < ring.size(); ++step) {
                if (it == ring.end())
                    it = ring.begin();
                if (nodes[it->second].alive) {
                    home = it->second;
                    break;
                }
                ++it;
            }
            STRETCH_ASSERT(home != static_cast<std::size_t>(-1),
                           "no live node on the affinity ring");
            if (signalOf(home, t) <= kSpilloverBacklogMs)
                return home;
            // Overloaded home: spill one hop to the next distinct live
            // node on the ring (affinity degrades gracefully instead of
            // queueing behind a hot spot).
            ++so.stats.spillovers;
            for (std::size_t step = 0; step < ring.size(); ++step) {
                ++it;
                if (it == ring.end())
                    it = ring.begin();
                if (it->second != home && nodes[it->second].alive)
                    return it->second;
            }
            return home; // only one live node: nowhere to spill
        }
        case IngressPolicy::ClassAware: {
            recordStaleness(t);
            const std::vector<std::size_t> &pref =
                preferred[hasClasses ? cls : 0];
            std::size_t best = static_cast<std::size_t>(-1);
            double bestSig = 0.0;
            for (std::size_t j : pref) {
                if (!nodes[j].alive)
                    continue;
                const double s = signalOf(j, t);
                if (best == static_cast<std::size_t>(-1) || s < bestSig ||
                    (s == bestSig && j < best)) {
                    best = j;
                    bestSig = s;
                }
            }
            if (best != static_cast<std::size_t>(-1) &&
                bestSig <= kSpilloverBacklogMs)
                return best;
            // Dead or saturated preferred set: spill anywhere live.
            ++so.stats.spillovers;
            return leastSignal(t);
        }
        }
        return 0; // unreachable
    };

    // Node actions, applied at exact timestamps as the clock crosses
    // them (sorted by time; list order breaks ties).
    std::vector<NodeAction> actions = cfg.actions;
    std::stable_sort(actions.begin(), actions.end(),
                     [](const NodeAction &a, const NodeAction &b) {
                         return a.atMs < b.atMs;
                     });
    std::size_t nextAction = 0;
    double arrivalFactor = 1.0;

    auto applyAction = [&](const NodeAction &a) {
        switch (a.kind) {
        case NodeAction::Kind::ArrivalScale:
            arrivalFactor = a.value;
            break;
        case NodeAction::Kind::NodeFail: {
            NodeView &nv = nodes[a.node];
            if (!nv.alive)
                break;
            nv.alive = false;
            rebuildLive();
            // Work that started by now drains in place: the longest
            // prefix whose fluid start is at most now, since every
            // decision so far came at or before now. Every later record
            // re-steers, in order, to the least-loaded live node, paying
            // the failover delay end to end.
            std::size_t settled = 0;
            while (settled < nv.out.size() && nv.startMs[settled] <= a.atMs)
                ++settled;
            for (std::size_t k = settled; k < nv.out.size(); ++k) {
                const sim::InjectedArrival &p = nv.out[k];
                const std::size_t dest = leastSignal(a.atMs);
                enqueue(nodes[dest], a.atMs + kFailoverDelayMs,
                        nv.origMs[k], p.demand, p.classId);
                ++so.stats.failovers;
            }
            nv.out.resize(settled);
            nv.workMs = 0.0;
            break;
        }
        case NodeAction::Kind::NodeDegrade: {
            NodeView &nv = nodes[a.node];
            drainTo(nv, a.atMs);
            const double newCap = nv.nominalCapacity * a.value;
            STRETCH_ASSERT(newCap > 0.0, "degraded capacity must stay > 0");
            // Backlog is in milliseconds of work: rescale it so the
            // same queued demand takes proportionally longer to drain.
            nv.workMs *= nv.capacity / newCap;
            nv.capacity = newCap;
            break;
        }
        }
    };

    // The drawn stream, published to the steering side in blocks.
    const std::unique_ptr<Draw[]> draws(new Draw[cfg.requests]);
    std::mutex drawMutex;
    std::condition_variable drawReady;
    std::uint64_t drawn = 0; // guarded by drawMutex
    bool drawFailed = false; // guarded by drawMutex

    auto drawAll = [&] {
        try {
            for (std::uint64_t i = 0; i < cfg.requests;) {
                const std::uint64_t end =
                    std::min<std::uint64_t>(cfg.requests, i + kDrawBlock);
                for (; i < end; ++i) {
                    const queueing::EventEngine::Arrival next =
                        traffic.nextArrival();
                    draws[i] = {next.gapMs, traffic.nextDemand(next.classId),
                                next.classId};
                }
                {
                    std::lock_guard<std::mutex> lock(drawMutex);
                    drawn = end;
                }
                drawReady.notify_one();
            }
        } catch (...) {
            // Wake the steering side, or the join would wait forever.
            {
                std::lock_guard<std::mutex> lock(drawMutex);
                drawFailed = true;
            }
            drawReady.notify_one();
            throw;
        }
    };

    auto steerAll = [&] {
        double t = 0.0;
        std::uint64_t ready = 0;
        for (std::uint64_t i = 0; i < cfg.requests; ++i) {
            if (i == ready) {
                std::unique_lock<std::mutex> lock(drawMutex);
                drawReady.wait(lock, [&] { return drawn > i || drawFailed; });
                if (drawFailed)
                    return; // parallelFor rethrows the draw's exception
                ready = drawn;
            }
            const Draw &d = draws[i];
            // Next cluster arrival. The gap splits at action boundaries so
            // an arrival-scale change applies at its exact timestamp (the
            // pre-boundary part of the gap elapses at the old rate).
            double gap = d.gapMs;
            while (nextAction < actions.size() &&
                   t + gap / arrivalFactor >= actions[nextAction].atMs) {
                gap -= (actions[nextAction].atMs - t) * arrivalFactor;
                t = actions[nextAction].atMs;
                applyAction(actions[nextAction]);
                ++nextAction;
            }
            t += gap / arrivalFactor;

            refreshSignals(t);

            const std::size_t target = steer(t, d.classId);
            enqueue(nodes[target], t, t, d.demand, d.classId);
            ++so.stats.decisions;
        }
    };

    // Index 0 never waits, so one thread running both indices in order
    // cannot deadlock.
    parallelFor(cfg.threads == 1 ? 1 : 2, 2, [&](std::size_t k) {
        if (k == 0)
            drawAll();
        else
            steerAll();
    });

    // Stream over: everything still queued starts eventually, where it
    // sits.
    so.injected.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        NodeView &nv = nodes[j];
        // Failover appends future-timestamped records behind direct
        // arrivals; the dispatcher requires time order. Only a node that
        // took failover records can be out of order, and a stable sort
        // of a sorted stream is the identity.
        if (nv.unsorted)
            std::stable_sort(nv.out.begin(), nv.out.end(),
                             [](const sim::InjectedArrival &a,
                                const sim::InjectedArrival &b) {
                                 return a.atMs < b.atMs;
                             });
        so.stats.steered[j] = nv.out.size();
        so.injected[j] = std::move(nv.out);
    }
    return so;
}

/** Merge per-node fleet results into the cluster-level view. */
sim::FleetResult
mergeNodes(const ClusterConfig &cfg,
           const std::vector<sim::FleetResult> &nodes, double rate_per_ms)
{
    sim::FleetResult m;
    const bool exact = cfg.exactTailQuantiles;

    // Core-indexed vectors concatenate the nodes in index order, so the
    // merged view is a genuine "every core in the rack" fleet.
    std::vector<double> lsUipc, batchUipc;
    for (std::size_t j = 0; j < nodes.size(); ++j) {
        const sim::FleetResult &nr = nodes[j];
        m.cores.insert(m.cores.end(), nr.cores.begin(), nr.cores.end());
        m.modeRates.insert(m.modeRates.end(), nr.modeRates.begin(),
                           nr.modeRates.end());
        m.batchPoints.insert(m.batchPoints.end(), nr.batchPoints.begin(),
                             nr.batchPoints.end());
        m.totalLsUipc += nr.totalLsUipc;
        m.totalBatchUipc += nr.totalBatchUipc;
        m.effectiveBatchUipc += nr.effectiveBatchUipc;
        for (std::size_t c = 0; c < nr.cores.size(); ++c) {
            lsUipc.push_back(nr.cores[c].uipc[0]);
            if (!cfg.nodes[j].cores[c].workload1.empty())
                batchUipc.push_back(nr.cores[c].uipc[1]);
        }
        m.dispatch.placed.insert(m.dispatch.placed.end(),
                                 nr.dispatch.placed.begin(),
                                 nr.dispatch.placed.end());
        m.dispatch.busyMs.insert(m.dispatch.busyMs.end(),
                                 nr.dispatch.busyMs.begin(),
                                 nr.dispatch.busyMs.end());
        m.dispatch.modeStats.insert(m.dispatch.modeStats.end(),
                                    nr.dispatch.modeStats.begin(),
                                    nr.dispatch.modeStats.end());
        m.dispatch.totalShed += nr.dispatch.totalShed;
        m.dispatch.elapsedMs =
            std::max(m.dispatch.elapsedMs, nr.dispatch.elapsedMs);
    }
    m.lsUipc = stats::summarize(lsUipc);
    m.batchUipc = stats::summarize(batchUipc);

    // Fleet-of-fleets latency tail: exact recorder merge (associative
    // histogram adds in streaming mode, sample pooling in exact mode).
    stats::TailRecorder fleetTail(exact);
    for (const sim::FleetResult &nr : nodes)
        if (nr.dispatch.latencyRecorder.count() > 0)
            fleetTail.merge(nr.dispatch.latencyRecorder);
    m.dispatch.latencyMs = fleetTail.summarize();
    m.dispatch.throughputRps =
        m.dispatch.elapsedMs > 0.0
            ? static_cast<double>(fleetTail.count()) /
                  (m.dispatch.elapsedMs / 1000.0)
            : 0.0;
    m.dispatch.offeredRatePerMs = rate_per_ms;

    // Per-class outcomes: counts sum, tails merge, attainment re-derives
    // from the summed sloGood numerator (bit-exact, not averaged).
    if (!cfg.classes.empty()) {
        const std::size_t k = cfg.classes.size();
        m.dispatch.perClass.resize(k);
        std::vector<stats::TailRecorder> classTails(
            k, stats::TailRecorder(exact));
        for (const sim::FleetResult &nr : nodes) {
            if (nr.dispatch.perClass.size() != k)
                continue; // node saw zero requests
            for (std::size_t c = 0; c < k; ++c) {
                const sim::ClassOutcome &in = nr.dispatch.perClass[c];
                sim::ClassOutcome &out = m.dispatch.perClass[c];
                out.completed += in.completed;
                out.shed += in.shed;
                out.sloGood += in.sloGood;
                if (c < nr.dispatch.classRecorders.size() &&
                    nr.dispatch.classRecorders[c].count() > 0)
                    classTails[c].merge(nr.dispatch.classRecorders[c]);
            }
        }
        for (std::size_t c = 0; c < k; ++c) {
            const workloads::ServiceClass &sc =
                cfg.classes.at(static_cast<workloads::ClassId>(c));
            sim::ClassOutcome &out = m.dispatch.perClass[c];
            out.name = sc.name;
            out.sloTargetMs = sc.sloMs;
            out.tailPercentile = sc.tailPercentile;
            out.latencyMs = classTails[c].summarize();
            out.tailMs = classTails[c].count() > 0
                             ? classTails[c].percentile(sc.tailPercentile)
                             : 0.0;
            const std::uint64_t offered = out.completed + out.shed;
            out.sloAttainment =
                offered > 0 ? static_cast<double>(out.sloGood) /
                                  static_cast<double>(offered)
                            : 0.0;
            m.dispatch.classRecorders.push_back(std::move(classTails[c]));
        }
    }

    // Fleet-level timeline: nodes share the bucket grid (same config
    // bucket width, same time origin), so bucket b merges across nodes.
    // Per-class timeline cells are not merged (rack QoS assertions bind
    // at the fleet tail and per-class attainment instead).
    if (cfg.timelineBucketMs > 0.0) {
        std::size_t buckets = 0;
        for (const sim::FleetResult &nr : nodes)
            buckets = std::max(buckets, nr.dispatch.timeline.size());
        for (std::size_t b = 0; b < buckets; ++b) {
            sim::TimelineBucket tb;
            tb.startMs = static_cast<double>(b) * cfg.timelineBucketMs;
            stats::TailRecorder bucketTail(exact);
            for (const sim::FleetResult &nr : nodes) {
                if (b >= nr.dispatch.timeline.size())
                    continue;
                tb.throttledCoreMs +=
                    nr.dispatch.timeline[b].throttledCoreMs;
                if (b < nr.dispatch.timelineRecorders.size() &&
                    nr.dispatch.timelineRecorders[b].count() > 0)
                    bucketTail.merge(nr.dispatch.timelineRecorders[b]);
            }
            tb.completions = bucketTail.count();
            if (tb.completions > 0) {
                tb.p50Ms = bucketTail.percentile(50.0);
                tb.p99Ms = bucketTail.percentile(99.0);
            }
            m.dispatch.timelineRecorders.push_back(std::move(bucketTail));
            m.dispatch.timeline.push_back(std::move(tb));
        }
    }

    m.dispatch.latencyRecorder = std::move(fleetTail);
    return m;
}

/** End-of-run metric fill (the "ingress." and "cluster." namespaces). */
void
fillMetrics(obs::MetricRegistry &reg, const ClusterConfig &cfg,
            const ClusterResult &result)
{
    const IngressStats &ing = result.ingress;
    reg.gauge("cluster.nodes") = static_cast<double>(cfg.nodes.size());
    reg.counter("ingress.decisions") += ing.decisions;
    reg.counter("ingress.failovers") += ing.failovers;
    reg.counter("ingress.spillovers") += ing.spillovers;
    reg.counter("ingress.signal_refreshes") += ing.signalRefreshes;
    reg.gauge("ingress.policy") =
        static_cast<double>(cfg.ingress.policy);
    reg.tail("ingress.signal_staleness_ms").merge(ing.signalStalenessMs);

    double totalCapacity = 0.0;
    for (std::size_t j = 0; j < cfg.nodes.size(); ++j) {
        const std::string prefix = "cluster.node" + std::to_string(j);
        reg.counter(prefix + ".steered") += ing.steered[j];
        reg.gauge(prefix + ".capacity_per_ms") = ing.capacityPerMs[j];
        reg.gauge(prefix + ".p99_ms") =
            result.nodes[j].dispatch.latencyMs.p99;
        totalCapacity += ing.capacityPerMs[j];
    }
    reg.gauge("cluster.capacity_per_ms") = totalCapacity;
    reg.gauge("cluster.p99_ms") = result.merged.dispatch.latencyMs.p99;
    reg.counter("cluster.completions") +=
        result.merged.dispatch.latencyMs.count;
    reg.counter("cluster.shed") += result.merged.dispatch.totalShed;
    result.merged.dispatch.latencyRecorder.mergeInto(
        reg.tail("cluster.latency_ms"));
}

} // namespace

ClusterConfig
homogeneousCluster(unsigned n, const sim::FleetConfig &node)
{
    STRETCH_ASSERT(n >= 1, "a cluster needs at least one node");
    ClusterConfig cfg;
    static_cast<sim::TrafficSpec &>(cfg) = node;
    cfg.exactTailQuantiles = node.exactTailQuantiles;
    cfg.requests *= n;
    cfg.arrivalRatePerMs *= n; // 0 keeps the 70% default
    cfg.nodes.reserve(n);
    for (unsigned j = 0; j < n; ++j) {
        sim::FleetConfig nc = node;
        // Decorrelate dispatch-side streams only: identical per-core
        // microarch configs keep the operating-point cache hot.
        nc.seed = util::deriveSeed(node.seed, kNodeStream, j);
        cfg.nodes.push_back(std::move(nc));
    }
    return cfg;
}

ClusterResult
runCluster(const ClusterConfig &cfg)
{
    const std::size_t n = cfg.nodes.size();
    STRETCH_ASSERT(n >= 1, "a cluster needs at least one node");
    STRETCH_ASSERT(cfg.ingress.signalDelayMs >= 0.0,
                   "signal delay must be non-negative");
    STRETCH_ASSERT(cfg.nodeTracers.empty() || cfg.nodeTracers.size() == n,
                   "nodeTracers must be empty or one per node");
    std::set<std::size_t> failed; // failing a node again is a no-op
    for (const NodeAction &a : cfg.actions) {
        STRETCH_ASSERT(a.atMs >= 0.0, "node actions cannot predate the run");
        if (a.kind != NodeAction::Kind::ArrivalScale)
            STRETCH_ASSERT(a.node < n, "node action targets node ", a.node,
                           " of ", n);
        if (a.kind == NodeAction::Kind::NodeFail)
            failed.insert(a.node);
        else
            STRETCH_ASSERT(a.value > 0.0, "scale factors must be positive");
    }
    STRETCH_ASSERT(failed.size() < n, "at least one node must survive");

    ClusterResult result;

    // Phase 0: measure per-node capacity through the normal fleet path
    // (requests = 0 stops right after the operating-point measurement;
    // the cache makes repeat nodes free). The fluid ingress drains each
    // node at the sum of its cores' Baseline-mode rates.
    std::vector<double> capacity(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        sim::FleetConfig probe = cfg.nodes[j];
        probe.requests = 0;
        probe.injected = nullptr;
        probe.tracer = nullptr;
        probe.metrics = nullptr;
        probe.threads = cfg.threads;
        const sim::FleetResult fr = sim::runFleet(probe);
        for (const sim::ModeRates &mr : fr.modeRates)
            capacity[j] += mr.baseline;
    }

    // Phase 1: serial ingress steering.
    SteeringOutput so = steerArrivals(cfg, capacity);

    // Phase 2: every node runs the full fleet simulation over its
    // steered stream. Index-addressed slots + per-node configs make the
    // parallel schedule unobservable in the results.
    std::vector<sim::FleetConfig> nodeCfgs;
    nodeCfgs.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
        sim::FleetConfig nc = cfg.nodes[j];
        nc.classes = cfg.classes;
        nc.perClassArrivals = false; // arrivals are injected, not drawn
        nc.exactTailQuantiles = cfg.exactTailQuantiles;
        nc.timelineBucketMs = cfg.timelineBucketMs;
        nc.diurnalTrace = cfg.diurnalTrace;
        nc.msPerHour = cfg.msPerHour;
        nc.requests = so.injected[j].size();
        nc.injected = &so.injected[j];
        nc.keepRecorders = true;
        nc.threads = 1; // node-level parallelism owns the threads
        nc.metrics = nullptr;
        nc.tracer = cfg.nodeTracers.empty() ? nullptr : cfg.nodeTracers[j];
        if (nc.tracer != nullptr)
            nc.tracer->setProcess(static_cast<std::int64_t>(j) + 1,
                                  "node " + std::to_string(j));
        // A degraded node is degraded in the engine too: every core
        // takes the capacity factor as a CoreRateScale incident.
        for (const NodeAction &a : cfg.actions)
            if (a.kind == NodeAction::Kind::NodeDegrade && a.node == j)
                for (std::size_t c = 0; c < nc.cores.size(); ++c) {
                    sim::IncidentAction ia;
                    ia.kind = sim::IncidentAction::Kind::CoreRateScale;
                    ia.atMs = a.atMs;
                    ia.value = a.value;
                    ia.core = c;
                    nc.incidents.push_back(ia);
                }
        nodeCfgs.push_back(std::move(nc));
    }

    result.nodes.resize(n);
    parallelFor(cfg.threads, n, [&](std::size_t j) {
        result.nodes[j] = sim::runFleet(nodeCfgs[j]);
    });

    for (const sim::FleetResult &nr : result.nodes)
        result.elapsedMs = std::max(result.elapsedMs, nr.dispatch.elapsedMs);

    result.merged = mergeNodes(cfg, result.nodes, so.ratePerMs);
    result.ingress = std::move(so.stats);
    result.injected = std::move(so.injected);

    if (cfg.metrics != nullptr)
        fillMetrics(*cfg.metrics, cfg, result);
    return result;
}

} // namespace stretch::cluster
