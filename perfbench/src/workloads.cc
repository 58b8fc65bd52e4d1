/**
 * @file
 * The benchmark workloads. Each one is a fixed op list built from
 * the seed, run by one closed-loop client; each op is one call into a
 * layer's public function. See perfbench/README.md for why each
 * workload exists and which layer it isolates.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <numeric>

#include "common.h"
#include "harness.h"
#include "cluster/cluster.h"
#include "queueing/load_study.h"
#include "queueing/request_sim.h"
#include "queueing/service_spec.h"
#include "scenario/presets.h"
#include "sim/runner.h"
#include "util/seed_stream.h"
#include "workload/profiles.h"

namespace perfbench
{

namespace
{

using namespace stretch;
namespace fs = std::filesystem;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Time one call on the span recorder; returns seconds. */
double
timed(SpanRecorder &rec, const std::string &name, std::uint64_t op, int parent,
      const std::function<void()> &fn)
{
    int id = rec.begin(name, op, parent);
    fn();
    return rec.end(id);
}

// ------------------------------------------------------ core-oppoints

/**
 * One cold `sim::run` of a colocation pair at one operating point,
 * serial, at the figure benches' sampling (`bench::baseConfig`). The
 * batch co-runners span small (povray, gcc) and large (mcf, lbm)
 * footprints against the modelled L1/LLC.
 */
class CoreOppoints : public Workload
{
  public:
    explicit CoreOppoints(std::uint64_t seed) : seed(seed) {}

    void
    setup() override
    {
        const sim::RunConfig base = bench::baseConfig(bench::Options{});
        for (const std::string &ls : workloads::latencySensitiveNames()) {
            for (const char *batch : {"povray", "gcc", "mcf", "lbm"}) {
                for (int point = 0; point < 4; ++point) {
                    sim::RunConfig cfg = base;
                    cfg.workload0 = ls;
                    cfg.workload1 = batch;
                    cfg.parallelism = 1;
                    cfg.seed = seed;
                    if (point < 3) {
                        cfg.rob = sim::robSetupFor(
                            static_cast<StretchMode>(point));
                    } else {
                        // The fleet's throttled operating point: Q-mode
                        // partition, batch thread fetching 1 cycle in 8.
                        cfg.rob = sim::robSetupFor(StretchMode::QosBoost);
                        cfg.fetchPolicy = FetchPolicy::Throttle;
                        cfg.throttleRatio = 8;
                        cfg.throttledThread = 1;
                    }
                    ops.push_back(cfg);
                }
            }
        }
        // Per-thread commit target the runner guarantees (quick factor
        // is pinned to 1, so this is the configured sampling).
        target = static_cast<std::uint64_t>(base.samples) *
                 std::max<std::uint64_t>(5000, base.measureOps);
        // One untimed run so the timed phase starts with the code and
        // the allocator warm.
        sim::run(ops.front());
    }

    std::size_t passSize() const override { return ops.size(); }

    void runOp(std::size_t i) override { last = sim::run(ops[i]); }

    OpOutcome
    checkOp(std::size_t, bool breakInvariant) override
    {
        sim::RunResult r = last;
        if (breakInvariant)
            r.stats[1].committedOps = 0;
        OpOutcome out;
        for (ThreadId t = 0; t < numSmtThreads; ++t) {
            if (!(r.uipc[t] > 0.0 && r.uipc[t] <= 6.0))
                out.error = "UIPC out of (0, issue width]";
            if (r.stats[t].committedOps < target)
                out.error = "committed ops below the measurement target";
        }
        if (r.totalCycles == 0)
            out.error = "no measured cycles";
        Digest d;
        for (ThreadId t = 0; t < numSmtThreads; ++t) {
            d.f64(r.uipc[t]);
            d.u64(r.stats[t].committedOps);
            d.u64(r.stats[t].branchMispredicts);
            d.u64(r.stats[t].dispatchStallRob);
            d.u64(r.l1dMissCount[t]);
            d.u64(r.llcMissCount[t]);
        }
        d.u64(r.totalCycles);
        out.digest = d.value();
        out.simWork = static_cast<double>(r.totalCycles);
        return out;
    }

    void
    runTracedOp(std::size_t i, std::uint64_t opId, int root,
                SpanRecorder &rec) override
    {
        sim::RunConfig fixedCfg = ops[i];
        fixedCfg.measureOps = 1;
        sim::RunResult fixed;
        double fullS = timed(rec, "sim.run", opId, root,
                             [&] { last = sim::run(ops[i]); });
        double fixedS = timed(rec, "sim.run[measureOps=1]", opId, root,
                              [&] { fixed = sim::run(fixedCfg); });

        fullSeconds.push_back(fullS);
        fixedSeconds.push_back(fixedS);
        windowSeconds.push_back(fullS - fixedS);
        cycles.push_back(static_cast<double>(last.totalCycles));
        windowCycles.push_back(static_cast<double>(last.totalCycles) -
                               static_cast<double>(fixed.totalCycles));
        if (tracedOps++ < ops.size()) {
            // Counts over exactly one pass, so they repeat per seed.
            for (ThreadId t = 0; t < numSmtThreads; ++t) {
                passUops += last.stats[t].committedOps;
                passL1d += last.l1dMissCount[t];
                passLlc += last.llcMissCount[t];
                passBp += last.stats[t].branchMispredicts;
                passRobStall += last.stats[t].dispatchStallRob;
            }
            passCycles += last.totalCycles;
        }
    }

    LayerMetrics
    layerMetrics() const override
    {
        double kUops = static_cast<double>(passUops) / 1000.0;
        return {
            {"core.ns_per_cycle", 1e9 * sum(fullSeconds) / sum(cycles)},
            {"core.fixed_ms", 1e3 * median(fixedSeconds)},
            {"core.window_ns_per_cycle",
             1e9 * sum(windowSeconds) / sum(windowCycles)},
            {"core.cycles", static_cast<double>(passCycles)},
            {"core.uops", static_cast<double>(passUops)},
            {"cache.l1d_mpki", static_cast<double>(passL1d) / kUops},
            {"cache.llc_mpki", static_cast<double>(passLlc) / kUops},
            {"bp.mpki", static_cast<double>(passBp) / kUops},
            // Share of thread-cycles whose dispatch the ROB limit blocked.
            {"core.rob_stall_frac", static_cast<double>(passRobStall) /
                                        (2.0 * static_cast<double>(passCycles))},
        };
    }

  private:
    std::uint64_t seed;
    std::uint64_t target = 0;
    std::vector<sim::RunConfig> ops;
    sim::RunResult last;

    std::size_t tracedOps = 0;
    std::vector<double> fullSeconds, fixedSeconds, windowSeconds, cycles,
        windowCycles;
    std::uint64_t passCycles = 0, passUops = 0, passL1d = 0, passLlc = 0,
                  passBp = 0, passRobStall = 0;
};

// --------------------------------------------------------- rack-ingress

/** Fleet-level control counts of one dispatch outcome. */
struct ControlCounts
{
    double transitions = 0, engagements = 0, shed = 0, offered = 0;

    void
    add(const sim::DispatchOutcome &d)
    {
        transitions += static_cast<double>(d.totalTransitions());
        engagements += static_cast<double>(d.totalThrottleEngagements());
        shed += static_cast<double>(d.totalShed);
        offered += static_cast<double>(d.latencyMs.count + d.totalShed);
    }
};

/**
 * One `scenario::runRack` of `rack-web-search` widened to 8 nodes x 2
 * cores and 200k requests, rotating over the four ingress policies,
 * with one node failing at half horizon. A pass visits every (policy,
 * failed node) pair; each failed node gets its own arrival stream. No
 * artifacts.
 *
 * The traced run also measures the telemetry layer here, once per pass:
 * the catalog drill `rack/quiet` (the same preset at its own size) run
 * with its report and trace written, and run bare.
 */
class RackIngress : public Workload
{
  public:
    RackIngress(std::uint64_t seed, unsigned workers, std::string dir)
        : seed(seed), workers(workers), dir(std::move(dir))
    {
    }

    void
    setup() override
    {
        scenario::Scenario s = scenario::preset("rack-web-search");
        s.nodes = 8;
        s.requests = 200000;
        s.seed = seed;
        s.threads = workers;
        const cluster::ClusterConfig quiet = scenario::lowerRack(s);
        const double horizonMs =
            static_cast<double>(quiet.requests) / quiet.arrivalRatePerMs;
        for (unsigned k = 0; k < s.nodes; ++k) {
            // Heavy-tailed demands make one stream's cost swing with the
            // seed; eight streams per pass average that out.
            scenario::Scenario group = s;
            group.seed = util::deriveSeed(seed, k);
            group.incidents = {scenario::NodeFailure{(seed + k) % s.nodes,
                                                     0.5 * horizonMs}};
            // Memoises this stream's calibration probe.
            scenario::lowerRack(group);
            for (cluster::IngressPolicy p :
                 {cluster::IngressPolicy::RoundRobin,
                  cluster::IngressPolicy::Jsq,
                  cluster::IngressPolicy::FlowAffinity,
                  cluster::IngressPolicy::ClassAware}) {
                group.ingress.policy = p;
                ops.push_back(group);
            }
        }
        // One run measures every operating point: the nodes' cores are
        // the same whatever the stream, policy or failed node.
        scenario::runRack(ops.front());
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    std::size_t passSize() const override { return ops.size(); }

    void runOp(std::size_t i) override { last = scenario::runRack(ops[i]); }

    OpOutcome
    checkOp(std::size_t i, bool breakInvariant) override
    {
        OpOutcome out;
        Digest d;
        std::uint64_t handled = 0;
        for (const sim::FleetResult &node : last.nodes) {
            const sim::DispatchOutcome &r = node.dispatch;
            handled += r.latencyMs.count + r.totalShed;
            d.u64(r.latencyMs.count);
            d.u64(r.totalShed);
            d.f64(r.latencyMs.mean);
            d.f64(r.latencyMs.p99);
            d.f64(r.elapsedMs);
        }
        const cluster::IngressStats &in = last.ingress;
        d.u64(in.decisions);
        d.u64(in.failovers);
        d.u64(in.spillovers);
        d.u64(in.signalRefreshes);
        if (breakInvariant)
            handled -= 1;
        if (handled != ops[i].requests)
            out.error = "completed + shed != offered";
        out.digest = d.value();
        out.simWork = static_cast<double>(handled);
        return out;
    }

    void
    runTracedOp(std::size_t i, std::uint64_t opId, int root,
                SpanRecorder &rec) override
    {
        double parallelS = timed(rec, "scenario.runRack[workers]", opId, root,
                                 [&] { runOp(i); });
        scenario::Scenario serialOp = ops[i];
        serialOp.threads = 1;
        cluster::ClusterResult serial;
        int serialSpan = rec.begin("scenario.runRack[serial]", opId, root);
        serial = scenario::runRack(serialOp);
        double serialS = rec.end(serialSpan);

        // Replay each node's fleet over the stream the ingress steered
        // to it, configured exactly as runCluster configures node runs.
        cluster::ClusterConfig cfg;
        lowerSeconds.push_back(timed(rec, "scenario.lowerRack", opId, root,
                                     [&] { cfg = scenario::lowerRack(serialOp); }));
        double replayS = 0.0;
        double replayed = 0.0;
        for (std::size_t j = 0; j < cfg.nodes.size(); ++j) {
            sim::FleetConfig nc = cfg.nodes[j];
            nc.classes = cfg.classes;
            nc.perClassArrivals = false;
            nc.exactTailQuantiles = cfg.exactTailQuantiles;
            nc.timelineBucketMs = cfg.timelineBucketMs;
            nc.requests = serial.injected[j].size();
            nc.injected = &serial.injected[j];
            nc.keepRecorders = true;
            nc.threads = 1;
            sim::FleetResult node;
            replayS += timed(rec, "sim.runFleet[node replay]", opId, root,
                             [&] { node = sim::runFleet(nc); });
            replayed += static_cast<double>(nc.requests);
            const sim::DispatchOutcome &a = node.dispatch;
            const sim::DispatchOutcome &b = serial.nodes[j].dispatch;
            if (a.latencyMs.count != b.latencyMs.count ||
                a.latencyMs.p99 != b.latencyMs.p99 ||
                a.totalShed != b.totalShed || a.elapsedMs != b.elapsedMs)
                ++replayMismatches;
        }
        if (i == 0)
            traceDrill(opId, root, rec);

        parallelSeconds.push_back(parallelS);
        serialSeconds.push_back(serialS);
        replaySeconds.push_back(replayS);
        replayedRequests.push_back(replayed);
        if (tracedOps++ < ops.size()) {
            const cluster::IngressStats &in = last.ingress;
            failovers += static_cast<double>(in.failovers);
            spillovers += static_cast<double>(in.spillovers);
            refreshes += static_cast<double>(in.signalRefreshes);
            double maxSteered = 0.0, total = 0.0;
            for (std::uint64_t n : in.steered) {
                maxSteered = std::max(maxSteered, static_cast<double>(n));
                total += static_cast<double>(n);
            }
            imbalance.push_back(maxSteered * static_cast<double>(
                                                 in.steered.size()) /
                                total);
            for (const sim::FleetResult &node : last.nodes)
                control.add(node.dispatch);
        }
    }

    /** The telemetry layer: `rack/quiet` with artifacts minus bare. */
    void
    traceDrill(std::uint64_t opId, int root, SpanRecorder &rec)
    {
        const scenario::Drill &d = scenario::drill("rack/quiet");
        const std::string report = dir + "/drill.report.json";
        const std::string trace = dir + "/drill.trace.json";
        scenario::DrillOutcome out;
        double instrS = timed(rec, "scenario.runDrill[artifacts]", opId, root,
                              [&] {
                                  out = scenario::runDrill(
                                      d, [&](scenario::Scenario &s) {
                                          s.seed = seed;
                                          s.threads = workers;
                                          s.reportPath = report;
                                          s.tracePath = trace;
                                      });
                              });
        double bareS = timed(rec, "scenario.runDrill[bare]", opId, root, [&] {
            scenario::runDrill(d, [&](scenario::Scenario &s) {
                s.seed = seed;
                s.threads = workers;
            });
        });
        auto fileBytes = [](const std::string &path) {
            std::error_code ec;
            const std::uintmax_t n = fs::file_size(path, ec);
            return ec ? 0.0 : static_cast<double>(n);
        };
        artifactBytes.push_back(fileBytes(report) + fileBytes(trace));
        fs::remove_all(dir);
        fs::create_directories(dir);
        obsSeconds.push_back(instrS - bareS);
        drillBareSeconds.push_back(bareS);
        drillRequests.push_back(static_cast<double>(
            out.result.dispatch.latencyMs.count + out.result.dispatch.totalShed));
    }

    LayerMetrics
    layerMetrics() const override
    {
        return {
            {"fleet.ns_per_request",
             1e9 * sum(replaySeconds) / sum(replayedRequests)},
            {"fleet.mode_transitions", control.transitions},
            {"fleet.throttle_engagements", control.engagements},
            {"fleet.shed_ratio", control.shed / control.offered},
            {"fleet.replay_mismatches", static_cast<double>(replayMismatches)},
            {"cluster.steer_ns_per_request",
             1e9 * (sum(serialSeconds) - sum(replaySeconds)) /
                 sum(replayedRequests)},
            {"cluster.parallel_speedup",
             sum(serialSeconds) / sum(parallelSeconds)},
            {"cluster.failovers", failovers},
            {"cluster.spillovers", spillovers},
            {"cluster.signal_refreshes", refreshes},
            {"cluster.node_imbalance",
             sum(imbalance) / static_cast<double>(imbalance.size())},
            {"scenario.lower_ms", 1e3 * median(lowerSeconds)},
            {"obs.ms_per_op", 1e3 * median(obsSeconds)},
            {"obs.artifact_mb_per_op",
             sum(artifactBytes) / 1e6 /
                 static_cast<double>(artifactBytes.size())},
            {"obs.bytes_per_request", sum(artifactBytes) / sum(drillRequests)},
            {"fleet.drill_bare_ms", 1e3 * median(drillBareSeconds)},
        };
    }

  private:
    std::uint64_t seed;
    unsigned workers;
    std::string dir;
    std::vector<scenario::Scenario> ops;
    cluster::ClusterResult last;

    std::size_t tracedOps = 0;
    std::uint64_t replayMismatches = 0;
    std::vector<double> parallelSeconds, serialSeconds, replaySeconds,
        replayedRequests, imbalance, lowerSeconds, obsSeconds,
        drillBareSeconds, artifactBytes, drillRequests;
    double failovers = 0, spillovers = 0, refreshes = 0;
    ControlCounts control;
};

// ----------------------------------------------------------- slack-duty

/**
 * One `queueing::simulateService` at a (service, load, duty) point of
 * the Figure 2 slack study. The duties are the bisection's endpoints
 * and its first two levels, so both the unmodulated path (duty 1) and
 * the modulator's worst case (the 0.02 floor) are in every pass.
 */
class SlackDuty : public Workload
{
  public:
    explicit SlackDuty(std::uint64_t seed) : seed(seed) {}

    /** Requests per op (plus warmup): sized so the heaviest op stays a
     *  small share of a pass. */
    static constexpr std::uint64_t kRequests = 1000;
    static constexpr std::uint64_t kWarmup = 200;

    void
    setup() override
    {
        const queueing::StudyKnobs study;
        for (const queueing::ServiceSpec &spec : queueing::allServiceSpecs()) {
            auto t0 = Clock::now();
            double peak = queueing::peakLoadRate(spec, study);
            peakSearchSeconds += secondsSince(t0);
            for (double load : {0.2, 0.5, 0.8}) {
                for (double duty : {1.0, 0.755, 0.51, 0.265, 0.02}) {
                    queueing::SimKnobs k;
                    k.requests = kRequests;
                    k.warmup = kWarmup;
                    k.seed = seed;
                    k.duty = duty;
                    k.quantumMs = study.quantumMs;
                    ops.push_back({&spec, peak * load, k});
                }
            }
        }
    }

    std::size_t passSize() const override { return ops.size(); }

    void
    runOp(std::size_t i) override
    {
        last = queueing::simulateService(*ops[i].spec, ops[i].ratePerMs,
                                         ops[i].knobs);
    }

    OpOutcome
    checkOp(std::size_t i, bool breakInvariant) override
    {
        OpOutcome out;
        queueing::LatencyResult r = last;
        if (breakInvariant)
            r.count -= 1;
        // No admission control: every offered request completes.
        if (r.count != ops[i].knobs.requests)
            out.error = "completed + shed != offered";
        if (!(r.meanMs > 0.0 && r.p50Ms <= r.p99Ms && r.p99Ms <= r.maxMs))
            out.error = "latency summary out of order";
        Digest d;
        d.u64(r.count);
        d.f64(r.meanMs);
        d.f64(r.p50Ms);
        d.f64(r.p99Ms);
        d.f64(r.p999Ms);
        d.f64(r.maxMs);
        out.digest = d.value();
        out.simWork = static_cast<double>(ops[i].knobs.requests +
                                          ops[i].knobs.warmup);
        return out;
    }

    void
    runTracedOp(std::size_t i, std::uint64_t opId, int root,
                SpanRecorder &rec) override
    {
        double s = timed(rec, "queueing.simulateService", opId, root,
                         [&] { runOp(i); });
        const Op &op = ops[i];
        double reqs = static_cast<double>(op.knobs.requests + op.knobs.warmup);
        (op.knobs.duty < 1.0 ? modulated : unmodulated).add(s, reqs);
    }

    LayerMetrics
    layerMetrics() const override
    {
        return {
            {"queueing.modulated_ns_per_request", modulated.nsPerRequest()},
            {"queueing.unmodulated_ns_per_request",
             unmodulated.nsPerRequest()},
            {"queueing.peak_search_ms", 1e3 * peakSearchSeconds},
        };
    }

  private:
    struct Op
    {
        const queueing::ServiceSpec *spec;
        double ratePerMs;
        queueing::SimKnobs knobs;
    };

    struct Rate
    {
        double seconds = 0.0, requests = 0.0;
        void
        add(double s, double r)
        {
            seconds += s;
            requests += r;
        }
        double nsPerRequest() const { return 1e9 * seconds / requests; }
    };

    std::uint64_t seed;
    std::vector<Op> ops;
    queueing::LatencyResult last;
    double peakSearchSeconds = 0.0;
    Rate modulated, unmodulated;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, unsigned workers,
             const std::string &scratchDir)
{
    if (name == "core-oppoints")
        return std::make_unique<CoreOppoints>(seed);
    if (name == "rack-ingress")
        return std::make_unique<RackIngress>(seed, workers, scratchDir);
    if (name == "slack-duty")
        return std::make_unique<SlackDuty>(seed);
    return nullptr;
}

} // namespace perfbench
