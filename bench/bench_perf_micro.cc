/**
 * @file
 * Simulator performance microbenchmarks (google-benchmark): throughput of
 * the main building blocks, useful for tracking regressions in the
 * simulation infrastructure itself.
 *
 * The `BM_Engine*` / `BM_Dispatch*` / `BM_Cluster*` benches are the
 * end-to-end event engine throughput trajectory: `items_per_second` is
 * simulated requests per wall-clock second (each iteration processes a
 * fixed request count). The `BM_Core*` benches track the cycle-level
 * core: simulated cycles per second, and cold operating points per
 * second. The `BM_Queueing*` benches track the single-service request
 * simulator, with and without the duty-cycle modulator. Snapshots are
 * committed as `BENCH_baseline.json` via `tools/bench_to_json.py` and
 * guarded by `tools/bench_regression_check.py` in the CI bench job.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bp/branch_unit.h"
#include "common.h"
#include "cache/memory_hierarchy.h"
#include "cluster/cluster.h"
#include "core/smt_core.h"
#include "queueing/arrivals.h"
#include "queueing/event_engine.h"
#include "queueing/request_sim.h"
#include "sim/fleet.h"
#include "sim/runner.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/service_class.h"

using namespace stretch;

namespace
{

void
BM_GeneratorNext(benchmark::State &state)
{
    TraceGenerator gen(workloads::byName("web_search"), 7, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeneratorNext);

void
BM_BranchPredict(benchmark::State &state)
{
    BranchUnit bp;
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.predict(0, pc, false));
        bp.update(0, pc, (pc & 4) != 0, pc + 64, false, false);
        pc = (pc + 4) & 0xffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredict);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{64 * 1024, 8, 2, {}});
    Addr a = 0;
    bool dirty = false;
    for (auto _ : state) {
        if (!cache.access(0, a))
            cache.insert(0, a, false, dirty);
        a = (a + 4096 + 64) & 0xfffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CoreCycleColocated(benchmark::State &state)
{
    HierarchyConfig hcfg;
    MemoryHierarchy mem(hcfg);
    BranchUnit bp;
    CoreParams params;
    SmtCore core(params, mem, bp);
    TraceGenerator g0(workloads::byName("web_search"), 1, 0);
    TraceGenerator g1(workloads::byName("zeusmp"), 2, 1);
    mem.prefillLlc(0, g0.steadyStateBlocks());
    mem.prefillLlc(1, g1.steadyStateBlocks());
    core.attachThread(0, &g0);
    core.attachThread(1, &g1);
    core.run(5000); // prime the pipeline
    for (auto _ : state)
        core.cycle();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreCycleColocated);

/** One cold operating point: a serial sim::run of web_search + mcf at
 *  the figure benches' default sampling (no op-point cache).
 *  items_per_second is operating points per second. */
void
BM_CoreRunColdOpPoint(benchmark::State &state)
{
    sim::RunConfig cfg = bench::baseConfig(bench::Options{});
    cfg.workload0 = "web_search";
    cfg.workload1 = "mcf";
    cfg.parallelism = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::run(cfg));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreRunColdOpPoint)->Unit(benchmark::kMillisecond);

void
BM_QueueingRequest(benchmark::State &state)
{
    using namespace queueing;
    const ServiceSpec &spec = serviceSpec("web_search");
    for (auto _ : state) {
        SimKnobs knobs;
        knobs.requests = 2000;
        knobs.warmup = 100;
        benchmark::DoNotOptimize(simulateService(spec, 0.1, knobs));
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_QueueingRequest);

/** BM_QueueingRequest's run with the core duty-cycled: every request goes
 *  through DutyCycleModulator::finish. */
void
BM_QueueingServiceDuty(benchmark::State &state, double duty)
{
    using namespace queueing;
    const ServiceSpec &spec = serviceSpec("web_search");
    for (auto _ : state) {
        SimKnobs knobs;
        knobs.requests = 2000;
        knobs.warmup = 100;
        knobs.duty = duty;
        benchmark::DoNotOptimize(simulateService(spec, 0.1, knobs));
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK_CAPTURE(BM_QueueingServiceDuty, duty_0_265, 0.265);
BENCHMARK_CAPTURE(BM_QueueingServiceDuty, duty_0_02, 0.02);

// ---------------------------------------------------------------------------
// End-to-end engine throughput (simulated requests per second).
//
// These drive the bare EventEngine with realistic callback shapes at
// ~80% utilisation; items_per_second is the headline
// simulated-requests-per-second number the perf trajectory tracks.

constexpr std::uint64_t engineRequests = 200000;

/// One-class workload shape: Poisson arrivals at 4 req/ms into 8
/// servers, exponential demand with mean 1.6 ms -> ~80% utilisation.
constexpr double oneClassRate = 4.0;

/** One-class policy: least-free placement over the pool, counting
 *  completions into @p completed. */
auto
makeOneClassPolicy(queueing::EventEngine &engine, Rng &rng,
                   queueing::PoissonArrivals &arrivals,
                   std::uint64_t &completed)
{
    using namespace queueing;
    auto policy = makePolicy(
        [&rng, &arrivals] {
            return EventEngine::Arrival{arrivals.next(rng), 0};
        },
        [&rng](std::uint32_t) { return rng.exponential(1.6); },
        [&engine](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [](std::size_t, double start, double demand) {
            return start + demand;
        },
        [&completed](const Completion &) { ++completed; });
    policy.rateHint = oneClassRate;
    return policy;
}

/** One-class Poisson arrivals into an 8-server FCFS pool. */
void
BM_EngineOneClassPoisson(benchmark::State &state)
{
    using namespace queueing;
    EventEngine engine(8);
    for (auto _ : state) {
        Rng rng(42, 0xbe7c);
        PoissonArrivals arrivals(oneClassRate);
        std::uint64_t completed = 0;
        auto policy = makeOneClassPolicy(engine, rng, arrivals, completed);
        engine.run(engineRequests, policy);
        benchmark::DoNotOptimize(completed);
    }
    state.SetItemsProcessed(state.iterations() * engineRequests);
}
BENCHMARK(BM_EngineOneClassPoisson);

/** Eight superposed per-class streams (mixed Poisson/MMPP) through the
 *  tournament-tree merge. */
void
BM_EngineEightClassSuperposition(benchmark::State &state)
{
    using namespace queueing;
    constexpr std::size_t servers = 8;
    constexpr std::size_t classes = 8;
    EventEngine engine(servers);
    for (auto _ : state) {
        Rng rng(42, 0xd00d);
        std::vector<ClassArrivalSuperposition::Stream> streams;
        streams.reserve(classes);
        for (std::size_t k = 0; k < classes; ++k) {
            double rate = 0.5;
            ArrivalProcess p =
                k % 2 ? ArrivalProcess::mmpp(rate, 4.0, 200.0, 40.0)
                      : ArrivalProcess::poisson(rate);
            streams.push_back({std::move(p), Rng(42, mixSeed(0xa221, k))});
        }
        ClassArrivalSuperposition sup(std::move(streams));
        std::uint64_t completed = 0;
        auto policy = makePolicy(
            [&] { return sup.next(); },
            [&](std::uint32_t) { return rng.exponential(1.6); },
            [&](double, double, std::uint32_t) {
                return engine.leastFreeServer();
            },
            [](std::size_t, double start, double demand) {
                return start + demand;
            },
            [&](const Completion &) { ++completed; });
        policy.rateHint = 4.0;
        engine.run(engineRequests, policy);
        benchmark::DoNotOptimize(completed);
    }
    state.SetItemsProcessed(state.iterations() * engineRequests);
}
BENCHMARK(BM_EngineEightClassSuperposition);

/** Quantum-control-heavy: ~5 boundaries per arrival, with backlog reads
 *  and occasional capacity charges at each — the dynamic-mode-control
 *  event mix. */
void
BM_EngineQuantumControlHeavy(benchmark::State &state)
{
    using namespace queueing;
    constexpr std::size_t servers = 8;
    constexpr double rate = 4.0;
    EventEngine engine(servers);
    for (auto _ : state) {
        Rng rng(42, 0x9a17);
        PoissonArrivals arrivals(rate);
        double backlogSum = 0.0;
        auto policy = makePolicy(
            [&] { return EventEngine::Arrival{arrivals.next(rng), 0}; },
            [&](std::uint32_t) { return rng.exponential(1.6); },
            [&](double, double, std::uint32_t) {
                return engine.leastFreeServer();
            },
            [](std::size_t, double start, double demand) {
                return start + demand;
            },
            NoopComplete{}, NoopShed{},
            [&](double boundary) {
                for (std::size_t s = 0; s < servers; ++s)
                    backlogSum += engine.backlogMs(s, boundary);
                if (rng.uniform() < 0.01)
                    engine.chargeCapacity(rng.below(servers), boundary, 0.2);
            });
        // 1/(rate*quantum) = 5 boundaries/arrival
        policy.quantum = 0.05;
        policy.rateHint = rate;
        engine.run(engineRequests / 4, policy);
        benchmark::DoNotOptimize(backlogSum);
    }
    state.SetItemsProcessed(state.iterations() * (engineRequests / 4));
}
BENCHMARK(BM_EngineQuantumControlHeavy);

/** Full fleet dispatcher end-to-end (placement policy, per-request
 *  lambdas, latency accounting) — the cost the fleet and scenario
 *  layers actually pay per simulated request. */
void
BM_DispatchEightCoreFleet(benchmark::State &state)
{
    sim::DispatchConfig cfg;
    cfg.rates.assign(8, sim::ModeRates::flat(0.55));
    cfg.requests = engineRequests / 4;
    cfg.policy = sim::PlacementPolicy::LeastLoaded;
    cfg.seed = 42;
    for (auto _ : state) {
        sim::DispatchOutcome out = sim::dispatchRequests(cfg);
        benchmark::DoNotOptimize(out.elapsedMs);
    }
    state.SetItemsProcessed(state.iterations() * cfg.requests);
}
BENCHMARK(BM_DispatchEightCoreFleet);

/** The same fleet under Stretch's dynamic control: two service classes,
 *  every completion feeding its class's CPI²-style monitor on its core,
 *  and the mode ladder run every 0.5 ms. This is the dispatch a rack
 *  node runs; Static control, as above, builds no monitor. */
void
BM_DispatchSlackDrivenClasses(benchmark::State &state)
{
    sim::DispatchConfig cfg;
    cfg.rates.assign(8, sim::ModeRates{0.55, 0.5, 0.6, 0.65});
    cfg.requests = engineRequests / 4;
    cfg.policy = sim::PlacementPolicy::LeastLoaded;
    cfg.classes =
        workloads::ServiceClassRegistry::searchAnalyticsPair(8.0, 80.0);
    cfg.control.kind = sim::ModePolicyKind::SlackDriven;
    cfg.control.quantumMs = 0.5;
    cfg.seed = 42;
    for (auto _ : state) {
        sim::DispatchOutcome out = sim::dispatchRequests(cfg);
        benchmark::DoNotOptimize(out.elapsedMs);
    }
    state.SetItemsProcessed(state.iterations() * cfg.requests);
}
BENCHMARK(BM_DispatchSlackDrivenClasses);

/** Whole-rack run end-to-end: JSQ(2) ingress steering over four 2-core
 *  nodes plus the per-node engines — the cost the cluster layer adds
 *  per simulated request. Node operating points are measured once (the
 *  process-wide cache) so iterations time steering + node execution,
 *  not calibration. */
void
BM_ClusterJsq2FourNodes(benchmark::State &state)
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "zeusmp";
    core.samples = 2;
    core.warmupOps = 2000;
    core.measureOps = 5000;
    cluster::ClusterConfig cfg =
        cluster::homogeneousCluster(4, sim::homogeneousFleet(2, core));
    cfg.requests = engineRequests / 4;
    cfg.burstRatio = 2.0;
    cfg.ingress.policy = cluster::IngressPolicy::Jsq;
    cfg.ingress.probes = 2;
    cfg.threads = 1; // serial: time the work, not the pool
    for (auto _ : state) {
        cluster::ClusterResult out = cluster::runCluster(cfg);
        benchmark::DoNotOptimize(out.merged.dispatch.elapsedMs);
    }
    state.SetItemsProcessed(state.iterations() * cfg.requests);
}
BENCHMARK(BM_ClusterJsq2FourNodes);

} // namespace

BENCHMARK_MAIN();
