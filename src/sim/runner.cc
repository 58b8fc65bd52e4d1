#include "sim/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "util/log.h"
#include "util/parallel_for.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace stretch::sim
{

namespace
{

/**
 * Sampling-scale factor; 1.0 unless overridden. Initialised once from
 * the STRETCH_QUICK_FACTOR environment variable so flag-less programs
 * (the examples, CI smoke runs) can be scaled down without code
 * changes; `setQuickFactor` (the benches' --quick/--paper flags) takes
 * precedence once called. Out-of-range env values fall back to 1.0.
 */
double g_quickFactor = [] {
    const char *env = std::getenv("STRETCH_QUICK_FACTOR");
    if (!env)
        return 1.0;
    char *end = nullptr;
    double f = std::strtod(env, &end);
    return end != env && f > 0.0 && f <= 1.0 ? f : 1.0;
}();

std::uint64_t
hashName(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** LSQ limit proportional to a ROB limit (min 4). */
unsigned
lsqShare(unsigned rob_limit, unsigned rob_total, unsigned lsq_total)
{
    return std::max(4u, rob_limit * lsq_total / rob_total);
}

} // namespace

void
setQuickFactor(double factor)
{
    STRETCH_ASSERT(factor > 0.0 && factor <= 1.0,
                   "quick factor must be in (0,1]");
    g_quickFactor = factor;
}

double
quickFactor()
{
    return g_quickFactor;
}

RobSetup
robSetupFor(StretchMode mode, const SkewConfig &bmode, const SkewConfig &qmode)
{
    RobSetup setup;
    switch (mode) {
      case StretchMode::Baseline:
        setup.kind = RobConfigKind::EqualPartition;
        break;
      case StretchMode::BatchBoost:
        setup.kind = RobConfigKind::Asymmetric;
        setup.limit0 = bmode.lsRobEntries;
        setup.limit1 = bmode.batchRobEntries;
        break;
      case StretchMode::QosBoost:
        setup.kind = RobConfigKind::Asymmetric;
        setup.limit0 = qmode.lsRobEntries;
        setup.limit1 = qmode.batchRobEntries;
        break;
    }
    return setup;
}

double
RunResult::mlpAtLeast(ThreadId tid, unsigned n) const
{
    std::uint64_t total = 0, at_least = 0;
    for (unsigned i = 0; i < stats[tid].mlpCycles.size(); ++i) {
        total += stats[tid].mlpCycles[i];
        if (i >= n)
            at_least += stats[tid].mlpCycles[i];
    }
    return total ? static_cast<double>(at_least) /
                       static_cast<double>(total)
                 : 0.0;
}

double
RunResult::branchMpki(ThreadId tid) const
{
    if (stats[tid].committedOps == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(stats[tid].branchMispredicts) /
           static_cast<double>(stats[tid].committedOps);
}

double
RunResult::l1dMpki(ThreadId tid) const
{
    if (stats[tid].committedOps == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(l1dMissCount[tid]) /
           static_cast<double>(stats[tid].committedOps);
}

RunResult
run(const RunConfig &cfg)
{
    STRETCH_ASSERT(!cfg.workload0.empty(), "thread 0 needs a workload");
    bool colocated = !cfg.workload1.empty();

    // Scale sampling effort by the quick factor.
    unsigned samples = std::max(
        1u, static_cast<unsigned>(std::lround(cfg.samples * g_quickFactor)));
    auto warmup_ops = static_cast<std::uint64_t>(
        std::max(2000.0, cfg.warmupOps * g_quickFactor));
    auto measure_ops = static_cast<std::uint64_t>(
        std::max(5000.0, cfg.measureOps * g_quickFactor));

    // ---- Machine configuration -------------------------------------
    // An isolated run gets the full machine (see RunConfig::workload1).
    HierarchyConfig hcfg;
    hcfg.sharedL1i = cfg.shareL1i;
    hcfg.sharedL1d = cfg.shareL1d;
    if (!colocated) {
        hcfg.llcWayPartition = {hcfg.llcAssoc, 0};
        hcfg.mshrQuota = {hcfg.mshrs, hcfg.mshrs};
    } else {
        hcfg.llcWayPartition = {hcfg.llcAssoc / 2, hcfg.llcAssoc / 2};
        if (cfg.shareL1d) {
            // Table II: 10 MSHRs, 5 per thread.
            hcfg.mshrQuota = {hcfg.mshrs / 2, hcfg.mshrs / 2};
        } else {
            // Private full-size L1-Ds each own a full MSHR file.
            hcfg.mshrQuota = {hcfg.mshrs, hcfg.mshrs};
        }
    }

    BranchUnitConfig bcfg;
    bcfg.sharedTables = cfg.shareBp;

    CoreParams params;
    params.robEntries = cfg.robEntries;
    params.lsqEntries = cfg.lsqEntries;
    params.fetchPolicy = cfg.fetchPolicy;
    params.throttleRatio = cfg.throttleRatio;
    params.throttledThread = cfg.throttledThread;

    const SynthProfile &prof0 = workloads::byName(cfg.workload0);
    const SynthProfile *prof1 =
        colocated ? &workloads::byName(cfg.workload1) : nullptr;

    // ---- Sampling loop ----------------------------------------------
    // Each sample is a fully independent machine whose seed depends only
    // on (cfg.seed, sample index), so samples can run on parallel threads.
    // Outcomes land in index-addressed slots and are reduced in sample
    // order below, making the result bit-identical for any parallelism.
    struct SampleOutcome
    {
        std::array<double, numSmtThreads> uipc{};
        std::array<ThreadStats, numSmtThreads> stats{};
        std::array<std::uint64_t, numSmtThreads> l1dMisses{};
        std::array<std::uint64_t, numSmtThreads> l1iMisses{};
        std::array<std::uint64_t, numSmtThreads> llcMisses{};
        std::uint64_t windowCycles = 0;
    };

    auto warmup_cycles = static_cast<std::uint64_t>(
        std::max(10000.0, cfg.warmupCycles * g_quickFactor));

    auto runSample = [&](unsigned s, SampleOutcome &out) {
        std::uint64_t sample_seed = mixSeed(cfg.seed, s);

        MemoryHierarchy mem(hcfg);
        BranchUnit bp(bcfg);
        SmtCore core(params, mem, bp);

        // Program the window partitioning.
        unsigned rob_total = cfg.robEntries;
        unsigned lsq_total = cfg.lsqEntries;
        switch (cfg.rob.kind) {
          case RobConfigKind::EqualPartition:
            if (!colocated) {
                unsigned rob = cfg.isolatedRobOverride
                                   ? cfg.isolatedRobOverride
                                   : rob_total;
                core.configureRob(ShareMode::Partitioned, rob, rob);
                core.configureLsq(ShareMode::Partitioned,
                                  lsqShare(rob, rob_total, lsq_total),
                                  lsqShare(rob, rob_total, lsq_total));
            } else {
                core.configureRob(ShareMode::Partitioned, rob_total / 2,
                                  rob_total / 2);
                core.configureLsq(ShareMode::Partitioned, lsq_total / 2,
                                  lsq_total / 2);
            }
            break;
          case RobConfigKind::Asymmetric:
            core.configureRob(ShareMode::Partitioned, cfg.rob.limit0,
                              cfg.rob.limit1);
            core.configureLsq(ShareMode::Partitioned,
                              lsqShare(cfg.rob.limit0, rob_total, lsq_total),
                              lsqShare(cfg.rob.limit1, rob_total,
                                       lsq_total));
            break;
          case RobConfigKind::DynamicShared:
            core.configureRob(ShareMode::Dynamic, rob_total, rob_total);
            core.configureLsq(ShareMode::Dynamic, lsq_total, lsq_total);
            break;
          case RobConfigKind::PrivateFull:
            core.configureRob(ShareMode::Partitioned, rob_total, rob_total);
            core.configureLsq(ShareMode::Partitioned, lsq_total, lsq_total);
            break;
        }

        // Matched sampling points: the stream seed depends on the
        // workload and the sample index only, never on the co-runner.
        TraceGenerator gen0(prof0, mixSeed(sample_seed, hashName(prof0.name)),
                            0);
        mem.prefillLlc(0, gen0.steadyStateBlocks());
        core.attachThread(0, &gen0);

        std::unique_ptr<TraceGenerator> gen1;
        if (colocated) {
            gen1 = std::make_unique<TraceGenerator>(
                *prof1, mixSeed(sample_seed, hashName(prof1->name)), 1);
            mem.prefillLlc(1, gen1->steadyStateBlocks());
            core.attachThread(1, gen1.get());
        }

        // Warmup: every attached thread must retire warmup_ops, and at
        // least warmup_cycles must elapse (see RunConfig::warmupCycles).
        std::uint64_t cap = warmup_ops * 400 + 2000000;
        core.runUntilCommitted(0, warmup_ops, cap);
        if (colocated && core.stats(1).committedOps < warmup_ops) {
            core.runUntilCommitted(
                1, warmup_ops - core.stats(1).committedOps, cap);
        }
        while (core.now() < warmup_cycles)
            core.run(std::min<std::uint64_t>(1000, warmup_cycles -
                                                       core.now()));

        // Measurement window: run until the slowest thread has retired
        // measure_ops instructions.
        core.clearStats();
        mem.clearStats();
        bp.clearStats();
        cap = measure_ops * 600 + 4000000;
        core.runUntilCommitted(0, measure_ops, cap);
        if (colocated && core.stats(1).committedOps < measure_ops) {
            core.runUntilCommitted(
                1, measure_ops - core.stats(1).committedOps, cap);
        }

        // Capture this sample's outcome into its slot.
        for (ThreadId t = 0; t < numSmtThreads; ++t) {
            out.uipc[t] = core.uipc(t);
            out.stats[t] = core.stats(t);
            out.l1dMisses[t] = mem.l1dMisses(t);
            out.l1iMisses[t] = mem.l1iMisses(t);
            out.llcMisses[t] = mem.llcMisses(t);
        }
        out.windowCycles = core.windowCycles();
    };

    std::vector<SampleOutcome> outcomes(samples);
    parallelFor(cfg.parallelism, samples, [&](std::size_t s) {
        runSample(static_cast<unsigned>(s), outcomes[s]);
    });

    // Ordered reduction: identical arithmetic to the historical serial
    // loop, so parallelism never changes a reported number.
    RunResult agg;
    for (unsigned s = 0; s < samples; ++s) {
        const SampleOutcome &out = outcomes[s];
        for (ThreadId t = 0; t < numSmtThreads; ++t) {
            agg.uipc[t] += out.uipc[t] / samples;
            const ThreadStats &st = out.stats[t];
            ThreadStats &dst = agg.stats[t];
            dst.committedOps += st.committedOps;
            dst.fetchedOps += st.fetchedOps;
            dst.branches += st.branches;
            dst.branchMispredicts += st.branchMispredicts;
            dst.btbTargetMisses += st.btbTargetMisses;
            dst.loads += st.loads;
            dst.stores += st.stores;
            dst.dispatchStallRob += st.dispatchStallRob;
            dst.dispatchStallLsq += st.dispatchStallLsq;
            dst.robOccupancySum += st.robOccupancySum;
            dst.fetchStallICache += st.fetchStallICache;
            dst.fetchStallBranchResolve += st.fetchStallBranchResolve;
            dst.fetchStallBtbRedirect += st.fetchStallBtbRedirect;
            for (std::size_t i = 0; i < st.mlpCycles.size(); ++i)
                dst.mlpCycles[i] += st.mlpCycles[i];
            agg.l1dMissCount[t] += out.l1dMisses[t];
            agg.l1iMissCount[t] += out.l1iMisses[t];
            agg.llcMissCount[t] += out.llcMisses[t];
        }
        agg.totalCycles += out.windowCycles;
    }
    return agg;
}

RunResult
runIsolated(const std::string &workload, const RunConfig &base)
{
    RunConfig cfg = base;
    cfg.workload0 = workload;
    cfg.workload1.clear();
    cfg.rob.kind = RobConfigKind::EqualPartition;
    return run(cfg);
}

RunResult
runIsolatedWithRob(const std::string &workload, unsigned rob_entries,
                   const RunConfig &base)
{
    RunConfig cfg = base;
    cfg.workload0 = workload;
    cfg.workload1.clear();
    cfg.rob.kind = RobConfigKind::EqualPartition;
    cfg.isolatedRobOverride = rob_entries;
    return run(cfg);
}

} // namespace stretch::sim
