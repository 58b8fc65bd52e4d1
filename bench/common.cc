#include "common.h"

#include <cstdio>
#include <iostream>
#include <map>
#include <mutex>

#include "sim/op_point_cache.h"
#include "util/log.h"
#include "util/parallel_for.h"
#include "workload/profiles.h"

namespace stretch::bench
{

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--csv") {
            opt.csv = true;
        } else if (a == "--quick") {
            opt.quick = true;
        } else if (a == "--paper") {
            opt.paper = true;
        } else {
            STRETCH_FATAL("unknown bench flag '", a,
                          "' (expected --csv, --quick, --paper)");
        }
    }
    if (opt.quick && opt.paper)
        STRETCH_FATAL("--quick and --paper are mutually exclusive");
    sim::setQuickFactor(opt.quick ? 0.5 : 1.0);
    return opt;
}

sim::RunConfig
baseConfig(const Options &opt)
{
    sim::RunConfig cfg;
    if (opt.paper) {
        cfg.samples = 6;
        cfg.warmupOps = 15000;
        cfg.measureOps = 40000;
    } else {
        cfg.samples = 2;
        cfg.warmupOps = 6000;
        cfg.measureOps = 16000;
    }
    return cfg;
}

// Bench memoisation delegates to the process-wide OperatingPointCache,
// so figure benches and runFleet's operating-point measurements share
// one memo: a core a fleet already measured is a cache hit here too.
const sim::RunResult &
cachedRun(const sim::RunConfig &cfg)
{
    return sim::OperatingPointCache::instance().measure(cfg);
}

void
warmCache(const std::vector<sim::RunConfig> &cfgs, const std::string &label)
{
    // Dedupe the plan and drop configurations already memoized; the
    // misses run on one pool worker per hardware thread. Each simulation
    // is deterministic in its config alone, so the pool schedule cannot
    // change a result, only the wall-clock.
    sim::OperatingPointCache &cache = sim::OperatingPointCache::instance();
    std::vector<const sim::RunConfig *> misses;
    {
        std::map<std::string, const sim::RunConfig *> plan;
        for (const sim::RunConfig &cfg : cfgs) {
            if (!cache.contains(cfg))
                plan.emplace(sim::OperatingPointCache::key(cfg), &cfg);
        }
        misses.reserve(plan.size());
        for (const auto &[key, cfg] : plan)
            misses.push_back(cfg);
    }
    if (misses.empty())
        return;

    // The meter is serialized so a straggler can never print a stale
    // count over the final "done/total" line.
    std::mutex meterMutex;
    std::size_t done = 0;
    parallelFor(0, misses.size(), [&](std::size_t i) {
        cachedRun(*misses[i]);
        if (!label.empty()) {
            std::lock_guard<std::mutex> lock(meterMutex);
            progress(label, ++done, misses.size());
        }
    });
}

sim::RunConfig
isolatedConfig(const std::string &workload, const Options &opt)
{
    sim::RunConfig cfg = baseConfig(opt);
    cfg.workload0 = workload;
    cfg.workload1.clear();
    return cfg;
}

const sim::RunResult &
isolatedRun(const std::string &workload, const Options &opt)
{
    return cachedRun(isolatedConfig(workload, opt));
}

void
forEachPair(
    const std::function<void(const std::string &, const std::string &)> &fn)
{
    for (const auto &ls : workloads::latencySensitiveNames()) {
        for (const auto &batch : workloads::batchNames())
            fn(ls, batch);
    }
}

void
progress(const std::string &label, std::size_t done, std::size_t total)
{
    std::fprintf(stderr, "\r%s: %zu/%zu", label.c_str(), done, total);
    if (done == total)
        std::fprintf(stderr, "\n");
    std::fflush(stderr);
}

std::vector<std::string>
violinCells(const stats::ViolinSummary &v, int precision)
{
    return {
        stats::Table::pct(v.mean, precision),
        stats::Table::pct(v.median, precision),
        stats::Table::pct(v.q1, precision),
        stats::Table::pct(v.q3, precision),
        stats::Table::pct(v.min, precision),
        stats::Table::pct(v.max, precision),
    };
}

std::vector<std::string>
violinHeader(const std::string &prefix)
{
    return {prefix + " mean", prefix + " med", prefix + " q1",
            prefix + " q3",   prefix + " min", prefix + " max"};
}

void
emit(const stats::Table &table, const Options &opt)
{
    table.print(std::cout);
    std::cout << '\n';
    if (opt.csv) {
        table.printCsv(std::cout);
        std::cout << '\n';
    }
}

} // namespace stretch::bench
