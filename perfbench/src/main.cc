/**
 * @file
 * perfbench: runs one benchmark workload in this process and prints one
 * JSON result line. `perfbench/run.py` builds this program, starts it
 * once per measurement (so caches and peak RSS never carry over between
 * workloads) and assembles the metrics the benchmark reports.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--setup-only] [--break-invariant] [--break-attribution]
 *             [--min-ops N] [--out DIR]
 *
 * Phases: setup (input generation and cache warming; setup_s counts
 * from process start), the timed closed loop (whole passes over the op
 * list, about S seconds), then an untimed verification pass at the
 * default seed whose digest run.py compares with the recorded one. With
 * --trace 1 the timed loop is split: a third untraced, two thirds
 * traced with spans. --setup-only stops after setup, so that run.py can
 * time further cold setups, each in a fresh process.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/json.h"
#include "sim/op_point_cache.h"
#include "sim/runner.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace obs = stretch::obs;
namespace sim = stretch::sim;

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %zu, \"name\": \"%s\", \"op\": %" PRIu64
                      ", \"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}",
                      i, s.name.c_str(), s.op, s.parent, s.startS, s.endS);
        out << buf << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    bool breakInvariant = false;
    bool breakAttribution = false;
    /** Timed-phase floor: 100 ops leave at least 10 beyond p90. */
    std::size_t minOps = 100;
    std::string out = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--setup-only] [--break-invariant] "
                 "[--break-attribution] [--min-ops N] [--out DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(value().c_str(), nullptr);
        else if (k == "--trace")
            a.trace = value() == "1";
        else if (k == "--out")
            a.out = value();
        else if (k == "--min-ops")
            a.minOps = std::strtoull(value().c_str(), nullptr, 10);
        else if (k == "--setup-only")
            a.setupOnly = true;
        else if (k == "--break-invariant")
            a.breakInvariant = true;
        else if (k == "--break-attribution")
            a.breakAttribution = true;
        else
            usage(("unknown flag " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/**
 * Percentile of @p v with linear interpolation between order statistics
 * (type 7). Op costs cluster by op kind, and a nearest-rank percentile
 * falling between two clusters would jump from one to the other on
 * timer noise alone.
 */
double
percentile(std::vector<double> v, double pct)
{
    std::sort(v.begin(), v.end());
    const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Tallies of one closed-loop phase. */
struct Phase
{
    std::vector<double> opMs;
    double wallS = 0.0;
    double simWork = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t oppointMisses = 0;
    std::uint64_t oppointHits = 0;
    std::uint64_t firstPassDigest = 0;
    std::uint64_t selfTimeViolations = 0;
    double maxUnaccountedFrac = 0.0;
    std::vector<std::string> errors;

    double opsPerS() const { return static_cast<double>(opMs.size()) / wallS; }

    void
    fail(const std::string &what)
    {
        ++failed;
        if (errors.size() < 5)
            errors.push_back(what);
    }
};

/**
 * What a traced op's root span may hold beyond its child calls: the
 * harness's glue between them (config copies, output comparisons,
 * artifact clean-up), at most 0.5 ms plus 1 % of the op.
 */
constexpr double kGlueS = 5e-4;
constexpr double kGlueFrac = 0.01;

/** Faults the self-test injects to show that the checks catch them. */
struct Faults
{
    /** Corrupt the first op's output before its check. */
    bool invariant = false;
    /** Do untraced work inside the first traced op's root span. */
    bool attribution = false;
};

/**
 * Run whole passes for about @p budgetS seconds (at least @p minOps
 * ops, at least one pass). The pass count is fixed after the first
 * pass, so every run measures the same op mix whatever the host speed.
 * With @p rec set each op runs traced.
 */
Phase
runPhase(Workload &w, double budgetS, std::size_t minOps, Faults faults,
         SpanRecorder *rec)
{
    sim::OperatingPointCache &cache = sim::OperatingPointCache::instance();
    Phase ph;
    const std::size_t n = w.passSize();
    std::size_t passes = 1;
    Digest passDigest;
    auto t0 = Clock::now();
    for (std::size_t pass = 0; pass < passes; ++pass) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t misses0 = cache.misses();
            const std::uint64_t hits0 = cache.hits();
            const std::uint64_t opId = ph.attempted;
            double opS = 0.0;
            if (rec == nullptr) {
                auto ts = Clock::now();
                w.runOp(i);
                opS = secondsSince(ts);
            } else {
                const int root = rec->begin("op", opId);
                w.runTracedOp(i, opId, root, *rec);
                if (faults.attribution && opId == 0) {
                    const auto until =
                        Clock::now() + std::chrono::milliseconds(20);
                    while (Clock::now() < until) {
                    }
                }
                opS = rec->end(root);
                // The child calls must account for the op's span: time
                // outside them is work no layer is charged for.
                const double unaccounted = std::abs(rec->unaccountedS(root));
                if (unaccounted > kGlueS + kGlueFrac * opS)
                    ++ph.selfTimeViolations;
                ph.maxUnaccountedFrac =
                    std::max(ph.maxUnaccountedFrac, unaccounted / opS);
            }
            ++ph.attempted;
            ph.opMs.push_back(1e3 * opS);
            const std::uint64_t missed = cache.misses() - misses0;
            ph.oppointMisses += missed;
            ph.oppointHits += cache.hits() - hits0;

            OpOutcome o = w.checkOp(i, faults.invariant && opId == 0);
            ph.simWork += o.simWork;
            if (missed > 0)
                o.error = "operating-point cache miss in the timed phase";
            if (!o.error.empty())
                ph.fail("op " + std::to_string(i) + ": " + o.error);
            if (pass == 0)
                passDigest.u64(o.digest);
        }
        if (pass == 0) {
            ph.firstPassDigest = passDigest.value();
            const double passS = secondsSince(t0);
            const std::size_t byOps = (minOps + n - 1) / n;
            const auto byTime =
                static_cast<std::size_t>(std::lround(budgetS / passS));
            passes = std::max<std::size_t>({1, byOps, byTime});
        }
    }
    ph.wallS = secondsSince(t0);
    return ph;
}

void
printEnvelope(obs::JsonWriter &j, const Args &a)
{
    j.field("workload", a.workload);
    j.field("seed", static_cast<std::uint64_t>(a.seed));
    j.field("build_type", PERFBENCH_BUILD_TYPE);
    j.field("compiler", __VERSION__);
    j.field("nproc", static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency()));
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const auto processStart = Clock::now();
    const Args a = parseArgs(argc, argv);

    // Pin what is measured: both variables silently change the
    // simulated work (and the second one loads and saves operating
    // points behind the benchmark's back).
    for (const char *var : {"STRETCH_QUICK_FACTOR", "STRETCH_OPPOINT_CACHE"}) {
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         var);
            return 2;
        }
    }
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to time a build without "
                         "NDEBUG (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    sim::setQuickFactor(1.0);

    const unsigned workers =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    const std::string scratch = a.out + "/scratch-" + a.workload;
    std::unique_ptr<Workload> w =
        makeWorkload(a.workload, a.seed, workers, scratch);
    if (!w)
        usage(("unknown workload " + a.workload).c_str());
    w->setup();
    const double setupS = secondsSince(processStart);

    obs::JsonWriter j;
    j.beginObject();
    printEnvelope(j, a);
    j.field("setup_s", setupS);
    if (a.setupOnly) {
        j.endObject();
        std::printf("%s\n", j.str().c_str());
        return 0;
    }

    const double untracedBudget = a.trace ? a.seconds / 3.0 : a.seconds;
    Phase timed = runPhase(*w, untracedBudget, a.trace ? 0 : a.minOps,
                           {a.breakInvariant, false}, nullptr);
    const double rssMb = peakRssMb();
    SpanRecorder rec;
    Phase traced;
    if (a.trace)
        traced = runPhase(*w, a.seconds - untracedBudget, 0,
                          {false, a.breakAttribution}, &rec);

    // Verification pass at the default seed (reusing the timed first
    // pass when the run is at the default seed).
    Phase verify;
    std::uint64_t digest = timed.firstPassDigest;
    if (a.seed != kDefaultSeed) {
        std::unique_ptr<Workload> ref =
            makeWorkload(a.workload, kDefaultSeed, workers, scratch);
        ref->setup();
        verify = runPhase(*ref, 0.0, 0, {}, nullptr);
        digest = verify.firstPassDigest;
    }

    const double p90 = percentile(timed.opMs, 90.0);
    const auto beyond = static_cast<std::uint64_t>(
        std::count_if(timed.opMs.begin(), timed.opMs.end(),
                      [&](double ms) { return ms > p90; }));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);

    j.field("attempted", timed.attempted + traced.attempted + verify.attempted);
    j.field("failed", timed.failed + traced.failed + verify.failed);
    j.key("errors");
    j.beginArray();
    for (const Phase *ph : {&timed, &traced, &verify})
        for (const std::string &e : ph->errors)
            j.value(e);
    j.endArray();
    j.field("digest", std::string(hex));
    j.field("verify_ops", verify.attempted ? verify.attempted
                                           : static_cast<std::uint64_t>(
                                                 w->passSize()));
    j.field("timed_s", timed.wallS);
    j.field("ops", static_cast<std::uint64_t>(timed.opMs.size()));
    j.field("ops_per_s", timed.opsPerS());
    j.field("op_ms_p50", percentile(timed.opMs, 50.0));
    j.field("op_ms_p90", p90);
    j.field("op_ms_p90_beyond", beyond);
    j.field("sim_work_per_s", timed.simWork / timed.wallS);
    j.field("peak_rss_mb", rssMb);
    j.field("oppoint_misses", timed.oppointMisses);
    j.field("oppoint_hits", timed.oppointHits);
    if (a.trace) {
        LayerMetrics layers = w->layerMetrics();
        const double lookups =
            static_cast<double>(traced.oppointHits + traced.oppointMisses);
        layers["process.peak_rss_mb"] = rssMb;
        layers["oppoint.misses"] = static_cast<double>(traced.oppointMisses);
        layers["oppoint.hit_ratio"] =
            lookups > 0.0 ? static_cast<double>(traced.oppointHits) / lookups
                          : 1.0;
        layers["trace.ops_per_s_delta"] = traced.opsPerS() - timed.opsPerS();
        layers["trace.self_time_violations"] =
            static_cast<double>(traced.selfTimeViolations);
        j.key("layers");
        j.beginObject();
        for (const auto &[name, value] : layers)
            j.field(name, value);
        j.endObject();
        j.field("unaccounted_frac_max", traced.maxUnaccountedFrac);
        const std::string spans = a.out + "/spans-" + a.workload + "-" +
                                  std::to_string(a.seed) + ".json";
        if (!rec.writeJson(spans)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", spans.c_str());
            return 1;
        }
        j.field("spans", spans);
    }
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}
