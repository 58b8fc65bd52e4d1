/**
 * @file
 * Benchmark harness shared by the workloads: host clock, the
 * in-memory span recorder of the traced run, per-op outcomes, the
 * output digest, and the per-layer metric sink.
 *
 * The benchmark treats the simulator as a library: every timed op is a
 * call into one layer's public function, and spans are recorded here,
 * around those calls, never inside the simulator.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** The seed the recorded digests and the drill verdicts refer to: the
 *  presets' own dispatch seed, so a default-seed run is the catalog run. */
constexpr std::uint64_t kDefaultSeed = 42;

/** Seconds elapsed since @p t0 on the host clock. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a over raw bytes, chained: digests of simulated outputs. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    /** Exact bit pattern of a double (no rounding hides a change). */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** What one op produced, as checked after its timer stopped. */
struct OpOutcome
{
    /** Empty when every invariant held; else the first violation. */
    std::string error;
    /** Simulated work: window cycles (core) or requests completed or
     *  shed (every other workload). */
    double simWork = 0.0;
    /** Digest of the op's simulated outputs. */
    std::uint64_t digest = 0;
};

/** One recorded span of the traced run. */
struct Span
{
    std::string name;
    double startS = 0.0; ///< host seconds since the recorder was created
    double endS = 0.0;
    int parent = -1;     ///< index of the enclosing span; -1 for a root
    std::uint64_t op = 0;
};

/**
 * Spans kept in memory for the whole traced run and written once at
 * the end (so recording never does I/O inside a timed op).
 */
class SpanRecorder
{
  public:
    SpanRecorder() : t0(Clock::now()) {}

    /** Open a span; returns its index for end(). */
    int
    begin(const std::string &name, std::uint64_t op, int parent = -1)
    {
        spans.push_back({name, secondsSince(t0), 0.0, parent, op});
        return static_cast<int>(spans.size()) - 1;
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    end(int id)
    {
        Span &s = spans[static_cast<std::size_t>(id)];
        s.endS = secondsSince(t0);
        return s.endS - s.startS;
    }

    /** Duration of closed span @p root minus the durations of its direct
     *  children: the time no child call accounts for. */
    double
    unaccountedS(int root) const
    {
        const Span &r = spans[static_cast<std::size_t>(root)];
        double s = r.endS - r.startS;
        // Children open after their parent, so the scan starts there.
        for (std::size_t i = static_cast<std::size_t>(root) + 1;
             i < spans.size(); ++i)
            if (spans[i].parent == root)
                s -= spans[i].endS - spans[i].startS;
        return s;
    }

    /** Write every span as a JSON array of objects. */
    bool writeJson(const std::string &path) const;

  private:
    Clock::time_point t0;
    std::vector<Span> spans;
};

/** Per-layer metrics a workload reports after its traced passes, by
 *  the names BENCHMARK.json lists. */
using LayerMetrics = std::map<std::string, double>;

/**
 * One benchmark workload: a fixed op list (one pass) built from the
 * seed in setup(), executed op by op by a single closed-loop client.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate the inputs from the seed and warm every cache the ops
     *  read (counted in setup_s, never in op time). */
    virtual void setup() = 0;

    /** Ops in one pass. */
    virtual std::size_t passSize() const = 0;

    /** Run op @p i; the caller times this call and nothing else. */
    virtual void runOp(std::size_t i) = 0;

    /** Check the outputs of the op just run and digest them. When
     *  @p breakInvariant is set the check is fed a corrupted output
     *  (the self-test proving the checks fail loudly). */
    virtual OpOutcome checkOp(std::size_t i, bool breakInvariant) = 0;

    /** Run op @p i traced: the op's own call plus the inner layers'
     *  public calls on the same input, each recorded as a child span of
     *  @p root. The harness opens and closes @p root and checks that the
     *  children account for its duration. */
    virtual void runTracedOp(std::size_t i, std::uint64_t opId, int root,
                             SpanRecorder &rec) = 0;

    /** Per-layer metrics over the traced ops run so far. */
    virtual LayerMetrics layerMetrics() const = 0;
};

/** Build the named workload for @p seed (null on an unknown name).
 *  @p workers caps every pool the ops start. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, unsigned workers,
                                       const std::string &scratchDir);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
