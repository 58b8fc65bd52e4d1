/**
 * @file
 * Request arrival processes for the service-level (queueing) substrate.
 *
 * Tail latency below saturation is dominated by queueing caused by bursty
 * arrivals (Section II), so alongside Poisson arrivals we provide a
 * two-state Markov-modulated Poisson process (MMPP-2) whose high-rate
 * state models request bursts, and a diurnal replay process whose rate
 * follows a 24-hour `DiurnalTrace` load curve (Section VI-D) under time
 * compression.
 *
 * All rates are requests per millisecond and all gaps are milliseconds of
 * simulated time. Every process is deterministic in the `Rng` handed to
 * `next()`: the same (seed, stream) pair replays the same arrival stream.
 */

#ifndef STRETCH_QUEUEING_ARRIVALS_H
#define STRETCH_QUEUEING_ARRIVALS_H

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "queueing/diurnal.h"
#include "queueing/event_engine.h"
#include "util/log.h"
#include "util/rng.h"

namespace stretch::queueing
{

/** Memoryless arrivals at a fixed rate (requests per millisecond). */
class PoissonArrivals
{
  public:
    explicit PoissonArrivals(double rate_per_ms)
        : rate(rate_per_ms), meanGap(1.0 / rate_per_ms)
    {
        STRETCH_ASSERT(rate > 0.0, "arrival rate must be positive");
    }

    /** Next interarrival gap in milliseconds. */
    double
    next(Rng &rng)
    {
        return rng.exponential(meanGap);
    }

  private:
    double rate;
    double meanGap; ///< 1/rate, hoisted out of the per-arrival draw
};

/**
 * Two-state Markov-modulated Poisson process. The process alternates
 * between a low-rate and a high-rate (burst) state with exponentially
 * distributed dwell times; the overall mean rate equals the requested
 * rate.
 *
 * Each step draws an exponential time to the next arrival and one to the
 * next state switch, and the earlier one wins. The switch draw's uniform
 * u is always consumed, but its log is taken only when the arrival might
 * lose: -log u >= 1 - u, and glibc's log is within an ulp, so
 * `to_arrival < dwell (1 - u) (1 - 2^-48)` already proves the arrival
 * wins (the factor covers the log's and the product's roundings).
 */
class MmppArrivals
{
  public:
    /**
     * @param mean_rate_per_ms long-run average arrival rate.
     * @param burst_ratio high-state rate divided by low-state rate (>= 1).
     * @param dwell_low_ms mean dwell in the low state.
     * @param dwell_high_ms mean dwell in the high (burst) state.
     */
    MmppArrivals(double mean_rate_per_ms, double burst_ratio,
                 double dwell_low_ms, double dwell_high_ms)
        : dwell{dwell_low_ms, dwell_high_ms}
    {
        STRETCH_ASSERT(mean_rate_per_ms > 0.0, "rate must be positive");
        STRETCH_ASSERT(burst_ratio >= 1.0, "burst ratio must be >= 1");
        STRETCH_ASSERT(dwell_low_ms > 0.0 && dwell_high_ms > 0.0,
                       "dwell times must be positive");
        // Solve for the per-state rates such that the time-weighted mean
        // equals mean_rate: w_low*r + w_high*b*r = mean.
        double w_low = dwell_low_ms / (dwell_low_ms + dwell_high_ms);
        double w_high = 1.0 - w_low;
        double low = mean_rate_per_ms / (w_low + w_high * burst_ratio);
        rate[0] = low;
        rate[1] = low * burst_ratio;
        meanGap[0] = 1.0 / rate[0];
        meanGap[1] = 1.0 / rate[1];
    }

    /** Next interarrival gap in milliseconds. */
    double
    next(Rng &rng)
    {
        double gap = 0.0;
        for (;;) {
            const double to_arrival = rng.exponential(meanGap[state]);
            const double u = rng.uniform();
            if (to_arrival < dwell[state] * (1.0 - u) * kSwitchSlack)
                return gap + to_arrival;
            const double to_switch = Rng::exponentialOf(u, dwell[state]);
            if (to_arrival <= to_switch)
                return gap + to_arrival;
            gap += to_switch;
            state ^= 1;
        }
    }

    /** Rate of the given state (requests/ms); for tests. */
    double stateRate(int s) const { return rate[s]; }

  private:
    /** 1 - 2^-48: below dwell (1 - u) by more than the log's error. */
    static constexpr double kSwitchSlack = 1.0 - 0x1.0p-48;

    double rate[2] = {1.0, 1.0};
    double meanGap[2] = {1.0, 1.0}; ///< 1/rate per state, hoisted
    double dwell[2];
    int state = 0;
};

/**
 * Non-homogeneous Poisson arrivals replaying a 24-hour `DiurnalTrace`:
 * the instantaneous rate is peak_rate * trace.loadAt(hour), with the
 * simulated-ms-to-trace-hour mapping set by @p ms_per_hour (time
 * compression, so a whole day fits in a tractable simulation).
 *
 * Implemented by Lewis-Shedler thinning: candidate gaps are drawn at the
 * peak rate and accepted with probability equal to the load fraction at
 * the candidate instant, which samples the exact non-homogeneous process
 * (trace loads are in [0, 1] by construction). The process keeps an
 * internal clock, so one instance must serve one monotone arrival stream.
 */
class DiurnalArrivals
{
  public:
    /**
     * @param peak_rate_per_ms arrival rate at 100% trace load.
     * @param trace 24-hour load curve (fractions of the daily peak).
     * @param ms_per_hour simulated milliseconds per trace hour.
     * @param phase_hours phase offset: the process experiences the trace
     *        shifted this many hours into the future (e.g. a service
     *        class whose user base lives six time zones away). The trace
     *        is periodic, so any value is legal.
     */
    DiurnalArrivals(double peak_rate_per_ms, const DiurnalTrace &trace,
                    double ms_per_hour, double phase_hours = 0.0)
        : trace(trace), peak(peak_rate_per_ms), msPerHour(ms_per_hour),
          phaseHours(phase_hours)
    {
        STRETCH_ASSERT(peak > 0.0, "peak arrival rate must be positive");
        STRETCH_ASSERT(ms_per_hour > 0.0, "ms-per-hour must be positive");
        STRETCH_ASSERT(trace.meanLoad() > 0.0, "trace carries no load");
    }

    /** Next interarrival gap in milliseconds. */
    double
    next(Rng &rng)
    {
        double gap = 0.0;
        for (;;) {
            double d = rng.exponential(1.0 / peak);
            gap += d;
            clock += d;
            if (rng.uniform() < trace.loadAt(clock / msPerHour + phaseHours))
                return gap;
        }
    }

  private:
    DiurnalTrace trace;
    double peak;
    double msPerHour;
    double phaseHours;
    double clock = 0.0;
};

/**
 * Run-time choice between the arrival models, so event-engine callers
 * (the fleet dispatcher, the service simulator) can switch between smooth
 * Poisson traffic, bursty MMPP-2 traffic, and diurnal load replay with
 * one configuration knob.
 */
class ArrivalProcess
{
  public:
    /** Memoryless arrivals at @p rate_per_ms. */
    static ArrivalProcess
    poisson(double rate_per_ms)
    {
        return ArrivalProcess(PoissonArrivals(rate_per_ms));
    }

    /** MMPP-2 bursts around a long-run mean of @p mean_rate_per_ms. */
    static ArrivalProcess
    mmpp(double mean_rate_per_ms, double burst_ratio, double dwell_low_ms,
         double dwell_high_ms)
    {
        return ArrivalProcess(MmppArrivals(mean_rate_per_ms, burst_ratio,
                                           dwell_low_ms, dwell_high_ms));
    }

    /** Diurnal replay peaking at @p peak_rate_per_ms (see DiurnalArrivals);
     *  @p phase_hours shifts this process's view of the trace. */
    static ArrivalProcess
    diurnal(double peak_rate_per_ms, const DiurnalTrace &trace,
            double ms_per_hour, double phase_hours = 0.0)
    {
        return ArrivalProcess(DiurnalArrivals(peak_rate_per_ms, trace,
                                              ms_per_hour, phase_hours));
    }

    /** Next interarrival gap in milliseconds. */
    double
    next(Rng &rng)
    {
        return std::visit([&rng](auto &arr) { return arr.next(rng); }, impl);
    }

    /**
     * Draw @p n consecutive gaps into @p out — the exact sequence @p n
     * calls to next() would produce (same RNG consumption, bit-identical
     * values), but with the variant dispatch paid once per batch instead
     * of once per arrival. Hot-loop callers (the fleet dispatcher) refill
     * a small ring from this.
     */
    void
    fill(Rng &rng, double *out, std::size_t n)
    {
        std::visit(
            [&](auto &arr) {
                for (std::size_t i = 0; i < n; ++i)
                    out[i] = arr.next(rng);
            },
            impl);
    }

  private:
    using Impl =
        std::variant<PoissonArrivals, MmppArrivals, DiurnalArrivals>;
    explicit ArrivalProcess(Impl impl) : impl(std::move(impl)) {}
    Impl impl;
};

/**
 * Superposition of per-class arrival processes: every class owns an
 * independent `ArrivalProcess` (its own rate, burstiness, and diurnal
 * phase) driving a decorrelated RNG stream, and the merged stream is
 * produced by next-arrival competition — each class keeps a pending
 * next-arrival time, the earliest one wins the slot (ties to the lowest
 * class id), and only the winner draws its next gap.
 *
 * This is the exact superposition of the component processes (for
 * Poisson components it reduces to a Poisson process at the summed
 * rate), so one fleet can serve classes with *different* traffic shapes
 * — a bursty tenant beside a smooth one, or two geographies whose days
 * are phase-shifted — without any class seeing another's randomness.
 *
 * Determinism: the merged stream is a pure function of the per-class
 * (process, Rng) pairs handed in. The instance keeps an internal clock,
 * so one instance must serve one monotone arrival stream.
 *
 * The next-arrival competition is decided by a winner (tournament) tree
 * over the per-class pending times: picking the winner and replaying its
 * leaf-to-root path after the redraw costs O(log K) per merged arrival
 * instead of the O(K) linear scan, while producing the identical winner
 * — earliest pending time, ties to the lowest class id (see the
 * tournament-vs-linear equivalence test in tests/test_class_arrivals.cc).
 */
class ClassArrivalSuperposition
{
  public:
    /** One class's component stream: its process and its own RNG. */
    struct Stream
    {
        ArrivalProcess process;
        Rng rng;
    };

    /** @param streams index-matched to class ids (at least one). */
    explicit ClassArrivalSuperposition(std::vector<Stream> streams)
        : classStreams(std::move(streams))
    {
        STRETCH_ASSERT(!classStreams.empty(),
                       "superposition needs at least one class stream");
        nextAtMs.reserve(classStreams.size());
        for (Stream &s : classStreams)
            nextAtMs.push_back(s.process.next(s.rng));
        buildTree();
    }

    /** Next merged arrival: gap since the previous merged arrival plus
     *  the winning class's id — exactly the engine's joint-draw type,
     *  so the instance plugs straight into a policy's `nextArrival`
     *  hook. */
    EventEngine::Arrival
    next()
    {
        const std::size_t win = leaves == 1 ? 0 : tree[1];
        EventEngine::Arrival out;
        out.gapMs = nextAtMs[win] - clock;
        out.classId = static_cast<std::uint32_t>(win);
        clock = nextAtMs[win];
        Stream &s = classStreams[win];
        nextAtMs[win] = clock + s.process.next(s.rng);
        replayPath(win);
        return out;
    }

  private:
    /** Sentinel leaf id for the power-of-two padding (never wins). */
    static constexpr std::uint32_t hole = static_cast<std::uint32_t>(-1);

    /** Earlier pending time wins; ties to the lowest class id. This is
     *  exactly the order the linear scan's strict `<` update induces. */
    std::uint32_t
    winner(std::uint32_t a, std::uint32_t b) const
    {
        if (a == hole)
            return b;
        if (b == hole)
            return a;
        if (nextAtMs[a] != nextAtMs[b])
            return nextAtMs[a] < nextAtMs[b] ? a : b;
        return a < b ? a : b;
    }

    void
    buildTree()
    {
        const std::size_t k = classStreams.size();
        leaves = 1;
        while (leaves < k)
            leaves *= 2;
        if (leaves == 1)
            return; // single class: no competition to run
        tree.assign(2 * leaves, hole);
        for (std::size_t i = 0; i < k; ++i)
            tree[leaves + i] = static_cast<std::uint32_t>(i);
        for (std::size_t n = leaves - 1; n >= 1; --n)
            tree[n] = winner(tree[2 * n], tree[2 * n + 1]);
    }

    /** Recompute the winners on class @p k's leaf-to-root path after its
     *  pending time changed. */
    void
    replayPath(std::size_t k)
    {
        if (leaves == 1)
            return;
        for (std::size_t n = (leaves + k) / 2; n >= 1; n /= 2)
            tree[n] = winner(tree[2 * n], tree[2 * n + 1]);
    }

    std::vector<Stream> classStreams;
    std::vector<double> nextAtMs; ///< pending arrival per class
    std::vector<std::uint32_t> tree; ///< winner tree: [1] holds the root
    std::size_t leaves = 1;          ///< padded leaf count (power of two)
    double clock = 0.0;              ///< time of the last merged arrival
};

} // namespace stretch::queueing

#endif // STRETCH_QUEUEING_ARRIVALS_H
