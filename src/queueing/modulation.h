/**
 * @file
 * Elfen-inspired core-performance modulation (Section II).
 *
 * To measure slack, the paper modulates the fraction of time the
 * latency-sensitive workload runs on the core by interleaving a
 * non-contentious preemptive co-runner at sub-millisecond granularity.
 * DutyCycleModulator reproduces this: within every quantum q, the service
 * only makes progress during the first duty*q milliseconds.
 */

#ifndef STRETCH_QUEUEING_MODULATION_H
#define STRETCH_QUEUEING_MODULATION_H

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace stretch::queueing
{

/**
 * Periodic availability windows: the service owns [k*q, k*q + duty*q) for
 * every integer k. The quantum q must be a power of two: every window
 * start is then an exact multiple of q, so the window walk cannot stall
 * on a rounded start, and finish() can skip a run of full windows in one
 * exact step.
 */
class DutyCycleModulator
{
  public:
    /**
     * @param duty fraction of core time given to the service, (0, 1].
     * @param quantum_ms interleaving quantum (paper: sub-millisecond), a
     *        power of two.
     */
    explicit DutyCycleModulator(double duty = 1.0, double quantum_ms = 0.25)
        : duty(duty), quantum(quantum_ms)
    {
        STRETCH_ASSERT(duty > 0.0 && duty <= 1.0, "duty out of (0,1]");
        STRETCH_ASSERT(quantum_ms > 0.0, "quantum must be positive");
        int exponent = 0;
        STRETCH_ASSERT(std::frexp(quantum_ms, &exponent) == 0.5,
                       "quantum must be a power of two, got ", quantum_ms);
    }

    /**
     * Completion time of a request that starts executing at @p start and
     * needs @p demand_ms of core time.
     */
    double
    finish(double start, double demand_ms) const
    {
        STRETCH_ASSERT(demand_ms >= 0.0, "negative demand");
        if (duty >= 1.0)
            return start + demand_ms;
        double t = start;
        double remaining = demand_ms;
        for (;;) {
            double k = std::floor(t / quantum);
            double win_start = k * quantum;
            double win_end = win_start + duty * quantum;
            if (t >= win_end) {
                // Wait for the next window.
                t = win_start + quantum;
                continue;
            }
            if (t < win_start)
                t = win_start;
            double avail = win_end - t;
            if (remaining <= avail)
                return t + remaining;
            remaining -= avail;
            t = win_start + quantum;
            skipFullWindows(t, remaining);
        }
    }

    /** Configured quantum in milliseconds. */
    double quantumMs() const { return quantum; }

  private:
    /**
     * Consume a run of full windows from the window start @p t, leaving
     * @p t and @p remaining bit-identical to the window-by-window walk.
     *
     * While window starts stay in t's binade [2^(e-1), 2^e), every full
     * window grants the same double, duty*q rounded to ulp(t): t is a
     * multiple of q, so t/ulp(t) is even below q*2^50 and the rounding
     * tie cannot flip between starts. Once t >= remaining, every grant is
     * a multiple of ulp(remaining), so n windows subtract exactly
     * n*grant.
     */
    void
    skipFullWindows(double &t, double &remaining) const
    {
        if (t < quantum || t < remaining || t >= quantum * 0x1p50)
            return;
        double grant = (t + duty * quantum) - t;
        if (grant <= 0.0)
            return;
        int e = 0;
        std::frexp(t, &e);
        double top = std::ldexp(1.0, e);
        // Keep every skipped start a quantum below top, and leave the
        // finishing window (and any rounding of the division) to the walk.
        double n = std::min(std::floor((top - t) / quantum) - 1.0,
                            std::floor(remaining / grant) - 2.0);
        if (n > 0.0) {
            remaining -= n * grant;
            t += n * quantum;
        }
    }

    double duty;
    double quantum;
};

} // namespace stretch::queueing

#endif // STRETCH_QUEUEING_MODULATION_H
