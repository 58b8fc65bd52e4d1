/**
 * @file
 * Load/latency/slack studies over the request-level simulator.
 *
 * Reproduces the methodology of Section II: calibrate each service's peak
 * sustainable load (the highest arrival rate whose tail latency meets the
 * QoS target at full core performance), sweep load to obtain
 * latency-vs-load curves (Figure 1), and, at each load step, search for the
 * minimum core-performance fraction that still meets the target via
 * Elfen-style duty-cycle modulation (Figure 2).
 */

#ifndef STRETCH_QUEUEING_LOAD_STUDY_H
#define STRETCH_QUEUEING_LOAD_STUDY_H

#include <vector>

#include "queueing/request_sim.h"
#include "queueing/service_spec.h"

namespace stretch::queueing
{

/** One sample of a latency-vs-load sweep. */
struct LoadPoint
{
    double loadFraction = 0.0; ///< fraction of peak sustainable load
    LatencyResult latency;
};

/** Study tuning knobs. */
struct StudyKnobs
{
    std::uint64_t requests = 24000;
    std::uint64_t warmup = 2000;
    std::uint64_t seed = 7;
    double quantumMs = 0.25;
};

/**
 * Highest arrival rate (requests/ms) whose configured tail percentile
 * meets the QoS target at full performance.
 */
double peakLoadRate(const ServiceSpec &spec, const StudyKnobs &knobs = {});

/**
 * Latency vs load (Figure 1): sweep load fractions of the peak rate.
 * @param load_steps e.g. {0.1, 0.2, ..., 1.0}.
 */
std::vector<LoadPoint> latencyVsLoad(const ServiceSpec &spec,
                                     double peak_rate,
                                     const std::vector<double> &load_steps,
                                     const StudyKnobs &knobs = {});

/**
 * Minimum fraction of full core performance (duty cycle) meeting the QoS
 * target at the given load fraction of peak (Figure 2). Returns 1.0 when
 * even full performance misses the target.
 */
double requiredPerfFraction(const ServiceSpec &spec, double peak_rate,
                            double load_fraction,
                            const StudyKnobs &knobs = {});

/**
 * Maximum single-thread slowdown factor (>= 1) the service absorbs at the
 * given load while meeting QoS; the multiplicative analogue of
 * requiredPerfFraction, used to validate colocation-induced slowdowns.
 */
double tolerableSlowdown(const ServiceSpec &spec, double peak_rate,
                         double load_fraction, double max_factor = 16.0,
                         const StudyKnobs &knobs = {});

} // namespace stretch::queueing

#endif // STRETCH_QUEUEING_LOAD_STUDY_H
