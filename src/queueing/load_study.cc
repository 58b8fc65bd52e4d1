#include "queueing/load_study.h"

#include "util/log.h"

namespace stretch::queueing
{

namespace
{

/** Bisection steps of every search below. */
constexpr unsigned searchIterations = 12;

SimKnobs
toSimKnobs(const StudyKnobs &k)
{
    SimKnobs s;
    s.requests = k.requests;
    s.warmup = k.warmup;
    s.seed = k.seed;
    s.quantumMs = k.quantumMs;
    return s;
}

double
tailAt(const ServiceSpec &spec, double rate, const SimKnobs &knobs)
{
    return simulateService(spec, rate, knobs).tail(spec.tailPercentile);
}

} // namespace

double
peakLoadRate(const ServiceSpec &spec, const StudyKnobs &knobs)
{
    SimKnobs sim = toSimKnobs(knobs);

    // Bracket: the zero-queueing service rate bound gives an upper limit.
    double hi = static_cast<double>(spec.workers) / spec.meanServiceMs;
    double lo = hi / 64.0;
    // Ensure hi actually violates the target (it should, at saturation).
    for (int i = 0; i < 8 && tailAt(spec, hi, sim) <= spec.qosTargetMs; ++i)
        hi *= 1.5;
    STRETCH_ASSERT(tailAt(spec, lo, sim) <= spec.qosTargetMs,
                   spec.name, ": QoS target unattainable even at idle; "
                   "check the service-time model");

    for (unsigned i = 0; i < searchIterations; ++i) {
        double mid = 0.5 * (lo + hi);
        if (tailAt(spec, mid, sim) <= spec.qosTargetMs)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

std::vector<LoadPoint>
latencyVsLoad(const ServiceSpec &spec, double peak_rate,
              const std::vector<double> &load_steps, const StudyKnobs &knobs)
{
    SimKnobs sim = toSimKnobs(knobs);
    std::vector<LoadPoint> points;
    points.reserve(load_steps.size());
    for (double f : load_steps) {
        STRETCH_ASSERT(f > 0.0, "load fraction must be positive");
        LoadPoint p;
        p.loadFraction = f;
        p.latency = simulateService(spec, peak_rate * f, sim);
        points.push_back(p);
    }
    return points;
}

double
requiredPerfFraction(const ServiceSpec &spec, double peak_rate,
                     double load_fraction, const StudyKnobs &knobs)
{
    SimKnobs sim = toSimKnobs(knobs);
    double rate = peak_rate * load_fraction;

    auto meets = [&](double duty) {
        SimKnobs k = sim;
        k.duty = duty;
        return tailAt(spec, rate, k) <= spec.qosTargetMs;
    };

    if (!meets(1.0))
        return 1.0;
    double lo = 0.02, hi = 1.0;
    if (meets(lo))
        return lo;
    for (unsigned i = 0; i < searchIterations; ++i) {
        double mid = 0.5 * (lo + hi);
        if (meets(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

double
tolerableSlowdown(const ServiceSpec &spec, double peak_rate,
                  double load_fraction, double max_factor,
                  const StudyKnobs &knobs)
{
    SimKnobs sim = toSimKnobs(knobs);
    double rate = peak_rate * load_fraction;

    auto meets = [&](double factor) {
        SimKnobs k = sim;
        k.perfScale = factor;
        return tailAt(spec, rate, k) <= spec.qosTargetMs;
    };

    if (!meets(1.0))
        return 1.0;
    if (meets(max_factor))
        return max_factor;
    double lo = 1.0, hi = max_factor;
    for (unsigned i = 0; i < searchIterations; ++i) {
        double mid = 0.5 * (lo + hi);
        if (meets(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace stretch::queueing
