/**
 * @file
 * One description and one generator of request traffic, shared by the
 * fleet dispatcher and the rack ingress.
 *
 * `TrafficSpec` holds the stream knobs: length, rate, seed, burstiness,
 * diurnal replay, service classes, and the timeline bucket width every
 * layer forwards. `sim::DispatchConfig`, `sim::FleetConfig`,
 * `cluster::ClusterConfig` and `scenario::Scenario` inherit it, so a
 * scenario hands its traffic to a fleet, a fleet to the dispatcher, and
 * a node to a rack, in one assignment.
 *
 * `TrafficSource` turns a spec into requests, yielding the interarrival
 * gap, class tag and unit-mean demand of each. It covers the shared
 * Poisson / MMPP-2 / diurnal stream, the per-class superposition,
 * weighted class tags, and classless or per-class demand draws. Each
 * caller hands in its own RNG streams, so the dispatcher and the ingress
 * keep their seeds. Gaps come back unscaled: the dispatcher divides them
 * by its incident arrival scale as it consumes them, and the ingress
 * splits them at action boundaries.
 */

#ifndef STRETCH_SIM_TRAFFIC_H
#define STRETCH_SIM_TRAFFIC_H

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "queueing/arrivals.h"
#include "queueing/diurnal.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/seed_stream.h"
#include "workload/service_class.h"

namespace stretch::sim
{

/** The request stream a dispatcher, fleet or rack serves. */
struct TrafficSpec
{
    std::uint64_t requests = 20000; ///< length of the stream
    /**
     * Arrival rate in requests per millisecond; 0 targets 70% mean load
     * (see offeredRatePerMs). Under a diurnal trace an explicit rate is
     * the PEAK rate, the rate at 100% trace load.
     */
    double arrivalRatePerMs = 0.0;
    std::uint64_t seed = 42; ///< arrival/demand/placement stream seed

    /// @name Arrival burstiness: 1 = Poisson, > 1 = MMPP-2 bursts.
    /// @{
    double burstRatio = 1.0;
    double dwellLowMs = 200.0;
    double dwellHighMs = 40.0;
    /// @}

    /// @name Diurnal load replay.
    /// A trace overrides burstRatio: arrivals become a non-homogeneous
    /// Poisson process whose rate follows the 24-hour curve.
    /// @{
    std::optional<queueing::DiurnalTrace> diurnalTrace;
    /** Time compression: simulated milliseconds per trace hour. */
    double msPerHour = 50.0;
    /// @}

    /**
     * Request service classes. Empty keeps the untagged stream with
     * exponential unit-mean demands. Non-empty tags every arrival with a
     * weighted class id, draws its demand from the class's own
     * distribution, and turns on per-class latency and SLO reporting.
     */
    workloads::ServiceClassRegistry classes;

    /**
     * Give every service class its own arrival process (requires
     * classes). Each class sources an independent stream with its
     * normalised share of the total rate
     * (`ServiceClassRegistry::arrivalShares`), its own burstiness and its
     * own diurnal phase offset, all from `ServiceClass::traffic`; the
     * streams merge by next-arrival competition. The spec-wide
     * burstRatio and dwells are then ignored, while diurnalTrace and
     * arrivalRatePerMs keep their meaning. False keeps one shared stream
     * with weighted class tags.
     */
    bool perClassArrivals = false;

    /** Completion-timeline bucketing: > 0 reports per-bucket latency
     *  summaries over buckets of this many milliseconds (e.g. one per
     *  replayed hour); 0 disables the timeline. */
    double timelineBucketMs = 0.0;

    /**
     * The rate offered to servers of @p capacity_per_ms summed baseline
     * capacity: the explicit rate when set, else 70% of capacity as the
     * mean load. Under a trace the default is a peak rate, divided by
     * the trace's mean load so the mean stays at 70% whatever the shape.
     */
    double
    offeredRatePerMs(double capacity_per_ms) const
    {
        if (arrivalRatePerMs > 0.0)
            return arrivalRatePerMs;
        const double mean = 0.7 * capacity_per_ms;
        return diurnalTrace ? mean / diurnalTrace->meanLoad() : mean;
    }
};

/** The caller's RNG streams a TrafficSource draws from. */
struct TrafficStreams
{
    Rng arrivals; ///< shared-stream interarrival gaps
    Rng tags;     ///< weighted class tags on the shared stream
    Rng demands;  ///< request demands
    /** Class k's own stream draws from deriveSeed(seed, arrivalTag, k). */
    std::uint64_t arrivalTag = 0;
};

/**
 * Generates the requests of one TrafficSpec. The per-request calls are
 * inline so the dispatcher's engine loop keeps them on its hot path.
 *
 * Draws are batched where the stream allows it: the arrival RNG feeds
 * nothing but shared-stream gaps, and classless demands are a fixed
 * distribution on their own RNG, so blocks drawn ahead through
 * `ArrivalProcess::fill` and `Rng::fillExponential` leave every value
 * bit-identical to sequential draws. Class-tagged demands are drawn per
 * request, since the distribution depends on the tag.
 */
class TrafficSource
{
  public:
    /** @param rate_per_ms total offered rate (e.g. from
     *  TrafficSpec::offeredRatePerMs). */
    TrafficSource(const TrafficSpec &spec, double rate_per_ms,
                  TrafficStreams streams)
        : classes(spec.classes), rng(std::move(streams))
    {
        STRETCH_ASSERT(spec.burstRatio >= 1.0, "burst ratio must be >= 1");
        STRETCH_ASSERT(!spec.diurnalTrace || spec.msPerHour > 0.0,
                       "diurnal replay needs a positive ms-per-hour");
        STRETCH_ASSERT(!spec.perClassArrivals || !classes.empty(),
                       "per-class arrival processes need a non-empty class "
                       "registry");
        if (!spec.perClassArrivals) {
            // One stream shaped like a class with the spec's burstiness
            // and no diurnal phase offset.
            shared = process(spec, rate_per_ms,
                             {0.0, spec.burstRatio, spec.dwellLowMs,
                              spec.dwellHighMs, 0.0});
            return;
        }
        // Class k's RNG derives from (seed, arrival tag, k), so adding a
        // class never perturbs another class's draws.
        const std::vector<double> shares = classes.arrivalShares();
        std::vector<queueing::ClassArrivalSuperposition::Stream> classStreams;
        classStreams.reserve(shares.size());
        for (std::size_t k = 0; k < shares.size(); ++k) {
            const workloads::ClassTraffic &t =
                classes.at(static_cast<workloads::ClassId>(k)).traffic;
            classStreams.push_back(
                {process(spec, shares[k] * rate_per_ms, t),
                 Rng(util::deriveSeed(spec.seed, rng.arrivalTag, k))});
        }
        perClass.emplace(std::move(classStreams));
    }

    /** Next request's raw gap since the previous one (ms, unscaled) and
     *  its class tag. */
    queueing::EventEngine::Arrival
    nextArrival()
    {
        if (perClass)
            return perClass->next();
        if (gapNext == block) {
            shared->fill(rng.arrivals, gapBlock.data(), block);
            gapNext = 0;
        }
        queueing::EventEngine::Arrival a;
        a.gapMs = gapBlock[gapNext++];
        a.classId = classes.empty() ? 0 : classes.sample(rng.tags);
        return a;
    }

    /** Demand of a request of class @p cls, in mean-request units (the
     *  serving core's rate converts it to milliseconds). */
    double
    nextDemand(std::uint32_t cls)
    {
        if (!classes.empty())
            return classes.drawDemand(cls, rng.demands);
        if (demandNext == block) {
            rng.demands.fillExponential(1.0, demandBlock.data(), block);
            demandNext = 0;
        }
        return demandBlock[demandNext++];
    }

  private:
    /** Diurnal replay under a trace (at @p shape's phase), else MMPP-2
     *  when @p shape is bursty, else Poisson. */
    static queueing::ArrivalProcess
    process(const TrafficSpec &spec, double rate_per_ms,
            const workloads::ClassTraffic &shape)
    {
        if (spec.diurnalTrace) {
            return queueing::ArrivalProcess::diurnal(
                rate_per_ms, *spec.diurnalTrace, spec.msPerHour,
                shape.phaseOffsetHours);
        }
        if (shape.burstRatio > 1.0) {
            return queueing::ArrivalProcess::mmpp(
                rate_per_ms, shape.burstRatio, shape.dwellLowMs,
                shape.dwellHighMs);
        }
        return queueing::ArrivalProcess::poisson(rate_per_ms);
    }

    static constexpr std::size_t block = 256; ///< draws per refill

    workloads::ServiceClassRegistry classes;
    TrafficStreams rng;
    std::optional<queueing::ArrivalProcess> shared;
    std::optional<queueing::ClassArrivalSuperposition> perClass;
    std::array<double, block> gapBlock;
    std::size_t gapNext = block;
    std::array<double, block> demandBlock;
    std::size_t demandNext = block;
};

} // namespace stretch::sim

#endif // STRETCH_SIM_TRAFFIC_H
