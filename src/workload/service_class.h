/**
 * @file
 * Request-level service classes for multi-tenant fleet dispatch.
 *
 * The paper evaluates one latency-sensitive stream against one batch
 * co-runner; a datacenter serves many *classes* of latency-sensitive
 * traffic at once — interactive search beside bulk analytics beside
 * best-effort scraping — each with its own demand distribution, SLO
 * target, and tolerance for sharing a core with batch work (RackSched
 * makes the same observation at rack scale). A `ServiceClass` names one
 * such traffic class; a `ServiceClassRegistry` holds the fleet's class
 * mix and draws class-conditioned arrival tags and service demands.
 *
 * Units: demands are in *mean-request units* (the dispatcher's serving
 * rate converts them to milliseconds, so a demand of 1.0 takes 1/rate ms
 * on a core serving `rate` requests/ms); SLO targets are milliseconds of
 * request sojourn time. All draws are deterministic in the `Rng` handed
 * in: the same (seed, stream) pair replays the same tagged stream.
 */

#ifndef STRETCH_WORKLOAD_SERVICE_CLASS_H
#define STRETCH_WORKLOAD_SERVICE_CLASS_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace stretch::workloads
{

/** Index of a class in its registry (also the arrival tag value). */
using ClassId = std::uint32_t;

/** Shape of a class's service-demand distribution. */
enum class DemandShape
{
    Fixed,     ///< every request costs exactly meanDemand
    Lognormal, ///< unit-mean lognormal scaled by meanDemand (logSigma)
    Pareto,    ///< heavy-tailed Pareto, mean meanDemand (paretoAlpha > 1)
};

/** Human-readable shape name. */
const char *toString(DemandShape shape);

/**
 * Arrival-process shape of one class's own traffic stream. Honoured only
 * when the dispatcher runs per-class arrival processes
 * (`sim::TrafficSpec::perClassArrivals`): each class then sources an
 * independent stream — its own share of the fleet arrival rate, its own
 * burstiness, and its own diurnal phase — superposed by next-arrival
 * competition (`queueing::ClassArrivalSuperposition`). Under the shared
 * stream these fields are ignored.
 */
struct ClassTraffic
{
    /**
     * This class's share of the fleet arrival rate, normalised against
     * the other classes' shares. 0 (the default) falls back to the
     * class mix weight, so a registry with no explicit shares splits
     * the rate exactly the way the shared stream's weighted tagging
     * did.
     */
    double rateShare = 0.0;

    /// @name Burstiness of this class's stream (1 = Poisson, > 1 =
    /// MMPP-2 bursts with the given state dwells).
    /// @{
    double burstRatio = 1.0;
    double dwellLowMs = 200.0;
    double dwellHighMs = 40.0;
    /// @}

    /**
     * Diurnal phase offset in hours: under diurnal replay this class
     * experiences the fleet trace shifted this many hours into the
     * future (another geography's day). Ignored without a trace.
     */
    double phaseOffsetHours = 0.0;

    /** True when any field departs from the shared-stream defaults
     *  (used by the scenario layer to decide whether lowering needs
     *  per-class arrival processes at all). */
    bool
    customised() const
    {
        return rateShare != 0.0 || burstRatio != 1.0 ||
               phaseOffsetHours != 0.0;
    }
};

/** One named class of latency-sensitive request traffic. */
struct ServiceClass
{
    std::string name;

    /// @name Demand model (mean-request units; see file header).
    /// @{
    DemandShape shape = DemandShape::Lognormal;
    double meanDemand = 1.0;  ///< mean service demand
    double logSigma = 0.40;   ///< lognormal: sigma of the underlying normal
    double paretoAlpha = 2.5; ///< pareto: tail index (must be > 1)
    /// @}

    /// @name SLO target.
    /// @{
    double sloMs = 10.0;          ///< sojourn-time target in milliseconds
    double tailPercentile = 99.0; ///< percentile the SLO binds at
    /// @}

    /**
     * Priority tier: 0 is the tightest (interactive) tier and is pinned
     * to the fleet's big cores by the class-aware router; higher tiers
     * are routed to the remaining cores while the big cores are
     * reserved.
     */
    unsigned priority = 0;

    /**
     * Batch-colocation tolerance in [0, 1]: how well this class absorbs
     * sharing a core with a batch co-runner. Classes below 0.5 are
     * treated as hot by the router regardless of priority (they need the
     * isolation of a big core as much as a tier-0 class does).
     */
    double batchTolerance = 1.0;

    /** May the router shed this class's requests under overload? Tier-0
     *  interactive traffic normally is not sheddable; bulk tiers are. */
    bool sheddable = false;

    /** Share of the arrival stream (normalised against the registry's
     *  total weight). */
    double weight = 1.0;

    /** Shape of this class's own arrival stream (per-class arrival
     *  processes only; see ClassTraffic). */
    ClassTraffic traffic;
};

/**
 * The fleet's class mix: an ordered set of service classes, addressed by
 * `ClassId` (insertion order). Provides the two stochastic draws the
 * dispatcher needs — a weighted class tag per arrival and a
 * class-conditioned service demand — both deterministic in the caller's
 * RNG stream.
 */
class ServiceClassRegistry
{
  public:
    /** Register a class; returns its id. Fatal on duplicate names,
     *  non-positive weight/meanDemand, or a Pareto tail index <= 1. */
    ClassId add(ServiceClass cls);

    /** Class by id (fatal on out-of-range). */
    const ServiceClass &at(ClassId id) const;

    /** Mutable class by id (fatal on out-of-range) — for scenario/sweep
     *  patches tweaking a class in place (e.g. its traffic shape). The
     *  mix weight is read through the registry's cached sum, so patches
     *  must not change `weight`; everything else is fair game. */
    ServiceClass &classAt(ClassId id);

    /** Id of the named class (fatal on unknown name). */
    ClassId byName(const std::string &name) const;

    /**
     * Reshuffle one class's SLO mid-run: set a new sojourn-time target
     * (and optionally the percentile it binds at; 0 keeps the current
     * one). Fatal on a non-positive target or an out-of-range
     * percentile. Consumers that read the SLO at decision time — router
     * admission, attainment accounting — pick the new target up
     * immediately; monitors that copied it at construction must be
     * retargeted by the caller (see `Cpi2Monitor::retarget`).
     */
    void retargetSlo(ClassId id, double slo_ms, double tail_percentile = 0.0);

    /** Number of registered classes. */
    std::size_t size() const { return classes.size(); }

    /** True when no class is registered (untagged legacy dispatch). */
    bool empty() const { return classes.empty(); }

    /** Sum of class weights. */
    double totalWeight() const { return weightSum; }

    /** Draw a class id, weighted by class weight. */
    ClassId sample(Rng &rng) const;

    /** Draw one service demand from the class's distribution
     *  (mean-request units, mean == meanDemand). */
    double drawDemand(ClassId id, Rng &rng) const;

    /**
     * Normalised per-class arrival-rate shares for per-class arrival
     * processes: a class contributes its `traffic.rateShare` when set,
     * its mix weight otherwise, and the vector is normalised to sum to
     * 1 — so a registry with no explicit shares splits the fleet rate
     * exactly as the shared stream's weighted tagging did in
     * expectation.
     */
    std::vector<double> arrivalShares() const;

    /** True when any class customises its own arrival stream (rate
     *  share, burstiness, or diurnal phase; see ClassTraffic). */
    bool hasCustomTraffic() const;

    /** All classes in id order. */
    const std::vector<ServiceClass> &all() const { return classes; }

    /**
     * The canonical two-class mix used by examples and tests: a tier-0
     * interactive "search" class (tight SLO, lognormal demands, not
     * sheddable) sharing the fleet with a tier-1 "analytics" class
     * (loose SLO, heavy-tailed Pareto demands, sheddable under
     * overload).
     */
    static ServiceClassRegistry searchAnalyticsPair(double tight_slo_ms,
                                                    double loose_slo_ms);

  private:
    std::vector<ServiceClass> classes;
    double weightSum = 0.0;
};

} // namespace stretch::workloads

#endif // STRETCH_WORKLOAD_SERVICE_CLASS_H
