#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "queueing/event_engine.h"
#include "sim/op_point_cache.h"
#include "stats/streaming_tail.h"
#include "util/log.h"
#include "util/parallel_for.h"
#include "util/rng.h"
#include "util/seed_stream.h"
#include "util/types.h"

namespace stretch::sim
{

namespace
{

/** Dispatcher RNG stream tags (decorrelate arrivals, class tags,
 *  demands, and the power-of-two candidate draws from one another). */
constexpr std::uint64_t arrivalStream = 0xa221;
constexpr std::uint64_t demandStream = 0xde3a;
constexpr std::uint64_t placementStream = 0x9b1c;
constexpr std::uint64_t classStream = 0xc1a5;

/** Severity of a mode decision for combining per-class monitor votes:
 *  the most QoS-protective decision wins on a shared core. */
int
modeSeverity(StretchMode mode)
{
    switch (mode) {
    case StretchMode::BatchBoost:
        return 0;
    case StretchMode::Baseline:
        return 1;
    case StretchMode::QosBoost:
        return 2;
    }
    return 1;
}

StretchMode
modeForSeverity(int severity)
{
    switch (severity) {
    case 0:
        return StretchMode::BatchBoost;
    case 2:
        return StretchMode::QosBoost;
    default:
        return StretchMode::Baseline;
    }
}

/**
 * The software side of one dynamically-controlled fleet core: a minimal
 * machine hosting the architectural mode register, so engaging a mode
 * programs real partition limit registers and performs the mode-change
 * flush exactly as system software would, plus the CPI²-style monitor fed
 * by request completion latencies.
 */
struct CoreControl
{
    MemoryHierarchy mem;
    BranchUnit bp;
    SmtCore core;
    StretchController ctrl;
    Cpi2Monitor monitor;

    /**
     * One monitor per service class (class-tagged dispatch only), each
     * targeting the class's own SLO at its own tail percentile, so the
     * quantum decision can react to the tightest class on this core.
     */
    std::vector<Cpi2Monitor> classMonitors;

    CoreControl(const ModeControlConfig &mc,
                const workloads::ServiceClassRegistry &classes)
        : mem([] {
              // The control machine never executes instructions; keep its
              // uncore allocation tiny.
              HierarchyConfig hcfg;
              hcfg.llcBytes = 64 * 1024;
              hcfg.llcWayPartition = {8, 8};
              return hcfg;
          }()),
          bp(BranchUnitConfig{}), core(CoreParams{}, mem, bp),
          ctrl(core, 0, mc.bmodeSkew, mc.qmodeSkew), monitor(mc.monitor)
    {
        classMonitors.reserve(classes.size());
        for (const workloads::ServiceClass &cls : classes.all()) {
            MonitorConfig per_class = mc.monitor;
            per_class.qosTarget = cls.sloMs;
            per_class.tailPercentile = cls.tailPercentile;
            classMonitors.emplace_back(per_class);
        }
    }
};

} // namespace

const char *
toString(PlacementPolicy policy)
{
    switch (policy) {
    case PlacementPolicy::RoundRobin:
        return "round-robin";
    case PlacementPolicy::LeastLoaded:
        return "least-loaded";
    case PlacementPolicy::PowerOfTwo:
        return "power-of-two";
    case PlacementPolicy::QosAware:
        return "qos-aware";
    case PlacementPolicy::ClassAware:
        return "class-aware";
    }
    return "?";
}

const char *
toString(ModePolicyKind kind)
{
    switch (kind) {
    case ModePolicyKind::Static:
        return "static";
    case ModePolicyKind::BacklogHysteresis:
        return "backlog-hysteresis";
    case ModePolicyKind::SlackDriven:
        return "slack-driven";
    }
    return "?";
}

const char *
toString(IncidentAction::Kind kind)
{
    switch (kind) {
    case IncidentAction::Kind::ArrivalScale:
        return "arrival-scale";
    case IncidentAction::Kind::CoreRateScale:
        return "core-rate-scale";
    case IncidentAction::Kind::CoreFail:
        return "core-fail";
    case IncidentAction::Kind::ClassSloRetarget:
        return "class-slo-retarget";
    case IncidentAction::Kind::RetryStormStart:
        return "retry-storm-start";
    case IncidentAction::Kind::RetryStormTick:
        return "retry-storm-tick";
    case IncidentAction::Kind::RetryStormEnd:
        return "retry-storm-end";
    }
    return "?";
}

std::uint64_t
DispatchOutcome::totalTransitions() const
{
    std::uint64_t total = 0;
    for (const CoreModeStats &m : modeStats)
        total += m.transitions;
    return total;
}

std::uint64_t
DispatchOutcome::totalThrottleEngagements() const
{
    std::uint64_t total = 0;
    for (const CoreModeStats &m : modeStats)
        total += m.throttleEngagements;
    return total;
}

double
DispatchOutcome::totalThrottleMs() const
{
    double total = 0.0;
    for (const CoreModeStats &m : modeStats)
        total += m.throttleMs;
    return total;
}

FleetConfig
homogeneousFleet(unsigned n, const RunConfig &base)
{
    STRETCH_ASSERT(n > 0, "fleet needs at least one core");
    FleetConfig fleet;
    fleet.cores.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        RunConfig core = base;
        core.seed = util::deriveSeed(base.seed, i);
        fleet.cores.push_back(core);
    }
    fleet.seed = base.seed;
    return fleet;
}

FleetConfig
heterogeneousFleet(const RunConfig &base, std::vector<CoreSlot> slots)
{
    STRETCH_ASSERT(!slots.empty(), "heterogeneous fleet needs at least one "
                                   "slot");
    FleetConfig fleet =
        homogeneousFleet(static_cast<unsigned>(slots.size()), base);
    fleet.slots = std::move(slots);
    return fleet;
}

DispatchOutcome
dispatchRequests(const DispatchConfig &cfg)
{
    const std::size_t n = cfg.rates.size();
    STRETCH_ASSERT(n > 0, "dispatch needs at least one core");
    STRETCH_ASSERT(cfg.timelineBucketMs >= 0.0, "negative timeline bucket");

    const ModeControlConfig &mc = cfg.control;
    const bool dynamic = mc.kind != ModePolicyKind::Static;
    const bool classesOn = !cfg.classes.empty();
    const bool perClassArr = cfg.perClassArrivals;
    // Pre-steered replay: the ingress already fixed every arrival time,
    // class tag, and demand; the request count is the list length.
    const bool injectedOn = cfg.injected != nullptr;
    const std::uint64_t requests =
        injectedOn ? cfg.injected->size() : cfg.requests;
    if (injectedOn) {
        double prevMs = 0.0;
        for (const InjectedArrival &ia : *cfg.injected) {
            STRETCH_ASSERT(ia.atMs >= prevMs,
                           "injected arrivals must be sorted by atMs");
            STRETCH_ASSERT(ia.demand > 0.0,
                           "injected demand must be positive");
            STRETCH_ASSERT(ia.latencyOffsetMs >= 0.0,
                           "injected latency offset must be >= 0");
            STRETCH_ASSERT(ia.classId == 0 ||
                               ia.classId < cfg.classes.size(),
                           "injected arrival tags an unregistered class");
            prevMs = ia.atMs;
        }
    }
    STRETCH_ASSERT(cfg.policy != PlacementPolicy::ClassAware || classesOn,
                   "class-aware placement needs a non-empty class "
                   "registry");
    if (mc.kind == ModePolicyKind::BacklogHysteresis) {
        STRETCH_ASSERT(mc.engageBelowMs < mc.disengageAboveMs &&
                           mc.disengageAboveMs < mc.qmodeAboveMs,
                       "backlog thresholds must be ordered engage < "
                       "disengage < qmode");
    }

    double capacity = 0.0;
    std::vector<std::size_t> servingIdx;
    for (std::size_t c = 0; c < n; ++c) {
        const ModeRates &r = cfg.rates[c];
        STRETCH_ASSERT(r.baseline >= 0.0 && r.bmode >= 0.0 &&
                           r.qmode >= 0.0 && r.throttledLs >= 0.0,
                       "negative service rate");
        if (r.baseline > 0.0) {
            STRETCH_ASSERT(r.bmode > 0.0 && r.qmode > 0.0,
                           "serving cores need a positive rate in every "
                           "mode");
            capacity += r.baseline;
            servingIdx.push_back(c);
        }
    }
    STRETCH_ASSERT(!servingIdx.empty(), "no core in the fleet can serve "
                                        "requests");

    // Scheduled incidents, sorted by application time (stable: actions
    // sharing a timestamp apply in list order). Validated up front so a
    // bad incident fails loudly before the run starts.
    std::vector<IncidentAction> actions = cfg.incidents;
    std::stable_sort(actions.begin(), actions.end(),
                     [](const IncidentAction &a, const IncidentAction &b) {
                         return a.atMs < b.atMs;
                     });
    for (const IncidentAction &a : actions) {
        STRETCH_ASSERT(a.atMs >= 0.0, "incident scheduled before the run");
        switch (a.kind) {
        case IncidentAction::Kind::ArrivalScale:
            STRETCH_ASSERT(a.value > 0.0, "arrival scale must be positive");
            STRETCH_ASSERT(!injectedOn,
                           "arrival-scaling incidents must be applied "
                           "upstream of an injected stream (the ingress "
                           "owns the arrival clock)");
            break;
        case IncidentAction::Kind::CoreRateScale:
            STRETCH_ASSERT(a.core < n, "incident targets a core outside "
                                       "the fleet");
            STRETCH_ASSERT(a.value > 0.0,
                           "core capacity scale must be positive (use "
                           "CoreFail to remove a core)");
            break;
        case IncidentAction::Kind::CoreFail:
            STRETCH_ASSERT(a.core < n, "incident targets a core outside "
                                       "the fleet");
            break;
        case IncidentAction::Kind::ClassSloRetarget:
            STRETCH_ASSERT(a.classId < cfg.classes.size(),
                           "SLO retarget names an unregistered class");
            STRETCH_ASSERT(a.value > 0.0, "SLO target must be positive");
            break;
        case IncidentAction::Kind::RetryStormStart:
            STRETCH_ASSERT(a.value >= 0.0, "storm gain must be >= 0");
            STRETCH_ASSERT(a.value2 > 0.0,
                           "storm lateness threshold must be positive");
            STRETCH_ASSERT(!injectedOn,
                           "retry storms couple to the arrival clock, "
                           "which an injected stream owns upstream");
            break;
        case IncidentAction::Kind::RetryStormTick:
        case IncidentAction::Kind::RetryStormEnd:
            break;
        }
    }

    // Live class registry: SLO-reshuffle incidents retarget it mid-run,
    // so every SLO consumer — attainment accounting, router admission
    // budgets, final reporting — reads through this copy. Without a
    // reshuffle it stays identical to the config's registry.
    workloads::ServiceClassRegistry classesLive = cfg.classes;

    // Which cores may take new work: starts as the serving set and only
    // shrinks (CoreFail). Placed work on a failed core still drains.
    std::vector<char> canServe(n, 0);
    for (std::size_t c : servingIdx)
        canServe[c] = 1;

    // Mode state: serving cores start in the static mode (Baseline when a
    // dynamic policy takes over from there).
    const StretchMode initialMode =
        dynamic ? StretchMode::Baseline : mc.staticMode;
    std::vector<StretchMode> mode(n, StretchMode::Baseline);
    std::vector<double> rate(n, 0.0);
    for (std::size_t c : servingIdx) {
        mode[c] = initialMode;
        rate[c] = cfg.rates[c].rate(initialMode);
    }

    DispatchOutcome out;
    out.placed.assign(n, 0);
    out.busyMs.assign(n, 0.0);
    out.modeStats.assign(n, CoreModeStats{});
    for (std::size_t c = 0; c < n; ++c)
        out.modeStats[c].finalMode = mode[c];
    out.offeredRatePerMs = cfg.offeredRatePerMs(capacity);
    if (requests == 0)
        return out;

    Rng placementRng(cfg.seed, placementStream);
    // Drawn traffic (absent under injected replay): gaps, class tags and
    // demands on the dispatcher's own streams.
    std::optional<TrafficSource> traffic;
    if (!injectedOn) {
        traffic.emplace(cfg, out.offeredRatePerMs,
                        TrafficStreams{Rng(cfg.seed, arrivalStream),
                                       Rng(cfg.seed, classStream),
                                       Rng(cfg.seed, demandStream),
                                       arrivalStream});
    }

    // Controllers exist only under dynamic policies; Static runs carry no
    // machine state, just the residency clock.
    std::vector<std::unique_ptr<CoreControl>> controls(n);
    if (dynamic) {
        for (std::size_t c : servingIdx)
            controls[c] = std::make_unique<CoreControl>(mc, classesLive);
    }
    std::vector<double> segStartMs(n, 0.0);

    // Class-aware routing (hot-class pinning + hour-aware reservation +
    // per-class admission) over the baseline capacities.
    std::unique_ptr<ClassRouter> router;
    if (cfg.policy == PlacementPolicy::ClassAware) {
        std::vector<double> baseline(n, 0.0);
        for (std::size_t c = 0; c < n; ++c)
            baseline[c] = cfg.rates[c].baseline;
        router = std::make_unique<ClassRouter>(
            classesLive, baseline, cfg.classRouting,
            cfg.diurnalTrace ? &*cfg.diurnalTrace : nullptr, cfg.msPerHour,
            perClassArr);
    }

    // Incident state. Arrival gaps are divided by `arrivalScale` (the
    // flash-crowd base times the retry-storm multiplier) at consumption,
    // never at the draw — raw RNG draws are identical across scales, so
    // a neutral scale of exactly 1 is bit-identical to no incident. Core
    // capacity is multiplied by `coreScale` the same way.
    std::vector<double> coreScale(n, 1.0);
    double baseArrivalScale = 1.0; // flash crowds (last writer wins)
    double stormScale = 1.0;       // retry-storm feedback multiplier
    double arrivalScale = 1.0;     // baseArrivalScale * stormScale
    bool stormOn = false;
    double stormGain = 0.0;   // amplification per unit lateness fraction
    double stormLateMs = 0.0; // completion counts as late above this
    std::uint64_t stormDone = 0; // completions since the last storm tick
    std::uint64_t stormLate = 0; // late completions since the last tick

    // Observability taps. The tracer only observes — no RNG draws, no
    // times touched — so a traced run is bit-identical to an untraced
    // one; the registry is filled once after the run from tallies the
    // dispatcher keeps anyway.
    obs::EngineTracer *const tracer = cfg.tracer;
    std::uint64_t quantaFired = 0;

    // Co-runner throttle state (the CPI² corrective action): engaged and
    // lifted by the SlackDriven monitor ladder at quantum boundaries.
    std::vector<char> throttled(n, 0);
    std::vector<double> throttleStartMs(n, 0.0);
    auto effectiveRate = [&](std::size_t c) {
        double r = (throttled[c] && cfg.rates[c].throttledLs > 0.0)
                       ? cfg.rates[c].throttledLs
                       : cfg.rates[c].rate(mode[c]);
        return r * coreScale[c];
    };

    // Latency accounting: streaming histograms by default (O(1) record,
    // bin-resolution quantiles), exact raw samples on request.
    const bool exact = cfg.exactTailQuantiles;
    const stats::TailRecorder recorderProto(exact);

    // Completion-timeline buckets (sized lazily as the run extends).
    const bool timelineOn = cfg.timelineBucketMs > 0.0;
    const std::size_t numClasses = cfg.classes.size();
    std::vector<stats::TailRecorder> bucketLatencies;
    std::vector<double> bucketThrottleMs;
    // Per-bucket per-class slices (class-tagged dispatch only).
    std::vector<std::vector<stats::TailRecorder>> bucketClassLatencies;
    std::vector<std::vector<std::uint64_t>> bucketClassShed;
    auto bucketAt = [&](double t) -> std::size_t {
        auto b = static_cast<std::size_t>(t / cfg.timelineBucketMs);
        if (bucketLatencies.size() <= b) {
            bucketLatencies.resize(b + 1, recorderProto);
            bucketThrottleMs.resize(b + 1, 0.0);
            if (classesOn) {
                bucketClassLatencies.resize(
                    b + 1, std::vector<stats::TailRecorder>(numClasses,
                                                            recorderProto));
                bucketClassShed.resize(
                    b + 1, std::vector<std::uint64_t>(numClasses, 0));
            }
        }
        return b;
    };

    // Per-class accounting: completed sojourns, SLO hits, shed counts.
    std::vector<stats::TailRecorder> classLatencies(numClasses,
                                                    recorderProto);
    std::vector<std::uint64_t> classGood(numClasses, 0);
    std::vector<std::uint64_t> classShed(numClasses, 0);

    queueing::EventEngine engine(n);
    stats::TailRecorder latencies(exact);
    latencies.reserve(requests);
    std::size_t rr_next = 0; // round-robin cursor over serving cores

    // Injected-replay cursor: the engine asks for the arrival and then
    // immediately for that same request's demand, so one cursor serves
    // both hooks (demandFn reads the record arrivalFn just consumed).
    std::size_t injectedNext = 0;
    double injectedPrevMs = 0.0;

    auto arrivalFn = [&]() -> queueing::EventEngine::Arrival {
        queueing::EventEngine::Arrival a;
        if (injectedOn) {
            // Replay the pre-steered stream: absolute times become gaps
            // (the list is sorted, so gaps are never negative). The
            // ingress owns the arrival clock — node-local arrival
            // scaling is rejected up front.
            const InjectedArrival &ia = (*cfg.injected)[injectedNext++];
            a.gapMs = ia.atMs - injectedPrevMs;
            injectedPrevMs = ia.atMs;
            a.classId = ia.classId;
            return a;
        }
        a = traffic->nextArrival();
        // Incident traffic scaling happens at consumption, not at the
        // draw, and only off the neutral scale — so the realized gap
        // stream is bit-identical whenever no incident is in force.
        if (arrivalScale != 1.0)
            a.gapMs /= arrivalScale;
        return a;
    };
    auto demandFn = [&](std::uint32_t cls) {
        if (injectedOn)
            return (*cfg.injected)[injectedNext - 1].demand;
        return traffic->nextDemand(cls);
    };
    auto placeFn = [&](double now, double demand,
                       std::uint32_t cls) -> std::size_t {
        switch (cfg.policy) {
        case PlacementPolicy::RoundRobin: {
            while (!canServe[rr_next % n])
                ++rr_next;
            std::size_t target = rr_next % n;
            ++rr_next;
            return target;
        }
        case PlacementPolicy::LeastLoaded: {
            std::size_t target = n;
            double best = std::numeric_limits<double>::infinity();
            for (std::size_t c : servingIdx) {
                double b = engine.backlogMs(c, now);
                if (b < best) {
                    best = b;
                    target = c;
                }
            }
            return target;
        }
        case PlacementPolicy::PowerOfTwo: {
            if (servingIdx.size() == 1)
                return servingIdx.front();
            // Two distinct uniform candidates; shorter backlog wins,
            // ties to the lower core id.
            std::size_t a = static_cast<std::size_t>(
                placementRng.below(servingIdx.size()));
            std::size_t b = static_cast<std::size_t>(
                placementRng.below(servingIdx.size() - 1));
            if (b >= a)
                ++b;
            std::size_t ca = servingIdx[std::min(a, b)];
            std::size_t cb2 = servingIdx[std::max(a, b)];
            return engine.backlogMs(cb2, now) < engine.backlogMs(ca, now)
                       ? cb2
                       : ca;
        }
        case PlacementPolicy::QosAware: {
            // Predicted sojourn time of THIS request on each core: queue
            // wait plus its own service time at the core's current speed.
            std::size_t target = n;
            double best = std::numeric_limits<double>::infinity();
            for (std::size_t c : servingIdx) {
                double predicted =
                    engine.backlogMs(c, now) + demand / rate[c];
                if (predicted < best) {
                    best = predicted;
                    target = c;
                }
            }
            return target;
        }
        case PlacementPolicy::ClassAware: {
            // Hot-class pinning, hour-aware reservation, and per-class
            // admission; may return EventEngine::shed.
            std::size_t target = router->route(cls, now, demand, engine,
                                               rate);
            if (target == queueing::EventEngine::shed || canServe[target])
                return target;
            // The router's fixed big/little partition can still name a
            // failed core when every candidate in the class's tier is
            // gone; fall back to the live core with the best predicted
            // sojourn (only reachable under a CoreFail incident).
            std::size_t best = n;
            double bestPred = std::numeric_limits<double>::infinity();
            for (std::size_t c : servingIdx) {
                double predicted =
                    engine.backlogMs(c, now) + demand / rate[c];
                if (predicted < bestPred) {
                    bestPred = predicted;
                    best = c;
                }
            }
            return best;
        }
        }
        return n; // unreachable; engine asserts
    };
    auto shedFn = [&](std::uint64_t, double now, double,
                      std::uint32_t cls) {
        ++classShed[cls];
        if (timelineOn)
            ++bucketClassShed[bucketAt(now)][cls];
    };
    auto finishFn = [&](std::size_t s, double start, double demand) {
        return start + demand / rate[s];
    };
    auto completeFn = [&](const queueing::Completion &c) {
        // End-to-end sojourn: the node-local latency plus whatever the
        // request accrued upstream (ingress re-steering) — zero except
        // under injected replay. All recorded statistics and SLO
        // verdicts use the end-to-end figure; the control loop's
        // monitors (below) keep seeing the node-local sojourn only, as
        // a real node cannot react to time spent elsewhere.
        double e2eMs = c.latencyMs();
        if (injectedOn)
            e2eMs += (*cfg.injected)[c.index].latencyOffsetMs;
        latencies.record(e2eMs);
        if (stormOn) {
            // Retry-storm feedback window: count completions and how
            // many of them came back late; the next tick converts the
            // lateness fraction into the storm's arrival multiplier.
            ++stormDone;
            if (e2eMs > stormLateMs)
                ++stormLate;
        }
        if (classesOn) {
            classLatencies[c.classId].record(e2eMs);
            if (e2eMs <= classesLive.at(c.classId).sloMs)
                ++classGood[c.classId];
        }
        if (timelineOn) {
            std::size_t b = bucketAt(c.finishMs);
            bucketLatencies[b].record(e2eMs);
            if (classesOn)
                bucketClassLatencies[b][c.classId].record(e2eMs);
        }
        if (controls[c.server]) {
            // With classes, each class feeds its own monitor (targeting
            // the class SLO); otherwise the core's single monitor.
            Cpi2Monitor &mon =
                classesOn ? controls[c.server]->classMonitors[c.classId]
                          : controls[c.server]->monitor;
            mon.recordLatency(c.latencyMs());
            // CPI analogue: sojourn-over-service slowdown of this request.
            // Queueing caused by an antagonised (or overloaded) core
            // inflates it exactly the way contention inflates CPI.
            double service = c.finishMs - c.startMs;
            if (service > 0.0) {
                mon.recordCpi(c.latencyMs() / service);
                if (mon.cpiOutlier())
                    ++out.modeStats[c.server].cpiOutliers;
            }
        }
    };
    // Quantum-boundary mode control. The hook is always part of the
    // policy type; a zero quantum (Static control) simply never fires
    // it, so no controller state is touched.
    auto quantumFn = [&](double t) {
        ++quantaFired;
        std::size_t throttledNow = 0;
        for (std::size_t c : servingIdx) {
            CoreControl &cc = *controls[c];
            StretchMode next = mode[c];
            bool wantThrottle = static_cast<bool>(throttled[c]);
            switch (mc.kind) {
            case ModePolicyKind::BacklogHysteresis: {
                double backlog = engine.backlogMs(c, t);
                switch (mode[c]) {
                case StretchMode::BatchBoost:
                    if (backlog > mc.qmodeAboveMs)
                        next = StretchMode::QosBoost;
                    else if (backlog > mc.disengageAboveMs)
                        next = StretchMode::Baseline;
                    break;
                case StretchMode::Baseline:
                    if (backlog > mc.qmodeAboveMs)
                        next = StretchMode::QosBoost;
                    else if (backlog < mc.engageBelowMs)
                        next = StretchMode::BatchBoost;
                    break;
                case StretchMode::QosBoost:
                    if (backlog < mc.engageBelowMs)
                        next = StretchMode::BatchBoost;
                    else if (backlog < mc.disengageAboveMs)
                        next = StretchMode::Baseline;
                    break;
                }
                break;
            }
            case ModePolicyKind::SlackDriven:
                if (classesOn) {
                    // One monitor per class, each judged against its
                    // own SLO; the core follows the most severe vote
                    // (the tightest class wins) and throttles when
                    // any class's ladder orders it.
                    int best_sev = -1;
                    bool any_throttle = false;
                    for (Cpi2Monitor &m : cc.classMonitors) {
                        if (m.windowFill() == 0)
                            continue;
                        MonitorDecision d = m.evaluateWindowNow();
                        best_sev =
                            std::max(best_sev, modeSeverity(d.mode));
                        any_throttle |= d.throttleCoRunner;
                    }
                    if (best_sev >= 0) {
                        next = modeForSeverity(best_sev);
                        wantThrottle =
                            mc.honorThrottle && any_throttle;
                    }
                } else if (cc.monitor.windowFill() > 0) {
                    MonitorDecision d = cc.monitor.evaluateWindowNow();
                    next = d.mode;
                    wantThrottle =
                        mc.honorThrottle && d.throttleCoRunner;
                }
                break;
            case ModePolicyKind::Static:
                break;
            }
            CoreModeStats &ms = out.modeStats[c];
            if (wantThrottle != static_cast<bool>(throttled[c])) {
                // Act on the monitor's ladder: suppress or release the
                // batch co-runner. The LS thread serves at the
                // throttled rate while the suppression holds.
                if (wantThrottle) {
                    ++ms.throttleEngagements;
                    throttleStartMs[c] = t;
                    if (tracer)
                        tracer->throttleBegin(c, t);
                } else {
                    ms.throttleMs += t - throttleStartMs[c];
                    if (tracer)
                        tracer->throttleEnd(c, t);
                }
                throttled[c] = wantThrottle;
                rate[c] = effectiveRate(c);
            }
            if (throttled[c])
                ++throttledNow;
            if (next == mode[c])
                continue;
            if (tracer) {
                tracer->modeEnd(c, t, toString(mode[c]));
                tracer->modeBegin(c, t, toString(next));
            }
            ms.residencyMs[modeIndex(mode[c])] += t - segStartMs[c];
            segStartMs[c] = t;
            cc.ctrl.engage(next); // register write + partitions + flush
            engine.chargeCapacity(c, t, mc.flushCostMs);
            ms.flushMs += mc.flushCostMs;
            ++ms.transitions;
            mode[c] = next;
            rate[c] = effectiveRate(c);
        }
        if (timelineOn && throttledNow > 0) {
            bucketThrottleMs[bucketAt(t)] +=
                mc.quantumMs * static_cast<double>(throttledNow);
        }
    };

    // Scheduled-incident channel: the engine interleaves these with
    // completions and quantum boundaries at exact simulated timestamps.
    // Each fire applies ONE action and advances the cursor, so several
    // actions sharing a timestamp apply in list order.
    std::size_t actionNext = 0;
    auto controlNextFn = [&]() -> double {
        return actionNext < actions.size()
                   ? actions[actionNext].atMs
                   : std::numeric_limits<double>::infinity();
    };
    auto controlFireFn = [&](double t) {
        const IncidentAction &a = actions[actionNext++];
        if (tracer) {
            switch (a.kind) {
            case IncidentAction::Kind::CoreRateScale:
            case IncidentAction::Kind::CoreFail:
                tracer->incident(t, toString(a.kind), a.value, "core",
                                 static_cast<double>(a.core));
                break;
            case IncidentAction::Kind::ClassSloRetarget:
                tracer->incident(t, toString(a.kind), a.value, "class",
                                 static_cast<double>(a.classId));
                break;
            default:
                tracer->incident(t, toString(a.kind), a.value);
                break;
            }
        }
        switch (a.kind) {
        case IncidentAction::Kind::ArrivalScale:
            baseArrivalScale = a.value;
            break;
        case IncidentAction::Kind::CoreRateScale:
            coreScale[a.core] = a.value;
            if (canServe[a.core])
                rate[a.core] = effectiveRate(a.core);
            break;
        case IncidentAction::Kind::CoreFail: {
            if (!canServe[a.core])
                break; // double failure is a no-op
            canServe[a.core] = 0;
            servingIdx.erase(std::remove(servingIdx.begin(),
                                         servingIdx.end(), a.core),
                             servingIdx.end());
            STRETCH_ASSERT(!servingIdx.empty(),
                           "every serving core has failed");
            // Close the dead core's mode/throttle timeline at the
            // failure instant; it takes no further part in the run.
            CoreModeStats &ms = out.modeStats[a.core];
            ms.residencyMs[modeIndex(mode[a.core])] +=
                t - segStartMs[a.core];
            segStartMs[a.core] = t;
            ms.finalMode = mode[a.core];
            if (tracer)
                tracer->modeEnd(a.core, t, toString(mode[a.core]));
            if (throttled[a.core]) {
                ms.throttleMs += t - throttleStartMs[a.core];
                throttled[a.core] = 0;
                if (tracer)
                    tracer->throttleEnd(a.core, t);
            }
            break;
        }
        case IncidentAction::Kind::ClassSloRetarget: {
            classesLive.retargetSlo(a.classId, a.value, a.value2);
            // Monitors copied the SLO at construction; re-aim them so
            // the mode ladder judges against the new target too.
            const workloads::ServiceClass &cls = classesLive.at(a.classId);
            for (std::size_t c : servingIdx) {
                if (controls[c] && a.classId < controls[c]->classMonitors
                                                   .size()) {
                    controls[c]->classMonitors[a.classId].retarget(
                        cls.sloMs, cls.tailPercentile);
                }
            }
            break;
        }
        case IncidentAction::Kind::RetryStormStart:
            stormOn = true;
            stormGain = a.value;
            stormLateMs = a.value2;
            stormDone = 0;
            stormLate = 0;
            stormScale = 1.0;
            break;
        case IncidentAction::Kind::RetryStormTick: {
            if (!stormOn)
                break;
            double lateness =
                stormDone > 0 ? static_cast<double>(stormLate) /
                                    static_cast<double>(stormDone)
                              : 0.0;
            stormScale = 1.0 + stormGain * lateness;
            stormDone = 0;
            stormLate = 0;
            break;
        }
        case IncidentAction::Kind::RetryStormEnd:
            stormOn = false;
            stormScale = 1.0;
            break;
        }
        arrivalScale = baseArrivalScale * stormScale;
    };

    auto policy = queueing::makePolicy(
        arrivalFn, demandFn, placeFn, finishFn, completeFn, shedFn,
        quantumFn, dynamic ? mc.quantumMs : 0.0, out.offeredRatePerMs,
        controlNextFn, controlFireFn);
    // The tracing decision happens ONCE, here: the untraced branch
    // instantiates the engine loop with the bare policy — literally the
    // pre-observability code path, no per-event null check — while the
    // traced branch instantiates a second specialization through the
    // observing wrapper.
    if (tracer) {
        for (std::size_t c : servingIdx)
            tracer->modeBegin(c, 0.0, toString(mode[c]));
        obs::TracedPolicy<decltype(policy)> traced(policy, *tracer);
        engine.run(requests, traced);
    } else {
        engine.run(requests, policy);
    }

    // Close out the mode and throttle timelines at the makespan.
    out.elapsedMs = engine.elapsedMs();
    for (std::size_t c : servingIdx) {
        CoreModeStats &ms = out.modeStats[c];
        ms.residencyMs[modeIndex(mode[c])] += out.elapsedMs - segStartMs[c];
        ms.finalMode = mode[c];
        if (tracer)
            tracer->modeEnd(c, out.elapsedMs, toString(mode[c]));
        if (throttled[c]) {
            ms.throttleMs += out.elapsedMs - throttleStartMs[c];
            ms.throttledAtEnd = true;
            if (tracer)
                tracer->throttleEnd(c, out.elapsedMs);
        }
        if (controls[c]) {
            STRETCH_ASSERT(controls[c]->ctrl.modeChanges() == ms.transitions,
                           "mode-register change count diverged from the "
                           "dispatch timeline");
        }
    }
    for (std::size_t c = 0; c < n; ++c) {
        out.placed[c] = engine.servers()[c].placed;
        out.busyMs[c] = engine.servers()[c].busyMs;
    }

    if (timelineOn) {
        out.timeline.reserve(bucketLatencies.size());
        for (std::size_t b = 0; b < bucketLatencies.size(); ++b) {
            TimelineBucket tb;
            tb.startMs = static_cast<double>(b) * cfg.timelineBucketMs;
            tb.completions = bucketLatencies[b].count();
            if (bucketLatencies[b].count() > 0) {
                tb.p50Ms = bucketLatencies[b].percentile(50.0);
                tb.p99Ms = bucketLatencies[b].percentile(99.0);
            }
            if (cfg.diurnalTrace) {
                tb.loadFraction = cfg.diurnalTrace->loadAt(
                    (tb.startMs + 0.5 * cfg.timelineBucketMs) /
                    cfg.msPerHour);
            }
            tb.throttledCoreMs = bucketThrottleMs[b];
            if (classesOn) {
                tb.perClass.resize(numClasses);
                for (std::size_t k = 0; k < numClasses; ++k) {
                    TimelineBucket::ClassCell &cell = tb.perClass[k];
                    cell.completions = bucketClassLatencies[b][k].count();
                    cell.shed = bucketClassShed[b][k];
                    if (bucketClassLatencies[b][k].count() > 0) {
                        cell.p99Ms =
                            bucketClassLatencies[b][k].percentile(99.0);
                    }
                }
            }
            out.timeline.push_back(tb);
        }
    }

    // Per-class reporting: latency distribution, tail at the class's own
    // percentile, and SLO attainment over offered (completed + shed)
    // requests — shedding counts as a miss.
    if (classesOn) {
        out.perClass.resize(numClasses);
        for (std::size_t k = 0; k < numClasses; ++k) {
            const workloads::ServiceClass &sc =
                classesLive.at(static_cast<workloads::ClassId>(k));
            ClassOutcome &co = out.perClass[k];
            co.name = sc.name;
            co.completed = classLatencies[k].count();
            co.shed = classShed[k];
            co.sloTargetMs = sc.sloMs;
            co.tailPercentile = sc.tailPercentile;
            co.latencyMs = classLatencies[k].summarize();
            if (classLatencies[k].count() > 0)
                co.tailMs = classLatencies[k].percentile(sc.tailPercentile);
            std::uint64_t offered = co.completed + co.shed;
            co.sloGood = classGood[k];
            co.sloAttainment =
                offered > 0 ? static_cast<double>(classGood[k]) /
                                  static_cast<double>(offered)
                            : 0.0;
            out.totalShed += co.shed;
        }
    }

    out.latencyMs = latencies.summarize();
    out.throughputRps =
        out.elapsedMs > 0.0
            ? static_cast<double>(latencies.count()) /
                  (out.elapsedMs / 1000.0)
            : 0.0;

    // End-of-run metric fill: everything below restates tallies the
    // dispatcher accumulated anyway, so an attached registry costs the
    // event loop nothing.
    if (cfg.metrics) {
        obs::MetricRegistry &reg = *cfg.metrics;
        reg.counter("engine.arrivals") += requests;
        reg.counter("engine.completions") += latencies.count();
        reg.counter("engine.sheds") += out.totalShed;
        reg.counter("engine.quantum_boundaries") += quantaFired;
        reg.counter("control.mode_transitions") += out.totalTransitions();
        reg.counter("control.throttle_engagements") +=
            out.totalThrottleEngagements();
        reg.gauge("control.throttle_core_ms") += out.totalThrottleMs();
        double flushTotalMs = 0.0;
        std::uint64_t outliers = 0;
        for (const CoreModeStats &ms : out.modeStats) {
            flushTotalMs += ms.flushMs;
            outliers += ms.cpiOutliers;
        }
        reg.gauge("control.mode_flush_ms") += flushTotalMs;
        reg.counter("qos.cpi_outliers") += outliers;
        for (std::size_t c = 0; c < n; ++c) {
            if (!controls[c])
                continue;
            auto absorb = [&](const Cpi2Monitor &mon) {
                reg.counter("qos.violation_windows") +=
                    mon.violationWindows();
                reg.counter("qos.windows_evaluated") +=
                    mon.windowsEvaluated();
                reg.counter("qos.monitor_throttle_orders") +=
                    mon.throttleEngagements();
            };
            if (classesOn) {
                for (const Cpi2Monitor &mon : controls[c]->classMonitors)
                    absorb(mon);
            } else {
                absorb(controls[c]->monitor);
            }
        }
        reg.counter("incidents.fired") += actionNext;
        for (std::size_t i = 0; i < actionNext; ++i) {
            ++reg.counter(std::string("incidents.") +
                          toString(actions[i].kind));
        }
        if (router) {
            const ClassRouter::RoutingStats &rs = router->routingStats();
            reg.counter("router.hot_pinned") += rs.hotPinned;
            reg.counter("router.hot_overflow") += rs.hotOverflow;
            reg.counter("router.loose_little") += rs.looseLittle;
            reg.counter("router.loose_big") += rs.looseBig;
            reg.counter("router.shed_admission") += rs.shedAdmission;
        }
        latencies.mergeInto(reg.tail("dispatch.latency_ms"));
        reg.gauge("dispatch.elapsed_ms") = out.elapsedMs;
        reg.gauge("dispatch.offered_rate_per_ms") = out.offeredRatePerMs;
        reg.gauge("dispatch.throughput_rps") = out.throughputRps;
        for (std::size_t k = 0; k < numClasses; ++k) {
            const ClassOutcome &co = out.perClass[k];
            const std::string prefix = "class." + co.name + ".";
            reg.counter(prefix + "completions") += co.completed;
            reg.counter(prefix + "sheds") += co.shed;
            reg.counter(prefix + "slo_good") += classGood[k];
            reg.gauge(prefix + "slo_attainment") = co.sloAttainment;
            classLatencies[k].mergeInto(reg.tail(prefix + "latency_ms"));
        }
    }

    // Hand the raw recorders to the caller last — every summary and
    // metric above has already been derived from them.
    if (cfg.keepRecorders) {
        out.latencyRecorder = std::move(latencies);
        out.classRecorders = std::move(classLatencies);
        out.timelineRecorders = std::move(bucketLatencies);
    }
    return out;
}

DispatchOutcome
dispatchRequests(const std::vector<double> &serviceRatePerMs,
                 PlacementPolicy policy, std::uint64_t requests,
                 double arrivalRatePerMs, std::uint64_t seed)
{
    DispatchConfig cfg;
    cfg.rates.reserve(serviceRatePerMs.size());
    for (double rate : serviceRatePerMs)
        cfg.rates.push_back(ModeRates::flat(rate));
    cfg.policy = policy;
    cfg.requests = requests;
    cfg.arrivalRatePerMs = arrivalRatePerMs;
    cfg.seed = seed;
    return dispatchRequests(cfg);
}

FleetResult
runFleet(const FleetConfig &cfg)
{
    const std::size_t n = cfg.cores.size();
    STRETCH_ASSERT(n > 0, "fleet needs at least one core");
    STRETCH_ASSERT(cfg.slots.empty() || cfg.slots.size() == n,
                   "slots must be empty or index-matched to cores");

    const ModeControlConfig &mc = cfg.control;
    const bool dynamic = mc.kind != ModePolicyKind::Static ||
                         mc.staticMode != StretchMode::Baseline;
    // The throttled operating point is only worth simulating when the
    // control loop can actually order co-runner throttling.
    const bool withThrottle =
        mc.kind == ModePolicyKind::SlackDriven && mc.honorThrottle;
    const std::size_t points =
        dynamic ? numStretchModes + (withThrottle ? 1 : 0) : 1;

    // Heterogeneous slot parameters: physical sizes override the slot's
    // RunConfig, and per-slot skews (when set) override the fleet-wide
    // mode-control skews so little cores get partitions that fit.
    auto slotConfig = [&](std::size_t i) {
        RunConfig rc = cfg.cores[i];
        if (i < cfg.slots.size()) {
            if (cfg.slots[i].robEntries)
                rc.robEntries = cfg.slots[i].robEntries;
            if (cfg.slots[i].lsqEntries)
                rc.lsqEntries = cfg.slots[i].lsqEntries;
        }
        return rc;
    };
    auto slotSkew = [&](std::size_t i, StretchMode m) {
        if (i < cfg.slots.size()) {
            const SkewConfig &s = m == StretchMode::BatchBoost
                                      ? cfg.slots[i].bmodeSkew
                                      : cfg.slots[i].qmodeSkew;
            if (s.lsRobEntries + s.batchRobEntries > 0)
                return s;
        }
        return m == StretchMode::BatchBoost ? mc.bmodeSkew : mc.qmodeSkew;
    };
    if (dynamic) {
        for (std::size_t i = 0; i < n; ++i) {
            RunConfig rc = slotConfig(i);
            for (StretchMode m :
                 {StretchMode::BatchBoost, StretchMode::QosBoost}) {
                SkewConfig s = slotSkew(i, m);
                STRETCH_ASSERT(s.lsRobEntries + s.batchRobEntries <=
                                   rc.robEntries,
                               "slot skew exceeds the slot's ROB");
            }
        }
    }

    FleetResult fleet;
    fleet.cores.resize(n);

    // Per-core simulations share no mutable state and each result depends
    // only on its own derived RunConfig, so the thread schedule cannot
    // change any bit of the index-addressed results. Under dynamic mode
    // control every core is measured at all three operating points — plus
    // the fetch-throttled point when the monitor may throttle — with the
    // same seed (the paper's matched-sampling methodology), so the
    // dispatcher knows the capacity each control action buys. Repeat
    // measurements of identical configurations are answered from the
    // process-wide OperatingPointCache.
    auto measure = [&](const RunConfig &rc) -> RunResult {
        if (cfg.reuseOperatingPoints)
            return OperatingPointCache::instance().measure(rc);
        return run(rc);
    };
    std::vector<RunResult> pointResults;
    if (dynamic) {
        pointResults.resize(n * points);
        parallelFor(cfg.threads, n * points, [&](std::size_t task) {
            std::size_t i = task / points;
            std::size_t p = task % points;
            RunConfig rc = slotConfig(i);
            if (p < numStretchModes) {
                auto m = static_cast<StretchMode>(p);
                rc.rob = robSetupFor(m, slotSkew(i, StretchMode::BatchBoost),
                                     slotSkew(i, StretchMode::QosBoost));
            } else {
                // Throttled point: the monitor only orders throttling
                // after stepping to Q-mode, so measure the Q-mode
                // partition with the batch thread fetching once every
                // throttleFetchRatio cycles on top of it.
                rc.rob = robSetupFor(StretchMode::QosBoost,
                                     slotSkew(i, StretchMode::BatchBoost),
                                     slotSkew(i, StretchMode::QosBoost));
                rc.fetchPolicy = FetchPolicy::Throttle;
                rc.throttleRatio = mc.throttleFetchRatio;
                rc.throttledThread = 1;
            }
            pointResults[task] = measure(rc);
        });
        for (std::size_t i = 0; i < n; ++i)
            fleet.cores[i] =
                pointResults[i * points + modeIndex(StretchMode::Baseline)];
    } else {
        parallelFor(cfg.threads, n, [&](std::size_t i) {
            fleet.cores[i] = measure(slotConfig(i));
        });
    }

    // Ordered reduction over cores (determinism: fixed iteration order).
    std::vector<double> ls_uipc, batch_uipc;
    fleet.modeRates.assign(n, ModeRates{});
    fleet.batchPoints.assign(n, FleetResult::BatchOperatingPoints{});
    const double cycles_per_ms = coreFreqGhz * 1e6;
    auto uipcToRate = [&](double uipc) {
        return uipc * cycles_per_ms / cfg.opsPerRequest;
    };
    for (std::size_t i = 0; i < n; ++i) {
        const RunResult &r = fleet.cores[i];
        fleet.totalLsUipc += r.uipc[0];
        ls_uipc.push_back(r.uipc[0]);
        if (!cfg.cores[i].workload1.empty()) {
            fleet.totalBatchUipc += r.uipc[1];
            batch_uipc.push_back(r.uipc[1]);
        }
        if (dynamic) {
            const RunResult *per_point = &pointResults[i * points];
            fleet.modeRates[i].baseline = uipcToRate(
                per_point[modeIndex(StretchMode::Baseline)].uipc[0]);
            fleet.modeRates[i].bmode = uipcToRate(
                per_point[modeIndex(StretchMode::BatchBoost)].uipc[0]);
            fleet.modeRates[i].qmode = uipcToRate(
                per_point[modeIndex(StretchMode::QosBoost)].uipc[0]);
            for (std::size_t m = 0; m < numStretchModes; ++m)
                fleet.batchPoints[i].byMode[m] = per_point[m].uipc[1];
            if (withThrottle) {
                fleet.modeRates[i].throttledLs =
                    uipcToRate(per_point[numStretchModes].uipc[0]);
                fleet.batchPoints[i].throttled =
                    per_point[numStretchModes].uipc[1];
            }
        } else {
            fleet.modeRates[i] = ModeRates::flat(uipcToRate(r.uipc[0]));
            for (std::size_t m = 0; m < numStretchModes; ++m)
                fleet.batchPoints[i].byMode[m] = r.uipc[1];
            fleet.batchPoints[i].throttled = r.uipc[1];
        }
    }
    fleet.lsUipc = stats::summarize(ls_uipc);
    fleet.batchUipc = stats::summarize(batch_uipc);

    DispatchConfig dispatch;
    static_cast<DispatchSpec &>(dispatch) = cfg;
    dispatch.rates = fleet.modeRates;
    fleet.dispatch = dispatchRequests(dispatch);

    // Close the loop's throughput accounting: weight each core's batch
    // UIPC by its dispatch-time mode residency, and collapse it to the
    // suppressed rate for the fraction of the run the monitor held the
    // co-runner throttled (throttle time is approximated as spread across
    // modes in residency proportion).
    for (std::size_t i = 0; i < n; ++i) {
        const CoreModeStats &ms = fleet.dispatch.modeStats[i];
        const FleetResult::BatchOperatingPoints &bp = fleet.batchPoints[i];
        double total = ms.residencyMs[0] + ms.residencyMs[1] +
                       ms.residencyMs[2];
        if (total <= 0.0) {
            fleet.effectiveBatchUipc += fleet.cores[i].uipc[1];
            continue;
        }
        double mode_mix = 0.0;
        for (std::size_t m = 0; m < numStretchModes; ++m)
            mode_mix += ms.residencyMs[m] / total * bp.byMode[m];
        double thr_frac = std::min(1.0, ms.throttleMs / total);
        fleet.effectiveBatchUipc +=
            (1.0 - thr_frac) * mode_mix + thr_frac * bp.throttled;
    }
    return fleet;
}

} // namespace stretch::sim
