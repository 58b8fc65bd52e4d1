#include "scenario/scenario.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/op_point_cache.h"
#include "util/log.h"
#include "util/parallel_for.h"
#include "util/seed_stream.h"

namespace stretch::scenario
{

namespace
{

/** printf-lite formatting of a double for error messages. */
std::string
num(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

/** What a calibration probe measures: the fleet's summed baseline
 *  capacity and the flat-load p99 latency scale. */
struct Calibration
{
    double capacityPerMs = 0.0;
    double p99Ms = 0.0;
};

/**
 * Run (or recall) the static calibration probe for a scenario. The
 * probe is a pure function of the cores/slots and the probe stream
 * parameters — sweeping many variants over the same fleet would
 * otherwise replay an identical probe dispatch per variant, so the
 * result is memoised process-wide (the operating-point measurements
 * underneath are cached too; this just skips the repeat queueing
 * simulation). Keyed on every result-changing input, including the
 * global quick factor.
 */
Calibration
calibrate(const Scenario &s)
{
    std::ostringstream key;
    for (const sim::RunConfig &core : s.cores)
        key << sim::OperatingPointCache::key(core) << '#';
    for (const sim::CoreSlot &slot : s.slots) {
        key << slot.robEntries << ':' << slot.lsqEntries << ':'
            << slot.bmodeSkew.lsRobEntries << ':'
            << slot.bmodeSkew.batchRobEntries << ':'
            << slot.qmodeSkew.lsRobEntries << ':'
            << slot.qmodeSkew.batchRobEntries << '#';
    }
    key << '|' << s.calibrationRequests << '|' << s.opsPerRequest << '|'
        << s.seed;

    // Single-flight memo: concurrent sweep variants over the same cores
    // share one probe run — the first caller simulates, the rest block
    // on its result instead of duplicating it.
    static std::mutex mu;
    static std::condition_variable flightCv;
    static std::set<std::string> inflight;
    static std::map<std::string, Calibration> memo;
    std::string k = key.str();
    {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            auto it = memo.find(k);
            if (it != memo.end())
                return it->second;
            if (inflight.insert(k).second)
                break; // this thread runs the key's one probe
            flightCv.wait(lock);
        }
    }

    sim::FleetConfig probe;
    probe.cores = s.cores;
    probe.slots = s.slots;
    probe.requests = s.calibrationRequests;
    probe.opsPerRequest = s.opsPerRequest;
    probe.seed = s.seed;
    probe.reuseOperatingPoints = s.reuseOperatingPoints;
    probe.threads = s.threads;
    Calibration cal;
    try {
        sim::FleetResult flat = sim::runFleet(probe);
        for (const sim::ModeRates &r : flat.modeRates)
            cal.capacityPerMs += r.baseline;
        cal.p99Ms = flat.dispatch.latencyMs.p99;
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        inflight.erase(k);
        flightCv.notify_all();
        throw;
    }
    STRETCH_ASSERT(cal.capacityPerMs > 0.0,
                   "calibration probe measured no serving capacity");

    std::lock_guard<std::mutex> lock(mu);
    inflight.erase(k);
    const Calibration &slot = memo.emplace(std::move(k), cal).first->second;
    flightCv.notify_all();
    return slot;
}

} // namespace

bool
Scenario::needsCalibration() const
{
    return meanLoadFraction > 0.0 || peakLoadFraction > 0.0 ||
           qosTargetFactor > 0.0 ||
           (dayRequests && arrivalRatePerMs <= 0.0);
}

std::string
BuildResult::errorText() const
{
    std::string joined;
    for (const std::string &e : errors) {
        if (!joined.empty())
            joined += "; ";
        joined += e;
    }
    return joined;
}

ScenarioBuilder &
ScenarioBuilder::name(std::string n)
{
    draft.name = std::move(n);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::cores(unsigned n, const sim::RunConfig &base)
{
    draft.cores.clear();
    draft.slots.clear();
    draft.cores.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        sim::RunConfig core = base;
        core.seed = util::deriveSeed(base.seed, i);
        draft.cores.push_back(std::move(core));
    }
    // Adopt the base seed for the dispatch streams too (the
    // homogeneousFleet convention) — unless the caller pinned one
    // explicitly with seed(), which wins regardless of call order.
    if (!seedExplicit)
        draft.seed = base.seed;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::cores(const sim::RunConfig &base,
                       std::vector<sim::CoreSlot> slots)
{
    cores(static_cast<unsigned>(slots.size()), base);
    draft.slots = std::move(slots);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::addCore(sim::RunConfig core)
{
    draft.cores.push_back(std::move(core));
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::coRunner(std::size_t index, std::string workload)
{
    STRETCH_ASSERT(index < draft.cores.size(),
                   "coRunner(", index, ") before a core with that index "
                   "exists: add the topology first");
    draft.cores[index].workload1 = std::move(workload);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::nodes(unsigned n)
{
    draft.nodes = n;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::ingress(cluster::IngressConfig cfg)
{
    draft.ingress = cfg;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::ingressPolicy(cluster::IngressPolicy policy)
{
    draft.ingress.policy = policy;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::requests(std::uint64_t n)
{
    draft.requests = n;
    draft.dayRequests = false;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::dayLongStream()
{
    draft.dayRequests = true;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::arrivalRate(double rate_per_ms)
{
    draft.arrivalRatePerMs = rate_per_ms;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::meanLoad(double fraction)
{
    draft.meanLoadFraction = fraction;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::peakLoad(double fraction)
{
    draft.peakLoadFraction = fraction;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::burstiness(double ratio, double dwell_low_ms,
                            double dwell_high_ms)
{
    draft.burstRatio = ratio;
    draft.dwellLowMs = dwell_low_ms;
    draft.dwellHighMs = dwell_high_ms;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::diurnal(queueing::DiurnalTrace trace, double ms_per_hour)
{
    draft.trace = std::move(trace);
    draft.msPerHour = ms_per_hour;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::serviceClass(workloads::ServiceClass cls)
{
    pendingClasses.push_back(std::move(cls));
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::serviceClasses(
    const workloads::ServiceClassRegistry &registry)
{
    for (const workloads::ServiceClass &cls : registry.all())
        pendingClasses.push_back(cls);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::perClassArrivals(bool on)
{
    perClassOverride = on;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::incident(Incident incident)
{
    draft.incidents.push_back(std::move(incident));
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::placement(sim::PlacementPolicy policy)
{
    draft.placement = policy;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::classRouting(sim::ClassRouterConfig cfg)
{
    draft.classRouting = cfg;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::modeControl(sim::ModeControlConfig cfg)
{
    draft.control = cfg;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::modePolicy(sim::ModePolicyKind kind)
{
    draft.control.kind = kind;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::staticMode(StretchMode mode)
{
    draft.control.staticMode = mode;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::controlQuantum(double quantum_ms)
{
    draft.control.quantumMs = quantum_ms;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::honorThrottle(bool on)
{
    draft.control.honorThrottle = on;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::qosTarget(double target_ms)
{
    draft.control.monitor.qosTarget = target_ms;
    draft.qosTargetFactor = 0.0;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::qosTargetFactor(double factor)
{
    draft.qosTargetFactor = factor;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::timeline(double bucket_ms)
{
    draft.timelineBucketMs = bucket_ms;
    draft.hourlyTimeline = false;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::hourlyTimeline()
{
    draft.hourlyTimeline = true;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::reportTo(std::string path)
{
    draft.reportPath = std::move(path);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::traceTo(std::string path)
{
    draft.tracePath = std::move(path);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::opsPerRequest(double ops)
{
    draft.opsPerRequest = ops;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::seed(std::uint64_t s)
{
    draft.seed = s;
    seedExplicit = true;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::threads(unsigned n)
{
    draft.threads = n;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::reuseOperatingPoints(bool on)
{
    draft.reuseOperatingPoints = on;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::calibrationRequests(std::uint64_t n)
{
    draft.calibrationRequests = n;
    return *this;
}

BuildResult
ScenarioBuilder::tryBuild() const
{
    BuildResult result;
    std::vector<std::string> &errors = result.errors;

    // --- Topology -------------------------------------------------------
    if (draft.cores.empty()) {
        errors.push_back("scenario topology is empty: add cores(n, base), "
                         "cores(base, slots), or addCore(...) before "
                         "building");
    }
    for (std::size_t i = 0; i < draft.cores.size(); ++i) {
        if (draft.cores[i].workload0.empty()) {
            errors.push_back("core " + std::to_string(i) +
                             " has no latency-sensitive workload: set "
                             "RunConfig::workload0");
        }
    }
    if (!draft.slots.empty() && draft.slots.size() != draft.cores.size()) {
        errors.push_back(
            "slots (" + std::to_string(draft.slots.size()) +
            ") are not index-matched to cores (" +
            std::to_string(draft.cores.size()) +
            "): pass one CoreSlot per core or none");
    }

    // --- Rack -----------------------------------------------------------
    if (draft.nodes == 0)
        errors.push_back("nodes(0): a scenario needs at least one node");
    if (draft.nodes > 1) {
        if (draft.trace) {
            errors.push_back("rack scenarios (nodes > 1) cannot yet resolve "
                             "their ingress rate under a diurnal trace: "
                             "drop diurnal(...) or nodes(n)");
        }
        if (draft.ingress.signalDelayMs < 0.0)
            errors.push_back("ingress signal delay must be >= 0 ms (got " +
                             num(draft.ingress.signalDelayMs) + ")");
        if (draft.ingress.migrateSojournMs < 0.0)
            errors.push_back("ingress migration threshold must be >= 0 ms "
                             "(0 = off; got " +
                             num(draft.ingress.migrateSojournMs) + ")");
        if (draft.ingress.migrationCostMs < 0.0 ||
            draft.ingress.failoverDelayMs < 0.0)
            errors.push_back("ingress migration/failover costs must be "
                             ">= 0 ms");
        if (draft.ingress.virtualNodesPerNode < 1)
            errors.push_back("the ingress affinity ring needs at least one "
                             "point per node");
        if (draft.ingress.spilloverBacklogMs <= 0.0)
            errors.push_back("the ingress spillover threshold must be "
                             "positive (got " +
                             num(draft.ingress.spilloverBacklogMs) + " ms)");
    }

    // --- Traffic --------------------------------------------------------
    int rate_specs = (draft.arrivalRatePerMs > 0.0 ? 1 : 0) +
                     (draft.meanLoadFraction > 0.0 ? 1 : 0) +
                     (draft.peakLoadFraction > 0.0 ? 1 : 0);
    if (rate_specs > 1) {
        errors.push_back("pick one rate specification: arrivalRate(), "
                         "meanLoad(), or peakLoad()");
    }
    if (draft.arrivalRatePerMs < 0.0)
        errors.push_back("arrival rate must be positive (got " +
                         num(draft.arrivalRatePerMs) + " req/ms)");
    if (draft.meanLoadFraction < 0.0)
        errors.push_back("mean-load fraction must be positive (got " +
                         num(draft.meanLoadFraction) + ")");
    if (draft.peakLoadFraction < 0.0)
        errors.push_back("peak-load fraction must be positive (got " +
                         num(draft.peakLoadFraction) + ")");
    if (draft.burstRatio < 1.0) {
        errors.push_back("burstiness ratio must be >= 1 (1 = Poisson; got " +
                         num(draft.burstRatio) + ")");
    }
    if (draft.dwellLowMs <= 0.0 || draft.dwellHighMs <= 0.0)
        errors.push_back("MMPP-2 state dwells must be positive");
    if (draft.trace && draft.msPerHour <= 0.0) {
        errors.push_back("diurnal replay needs a positive ms-per-hour "
                         "(got " + num(draft.msPerHour) + ")");
    }
    if (draft.dayRequests && !draft.trace) {
        errors.push_back("dayLongStream() sizes the stream to a replayed "
                         "24 h day: call diurnal(trace, msPerHour) too");
    }
    if (draft.hourlyTimeline && !draft.trace) {
        errors.push_back("hourlyTimeline() buckets by replayed hour: call "
                         "diurnal(trace, msPerHour) too, or use "
                         "timeline(bucketMs)");
    }
    if (draft.timelineBucketMs < 0.0)
        errors.push_back("timeline bucket must be >= 0 ms");

    // --- Service classes ------------------------------------------------
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < pendingClasses.size(); ++i) {
        const workloads::ServiceClass &c = pendingClasses[i];
        std::string who = c.name.empty()
                              ? "service class " + std::to_string(i)
                              : "service class '" + c.name + "'";
        if (c.name.empty())
            errors.push_back(who + " has no name");
        for (std::size_t j = 0; j < i; ++j) {
            if (!c.name.empty() && pendingClasses[j].name == c.name) {
                errors.push_back("duplicate " + who);
                break;
            }
        }
        if (c.weight <= 0.0)
            errors.push_back(who + " needs a positive mix weight (got " +
                             num(c.weight) + ")");
        weight_sum += std::max(0.0, c.weight);
        if (c.sloMs <= 0.0) {
            errors.push_back(who + " has SLO <= 0 ms (got " + num(c.sloMs) +
                             "): set ServiceClass::sloMs to the positive "
                             "sojourn-time target");
        }
        if (c.tailPercentile <= 0.0 || c.tailPercentile > 100.0)
            errors.push_back(who + " needs a tail percentile in (0, 100]");
        if (c.meanDemand <= 0.0)
            errors.push_back(who + " needs a positive mean demand");
        if (c.logSigma < 0.0)
            errors.push_back(who + " has a negative lognormal sigma");
        if (c.shape == workloads::DemandShape::Pareto &&
            c.paretoAlpha <= 1.0) {
            errors.push_back(who + " draws Pareto demands but its tail "
                                   "index is <= 1 (infinite mean): raise "
                                   "paretoAlpha above 1");
        }
        if (c.batchTolerance < 0.0 || c.batchTolerance > 1.0)
            errors.push_back(who + " needs a batch tolerance in [0, 1]");
        if (c.traffic.rateShare < 0.0)
            errors.push_back(who + " has a negative arrival rate share");
        if (c.traffic.burstRatio < 1.0)
            errors.push_back(who + " needs a per-class burst ratio >= 1");
        if (c.traffic.dwellLowMs <= 0.0 || c.traffic.dwellHighMs <= 0.0)
            errors.push_back(who + " needs positive per-class MMPP dwells");
    }
    if (!pendingClasses.empty() && weight_sum <= 0.0) {
        errors.push_back("class weights sum to 0: every service class "
                         "needs a positive ServiceClass::weight for the "
                         "arrival mix");
    }

    bool custom_traffic = false;
    for (const workloads::ServiceClass &c : pendingClasses)
        custom_traffic |= c.traffic.customised();
    if (pendingClasses.empty()) {
        if (perClassOverride.value_or(false)) {
            errors.push_back("per-class arrival processes need service "
                             "classes: add serviceClass(...) or drop "
                             "perClassArrivals()");
        }
        if (draft.placement == sim::PlacementPolicy::ClassAware) {
            errors.push_back("class-aware placement needs at least one "
                             "service class: add serviceClass(...) or pick "
                             "another placement policy");
        }
    }
    if (custom_traffic && perClassOverride && !*perClassOverride) {
        errors.push_back("a service class customises its traffic (rate "
                         "share, burstiness, or diurnal phase) but "
                         "per-class arrivals are explicitly disabled: drop "
                         "perClassArrivals(false) or reset the class "
                         "traffic to defaults");
    }

    // --- Control --------------------------------------------------------
    if (draft.control.kind != sim::ModePolicyKind::Static &&
        draft.control.quantumMs <= 0.0) {
        errors.push_back("dynamic mode control needs a positive control "
                         "quantum (got " + num(draft.control.quantumMs) +
                         " ms)");
    }
    if (draft.control.flushCostMs < 0.0)
        errors.push_back("mode-change flush cost must be >= 0 ms");
    if (draft.control.kind == sim::ModePolicyKind::BacklogHysteresis &&
        !(draft.control.engageBelowMs < draft.control.disengageAboveMs &&
          draft.control.disengageAboveMs < draft.control.qmodeAboveMs)) {
        errors.push_back("backlog thresholds must be ordered engageBelowMs "
                         "< disengageAboveMs < qmodeAboveMs");
    }
    if (draft.qosTargetFactor < 0.0)
        errors.push_back("qosTargetFactor must be positive (got " +
                         num(draft.qosTargetFactor) + ")");

    // --- Runtime --------------------------------------------------------
    if (draft.opsPerRequest <= 0.0)
        errors.push_back("opsPerRequest must be positive");
    if (draft.calibrationRequests == 0 && draft.needsCalibration()) {
        errors.push_back("this scenario calibrates against a probe run "
                         "(load fraction, qosTargetFactor, or day-sized "
                         "stream): calibrationRequests must be positive");
    }

    if (!errors.empty())
        return result;

    Scenario built = draft;
    for (const workloads::ServiceClass &c : pendingClasses)
        built.classes.add(c);
    built.perClassArrivals = perClassOverride.value_or(custom_traffic);

    // --- Incidents ------------------------------------------------------
    // Validated against the assembled scenario (topology and classes),
    // so this runs only once everything else checked out.
    for (std::string &e : incidentErrors(built))
        errors.push_back(std::move(e));
    if (!errors.empty())
        return result;

    result.scenario = std::move(built);
    return result;
}

Scenario
ScenarioBuilder::expect() const
{
    BuildResult result = tryBuild();
    if (!result.ok())
        STRETCH_FATAL("invalid scenario '", draft.name, "': ",
                      result.errorText());
    return std::move(*result.scenario);
}

namespace
{

/** The incident-free part of lowering (see `lower` for the incident
 *  compile, which needs the resolved QoS target from this). */
sim::FleetConfig
lowerQuiet(const Scenario &s)
{
    // Patches may have mutated a built scenario; re-assert the invariants
    // the lowering depends on (full validation lives in the builder).
    STRETCH_ASSERT(!s.cores.empty(), "scenario has no cores");
    STRETCH_ASSERT(s.slots.empty() || s.slots.size() == s.cores.size(),
                   "scenario slots not index-matched to cores");
    STRETCH_ASSERT(s.burstRatio >= 1.0, "scenario burst ratio < 1");
    STRETCH_ASSERT(!s.perClassArrivals || !s.classes.empty(),
                   "per-class arrivals without service classes");

    sim::FleetConfig fleet;
    fleet.cores = s.cores;
    fleet.slots = s.slots;
    fleet.policy = s.placement;
    fleet.requests = s.requests;
    fleet.arrivalRatePerMs = s.arrivalRatePerMs;
    fleet.opsPerRequest = s.opsPerRequest;
    fleet.seed = s.seed;
    fleet.burstRatio = s.burstRatio;
    fleet.dwellLowMs = s.dwellLowMs;
    fleet.dwellHighMs = s.dwellHighMs;
    fleet.diurnalTrace = s.trace;
    fleet.msPerHour = s.msPerHour;
    fleet.timelineBucketMs =
        s.hourlyTimeline ? s.msPerHour : s.timelineBucketMs;
    fleet.classes = s.classes;
    fleet.perClassArrivals = s.perClassArrivals;
    fleet.classRouting = s.classRouting;
    fleet.control = s.control;
    fleet.reuseOperatingPoints = s.reuseOperatingPoints;
    fleet.threads = s.threads;

    if (!s.needsCalibration()) {
        if (s.dayRequests) {
            // needsCalibration() is false, so the peak rate is explicit.
            STRETCH_ASSERT(s.trace,
                           "day-sized stream without a diurnal trace");
            fleet.requests = static_cast<std::uint64_t>(
                fleet.arrivalRatePerMs * s.trace->meanLoad() * 24.0 *
                s.msPerHour);
        }
        return fleet;
    }

    // Calibration probe: a static, class-less, flat-load run over the
    // same cores. Its operating-point measurements flow through the
    // shared cache and the aggregate (capacity, p99) pair is memoised,
    // so the real run — and every sweep variant over the same cores —
    // pays for the probe exactly once.
    Calibration cal = calibrate(s);
    double capacity = cal.capacityPerMs;

    if (s.meanLoadFraction > 0.0) {
        // Under a trace the dispatcher rate is the PEAK rate; divide by
        // the mean trace load so the targeted MEAN load holds.
        fleet.arrivalRatePerMs =
            s.trace ? s.meanLoadFraction * capacity / s.trace->meanLoad()
                    : s.meanLoadFraction * capacity;
    } else if (s.peakLoadFraction > 0.0) {
        fleet.arrivalRatePerMs = s.peakLoadFraction * capacity;
    }

    if (s.qosTargetFactor > 0.0)
        fleet.control.monitor.qosTarget = s.qosTargetFactor * cal.p99Ms;

    if (s.dayRequests) {
        STRETCH_ASSERT(s.trace, "day-sized stream without a diurnal trace");
        fleet.requests = static_cast<std::uint64_t>(
            fleet.offeredRatePerMs(capacity) * s.trace->meanLoad() * 24.0 *
            s.msPerHour);
    }
    return fleet;
}

} // namespace

sim::FleetConfig
lower(const Scenario &s)
{
    STRETCH_ASSERT(s.nodes <= 1, "scenario '", s.name, "' is a rack "
                   "(nodes > 1): lower it with lowerRack and run it with "
                   "runRack");
    sim::FleetConfig fleet = lowerQuiet(s);
    if (!s.incidents.empty()) {
        // A retry storm's auto-derived lateness threshold must see the
        // *resolved* QoS target (qosTargetFactor scenarios resolve it
        // against the calibration probe), so compile against a copy
        // carrying the resolved monitor config.
        Scenario resolved = s;
        resolved.control.monitor = fleet.control.monitor;
        fleet.incidents = compileIncidents(resolved);
    }
    return fleet;
}

namespace
{

/**
 * Compile a rack scenario's incidents to ingress `NodeAction`s (the
 * rack twin of `compileIncidents`; fatal on invalid incidents). Only
 * FlashCrowd / NodeDegradation / NodeFailure reach here — the
 * validator rejects dispatcher/core-scoped kinds for nodes > 1.
 * `runCluster` applies list order as the tiebreak at equal times, the
 * same rule the dispatcher uses.
 */
std::vector<cluster::NodeAction>
compileRackActions(const Scenario &s)
{
    std::vector<std::string> errors = incidentErrors(s);
    if (!errors.empty()) {
        std::string joined;
        for (const std::string &e : errors) {
            if (!joined.empty())
                joined += "; ";
            joined += e;
        }
        STRETCH_FATAL("invalid incidents in rack scenario '", s.name,
                      "': ", joined);
    }

    using Kind = cluster::NodeAction::Kind;
    std::vector<cluster::NodeAction> actions;
    auto push = [&](Kind kind, double at, std::size_t node, double value) {
        cluster::NodeAction a;
        a.kind = kind;
        a.atMs = at;
        a.node = node;
        a.value = value;
        actions.push_back(a);
    };
    for (const Incident &incident : s.incidents) {
        if (const FlashCrowd *i = std::get_if<FlashCrowd>(&incident)) {
            push(Kind::ArrivalScale, i->startMs, 0, i->factor);
            push(Kind::ArrivalScale, i->endMs, 0, 1.0);
        } else if (const NodeDegradation *i =
                       std::get_if<NodeDegradation>(&incident)) {
            push(Kind::NodeDegrade, i->atMs, i->node, i->capacityFactor);
            if (i->restoreMs > 0.0)
                push(Kind::NodeDegrade, i->restoreMs, i->node, 1.0);
        } else if (const NodeFailure *i =
                       std::get_if<NodeFailure>(&incident)) {
            push(Kind::NodeFail, i->atMs, i->node, 1.0);
        } else {
            STRETCH_FATAL("incident kind '", incidentName(incident),
                          "' cannot compile to an ingress action");
        }
    }
    return actions;
}

} // namespace

cluster::ClusterConfig
lowerRack(const Scenario &s)
{
    STRETCH_ASSERT(s.nodes > 1, "lowerRack needs a rack scenario: call "
                   "nodes(n) with n > 1");
    STRETCH_ASSERT(!s.trace,
                   "rack scenarios do not support diurnal replay");

    // The per-node fleet is the scenario lowered as ONE node with no
    // arrival rate of its own (the ingress owns arrivals and steers an
    // injected list into each node) and no incidents (node incidents
    // compile to ingress actions below). Relative QoS targets still
    // resolve here against the shared calibration probe.
    Scenario nodeScenario = s;
    nodeScenario.nodes = 1;
    nodeScenario.incidents.clear();
    nodeScenario.arrivalRatePerMs = 0.0;
    nodeScenario.meanLoadFraction = 0.0;
    nodeScenario.peakLoadFraction = 0.0;
    nodeScenario.dayRequests = false;
    nodeScenario.reportPath.clear();
    nodeScenario.tracePath.clear();
    sim::FleetConfig node = lowerQuiet(nodeScenario);

    cluster::ClusterConfig cfg = cluster::homogeneousCluster(s.nodes, node);
    cfg.ingress = s.ingress;
    cfg.requests = s.requests; // scenario requests are rack-wide already
    cfg.seed = s.seed;
    cfg.threads = s.threads;
    cfg.timelineBucketMs = s.timelineBucketMs;

    // Rate resolution: an explicit rate is rack-wide as given; load
    // fractions resolve against the summed node capacities (the
    // memoised calibration probe measures one node; homogeneous racks
    // multiply). Neither set leaves 0 — runCluster's 70%-of-measured
    // default.
    if (s.arrivalRatePerMs > 0.0) {
        cfg.arrivalRatePerMs = s.arrivalRatePerMs;
    } else {
        const double fraction =
            std::max(s.meanLoadFraction, s.peakLoadFraction);
        if (fraction > 0.0)
            cfg.arrivalRatePerMs =
                fraction * calibrate(nodeScenario).capacityPerMs * s.nodes;
    }

    cfg.actions = compileRackActions(s);
    return cfg;
}

cluster::ClusterResult
runRack(const Scenario &s)
{
    cluster::ClusterConfig cfg = lowerRack(s);

    std::vector<std::unique_ptr<obs::EngineTracer>> tracers;
    std::unique_ptr<obs::MetricRegistry> metrics;
    if (!s.tracePath.empty()) {
        for (const sim::FleetConfig &node : cfg.nodes) {
            tracers.push_back(
                std::make_unique<obs::EngineTracer>(node.cores.size()));
            cfg.nodeTracers.push_back(tracers.back().get());
        }
    }
    if (!s.reportPath.empty()) {
        metrics = std::make_unique<obs::MetricRegistry>();
        cfg.metrics = metrics.get();
    }

    cluster::ClusterResult result = cluster::runCluster(cfg);

    if (!s.tracePath.empty()) {
        std::vector<const obs::EngineTracer *> taps;
        taps.reserve(tracers.size());
        for (const std::unique_ptr<obs::EngineTracer> &t : tracers)
            taps.push_back(t.get());
        obs::writeClusterTraceFile(taps, s.tracePath);
    }
    if (!s.reportPath.empty()) {
        obs::RunReport rep =
            makeReport(s, result.merged, metrics.get(), nullptr);
        obs::writeReportFile(s.reportPath, rep);
    }
    return result;
}

InstrumentedRun::InstrumentedRun() = default;
InstrumentedRun::InstrumentedRun(InstrumentedRun &&) noexcept = default;
InstrumentedRun &
InstrumentedRun::operator=(InstrumentedRun &&) noexcept = default;
InstrumentedRun::~InstrumentedRun() = default;

InstrumentedRun
runInstrumented(const Scenario &s)
{
    sim::FleetConfig fleet = lower(s);
    InstrumentedRun out;
    if (!s.tracePath.empty())
        out.trace = std::make_unique<obs::EngineTracer>(fleet.cores.size());
    if (!s.reportPath.empty())
        out.metrics = std::make_unique<obs::MetricRegistry>();
    fleet.tracer = out.trace.get();
    fleet.metrics = out.metrics.get();
    out.result = sim::runFleet(fleet);
    return out;
}

obs::RunReport
makeReport(const Scenario &s, const sim::FleetResult &result,
           const obs::MetricRegistry *metrics, const obs::EngineTracer *trace)
{
    obs::RunReport r;
    r.label = s.name;
    r.seed = s.seed;
    r.timelineBucketMs = s.hourlyTimeline ? s.msPerHour : s.timelineBucketMs;
    r.result = &result;
    r.metrics = metrics;
    r.trace = trace;

    // Config echo: every scenario knob that shapes the run, printed the
    // way the builder took it (relative quantities stay relative — the
    // hash should identify the *experiment*, not its calibration).
    r.addConfig("cores", static_cast<std::uint64_t>(s.cores.size()));
    if (s.nodes > 1) {
        const cluster::IngressConfig &in = s.ingress;
        r.addConfig("nodes", static_cast<std::uint64_t>(s.nodes));
        r.addConfig("ingressPolicy", cluster::toString(in.policy));
        r.addConfig("probes", static_cast<std::uint64_t>(in.probes));
        r.addConfig("signalDelayMs", in.signalDelayMs);
        r.addConfig("migrateSojournMs", in.migrateSojournMs);
        r.addConfig("migrationCostMs", in.migrationCostMs);
        r.addConfig("failoverDelayMs", in.failoverDelayMs);
        r.addConfig("virtualNodesPerNode",
                    static_cast<std::uint64_t>(in.virtualNodesPerNode));
        r.addConfig("spilloverBacklogMs", in.spilloverBacklogMs);
    }
    r.addConfig("requests", s.requests);
    if (s.dayRequests)
        r.addConfig("dayRequests", "true");
    if (s.arrivalRatePerMs > 0.0)
        r.addConfig("arrivalRatePerMs", s.arrivalRatePerMs);
    if (s.meanLoadFraction > 0.0)
        r.addConfig("meanLoadFraction", s.meanLoadFraction);
    if (s.peakLoadFraction > 0.0)
        r.addConfig("peakLoadFraction", s.peakLoadFraction);
    r.addConfig("burstRatio", s.burstRatio);
    if (s.trace)
        r.addConfig("diurnalMsPerHour", s.msPerHour);
    if (!s.classes.empty()) {
        std::string names;
        for (const workloads::ServiceClass &c : s.classes.all()) {
            if (!names.empty())
                names += ",";
            names += c.name;
        }
        r.addConfig("classes", std::move(names));
        r.addConfig("perClassArrivals",
                    s.perClassArrivals ? "true" : "false");
    }
    r.addConfig("placement", sim::toString(s.placement));
    r.addConfig("modePolicy", sim::toString(s.control.kind));
    r.addConfig("controlQuantumMs", s.control.quantumMs);
    if (s.qosTargetFactor > 0.0)
        r.addConfig("qosTargetFactor", s.qosTargetFactor);
    else if (s.control.monitor.qosTarget > 0.0)
        r.addConfig("qosTargetMs", s.control.monitor.qosTarget);
    if (!s.incidents.empty()) {
        std::string kinds;
        for (const Incident &i : s.incidents) {
            if (!kinds.empty())
                kinds += ",";
            kinds += incidentName(i);
        }
        r.addConfig("incidents", std::move(kinds));
    }
    r.addConfig("opsPerRequest", s.opsPerRequest);
    return r;
}

namespace
{

/** Write whatever artifacts @p s's reporting paths ask for. */
void
writeRunArtifacts(const Scenario &s, const InstrumentedRun &r)
{
    if (!s.tracePath.empty() && r.trace)
        r.trace->writeFile(s.tracePath);
    if (!s.reportPath.empty()) {
        obs::RunReport rep =
            makeReport(s, r.result, r.metrics.get(), r.trace.get());
        obs::writeReportFile(s.reportPath, rep);
    }
}

} // namespace

sim::FleetResult
run(const Scenario &s)
{
    // Rack scenarios route through the cluster layer; the merged
    // cluster-level view is fleet-shaped, so sweeps and reports work
    // unchanged. runRack writes any requested artifacts itself.
    if (s.nodes > 1)
        return std::move(runRack(s).merged);
    // Fast path: no artifacts requested means no tracer and no registry
    // anywhere near the dispatch loop.
    if (s.reportPath.empty() && s.tracePath.empty())
        return sim::runFleet(lower(s));
    InstrumentedRun r = runInstrumented(s);
    writeRunArtifacts(s, r);
    return std::move(r.result);
}

std::string
variantArtifactPath(const std::string &base, const std::string &label)
{
    std::string tag;
    for (char c : label) {
        const unsigned char uc = static_cast<unsigned char>(c);
        const bool keep =
            std::isalnum(uc) || c == '.' || c == '_' || c == '-';
        const char mapped = keep ? c : '-';
        if (mapped == '-' && (tag.empty() || tag.back() == '-'))
            continue; // collapse runs of separators, no leading one
        tag += mapped;
    }
    while (!tag.empty() && tag.back() == '-')
        tag.pop_back();
    const std::size_t slash = base.find_last_of('/');
    const std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + "-" + tag;
    return base.substr(0, dot) + "-" + tag + base.substr(dot);
}

Sweep::Sweep(Scenario base) : base(std::move(base)) {}

Sweep &
Sweep::over(std::string axis, std::vector<Point> points)
{
    STRETCH_ASSERT(!points.empty(), "sweep axis '", axis,
                   "' has no points");
    // Label collisions would expand to variants whose "axis=point"
    // labels collide — every table, plot, or cache keyed on the label
    // would silently merge distinct runs. Reject them here, where the
    // offending axis is still in hand.
    for (const Axis &existing : axes)
        STRETCH_ASSERT(existing.name != axis, "duplicate sweep axis '",
                       axis, "'");
    for (std::size_t i = 0; i < points.size(); ++i) {
        STRETCH_ASSERT(points[i].apply, "sweep axis '", axis, "' point '",
                       points[i].label, "' has no patch");
        for (std::size_t j = 0; j < i; ++j)
            STRETCH_ASSERT(points[j].label != points[i].label,
                           "sweep axis '", axis,
                           "' has duplicate point label '",
                           points[i].label, "'");
    }
    axes.push_back({std::move(axis), std::move(points)});
    return *this;
}

std::vector<Sweep::Variant>
Sweep::variants() const
{
    std::vector<Variant> out;
    std::size_t total = 1;
    for (const Axis &a : axes)
        total *= a.points.size();
    out.reserve(total);

    // Odometer over the axes, last axis fastest.
    std::vector<std::size_t> idx(axes.size(), 0);
    for (std::size_t v = 0; v < total; ++v) {
        Variant var;
        var.scenario = base;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const Point &p = axes[a].points[idx[a]];
            var.coords.emplace_back(axes[a].name, p.label);
            if (!var.label.empty())
                var.label += ", ";
            var.label += axes[a].name + "=" + p.label;
            p.apply(var.scenario);
        }
        out.push_back(std::move(var));
        for (std::size_t a = axes.size(); a-- > 0;) {
            if (++idx[a] < axes[a].points.size())
                break;
            idx[a] = 0;
        }
    }
    return out;
}

std::vector<Sweep::Outcome>
Sweep::run() const
{
    // Variants are independent simulations, so they run in parallel
    // (on the base scenario's thread budget). Each variant writes its
    // result into an index-addressed slot and the outcomes are
    // assembled in expansion order, so the parallel sweep is
    // bit-identical to the serial loop it replaces. Shared work
    // (operating points, calibration probes) converges in the
    // single-flight process-wide caches rather than duplicating.
    std::vector<Variant> vars = variants();
    // Artifact paths are sweep-level in the base scenario; give each
    // variant its own files so one variant's report does not clobber
    // the next (patches may override per variant — theirs win).
    for (Variant &v : vars) {
        if (!base.reportPath.empty() &&
            v.scenario.reportPath == base.reportPath)
            v.scenario.reportPath =
                variantArtifactPath(base.reportPath, v.label);
        if (!base.tracePath.empty() &&
            v.scenario.tracePath == base.tracePath)
            v.scenario.tracePath =
                variantArtifactPath(base.tracePath, v.label);
    }
    std::vector<sim::FleetResult> results(vars.size());
    parallelFor(base.threads, vars.size(), [&](std::size_t i) {
        results[i] = scenario::run(vars[i].scenario);
    });
    std::vector<Outcome> out;
    out.reserve(vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i)
        out.push_back({std::move(vars[i]), std::move(results[i])});
    return out;
}

} // namespace stretch::scenario
