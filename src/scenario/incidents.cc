#include "scenario/incidents.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "scenario/scenario.h"
#include "util/log.h"

namespace stretch::scenario
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** The lateness bound a retry storm auto-derives when none is given:
 *  the tightest class SLO, or the monitor QoS target without classes. */
double
autoStormThreshold(const Scenario &s)
{
    if (!s.classes.empty()) {
        double tightest = kInf;
        for (const workloads::ServiceClass &c : s.classes.all())
            tightest = std::min(tightest, c.sloMs);
        return tightest;
    }
    return s.control.monitor.qosTarget;
}

} // namespace

const char *
incidentName(const Incident &incident)
{
    struct Namer
    {
        const char *operator()(const FlashCrowd &) { return "flash-crowd"; }
        const char *operator()(const RetryStorm &) { return "retry-storm"; }
        const char *operator()(const AntagonistPhaseChange &)
        {
            return "antagonist-phase-change";
        }
        const char *operator()(const CoreDegradation &)
        {
            return "core-degradation";
        }
        const char *operator()(const CoreFailure &)
        {
            return "core-failure";
        }
        const char *operator()(const SloReshuffle &)
        {
            return "slo-reshuffle";
        }
        const char *operator()(const NodeDegradation &)
        {
            return "node-degradation";
        }
        const char *operator()(const NodeFailure &)
        {
            return "node-failure";
        }
    };
    return std::visit(Namer{}, incident);
}

double
incidentStartMs(const Incident &incident)
{
    struct Start
    {
        double operator()(const FlashCrowd &i) { return i.startMs; }
        double operator()(const RetryStorm &i) { return i.startMs; }
        double operator()(const AntagonistPhaseChange &i)
        {
            return i.startMs;
        }
        double operator()(const CoreDegradation &i) { return i.atMs; }
        double operator()(const CoreFailure &i) { return i.atMs; }
        double operator()(const SloReshuffle &i) { return i.atMs; }
        double operator()(const NodeDegradation &i) { return i.atMs; }
        double operator()(const NodeFailure &i) { return i.atMs; }
    };
    return std::visit(Start{}, incident);
}

double
incidentEndMs(const Incident &incident)
{
    struct End
    {
        double operator()(const FlashCrowd &i) { return i.endMs; }
        double operator()(const RetryStorm &i) { return i.endMs; }
        double operator()(const AntagonistPhaseChange &i) { return i.endMs; }
        double operator()(const CoreDegradation &i)
        {
            return i.restoreMs > 0.0 ? i.restoreMs : i.atMs;
        }
        double operator()(const CoreFailure &i) { return i.atMs; }
        double operator()(const SloReshuffle &i) { return i.atMs; }
        double operator()(const NodeDegradation &i)
        {
            return i.restoreMs > 0.0 ? i.restoreMs : i.atMs;
        }
        double operator()(const NodeFailure &i) { return i.atMs; }
    };
    return std::visit(End{}, incident);
}

void
scaleIncidentTimes(std::vector<Incident> &incidents, double factor)
{
    STRETCH_ASSERT(factor > 0.0, "incident time scale must be positive");
    struct Scale
    {
        double f;
        void operator()(FlashCrowd &i) const
        {
            i.startMs *= f;
            i.endMs *= f;
        }
        void operator()(RetryStorm &i) const
        {
            i.startMs *= f;
            i.endMs *= f;
            i.tickMs *= f; // the feedback period is a time too
        }
        void operator()(AntagonistPhaseChange &i) const
        {
            i.startMs *= f;
            i.endMs *= f;
        }
        void operator()(CoreDegradation &i) const
        {
            i.atMs *= f;
            i.restoreMs *= f;
        }
        void operator()(CoreFailure &i) const { i.atMs *= f; }
        void operator()(SloReshuffle &i) const { i.atMs *= f; }
        void operator()(NodeDegradation &i) const
        {
            i.atMs *= f;
            i.restoreMs *= f;
        }
        void operator()(NodeFailure &i) const { i.atMs *= f; }
    };
    for (Incident &incident : incidents)
        std::visit(Scale{factor}, incident);
}

std::vector<std::string>
incidentErrors(const Scenario &s)
{
    std::vector<std::string> errors;
    const std::size_t cores = s.cores.size();

    struct Check
    {
        const Scenario &s;
        std::size_t cores;
        std::size_t index;
        std::vector<std::string> &errors;

        std::string
        who(const Incident &incident) const
        {
            return std::string(incidentName(incident)) + " incident " +
                   std::to_string(index);
        }

        void
        core(const std::string &who, std::size_t c) const
        {
            if (c >= cores) {
                errors.push_back(who + " targets core " + std::to_string(c) +
                                 " but the fleet has " +
                                 std::to_string(cores) + " cores");
            }
        }

        /** Node-scoped incidents need a rack and a valid node index. */
        void
        node(const std::string &who, std::size_t n) const
        {
            if (s.nodes <= 1) {
                errors.push_back(who + " needs a rack scenario: call "
                                       "nodes(n) with n > 1");
            } else if (n >= s.nodes) {
                errors.push_back(who + " targets node " + std::to_string(n) +
                                 " but the rack has " +
                                 std::to_string(s.nodes) + " nodes");
            }
        }

        /** Dispatcher/core-scoped incidents are single-fleet only: the
         *  rack path replays pre-steered arrivals into every node, so
         *  ingress-side load shaping and per-node core incidents have
         *  no compilation target there (FlashCrowd compiles to an
         *  ingress ArrivalScale instead). */
        void
        singleNodeOnly(const std::string &who) const
        {
            if (s.nodes > 1) {
                errors.push_back(who + " is not supported in rack "
                                       "scenarios (nodes > 1): use "
                                       "node-degradation / node-failure / "
                                       "flash-crowd");
            }
        }

        void
        window(const std::string &who, double start, double end) const
        {
            if (start < 0.0)
                errors.push_back(who + " starts before time 0 (" +
                                 num(start) + " ms)");
            if (end <= start)
                errors.push_back(who + " must end after it starts (got [" +
                                 num(start) + ", " + num(end) + ") ms)");
        }

        void operator()(const FlashCrowd &i) const
        {
            std::string w = who(i);
            window(w, i.startMs, i.endMs);
            if (i.factor <= 0.0)
                errors.push_back(w + " needs a positive rate factor (got " +
                                 num(i.factor) + ")");
        }
        void operator()(const RetryStorm &i) const
        {
            std::string w = who(i);
            singleNodeOnly(w);
            window(w, i.startMs, i.endMs);
            if (i.amplification < 0.0)
                errors.push_back(w + " needs amplification >= 0 (got " +
                                 num(i.amplification) + ")");
            if (i.tickMs <= 0.0)
                errors.push_back(w + " needs a positive feedback tick "
                                     "(got " + num(i.tickMs) + " ms)");
            if (i.latencyThresholdMs < 0.0)
                errors.push_back(w + " has a negative lateness threshold");
            if (i.latencyThresholdMs == 0.0 &&
                autoStormThreshold(s) <= 0.0) {
                errors.push_back(w + " cannot auto-derive its lateness "
                                     "threshold: add a service class or "
                                     "set latencyThresholdMs");
            }
        }
        void operator()(const AntagonistPhaseChange &i) const
        {
            std::string w = who(i);
            singleNodeOnly(w);
            core(w, i.core);
            window(w, i.startMs, i.endMs);
            if (i.capacityFactor <= 0.0)
                errors.push_back(w + " needs a positive capacity factor "
                                     "(got " + num(i.capacityFactor) + ")");
        }
        void operator()(const CoreDegradation &i) const
        {
            std::string w = who(i);
            singleNodeOnly(w);
            core(w, i.core);
            if (i.atMs < 0.0)
                errors.push_back(w + " starts before time 0");
            if (i.capacityFactor <= 0.0)
                errors.push_back(w + " needs a positive capacity factor "
                                     "(got " + num(i.capacityFactor) + ")");
            if (i.restoreMs != 0.0 && i.restoreMs <= i.atMs)
                errors.push_back(w + " restores at " + num(i.restoreMs) +
                                 " ms, before it degrades (" + num(i.atMs) +
                                 " ms); use 0 for never");
        }
        void operator()(const CoreFailure &i) const
        {
            std::string w = who(i);
            singleNodeOnly(w);
            core(w, i.core);
            if (i.atMs < 0.0)
                errors.push_back(w + " fails before time 0");
        }
        void operator()(const SloReshuffle &i) const
        {
            std::string w = who(i);
            singleNodeOnly(w);
            if (i.atMs < 0.0)
                errors.push_back(w + " reshuffles before time 0");
            bool found = false;
            for (const workloads::ServiceClass &c : s.classes.all())
                found |= c.name == i.className;
            if (!found)
                errors.push_back(w + " retargets unknown service class '" +
                                 i.className + "'");
            if (i.newSloMs < 0.0 || i.factor < 0.0 ||
                (i.newSloMs == 0.0 && i.factor == 0.0)) {
                errors.push_back(w + " needs a positive newSloMs or a "
                                     "positive factor");
            }
        }
        void operator()(const NodeDegradation &i) const
        {
            std::string w = who(i);
            node(w, i.node);
            if (i.atMs < 0.0)
                errors.push_back(w + " starts before time 0");
            if (i.capacityFactor <= 0.0)
                errors.push_back(w + " needs a positive capacity factor "
                                     "(got " + num(i.capacityFactor) + ")");
            if (i.restoreMs != 0.0 && i.restoreMs <= i.atMs)
                errors.push_back(w + " restores at " + num(i.restoreMs) +
                                 " ms, before it degrades (" + num(i.atMs) +
                                 " ms); use 0 for never");
        }
        void operator()(const NodeFailure &i) const
        {
            std::string w = who(i);
            node(w, i.node);
            if (i.atMs < 0.0)
                errors.push_back(w + " fails before time 0");
        }
    };

    // Failing a core or node again is a no-op, so count distinct ones.
    std::set<std::size_t> failedCores;
    std::set<std::size_t> failedNodes;
    for (std::size_t i = 0; i < s.incidents.size(); ++i) {
        std::visit(Check{s, cores, i, errors}, s.incidents[i]);
        if (const CoreFailure *f = std::get_if<CoreFailure>(&s.incidents[i]))
            failedCores.insert(f->core);
        if (const NodeFailure *f = std::get_if<NodeFailure>(&s.incidents[i]))
            failedNodes.insert(f->node);
    }
    if (!failedCores.empty() && failedCores.size() >= cores) {
        errors.push_back("incidents fail every core in the fleet: at "
                         "least one core must survive");
    }
    if (!failedNodes.empty() && failedNodes.size() >= s.nodes) {
        errors.push_back("incidents fail every node in the rack: at least "
                         "one node must survive");
    }
    return errors;
}

std::string
num(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

std::string
joinMessages(const std::vector<std::string> &messages)
{
    std::string joined;
    for (const std::string &m : messages) {
        if (!joined.empty())
            joined += "; ";
        joined += m;
    }
    return joined;
}

std::vector<sim::IncidentAction>
compileIncidents(const Scenario &s)
{
    std::vector<std::string> errors = incidentErrors(s);
    if (!errors.empty())
        STRETCH_FATAL("invalid incidents in scenario '", s.name, "': ",
                      joinMessages(errors));

    using Kind = sim::IncidentAction::Kind;
    std::vector<sim::IncidentAction> actions;

    struct Compile
    {
        const Scenario &s;
        std::vector<sim::IncidentAction> &actions;

        void
        emit(Kind kind, double at, double value = 1.0, double value2 = 0.0,
             std::size_t core = 0, std::uint32_t class_id = 0) const
        {
            sim::IncidentAction a;
            a.kind = kind;
            a.atMs = at;
            a.value = value;
            a.value2 = value2;
            a.core = core;
            a.classId = class_id;
            actions.push_back(a);
        }

        void operator()(const FlashCrowd &i) const
        {
            emit(Kind::ArrivalScale, i.startMs, i.factor);
            emit(Kind::ArrivalScale, i.endMs, 1.0);
        }
        void operator()(const RetryStorm &i) const
        {
            double threshold = i.latencyThresholdMs > 0.0
                                   ? i.latencyThresholdMs
                                   : autoStormThreshold(s);
            emit(Kind::RetryStormStart, i.startMs, i.amplification,
                 threshold);
            for (double t = i.startMs + i.tickMs; t < i.endMs;
                 t += i.tickMs)
                emit(Kind::RetryStormTick, t);
            emit(Kind::RetryStormEnd, i.endMs);
        }
        void operator()(const AntagonistPhaseChange &i) const
        {
            emit(Kind::CoreRateScale, i.startMs, i.capacityFactor, 0.0,
                 i.core);
            emit(Kind::CoreRateScale, i.endMs, 1.0, 0.0, i.core);
        }
        void operator()(const CoreDegradation &i) const
        {
            emit(Kind::CoreRateScale, i.atMs, i.capacityFactor, 0.0,
                 i.core);
            if (i.restoreMs > 0.0)
                emit(Kind::CoreRateScale, i.restoreMs, 1.0, 0.0, i.core);
        }
        void operator()(const CoreFailure &i) const
        {
            emit(Kind::CoreFail, i.atMs, 1.0, 0.0, i.core);
        }
        void operator()(const SloReshuffle &i) const
        {
            workloads::ClassId id = s.classes.byName(i.className);
            double target = i.newSloMs > 0.0
                                ? i.newSloMs
                                : i.factor * s.classes.at(id).sloMs;
            emit(Kind::ClassSloRetarget, i.atMs, target, 0.0, 0, id);
        }
        // Node-scoped incidents compile to ingress NodeActions in the
        // rack lowering path (scenario::lowerRack), never to dispatcher
        // actions — and incidentErrors already rejected them for
        // single-fleet scenarios, so these arms are unreachable here.
        void operator()(const NodeDegradation &) const {}
        void operator()(const NodeFailure &) const {}
    };

    for (const Incident &incident : s.incidents)
        std::visit(Compile{s, actions}, incident);

    // List order breaks atMs ties deterministically (stable sort), so
    // two incidents acting at the same instant apply in declaration
    // order — the same rule the dispatcher re-asserts.
    std::stable_sort(actions.begin(), actions.end(),
                     [](const sim::IncidentAction &a,
                        const sim::IncidentAction &b) {
                         return a.atMs < b.atMs;
                     });
    return actions;
}

QosAssertion
classTailAtMost(std::string class_name, double bound_ms, double from_ms,
                double until_ms)
{
    QosAssertion a;
    a.kind = QosAssertion::Kind::ClassTailAtMost;
    a.className = std::move(class_name);
    a.bound = bound_ms;
    a.fromMs = from_ms;
    a.untilMs = until_ms;
    return a;
}

QosAssertion
fleetTailAtMost(double bound_ms, double from_ms, double until_ms)
{
    QosAssertion a;
    a.kind = QosAssertion::Kind::FleetTailAtMost;
    a.bound = bound_ms;
    a.fromMs = from_ms;
    a.untilMs = until_ms;
    return a;
}

QosAssertion
attainmentAtLeast(std::string class_name, double fraction)
{
    QosAssertion a;
    a.kind = QosAssertion::Kind::AttainmentAtLeast;
    a.className = std::move(class_name);
    a.bound = fraction;
    return a;
}

QosAssertion
recoveryWithin(std::string class_name, double latency_bound_ms,
               double within_ms, double after_ms)
{
    QosAssertion a;
    a.kind = QosAssertion::Kind::RecoveryWithin;
    a.className = std::move(class_name);
    a.latencyBoundMs = latency_bound_ms;
    a.bound = within_ms;
    a.fromMs = after_ms;
    return a;
}

void
scaleAssertionTimes(std::vector<QosAssertion> &assertions, double factor)
{
    STRETCH_ASSERT(factor > 0.0, "assertion time scale must be positive");
    for (QosAssertion &a : assertions) {
        a.fromMs *= factor;
        if (std::isfinite(a.untilMs))
            a.untilMs *= factor;
        // The latency bar and attainment fraction are not times; the
        // recovery allowance is.
        if (a.kind == QosAssertion::Kind::RecoveryWithin)
            a.bound *= factor;
    }
}

namespace
{

/** Index of @p name in the run's per-class outcomes (fatal on miss). */
std::size_t
classIndex(const sim::FleetResult &result, const std::string &name)
{
    const std::vector<sim::ClassOutcome> &pc = result.dispatch.perClass;
    for (std::size_t i = 0; i < pc.size(); ++i) {
        if (pc[i].name == name)
            return i;
    }
    STRETCH_FATAL("assertion names service class '", name,
                  "' but the run reported no such class");
}

std::string
describe(const QosAssertion &a)
{
    std::ostringstream os;
    switch (a.kind) {
    case QosAssertion::Kind::ClassTailAtMost:
        os << a.className << " p99 <= " << a.bound << " ms";
        break;
    case QosAssertion::Kind::FleetTailAtMost:
        os << "fleet p99 <= " << a.bound << " ms";
        break;
    case QosAssertion::Kind::AttainmentAtLeast:
        os << a.className << " attainment >= " << a.bound;
        return os.str();
    case QosAssertion::Kind::RecoveryWithin:
        os << (a.className.empty() ? std::string("fleet") : a.className)
           << " p99 back under " << a.latencyBoundMs << " ms within "
           << a.bound << " ms after " << a.fromMs << " ms";
        return os.str();
    }
    os << " over [" << a.fromMs << ", ";
    if (std::isfinite(a.untilMs))
        os << a.untilMs;
    else
        os << "end";
    os << ") ms";
    return os.str();
}

} // namespace

const char *
toString(QosAssertion::Kind kind)
{
    switch (kind) {
    case QosAssertion::Kind::ClassTailAtMost:
        return "class-tail-at-most";
    case QosAssertion::Kind::FleetTailAtMost:
        return "fleet-tail-at-most";
    case QosAssertion::Kind::AttainmentAtLeast:
        return "attainment-at-least";
    case QosAssertion::Kind::RecoveryWithin:
        return "recovery-within";
    }
    return "?";
}

std::vector<AssertionResult>
evaluate(const std::vector<QosAssertion> &assertions,
         const sim::FleetResult &result, double timeline_bucket_ms)
{
    using Kind = QosAssertion::Kind;
    const std::vector<sim::TimelineBucket> &timeline =
        result.dispatch.timeline;
    const double elapsed = result.dispatch.elapsedMs;
    auto clamped = [&](double from, double until) {
        TraceWindow w;
        w.fromMs = std::max(0.0, from);
        w.untilMs = std::min(elapsed, until);
        if (w.untilMs < w.fromMs)
            w.untilMs = w.fromMs;
        return w;
    };

    std::vector<AssertionResult> verdicts;
    verdicts.reserve(assertions.size());
    for (const QosAssertion &a : assertions) {
        AssertionResult v;
        v.assertion = a;

        bool needsTimeline = a.kind != Kind::AttainmentAtLeast;
        if (needsTimeline) {
            STRETCH_ASSERT(timeline_bucket_ms > 0.0 && !timeline.empty(),
                           "a timeline-windowed assertion needs the run "
                           "to record a completion timeline (set "
                           "timelineBucketMs)");
        }

        switch (a.kind) {
        case Kind::ClassTailAtMost:
        case Kind::FleetTailAtMost: {
            // Worst bucket-p99 over buckets overlapping the window that
            // actually saw completions — an empty bucket says nothing.
            // The buckets over the bound span [lo, hi).
            std::size_t ci = a.kind == Kind::ClassTailAtMost
                                 ? classIndex(result, a.className)
                                 : 0;
            double worst = 0.0;
            std::uint64_t seen = 0;
            double lo = kInf;
            double hi = -kInf;
            for (const sim::TimelineBucket &b : timeline) {
                if (b.startMs >= a.untilMs ||
                    b.startMs + timeline_bucket_ms <= a.fromMs)
                    continue;
                std::uint64_t done = b.completions;
                double p99 = b.p99Ms;
                if (a.kind == Kind::ClassTailAtMost) {
                    STRETCH_ASSERT(ci < b.perClass.size(),
                                   "timeline has no per-class cells");
                    done = b.perClass[ci].completions;
                    p99 = b.perClass[ci].p99Ms;
                }
                if (done == 0)
                    continue;
                seen += done;
                worst = std::max(worst, p99);
                if (p99 > a.bound) {
                    lo = std::min(lo, b.startMs);
                    hi = std::max(hi, b.startMs + timeline_bucket_ms);
                }
            }
            v.observed = worst;
            v.pass = seen > 0 && worst <= a.bound;
            // A window with no completions at all has no bucket over the
            // bound: its trace window is the asserted window itself.
            if (!v.pass)
                v.window = std::isfinite(lo)
                               ? clamped(lo - timeline_bucket_ms,
                                         hi + timeline_bucket_ms)
                               : clamped(a.fromMs, a.untilMs);
            std::ostringstream os;
            os << describe(a) << ": worst bucket p99 " << num(worst)
               << " ms over " << seen << " completions";
            if (seen == 0)
                os << " (no completions in window)";
            v.detail = os.str();
            break;
        }
        case Kind::AttainmentAtLeast: {
            const sim::ClassOutcome &c =
                result.dispatch.perClass[classIndex(result, a.className)];
            v.observed = c.sloAttainment;
            v.pass = c.sloAttainment >= a.bound;
            // A whole-run verdict has no tighter slice.
            if (!v.pass)
                v.window = clamped(0.0, elapsed);
            std::ostringstream os;
            os << describe(a) << ": attained " << num(c.sloAttainment)
               << " (" << c.completed << " completed, " << c.shed
               << " shed)";
            v.detail = os.str();
            break;
        }
        case Kind::RecoveryWithin: {
            // First bucket starting at/after the incident clears whose
            // p99 is back under the bar; observed = how long that took.
            std::size_t ci = a.className.empty()
                                 ? 0
                                 : classIndex(result, a.className);
            double recoveredAt = kInf;
            for (const sim::TimelineBucket &b : timeline) {
                if (b.startMs < a.fromMs)
                    continue;
                std::uint64_t done = b.completions;
                double p99 = b.p99Ms;
                if (!a.className.empty()) {
                    STRETCH_ASSERT(ci < b.perClass.size(),
                                   "timeline has no per-class cells");
                    done = b.perClass[ci].completions;
                    p99 = b.perClass[ci].p99Ms;
                }
                if (done == 0)
                    continue;
                if (p99 <= a.latencyBoundMs) {
                    recoveredAt = b.startMs;
                    break;
                }
            }
            v.observed = std::isfinite(recoveredAt)
                             ? std::max(0.0, recoveredAt - a.fromMs)
                             : kInf;
            v.pass = v.observed <= a.bound;
            // The allowance the run blew, plus one bucket of context.
            if (!v.pass)
                v.window = clamped(a.fromMs,
                                   a.fromMs + a.bound + timeline_bucket_ms);
            std::ostringstream os;
            os << describe(a) << ": ";
            if (std::isfinite(v.observed))
                os << "recovered after " << num(v.observed) << " ms";
            else
                os << "never recovered";
            v.detail = os.str();
            break;
        }
        }
        verdicts.push_back(std::move(v));
    }
    return verdicts;
}

} // namespace stretch::scenario
