/**
 * @file
 * Reusable discrete-event multi-server queueing engine.
 *
 * One simulation core drives both request-level layers of the project:
 * `queueing::simulateService` (one service, FCFS worker pool) and
 * `sim::dispatchRequests` (a fleet of cores behind a placement policy).
 * The engine owns the arrival loop, per-server FCFS queues (represented
 * by their drain times), and an event list that delivers completions and
 * control-quantum boundaries in simulated-time order, so controllers that
 * react at quantum boundaries (e.g. dynamic Stretch mode control) only
 * ever see telemetry from the simulated past.
 *
 * Callers supply the stochastic pieces (the joint interarrival gap and
 * class tag of each arrival — one stream or a per-class superposition —
 * and service demands), the placement decision, and the
 * demand-to-finish-time model (service rate scaling, duty-cycle
 * modulation) as the hooks of a policy built with `makePolicy`.
 *
 * Units: every time value crossing this interface — gaps, finish times,
 * backlogs, capacity charges, quantum boundaries, `elapsedMs()` — is in
 * milliseconds of simulated time; demands are in whatever unit the
 * caller's `finish` hook converts to milliseconds (the fleet dispatcher
 * uses mean-request units divided by a requests/ms rate).
 *
 * Threading and determinism: the engine is strictly single-threaded and
 * carries no clock or RNG of its own; a run is fully determined by the
 * policy's RNG streams, and hooks are invoked in a deterministic total
 * order (completions and boundaries in time order, completions first on
 * ties, arrival index breaking completion ties). Instances are not
 * thread-safe; use one engine per thread.
 *
 * Event-queue internals: pending completions live in an index-recycling
 * arena (structure-of-arrays, so the drain loop only touches the finish
 * time and arrival index it compares on) behind an adaptive calendar
 * queue (O(1) amortised push/pop, bucket width seeded from the policy's
 * `rateHintPerMs`). Its pop order is exact — finish time ascending,
 * arrival index breaking ties — whatever the bucket layout, so the queue
 * can never change a simulated result; tests/test_event_queue.cc replays
 * randomized runs against a reference ordering to check it.
 *
 * Hook dispatch: the run loop is a template over a statically-typed
 * policy (`run(requests, Policy&&)`), so a policy carrying concrete
 * lambda types pays zero type-erasure — every hook inlines into the loop.
 */

#ifndef STRETCH_QUEUEING_EVENT_ENGINE_H
#define STRETCH_QUEUEING_EVENT_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/log.h"

namespace stretch::queueing
{

/** State of one FCFS server (a core or a worker thread). */
struct ServerState
{
    double freeAtMs = 0.0;   ///< time the server's queue drains
    double busyMs = 0.0;     ///< cumulative occupied time
    std::uint64_t placed = 0; ///< requests routed to this server
};

/** One finished request, delivered in finish-time order. */
struct Completion
{
    std::uint64_t index = 0;  ///< arrival sequence number
    std::size_t server = 0;   ///< server that executed the request
    std::uint32_t classId = 0; ///< arrival tag (see EventEngine::Arrival)
    double arrivalMs = 0.0;
    double startMs = 0.0;
    double finishMs = 0.0;

    /** Request sojourn time (queueing wait + service). */
    double latencyMs() const { return finishMs - arrivalMs; }
};

/**
 * Event-driven open-loop simulation over a fixed set of FCFS servers.
 *
 * The run loop generates `requests` arrivals; for each it draws the gap
 * and the demand, replays every pending completion and quantum boundary
 * up to the arrival instant (completions first on ties, both in time
 * order), places the request, and books it on the chosen server.
 *
 * Booking is placement-time: a request's finish time is fixed when it is
 * placed, using the service model in force at its arrival. A later
 * chargeCapacity call or rate change therefore affects requests placed
 * afterwards, not work already sitting in a queue — a deliberate
 * approximation that keeps the engine a pure arrival-driven loop.
 *
 * run() resets all server and event state, so one engine instance can be
 * reused for independent simulations.
 */
class EventEngine
{
  public:
    /** One arrival: the gap since the previous one and its class tag,
     *  drawn jointly (in a superposed per-class stream, the class whose
     *  process wins the next-arrival race fixes both). */
    struct Arrival
    {
        double gapMs = 0.0;     ///< gap since the previous arrival (ms)
        std::uint32_t classId = 0; ///< class whose process won the slot
    };

    /** Sentinel the place hook returns to shed (drop) a request at
     *  admission instead of booking it on a server. */
    static constexpr std::size_t shed = static_cast<std::size_t>(-1);

    explicit EventEngine(std::size_t servers);

    /**
     * Statically-typed run loop: generate and serve @p requests arrivals
     * through @p policy, then drain all events.
     *
     * A policy is any type providing (non-virtually, so everything can
     * inline into the loop):
     *
     *   Arrival nextArrival();                   // joint gap+class draw
     *   double nextDemand(std::uint32_t cls);
     *   std::size_t place(double now, double demand, std::uint32_t cls);
     *   double finish(std::size_t server, double start, double demand);
     *   void onComplete(const Completion &);
     *   void onShed(std::uint64_t index, double now, double demand,
     *               std::uint32_t cls);
     *   void onQuantum(double boundaryMs);
     *   double nextControlMs();                  // +inf = channel empty
     *   void onControl(double timeMs);           // must advance the above
     *   double quantumMs() const;                // 0 disables onQuantum
     *   double rateHintPerMs() const;            // 0 = unknown
     *
     * Single-stream sources return `{gap, 0}` (or `{gap, class}`) from
     * nextArrival. Build one with `makePolicy`, which fills the optional
     * hooks with no-op functors the optimiser deletes.
     *
     * Hook semantics: nextArrival draws before nextDemand, and both
     * before placement, so every placement policy sees one request
     * stream. place may return `shed` to drop the request at admission
     * (no booking, no completion; onShed fires instead). onComplete
     * fires in finish-time order. onControl fires the scheduled control
     * event at exactly nextControlMs(), in time order with completions
     * and boundaries (completions first on ties, control before a
     * coinciding boundary), and must advance nextControlMs past it or
     * the drain loop cannot make progress. An always-infinite
     * nextControlMs is bit-identical to no control channel.
     *
     * Observability wrappers (e.g. `obs::TracedPolicy`) rely on two
     * guarantees of this loop that are part of the policy contract:
     * `place` is invoked exactly once per generated arrival, at the
     * arrival instant (`now` is the arrival's own timestamp, never a
     * later drain time), and each `place` is followed by exactly one of
     * a server booking or `onShed`. A wrapper that only observes the
     * hook sequence therefore reconstructs the full admission timeline
     * without consuming RNG draws or perturbing any event time — which
     * is what makes traced runs bit-identical to untraced ones.
     */
    template <class Policy>
    void
    run(std::uint64_t requests, Policy &&policy)
    {
        auto &p = policy; // one name whatever the value category
        STRETCH_ASSERT(p.quantumMs() >= 0.0, "negative control quantum");
        STRETCH_ASSERT(p.rateHintPerMs() >= 0.0,
                       "negative arrival-rate hint");
        beginRun(p.quantumMs(), p.rateHintPerMs());
        const double quantum = p.quantumMs();

        double now = 0.0;
        for (std::uint64_t i = 0; i < requests; ++i) {
            const Arrival a = p.nextArrival();
            STRETCH_ASSERT(a.gapMs >= 0.0, "negative interarrival gap");
            const double t = now + a.gapMs;
            const double demand = p.nextDemand(a.classId);
            STRETCH_ASSERT(demand >= 0.0, "negative demand");

            // Replay the simulated past before the new arrival acts on it.
            drainUntil(t, quantum, p);
            now = t;

            const std::size_t s = p.place(now, demand, a.classId);
            if (s == shed) {
                // Admission control dropped the request: nothing is
                // booked and no completion will be delivered.
                p.onShed(i, now, demand, a.classId);
                continue;
            }
            STRETCH_ASSERT(s < srv.size(), "placement selected no server");
            const double start = std::max(now, srv[s].freeAtMs);
            const double finish = p.finish(s, start, demand);
            STRETCH_ASSERT(finish >= start, "finish before start");
            srv[s].freeAtMs = finish;
            srv[s].busyMs += finish - start;
            ++srv[s].placed;
            elapsed = std::max(elapsed, finish);
            calendar.push(arena.alloc(finish, i, s, a.classId, now, start),
                          arena);
        }
        drainUntil(elapsed, quantum, p);
    }

    /** Per-server states (valid during hooks and after run()). */
    const std::vector<ServerState> &servers() const { return srv; }

    /** Server whose queue drains earliest (ties to the lowest index);
     *  placing every request here reproduces a central FCFS queue over
     *  the whole pool. Deliberately out of line: folding the scan into
     *  the templated run loop measurably blew its inlining budget. */
    std::size_t leastFreeServer() const;

    /** Pending work (ms) queued on server @p s at time @p now. Inline:
     *  load-sensitive placement policies probe every serving core per
     *  request, and the probe is two loads and a max. */
    double
    backlogMs(std::size_t s, double now) const
    {
        STRETCH_ASSERT(s < srv.size(), "bad server index");
        return std::max(0.0, srv[s].freeAtMs - now);
    }

    /**
     * Consume @p ms of server @p s's capacity starting no earlier than
     * @p now — e.g. a mode-change pipeline flush charged against service
     * capacity. Requests booked after the charge drain correspondingly
     * later; requests already booked keep their finish times (see the
     * class note on placement-time booking).
     */
    void chargeCapacity(std::size_t s, double now, double ms);

    /** Latest completion time seen so far (the makespan after run()). */
    double elapsedMs() const { return elapsed; }

  private:
    /** Slot id into the pending-event arena. */
    using Slot = std::uint32_t;

    /**
     * Index-recycling arena for pending completions, structure-of-arrays:
     * the calendar queue compares only (finishMs, index), so those two
     * live in their own hot arrays and the fields needed solely to
     * build the `Completion` stay out of the comparison cache lines.
     */
    struct PendingArena
    {
        std::vector<double> finishMs;      ///< hot: primary sort key
        std::vector<std::uint64_t> index;  ///< hot: tie-break sort key
        std::vector<double> arrivalMs;     ///< cold: Completion payload
        std::vector<double> startMs;       ///< cold: Completion payload
        std::vector<std::uint32_t> server; ///< cold: Completion payload
        std::vector<std::uint32_t> classId; ///< cold: Completion payload
        std::vector<Slot> freeSlots;       ///< recycled slot ids

        Slot
        alloc(double finish, std::uint64_t idx, std::size_t srv_,
              std::uint32_t cls, double arrival, double start)
        {
            if (!freeSlots.empty()) {
                Slot s = freeSlots.back();
                freeSlots.pop_back();
                finishMs[s] = finish;
                index[s] = idx;
                arrivalMs[s] = arrival;
                startMs[s] = start;
                server[s] = static_cast<std::uint32_t>(srv_);
                classId[s] = cls;
                return s;
            }
            Slot s = static_cast<Slot>(finishMs.size());
            finishMs.push_back(finish);
            index.push_back(idx);
            arrivalMs.push_back(arrival);
            startMs.push_back(start);
            server.push_back(static_cast<std::uint32_t>(srv_));
            classId.push_back(cls);
            return s;
        }
        void release(Slot s) { freeSlots.push_back(s); }
        void clear();
    };

    /**
     * Adaptive calendar queue over arena slots (R. Brown, CACM 1988):
     * a power-of-two ring of buckets, each holding the slots whose
     * finish time falls in one width-sized interval of its "year". A
     * cursor walks virtual buckets (finish / width) in order; pushes of
     * events earlier than the cursor pull it back, and when a whole
     * rotation finds nothing the queue jumps straight to the global
     * minimum. The bucket count and width adapt to the live event count
     * and spacing. Pop order is exact — (finishMs, index) ascending —
     * regardless of bucket layout, so determinism never depends on the
     * calendar's shape.
     */
    struct CalendarQueue
    {
        std::vector<std::vector<Slot>> buckets;
        /** Virtual bucket of each slot, computed once at push time so
         *  the scan's qualify check is an integer compare, not a
         *  division. Rebucket recomputes it under the new width. */
        std::vector<std::uint64_t> slotVb;
        std::size_t mask = 0;      ///< buckets.size() - 1 (power of two)
        double width = 1.0;        ///< bucket time span (ms)
        std::uint64_t cursorVb = 0; ///< virtual bucket the scan resumes at
        std::size_t count = 0;     ///< live events

        /** Cached earliest event so peek-then-pop scans only once. */
        bool minValid = false;
        Slot minSlot = 0;
        std::size_t minBucket = 0;
        std::size_t minPos = 0;

        /** Floor of the bucket-count adaptation (kept modest so tiny
         *  runs don't thrash allocations). */
        static constexpr std::size_t minBuckets = 64;
        /** Width floor: a zero/denormal width would overflow vbOf. */
        static constexpr double minWidth = 1e-9;

        void reset(double width_ms);

        // The steady-state push/peek/pop cycle is defined inline: these
        // run once per simulated event from the templated run loop, and
        // keeping them visible there lets the whole cycle fold into the
        // loop without a call (the cold findMin/rebucket stay out of
        // line in the .cc).

        void
        push(Slot s, const PendingArena &a)
        {
            const double t = a.finishMs[s];
            const std::uint64_t vb = vbOf(t);
            if (s >= slotVb.size())
                slotVb.resize(s + 1);
            slotVb[s] = vb;
            std::vector<Slot> &b = buckets[vb & mask];
            b.push_back(s);
            ++count;
            // An event earlier than the scan cursor must pull it back,
            // or the next scan would skip right past it.
            if (vb < cursorVb)
                cursorVb = vb;
            if (minValid) {
                const double mt = a.finishMs[minSlot];
                if (t < mt || (t == mt && a.index[s] < a.index[minSlot])) {
                    minSlot = s;
                    minBucket = vb & mask;
                    minPos = b.size() - 1;
                }
            }
            if (count > 2 * buckets.size())
                rebucket(buckets.size() * 2, a);
        }

        double
        peekTimeMs(const PendingArena &a)
        {
            if (!minValid)
                findMin(a);
            return minValid
                       ? a.finishMs[minSlot]
                       : std::numeric_limits<double>::infinity();
        }

        Slot
        pop(const PendingArena &a)
        {
            if (!minValid)
                findMin(a);
            STRETCH_ASSERT(minValid, "pop from an empty calendar queue");
            const Slot s = minSlot;
            std::vector<Slot> &b = buckets[minBucket];
            b[minPos] = b.back();
            b.pop_back();
            --count;
            minValid = false;
            if (buckets.size() > minBuckets && count * 8 < buckets.size())
                rebucket(std::max(minBuckets, buckets.size() / 4), a);
            return s;
        }

        std::uint64_t
        vbOf(double t) const
        {
            double q = t / width;
            // Clamp: events absurdly far out (or +inf finish times) all
            // share the last representable virtual bucket; the exact
            // (finish, index) compare in the scan still orders them
            // correctly.
            if (q >= 9.0e18)
                return static_cast<std::uint64_t>(9.0e18);
            if (q <= 0.0)
                return 0;
            return static_cast<std::uint64_t>(q);
        }

        void findMin(const PendingArena &a);
        void rebucket(std::size_t nbuckets, const PendingArena &a);
    };

    /** Reset server/event/boundary state for a fresh run. */
    void beginRun(double quantum_ms, double rate_hint_per_ms);

    /** Deliver completions, scheduled control events, and quantum
     *  boundaries with time <= t, in simulated-time order. */
    template <class Policy>
    void
    drainUntil(double t, double quantum, Policy &p)
    {
        constexpr double inf = std::numeric_limits<double>::infinity();
        for (;;) {
            const double tc = calendar.peekTimeMs(arena);
            const double tq = quantum > 0.0 ? nextBoundary : inf;
            const double tx = p.nextControlMs();
            // Completions first on ties: a request finishing exactly on a
            // boundary belongs to the window the boundary closes.
            if (tc <= tq && tc <= tx && tc <= t) {
                const Slot c = calendar.pop(arena);
                Completion done;
                done.index = arena.index[c];
                done.server = arena.server[c];
                done.classId = arena.classId[c];
                done.arrivalMs = arena.arrivalMs[c];
                done.startMs = arena.startMs[c];
                done.finishMs = arena.finishMs[c];
                p.onComplete(done);
                arena.release(c);
                continue;
            }
            // Control before the quantum boundary it coincides with: an
            // incident taking effect exactly on a boundary is visible to
            // that boundary's control decision. Each onControl call fires
            // one event and must advance nextControlMs past tx; the loop
            // re-enters for further events at the same timestamp.
            if (tx < tc && tx <= tq && tx <= t) {
                p.onControl(tx);
                continue;
            }
            if (tq < tc && tq < tx && tq <= t) {
                p.onQuantum(tq);
                nextBoundary += quantum;
                continue;
            }
            break;
        }
    }

    std::vector<ServerState> srv;
    PendingArena arena;
    CalendarQueue calendar;
    double elapsed = 0.0;
    double nextBoundary = 0.0;
};

/// @name No-op policy hooks
/// Empty functors standing in for unused optional hooks in `makePolicy`;
/// calls to them compile away entirely.
/// @{
struct NoopComplete
{
    void operator()(const Completion &) const {}
};
struct NoopShed
{
    void operator()(std::uint64_t, double, double, std::uint32_t) const {}
};
struct NoopQuantum
{
    void operator()(double) const {}
};
struct NoopControlNext
{
    double
    operator()() const
    {
        return std::numeric_limits<double>::infinity();
    }
};
struct NoopControlFire
{
    void operator()(double) const {}
};
/// @}

/**
 * Statically-typed policy for `EventEngine::run(requests, Policy&&)`:
 * each hook is stored with its concrete (usually lambda) type, so the
 * engine's templated loop inlines every per-event call. Construct via
 * `makePolicy` — the member order is an implementation detail.
 */
template <class ArrivalFn, class DemandFn, class PlaceFn, class FinishFn,
          class CompleteFn, class ShedFn, class QuantumFn,
          class ControlNextFn = NoopControlNext,
          class ControlFireFn = NoopControlFire>
struct EnginePolicy
{
    ArrivalFn arrivalFn;
    DemandFn demandFn;
    PlaceFn placeFn;
    FinishFn finishFn;
    CompleteFn completeFn;
    ShedFn shedFn;
    QuantumFn quantumFn;
    double quantum = 0.0;
    double rateHint = 0.0;
    ControlNextFn controlNextFn{};
    ControlFireFn controlFireFn{};

    EventEngine::Arrival nextArrival() { return arrivalFn(); }
    double nextDemand(std::uint32_t cls) { return demandFn(cls); }
    std::size_t
    place(double now, double demand, std::uint32_t cls)
    {
        return placeFn(now, demand, cls);
    }
    double
    finish(std::size_t server, double start, double demand)
    {
        return finishFn(server, start, demand);
    }
    void onComplete(const Completion &c) { completeFn(c); }
    void
    onShed(std::uint64_t index, double now, double demand, std::uint32_t cls)
    {
        shedFn(index, now, demand, cls);
    }
    void onQuantum(double boundaryMs) { quantumFn(boundaryMs); }
    double nextControlMs() { return controlNextFn(); }
    void onControl(double timeMs) { controlFireFn(timeMs); }
    double quantumMs() const { return quantum; }
    double rateHintPerMs() const { return rateHint; }
};

/**
 * Build a statically-typed engine policy from concrete callables.
 *
 * @param arrival joint gap+class draw; single-stream sources return
 *        `{gap, 0}` (or `{gap, class}` after their own class draw).
 * @param demand  raw service demand of the next request of a class.
 * @param place   serving-server choice (may return `EventEngine::shed`).
 * @param finish  demand -> completion-time model.
 * @param complete / shed / quantum optional hooks; the defaults are
 *        no-ops that vanish at compile time.
 * @param quantum_ms control-quantum length (0 disables `quantum`).
 * @param rate_hint_per_ms calendar-queue sizing hint (0 = unknown).
 * @param control_next / control_fire optional scheduled-event channel
 *        (next pending control timestamp and the action firing it; see
 *        `EventEngine::run`). The default source is always +infinity,
 *        which is bit-identical to no channel at all.
 */
template <class ArrivalFn, class DemandFn, class PlaceFn, class FinishFn,
          class CompleteFn = NoopComplete, class ShedFn = NoopShed,
          class QuantumFn = NoopQuantum,
          class ControlNextFn = NoopControlNext,
          class ControlFireFn = NoopControlFire>
EnginePolicy<ArrivalFn, DemandFn, PlaceFn, FinishFn, CompleteFn, ShedFn,
             QuantumFn, ControlNextFn, ControlFireFn>
makePolicy(ArrivalFn arrival, DemandFn demand, PlaceFn place, FinishFn finish,
           CompleteFn complete = CompleteFn{}, ShedFn shed = ShedFn{},
           QuantumFn quantum = QuantumFn{}, double quantum_ms = 0.0,
           double rate_hint_per_ms = 0.0,
           ControlNextFn control_next = ControlNextFn{},
           ControlFireFn control_fire = ControlFireFn{})
{
    return {std::move(arrival),      std::move(demand),
            std::move(place),        std::move(finish),
            std::move(complete),     std::move(shed),
            std::move(quantum),      quantum_ms,
            rate_hint_per_ms,        std::move(control_next),
            std::move(control_fire)};
}

} // namespace stretch::queueing

#endif // STRETCH_QUEUEING_EVENT_ENGINE_H
