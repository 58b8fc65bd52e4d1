/**
 * @file
 * Engine event tracing: Chrome `trace_event` JSON of a dispatch run.
 *
 * `EngineTracer` buffers the events of one `sim::dispatchRequests` run
 * — arrivals, sheds, per-request service spans, per-core mode residency
 * and throttle spans, quantum boundaries, incident actions — and writes
 * them in the Chrome trace-event format, so a run opens directly in
 * Perfetto (https://ui.perfetto.dev) or chrome://tracing with one track
 * per core and per control channel.
 *
 * The hot engine path is instrumented through `TracedPolicy`, a
 * *templated wrapper* over any `queueing::EventEngine` policy: the
 * caller instantiates the engine loop either with the bare policy or
 * with the wrapped one, selected ONCE outside the loop. The untraced
 * instantiation is byte-for-byte the pre-observability loop — no
 * per-event branch, no virtual call, no null check — which is how
 * "zero overhead when off" is meant literally. The wrapper only
 * *observes*: it consumes no RNG draws and never changes a time or a
 * placement, so traced and untraced runs are bit-identical in results
 * (property-tested in tests/test_obs.cc).
 *
 * Track layout (one process group per tracer; pid 1 for a single-node
 * run, pid j+1 for cluster node j — see `writeClusterTrace`):
 *   - tid 1 "admission": `i` instants `arrival` / `shed`, one per
 *     request, at the arrival timestamp.
 *   - tid 2 "quanta": `i` instant `quantum` at every control boundary.
 *   - tid 3 "incidents": `i` instant per fired `sim::IncidentAction`,
 *     named after the action kind.
 *   - tid 10+3c "core c requests": one `X` complete event per finished
 *     request (ts = service start, dur = service time).
 *   - tid 11+3c "core c mode": `B`/`E` spans named after the engaged
 *     Stretch mode — the mode-residency timeline.
 *   - tid 12+3c "core c throttle": `B`/`E` spans `throttled` while the
 *     CPI² ladder holds the co-runner suppressed.
 *
 * Timestamps: simulated milliseconds, written as trace-event `ts` in
 * microseconds (ms x 1000). Every track's events are appended in
 * non-decreasing time order by construction (arrivals are monotone,
 * per-core FCFS makes service starts monotone per core, control events
 * fire in time order), which `tools/validate_trace.py` checks.
 */

#ifndef STRETCH_OBS_TRACE_H
#define STRETCH_OBS_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace stretch::queueing
{
struct Completion;
}

namespace stretch::obs
{

class JsonWriter;

/** One buffered trace event (see the file header for the track map). */
struct TraceEvent
{
    enum class Phase : char
    {
        Begin = 'B',   ///< duration-span open (stack discipline per tid)
        End = 'E',     ///< duration-span close
        Complete = 'X', ///< self-contained span (ts + dur)
        Instant = 'i', ///< point event
    };

    /** Event name. Must point at static-lifetime storage (the tracer
     *  never copies it); every recording call passes literals. */
    const char *name = "";
    Phase ph = Phase::Instant;
    std::uint32_t tid = 0;
    double tsMs = 0.0;
    double durMs = 0.0; ///< Complete events only
    /** Service-class argument (written as args.class); < 0 = absent. */
    std::int32_t classId = -1;
    /// @name Up to two generic numeric arguments (absent when unnamed).
    /// @{
    const char *arg0Name = nullptr;
    double arg0 = 0.0;
    const char *arg1Name = nullptr;
    double arg1 = 0.0;
    /// @}
};

/**
 * Event buffer + trace-file writer for one dispatch run.
 *
 * Point a `sim::DispatchConfig::tracer` (or `FleetConfig::tracer`) at an
 * instance and run; afterwards `writeFile` produces the Chrome trace.
 * Recording is append-only into a vector — O(1) amortised per event, no
 * I/O until the run is over. One tracer traces one run; it is not
 * thread-safe (the dispatcher is single-threaded by construction).
 */
class EngineTracer
{
  public:
    /** @param cores server count of the traced engine (track naming). */
    explicit EngineTracer(std::size_t cores);

    /// @name Track ids (within one process group; see setProcess).
    /// @{
    static constexpr std::uint32_t admissionTid = 1;
    static constexpr std::uint32_t quantaTid = 2;
    static constexpr std::uint32_t incidentsTid = 3;
    static constexpr std::uint32_t coreTidBase = 10;
    static std::uint32_t
    requestsTid(std::size_t core)
    {
        return coreTidBase + 3 * static_cast<std::uint32_t>(core);
    }
    static std::uint32_t
    modeTid(std::size_t core)
    {
        return requestsTid(core) + 1;
    }
    static std::uint32_t
    throttleTid(std::size_t core)
    {
        return requestsTid(core) + 2;
    }
    /// @}

    /// @name Recording (called by TracedPolicy and the dispatcher).
    /// @{
    void arrival(double ts_ms, std::uint32_t cls);
    void shed(double ts_ms, std::uint32_t cls);
    void completion(const queueing::Completion &c);
    void quantum(double ts_ms);
    /** One fired incident action. @p kind must be a static-lifetime
     *  name; @p extra_name/@p extra add one kind-specific argument
     *  (nullptr = none). */
    void incident(double ts_ms, const char *kind, double value,
                  const char *extra_name = nullptr, double extra = 0.0);
    /** Open/close a mode-residency span on core @p core. @p mode_name
     *  must be static-lifetime (use `toString(StretchMode)`). */
    void modeBegin(std::size_t core, double ts_ms, const char *mode_name);
    void modeEnd(std::size_t core, double ts_ms, const char *mode_name);
    void throttleBegin(std::size_t core, double ts_ms);
    void throttleEnd(std::size_t core, double ts_ms);
    /// @}

    /**
     * Trace-event process identity for everything this tracer writes.
     * The default (pid 1, "stretch fleet") is the historical
     * single-node layout; the cluster layer gives node j's tracer
     * pid j+1 and a per-node name, so a merged rack trace shows one
     * labeled process group per node (see `writeClusterTrace`).
     */
    void
    setProcess(std::int64_t pid, std::string name)
    {
        pid_ = pid;
        procName = std::move(name);
    }
    std::int64_t pid() const { return pid_; }
    const std::string &processName() const { return procName; }

    /** Every recorded event, in recording order. */
    const std::vector<TraceEvent> &events() const { return ev; }

    /** Number of events whose (phase, name) match (name by strcmp). */
    std::size_t count(TraceEvent::Phase ph, const char *name) const;

    /** Server count the tracer was built for. */
    std::size_t coreCount() const { return cores; }

    /** Write the full Chrome trace document to @p os: the one-node
     *  `writeClusterTrace`. */
    void writeTo(std::ostream &os) const;

    /** Write the trace to @p path; warns and returns false on I/O
     *  failure (a failed artifact write must not kill a finished run). */
    bool writeFile(const std::string &path) const;

    /**
     * Append the events overlapping [from_ms, until_ms] to @p w as a
     * JSON array of trace-event objects (the "traceWindow" attachment a
     * failed QoS assertion embeds in a run report). Spans overlap the
     * window when any part of them does.
     */
    void writeWindow(JsonWriter &w, double from_ms, double until_ms) const;

    /// @name Raw-array emission (used by the cluster trace merge).
    /// Append this tracer's track-name metadata / buffered events to an
    /// already-open JSON array, all under this tracer's pid.
    /// @{
    void writeMetadata(JsonWriter &w) const;
    void writeEvents(JsonWriter &w) const;
    /// @}

  private:
    void writeEvent(JsonWriter &w, const TraceEvent &e) const;

    std::size_t cores;
    std::int64_t pid_ = 1;
    std::string procName = "stretch fleet";
    std::vector<TraceEvent> ev;
};

/**
 * Merge several tracers' buffers into ONE Chrome trace document: each
 * tracer contributes its own process group (distinguish them up front
 * with `setProcess`), so a rack run opens in Perfetto as N labeled
 * node groups, each with the full per-core track layout. Events stay
 * in per-tracer recording order — monotone per (pid, tid) track, which
 * is all the trace schema requires.
 */
void writeClusterTrace(const std::vector<const EngineTracer *> &tracers,
                       std::ostream &os);

/** `writeClusterTrace` to a file; warns and returns false on I/O
 *  failure (a failed artifact write must not kill a finished run). */
bool writeClusterTraceFile(
    const std::vector<const EngineTracer *> &tracers,
    const std::string &path);

/**
 * Tracing wrapper over an engine policy (see the file header).
 *
 * Wraps a reference to the inner policy and forwards every hook,
 * recording admission, completion, and quantum events on the way
 * through. Instantiate only on the traced path:
 *
 *     auto policy = queueing::makePolicy(...);
 *     if (tracer)
 *         engine.run(requests, TracedPolicy<decltype(policy)>(policy,
 *                                                             *tracer));
 *     else
 *         engine.run(requests, policy);   // the exact untraced loop
 *
 * The wrapper relies on the engine's policy contract: `place` is
 * invoked exactly once per arrival at the arrival instant (so the
 * arrival event needs no clock of its own), and exactly one of
 * booking / `onShed` follows it.
 */
template <class Inner>
class TracedPolicy
{
  public:
    TracedPolicy(Inner &inner, EngineTracer &tracer)
        : inner(inner), tracer(tracer)
    {
    }

    auto nextArrival() { return inner.nextArrival(); }
    double nextDemand(std::uint32_t cls) { return inner.nextDemand(cls); }
    std::size_t
    place(double now, double demand, std::uint32_t cls)
    {
        tracer.arrival(now, cls);
        return inner.place(now, demand, cls);
    }
    double
    finish(std::size_t server, double start, double demand)
    {
        return inner.finish(server, start, demand);
    }
    void
    onComplete(const queueing::Completion &c)
    {
        tracer.completion(c);
        inner.onComplete(c);
    }
    void
    onShed(std::uint64_t index, double now, double demand,
           std::uint32_t cls)
    {
        tracer.shed(now, cls);
        inner.onShed(index, now, demand, cls);
    }
    void
    onQuantum(double boundary_ms)
    {
        tracer.quantum(boundary_ms);
        inner.onQuantum(boundary_ms);
    }
    double nextControlMs() { return inner.nextControlMs(); }
    void onControl(double time_ms) { inner.onControl(time_ms); }
    double quantumMs() const { return inner.quantumMs(); }
    double rateHintPerMs() const { return inner.rateHintPerMs(); }

  private:
    Inner &inner;
    EngineTracer &tracer;
};

} // namespace stretch::obs

#endif // STRETCH_OBS_TRACE_H
