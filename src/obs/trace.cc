#include "obs/trace.h"

#include <cstring>
#include <limits>
#include <map>
#include <ostream>
#include <vector>

#include "obs/json.h"
#include "queueing/event_engine.h"

namespace stretch::obs
{

EngineTracer::EngineTracer(std::size_t cores) : cores(cores) {}

void
EngineTracer::arrival(double ts_ms, std::uint32_t cls)
{
    TraceEvent e;
    e.name = "arrival";
    e.ph = TraceEvent::Phase::Instant;
    e.tid = admissionTid;
    e.tsMs = ts_ms;
    e.classId = static_cast<std::int32_t>(cls);
    ev.push_back(e);
}

void
EngineTracer::shed(double ts_ms, std::uint32_t cls)
{
    TraceEvent e;
    e.name = "shed";
    e.ph = TraceEvent::Phase::Instant;
    e.tid = admissionTid;
    e.tsMs = ts_ms;
    e.classId = static_cast<std::int32_t>(cls);
    ev.push_back(e);
}

void
EngineTracer::completion(const queueing::Completion &c)
{
    TraceEvent e;
    e.name = "request";
    e.ph = TraceEvent::Phase::Complete;
    e.tid = requestsTid(c.server);
    e.tsMs = c.startMs;
    e.durMs = c.finishMs - c.startMs;
    e.classId = static_cast<std::int32_t>(c.classId);
    e.arg0Name = "queueMs";
    e.arg0 = c.startMs - c.arrivalMs;
    e.arg1Name = "latencyMs";
    e.arg1 = c.latencyMs();
    ev.push_back(e);
}

void
EngineTracer::quantum(double ts_ms)
{
    TraceEvent e;
    e.name = "quantum";
    e.ph = TraceEvent::Phase::Instant;
    e.tid = quantaTid;
    e.tsMs = ts_ms;
    ev.push_back(e);
}

void
EngineTracer::incident(double ts_ms, const char *kind, double value,
                       const char *extra_name, double extra)
{
    TraceEvent e;
    e.name = kind;
    e.ph = TraceEvent::Phase::Instant;
    e.tid = incidentsTid;
    e.tsMs = ts_ms;
    e.arg0Name = "value";
    e.arg0 = value;
    e.arg1Name = extra_name;
    e.arg1 = extra;
    ev.push_back(e);
}

void
EngineTracer::modeBegin(std::size_t core, double ts_ms,
                        const char *mode_name)
{
    TraceEvent e;
    e.name = mode_name;
    e.ph = TraceEvent::Phase::Begin;
    e.tid = modeTid(core);
    e.tsMs = ts_ms;
    ev.push_back(e);
}

void
EngineTracer::modeEnd(std::size_t core, double ts_ms, const char *mode_name)
{
    TraceEvent e;
    e.name = mode_name;
    e.ph = TraceEvent::Phase::End;
    e.tid = modeTid(core);
    e.tsMs = ts_ms;
    ev.push_back(e);
}

void
EngineTracer::throttleBegin(std::size_t core, double ts_ms)
{
    TraceEvent e;
    e.name = "throttled";
    e.ph = TraceEvent::Phase::Begin;
    e.tid = throttleTid(core);
    e.tsMs = ts_ms;
    ev.push_back(e);
}

void
EngineTracer::throttleEnd(std::size_t core, double ts_ms)
{
    TraceEvent e;
    e.name = "throttled";
    e.ph = TraceEvent::Phase::End;
    e.tid = throttleTid(core);
    e.tsMs = ts_ms;
    ev.push_back(e);
}

std::size_t
EngineTracer::count(TraceEvent::Phase ph, const char *name) const
{
    std::size_t n = 0;
    for (const TraceEvent &e : ev)
        if (e.ph == ph && std::strcmp(e.name, name) == 0)
            ++n;
    return n;
}

namespace
{

/** Emit one M metadata event naming a thread track. */
void
threadName(JsonWriter &w, std::int64_t pid, std::uint32_t tid,
           const std::string &name)
{
    w.beginObject();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", static_cast<std::int64_t>(tid));
    w.key("args");
    w.beginObject();
    w.field("name", std::string_view(name));
    w.endObject();
    w.endObject();
}

} // namespace

void
EngineTracer::writeEvent(JsonWriter &w, const TraceEvent &e) const
{
    w.beginObject();
    w.field("name", e.name);
    const char ph[2] = {static_cast<char>(e.ph), '\0'};
    w.field("ph", static_cast<const char *>(ph));
    w.field("pid", pid_);
    w.field("tid", static_cast<std::int64_t>(e.tid));
    // Trace-event ts is in microseconds; the simulator clock is in ms.
    w.field("ts", e.tsMs * 1000.0);
    if (e.ph == TraceEvent::Phase::Complete)
        w.field("dur", e.durMs * 1000.0);
    if (e.ph == TraceEvent::Phase::Instant)
        w.field("s", "t"); // thread-scoped instant
    const bool hasArgs =
        e.classId >= 0 || e.arg0Name != nullptr || e.arg1Name != nullptr;
    if (hasArgs) {
        w.key("args");
        w.beginObject();
        if (e.classId >= 0)
            w.field("class", static_cast<std::int64_t>(e.classId));
        if (e.arg0Name != nullptr)
            w.field(e.arg0Name, e.arg0);
        if (e.arg1Name != nullptr)
            w.field(e.arg1Name, e.arg1);
        w.endObject();
    }
    w.endObject();
}

void
EngineTracer::writeMetadata(JsonWriter &w) const
{
    // Process + one name per track so Perfetto shows labeled rows
    // instead of bare pids/tids.
    w.beginObject();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", pid_);
    w.field("tid", std::int64_t{0});
    w.key("args");
    w.beginObject();
    w.field("name", std::string_view(procName));
    w.endObject();
    w.endObject();
    threadName(w, pid_, admissionTid, "admission");
    threadName(w, pid_, quantaTid, "quanta");
    threadName(w, pid_, incidentsTid, "incidents");
    for (std::size_t c = 0; c < cores; ++c) {
        const std::string label = "core " + std::to_string(c);
        threadName(w, pid_, requestsTid(c), label + " requests");
        threadName(w, pid_, modeTid(c), label + " mode");
        threadName(w, pid_, throttleTid(c), label + " throttle");
    }
}

void
EngineTracer::writeEvents(JsonWriter &w) const
{
    for (const TraceEvent &e : ev)
        writeEvent(w, e);
}

void
EngineTracer::writeTo(std::ostream &os) const
{
    writeClusterTrace({this}, os);
}

bool
EngineTracer::writeFile(const std::string &path) const
{
    return writeClusterTraceFile({this}, path);
}

void
EngineTracer::writeWindow(JsonWriter &w, double from_ms,
                          double until_ms) const
{
    // Pair B/E events per track so a mode or throttle span overlapping
    // the window is attached even when both endpoints fall outside it —
    // and both endpoints travel together, keeping the attachment's
    // stacks balanced. An unclosed B lasts to the end of the buffer.
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<double> spanFrom(ev.size()), spanUntil(ev.size());
    std::map<std::uint32_t, std::vector<std::size_t>> open;
    for (std::size_t i = 0; i < ev.size(); ++i) {
        const TraceEvent &e = ev[i];
        spanFrom[i] = e.tsMs;
        spanUntil[i] =
            e.ph == TraceEvent::Phase::Complete ? e.tsMs + e.durMs : e.tsMs;
        if (e.ph == TraceEvent::Phase::Begin) {
            spanUntil[i] = inf;
            open[e.tid].push_back(i);
        } else if (e.ph == TraceEvent::Phase::End) {
            std::vector<std::size_t> &stack = open[e.tid];
            if (!stack.empty()) {
                spanUntil[stack.back()] = e.tsMs;
                spanFrom[i] = ev[stack.back()].tsMs;
                stack.pop_back();
            }
        }
    }

    w.beginArray();
    for (std::size_t i = 0; i < ev.size(); ++i) {
        if (spanUntil[i] < from_ms || spanFrom[i] > until_ms)
            continue;
        writeEvent(w, ev[i]);
    }
    w.endArray();
}

void
writeClusterTrace(const std::vector<const EngineTracer *> &tracers,
                  std::ostream &os)
{
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    std::uint64_t events = 0;
    std::uint64_t cores = 0;
    for (const EngineTracer *t : tracers) {
        t->writeMetadata(w);
        events += t->events().size();
        cores += t->coreCount();
    }
    for (const EngineTracer *t : tracers)
        t->writeEvents(w);
    w.endArray();

    w.field("displayTimeUnit", "ms");
    w.key("otherData");
    w.beginObject();
    w.field("schemaVersion", std::int64_t{1});
    w.field("kind", "trace");
    w.field("generator", "stretch");
    w.field("nodes", static_cast<std::uint64_t>(tracers.size()));
    w.field("cores", cores);
    w.field("events", events);
    w.endObject();
    w.endObject();
    os << w.str();
}

bool
writeClusterTraceFile(const std::vector<const EngineTracer *> &tracers,
                      const std::string &path)
{
    return writeArtifactFile(path, "trace", [&](std::ostream &os) {
        writeClusterTrace(tracers, os);
    });
}

} // namespace stretch::obs
