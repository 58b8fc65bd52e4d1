/**
 * @file
 * Observability-layer tests: the JSON writer, the scenario hash, the
 * metric registry, the engine tracer, and — the load-bearing property —
 * bit-identity of traced vs untraced dispatch, with registry counters
 * cross-checked against trace-derived event counts and the dispatcher's
 * own tallies on both synthetic runs and a catalog drill.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queueing/event_engine.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "sim/fleet.h"
#include "workload/service_class.h"

namespace stretch
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- JsonWriter -------------------------------------------------------

TEST(JsonWriter, NestingAndScalarTypesSerializeExactly)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("i", std::int64_t{-7});
    w.field("u", std::uint64_t{42});
    w.field("b", true);
    w.field("s", "hi");
    w.nullField("n");
    w.key("a");
    w.beginArray();
    w.value(std::int64_t{1});
    w.beginObject();
    w.field("x", 0.5);
    w.endObject();
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"i\":-7,\"u\":42,\"b\":true,\"s\":\"hi\","
                       "\"n\":null,\"a\":[1,{\"x\":0.5}]}");
}

TEST(JsonWriter, StringsAreEscaped)
{
    EXPECT_EQ(obs::JsonWriter::quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(obs::JsonWriter::quoted("\n\t"), "\"\\n\\t\"");
    EXPECT_EQ(obs::JsonWriter::quoted(std::string_view("\x01", 1)),
              "\"\\u0001\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    obs::JsonWriter w;
    w.beginArray();
    w.value(kInf);
    w.value(-kInf);
    w.value(std::nan(""));
    w.value(1.5);
    w.endArray();
    EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, DoublesRoundTrip)
{
    // 0.1 has no short exact decimal; the writer must still emit a
    // string that parses back to the same bits.
    for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789}) {
        obs::JsonWriter w;
        w.beginArray();
        w.value(v);
        w.endArray();
        std::string body = w.str().substr(1, w.str().size() - 2);
        EXPECT_EQ(std::stod(body), v) << body;
    }
}

// ---- Scenario hash ----------------------------------------------------

TEST(RunReportHash, Fnv1aMatchesKnownVectors)
{
    EXPECT_EQ(obs::fnv1a(""), 14695981039346656037ull);
    EXPECT_EQ(obs::fnv1a("a"), 0xaf63dc4c8601ec8cull);
}

TEST(RunReportHash, SensitiveToLabelSeedAndConfig)
{
    obs::RunReport a;
    a.label = "day";
    a.seed = 42;
    a.addConfig("cores", std::uint64_t{4});
    obs::RunReport b = a;
    EXPECT_EQ(a.hash(), b.hash());
    b.seed = 43;
    EXPECT_NE(a.hash(), b.hash());
    b = a;
    b.addConfig("burstRatio", 3.0);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(RunReportHash, TellsRackIngressSettingsApart)
{
    // Each ingress knob changes a rack's results, so a sweep over any of
    // them (probes x signal delay, say) must not collapse to one hash.
    // Single-node runs ignore the ingress, so their hashes must not move.
    using Bump = void (*)(cluster::IngressConfig &);
    const std::vector<std::pair<const char *, Bump>> bumps = {
        {"probes", [](cluster::IngressConfig &in) { in.probes += 1; }},
        {"signalDelayMs",
         [](cluster::IngressConfig &in) { in.signalDelayMs += 1.0; }},
    };
    const sim::FleetResult result;
    auto hash = [&](const scenario::Scenario &s) {
        return scenario::makeReport(s, result, nullptr, nullptr).hash();
    };
    const scenario::Scenario rack = scenario::preset("rack-web-search");
    ASSERT_GT(rack.nodes, 1u);
    scenario::Scenario single = rack;
    single.nodes = 1;
    for (const auto &[name, bump] : bumps) {
        scenario::Scenario r = rack;
        bump(r.ingress);
        EXPECT_NE(hash(r), hash(rack)) << name;
        scenario::Scenario n = single;
        bump(n.ingress);
        EXPECT_EQ(hash(n), hash(single)) << name;
    }
}

// ---- MetricRegistry ---------------------------------------------------

TEST(MetricRegistry, CountersGaugesAndTailsRoundTrip)
{
    obs::MetricRegistry reg;
    EXPECT_FALSE(reg.has("engine.completions"));
    EXPECT_EQ(reg.counterValue("engine.completions"), 0u);

    reg.counter("engine.completions") += 3;
    reg.gauge("dispatch.elapsed_ms") = 12.5;
    reg.tail("dispatch.latency_ms").record(2.0);

    EXPECT_TRUE(reg.has("engine.completions"));
    EXPECT_TRUE(reg.has("dispatch.elapsed_ms"));
    EXPECT_TRUE(reg.has("dispatch.latency_ms"));
    EXPECT_EQ(reg.counterValue("engine.completions"), 3u);
    EXPECT_EQ(reg.gaugeValue("dispatch.elapsed_ms"), 12.5);
    EXPECT_EQ(reg.tails().at("dispatch.latency_ms").count(), 1u);
}

TEST(MetricRegistry, HandlesStaySableAcrossLaterRegistrations)
{
    obs::MetricRegistry reg;
    std::uint64_t &c = reg.counter("a.first");
    double &g = reg.gauge("g.first");
    for (int i = 0; i < 200; ++i) {
        reg.counter("a.fill" + std::to_string(i));
        reg.gauge("g.fill" + std::to_string(i));
    }
    c = 7;
    g = 2.25;
    EXPECT_EQ(reg.counterValue("a.first"), 7u);
    EXPECT_EQ(reg.gaugeValue("g.first"), 2.25);
}

TEST(MetricRegistry, WriteJsonSnapshotsSortedSections)
{
    obs::MetricRegistry reg;
    reg.counter("b.two") = 2;
    reg.counter("a.one") = 1;
    reg.gauge("g.x") = 0.5;
    reg.tail("t.lat").record(1.0);

    obs::JsonWriter w;
    reg.writeJson(w);
    const std::string json = w.str();
    EXPECT_NE(json.find("\"counters\":{\"a.one\":1,\"b.two\":2}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"g.x\":0.5"), std::string::npos);
    EXPECT_NE(json.find("\"t.lat\""), std::string::npos);
}

// ---- EngineTracer on synthetic events ---------------------------------

TEST(EngineTracer, RecordsAndCountsSyntheticEvents)
{
    obs::EngineTracer tr(2);
    tr.arrival(0.5, 0);
    tr.arrival(1.0, 1);
    tr.shed(1.25, 1);
    tr.modeBegin(0, 0.0, "baseline");
    tr.modeEnd(0, 2.0, "baseline");
    tr.quantum(1.0);
    queueing::Completion c;
    c.index = 0;
    c.server = 1;
    c.classId = 0;
    c.arrivalMs = 0.5;
    c.startMs = 0.6;
    c.finishMs = 1.4;
    tr.completion(c);
    tr.incident(1.5, "arrival-scale", 2.0);

    using Ph = obs::TraceEvent::Phase;
    EXPECT_EQ(tr.events().size(), 8u);
    EXPECT_EQ(tr.count(Ph::Instant, "arrival"), 2u);
    EXPECT_EQ(tr.count(Ph::Instant, "shed"), 1u);
    EXPECT_EQ(tr.count(Ph::Begin, "baseline"), 1u);
    EXPECT_EQ(tr.count(Ph::End, "baseline"), 1u);
    EXPECT_EQ(tr.count(Ph::Complete, "request"), 1u);
    EXPECT_EQ(tr.count(Ph::Instant, "quantum"), 1u);
    EXPECT_EQ(tr.count(Ph::Instant, "arrival-scale"), 1u);
    EXPECT_EQ(tr.count(Ph::Instant, "no-such"), 0u);
}

TEST(EngineTracer, WritesChromeTraceDocument)
{
    obs::EngineTracer tr(1);
    tr.arrival(1.0, 0);
    std::ostringstream os;
    tr.writeTo(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
    // ts is microseconds: 1.0 ms -> 1000.
    EXPECT_NE(doc.find("\"ts\":1000"), std::string::npos) << doc;
    // A single tracer is a one-node cluster trace.
    EXPECT_NE(doc.find("\"nodes\":1"), std::string::npos) << doc;
}

TEST(EngineTracer, ClusterTraceMergesProcessGroups)
{
    // Two node tracers with distinct pids merge into one document: all
    // process/track metadata first, then both nodes' events, each under
    // its own pid.
    obs::EngineTracer node0(1), node1(1);
    node0.setProcess(1, "node 0");
    node1.setProcess(2, "node 1");
    node0.arrival(1.0, 0);
    node1.arrival(2.0, 0);

    std::ostringstream os;
    obs::writeClusterTrace({&node0, &node1}, os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"node 0\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"node 1\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":2"), std::string::npos);
    // Both nodes' arrivals survive the merge (ts in microseconds).
    EXPECT_NE(doc.find("\"ts\":1000"), std::string::npos);
    EXPECT_NE(doc.find("\"ts\":2000"), std::string::npos);
}

TEST(EngineTracer, WindowSelectsOverlappingEvents)
{
    obs::EngineTracer tr(1);
    tr.arrival(1.0, 0);
    tr.arrival(5.0, 0);
    tr.arrival(9.0, 0);
    tr.modeBegin(0, 0.0, "baseline"); // span 0..10 overlaps any window
    tr.modeEnd(0, 10.0, "baseline");

    obs::JsonWriter w;
    tr.writeWindow(w, 4.0, 6.0);
    const std::string json = w.str();
    // The 5.0 arrival and the enclosing mode span are in; 1.0/9.0 out.
    EXPECT_NE(json.find("\"ts\":5000"), std::string::npos) << json;
    EXPECT_EQ(json.find("\"ts\":1000,"), std::string::npos) << json;
    EXPECT_NE(json.find("baseline"), std::string::npos);
}

// ---- Traced vs untraced bit-identity ----------------------------------

/** A dispatch config exercising every traced subsystem: service
 *  classes, class-aware routing, the SlackDriven monitor ladder with
 *  throttling, incidents, and the completion timeline. */
sim::DispatchConfig
instrumentedBase(std::uint64_t seed)
{
    using Kind = sim::IncidentAction::Kind;
    sim::DispatchConfig cfg;
    cfg.rates.assign(4, sim::ModeRates{2.0, 1.7, 2.4, 2.6});
    cfg.requests = 5000;
    cfg.arrivalRatePerMs = 6.0;
    cfg.seed = seed;
    cfg.classes =
        workloads::ServiceClassRegistry::searchAnalyticsPair(6.0, 75.0);
    cfg.policy = sim::PlacementPolicy::ClassAware;
    cfg.control.kind = sim::ModePolicyKind::SlackDriven;
    cfg.control.quantumMs = 0.5;
    cfg.control.monitor.qosTarget = 4.0;
    cfg.control.honorThrottle = true;
    cfg.timelineBucketMs = 50.0;

    sim::IncidentAction surge;
    surge.kind = Kind::ArrivalScale;
    surge.atMs = 150.0;
    surge.value = 1.8;
    sim::IncidentAction calm;
    calm.kind = Kind::ArrivalScale;
    calm.atMs = 400.0;
    calm.value = 1.0;
    sim::IncidentAction fail;
    fail.kind = Kind::CoreFail;
    fail.atMs = 550.0;
    fail.core = 3;
    cfg.incidents = {surge, calm, fail};
    return cfg;
}

/** Exact equality of everything the dispatcher reports — the tracer
 *  and the registry must be pure observers. */
void
expectIdentical(const sim::DispatchOutcome &a, const sim::DispatchOutcome &b)
{
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.busyMs, b.busyMs);
    EXPECT_EQ(a.elapsedMs, b.elapsedMs);
    EXPECT_EQ(a.throughputRps, b.throughputRps);
    EXPECT_EQ(a.totalShed, b.totalShed);
    EXPECT_EQ(a.latencyMs.count, b.latencyMs.count);
    EXPECT_EQ(a.latencyMs.mean, b.latencyMs.mean);
    EXPECT_EQ(a.latencyMs.p99, b.latencyMs.p99);
    EXPECT_EQ(a.latencyMs.max, b.latencyMs.max);
    ASSERT_EQ(a.modeStats.size(), b.modeStats.size());
    for (std::size_t c = 0; c < a.modeStats.size(); ++c) {
        for (std::size_t m = 0; m < sim::numStretchModes; ++m)
            EXPECT_EQ(a.modeStats[c].residencyMs[m],
                      b.modeStats[c].residencyMs[m]);
        EXPECT_EQ(a.modeStats[c].transitions, b.modeStats[c].transitions);
        EXPECT_EQ(a.modeStats[c].throttleMs, b.modeStats[c].throttleMs);
        EXPECT_EQ(a.modeStats[c].throttleEngagements,
                  b.modeStats[c].throttleEngagements);
    }
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].completions, b.timeline[i].completions);
        EXPECT_EQ(a.timeline[i].p99Ms, b.timeline[i].p99Ms);
    }
    ASSERT_EQ(a.perClass.size(), b.perClass.size());
    for (std::size_t k = 0; k < a.perClass.size(); ++k) {
        EXPECT_EQ(a.perClass[k].completed, b.perClass[k].completed);
        EXPECT_EQ(a.perClass[k].shed, b.perClass[k].shed);
        EXPECT_EQ(a.perClass[k].tailMs, b.perClass[k].tailMs);
        EXPECT_EQ(a.perClass[k].sloAttainment, b.perClass[k].sloAttainment);
    }
}

TEST(TracedDispatch, TracingAndMetricsAreBitIdenticalToBareRuns)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        sim::DispatchOutcome bare =
            sim::dispatchRequests(instrumentedBase(seed));

        sim::DispatchConfig cfg = instrumentedBase(seed);
        obs::EngineTracer tracer(cfg.rates.size());
        obs::MetricRegistry metrics;
        cfg.tracer = &tracer;
        cfg.metrics = &metrics;
        sim::DispatchOutcome traced = sim::dispatchRequests(cfg);

        expectIdentical(bare, traced);
        EXPECT_GT(tracer.events().size(), cfg.requests);
    }
}

// ---- Registry / trace / outcome cross-check ---------------------------

TEST(TracedDispatch, CountersTraceAndOutcomeTalliesAgree)
{
    using Ph = obs::TraceEvent::Phase;
    sim::DispatchConfig cfg = instrumentedBase(11);
    obs::EngineTracer tr(cfg.rates.size());
    obs::MetricRegistry reg;
    cfg.tracer = &tr;
    cfg.metrics = &reg;
    sim::DispatchOutcome out = sim::dispatchRequests(cfg);

    // Admission: every request produced exactly one arrival instant and
    // either a completion span or a shed instant.
    EXPECT_EQ(tr.count(Ph::Instant, "arrival"), cfg.requests);
    EXPECT_EQ(reg.counterValue("engine.arrivals"), cfg.requests);
    EXPECT_EQ(tr.count(Ph::Instant, "shed"), out.totalShed);
    EXPECT_EQ(reg.counterValue("engine.sheds"), out.totalShed);
    EXPECT_EQ(tr.count(Ph::Complete, "request"), out.latencyMs.count);
    EXPECT_EQ(reg.counterValue("engine.completions"), out.latencyMs.count);
    EXPECT_EQ(tr.count(Ph::Complete, "request") +
                  tr.count(Ph::Instant, "shed"),
              cfg.requests);

    // Control plane: quanta, mode spans, throttle spans.
    EXPECT_EQ(tr.count(Ph::Instant, "quantum"),
              reg.counterValue("engine.quantum_boundaries"));
    EXPECT_EQ(tr.count(Ph::Begin, "throttled"),
              out.totalThrottleEngagements());
    EXPECT_EQ(reg.counterValue("control.throttle_engagements"),
              out.totalThrottleEngagements());
    EXPECT_EQ(reg.counterValue("control.mode_transitions"),
              out.totalTransitions());
    // Every serving core opens one span at t=0; each transition opens
    // one more (a CoreFail only closes).
    std::size_t modeBegins = 0;
    for (std::size_t m = 0; m < sim::numStretchModes; ++m)
        modeBegins +=
            tr.count(Ph::Begin, toString(static_cast<StretchMode>(m)));
    EXPECT_EQ(modeBegins, cfg.rates.size() + out.totalTransitions());

    // Incidents: one instant per fired action, named after its kind.
    EXPECT_EQ(tr.count(Ph::Instant, "arrival-scale") +
                  tr.count(Ph::Instant, "core-fail"),
              cfg.incidents.size());
    EXPECT_EQ(reg.counterValue("incidents.fired"), cfg.incidents.size());
    EXPECT_EQ(reg.counterValue("incidents.arrival-scale"), 2u);
    EXPECT_EQ(reg.counterValue("incidents.core-fail"), 1u);

    // Class-aware routing: the four placement buckets partition the
    // admitted requests; admission sheds are the only sheds.
    const std::uint64_t routed = reg.counterValue("router.hot_pinned") +
                                 reg.counterValue("router.hot_overflow") +
                                 reg.counterValue("router.loose_little") +
                                 reg.counterValue("router.loose_big");
    EXPECT_EQ(routed, out.latencyMs.count);
    EXPECT_EQ(reg.counterValue("router.shed_admission"), out.totalShed);

    // Per-class counters restate the outcome rows; the dispatch tail
    // absorbed every completion.
    std::uint64_t classCompleted = 0;
    for (const sim::ClassOutcome &co : out.perClass) {
        EXPECT_EQ(reg.counterValue("class." + co.name + ".completions"),
                  co.completed);
        EXPECT_EQ(reg.counterValue("class." + co.name + ".sheds"), co.shed);
        classCompleted += co.completed;
    }
    EXPECT_EQ(classCompleted, out.latencyMs.count);
    EXPECT_EQ(reg.tails().at("dispatch.latency_ms").count(),
              out.latencyMs.count);
    EXPECT_EQ(reg.gaugeValue("dispatch.elapsed_ms"), out.elapsedMs);
}

// ---- Reading artifacts back -------------------------------------------

/** A parsed JSON value: just enough of a reader to check the artifacts
 *  this suite writes. Malformed input throws, failing the test. */
struct Json
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Type type = Type::Null;
    bool flag = false;
    double number = 0.0;
    std::string text;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> fields;

    /** The value under @p key, or null when the object has none. */
    const Json *
    find(const std::string &key) const
    {
        for (const auto &f : fields)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }

    const Json &
    operator[](const std::string &key) const
    {
        const Json *v = find(key);
        if (v == nullptr)
            throw std::runtime_error("no key '" + key + "'");
        return *v;
    }
};

void
skipSpace(const char *&p)
{
    while (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t')
        ++p;
}

std::string
parseString(const char *&p)
{
    if (*p++ != '"')
        throw std::runtime_error("expected a string");
    std::string out;
    for (; *p != '"'; ++p) {
        // An escape keeps its letter undecoded: no test compares text
        // that the writer escapes.
        if (*p == '\\')
            ++p;
        if (*p == '\0')
            throw std::runtime_error("unterminated string");
        out += *p;
    }
    ++p;
    return out;
}

Json
parseValue(const char *&p)
{
    skipSpace(p);
    Json v;
    auto word = [&](const char *w) {
        const std::size_t n = std::strlen(w);
        if (std::strncmp(p, w, n) != 0)
            return false;
        p += n;
        return true;
    };
    if (*p == '{' || *p == '[') {
        const bool object = *p == '{';
        const char close = object ? '}' : ']';
        v.type = object ? Json::Type::Object : Json::Type::Array;
        ++p;
        for (skipSpace(p); *p != close; skipSpace(p)) {
            if (object) {
                std::string key = parseString(p);
                skipSpace(p);
                if (*p++ != ':')
                    throw std::runtime_error("expected ':'");
                v.fields.emplace_back(std::move(key), parseValue(p));
            } else {
                v.items.push_back(parseValue(p));
            }
            skipSpace(p);
            if (*p == ',')
                ++p;
            else if (*p != close)
                throw std::runtime_error("expected ',' or a close");
        }
        ++p;
    } else if (*p == '"') {
        v.type = Json::Type::String;
        v.text = parseString(p);
    } else if (word("true")) {
        v.type = Json::Type::Bool;
        v.flag = true;
    } else if (word("false")) {
        v.type = Json::Type::Bool;
    } else if (word("null")) {
        v.type = Json::Type::Null;
    } else {
        char *end = nullptr;
        v.number = std::strtod(p, &end);
        if (end == p)
            throw std::runtime_error("unexpected character in JSON");
        v.type = Json::Type::Number;
        p = end;
    }
    return v;
}

/** Parse the JSON document in @p path. */
Json
readJson(const std::string &path)
{
    std::ifstream f(path);
    if (!f.good())
        throw std::runtime_error("cannot open " + path);
    std::stringstream body;
    body << f.rdbuf();
    const std::string doc = body.str();
    const char *p = doc.c_str();
    Json v = parseValue(p);
    skipSpace(p);
    if (*p != '\0')
        throw std::runtime_error("trailing text after the JSON document");
    return v;
}

// ---- Drill instrumentation --------------------------------------------

TEST(InstrumentedDrill, GuardrailDrillCrossChecksAndWritesArtifacts)
{
    namespace fs = std::filesystem;
    using Ph = obs::TraceEvent::Phase;
    const fs::path dir = fs::path(::testing::TempDir());
    const std::string trace = (dir / "guardrail.trace.json").string();
    const std::string report = (dir / "guardrail.report.json").string();

    scenario::DrillOutcome o = scenario::runDrill(
        scenario::drill("guardrail/flash-crowd"), [&](scenario::Scenario &s) {
            s.tracePath = trace;
            s.reportPath = report;
        });

    ASSERT_NE(o.trace, nullptr);
    ASSERT_NE(o.metrics, nullptr);
    const sim::DispatchOutcome &d = o.result.dispatch;

    // Registry == trace == outcome, on a real catalog drill.
    EXPECT_EQ(o.trace->count(Ph::Complete, "request"), d.latencyMs.count);
    EXPECT_EQ(o.metrics->counterValue("engine.completions"),
              d.latencyMs.count);
    EXPECT_EQ(o.trace->count(Ph::Instant, "shed"), d.totalShed);
    EXPECT_EQ(o.metrics->counterValue("engine.sheds"), d.totalShed);
    EXPECT_EQ(o.trace->count(Ph::Begin, "throttled"),
              d.totalThrottleEngagements());
    EXPECT_EQ(o.metrics->counterValue("control.mode_transitions"),
              d.totalTransitions());
    EXPECT_EQ(o.trace->count(Ph::Instant, "arrival"),
              o.metrics->counterValue("engine.arrivals"));

    // Both artifacts landed on disk with their envelopes.
    std::ifstream rf(report);
    ASSERT_TRUE(rf.good());
    std::stringstream rbody;
    rbody << rf.rdbuf();
    EXPECT_NE(rbody.str().find("\"kind\":\"run-report\""),
              std::string::npos);
    EXPECT_NE(rbody.str().find("\"assertions\":["), std::string::npos);
    std::ifstream tf(trace);
    ASSERT_TRUE(tf.good());
    std::stringstream tbody;
    tbody << tf.rdbuf();
    EXPECT_NE(tbody.str().find("\"traceEvents\""), std::string::npos);
}

/** One assertion entry a drill report must carry: its kind, its
 *  verdict, and the trace window a failed one attaches. */
struct WindowPin
{
    const char *kind;
    bool pass;
    double fromMs = 0.0;
    double untilMs = 0.0;
};

/**
 * Run drill @p name blinded by @p blind, with both artifact paths set,
 * and check every assertion entry of its report against @p pins. A
 * fleet report cuts the trace events inside each window (@p events); a
 * rack report attaches none.
 */
void
expectViolationWindows(const char *name,
                       const std::function<void(scenario::Scenario &)> &blind,
                       const std::vector<WindowPin> &pins, bool events)
{
    namespace fs = std::filesystem;
    std::string file = name;
    std::replace(file.begin(), file.end(), '/', '-');
    const fs::path dir = fs::path(::testing::TempDir());
    const std::string report = (dir / (file + ".report.json")).string();
    scenario::DrillOutcome o = scenario::runDrill(
        scenario::drill(name), [&](scenario::Scenario &s) {
            blind(s);
            s.tracePath = (dir / (file + ".trace.json")).string();
            s.reportPath = report;
        });

    const Json doc = readJson(report);
    const double elapsed = doc["outcome"]["elapsedMs"].number;
    EXPECT_EQ(elapsed, o.result.dispatch.elapsedMs);
    const std::vector<Json> &entries = doc["assertions"].items;
    ASSERT_EQ(entries.size(), pins.size());
    ASSERT_EQ(o.assertions.size(), pins.size());
    for (std::size_t i = 0; i < pins.size(); ++i) {
        const Json &a = entries[i];
        const WindowPin &pin = pins[i];
        SCOPED_TRACE(std::string(name) + ": " + a["detail"].text);
        EXPECT_EQ(a["kind"].text, pin.kind);
        ASSERT_EQ(a["pass"].flag, pin.pass);
        EXPECT_EQ(o.assertions[i].pass, pin.pass);
        const Json &w = a["traceWindow"];
        if (pin.pass) {
            EXPECT_EQ(w.type, Json::Type::Null);
            continue;
        }
        ASSERT_EQ(w.type, Json::Type::Object);
        const double from = w["fromMs"].number;
        const double until = w["untilMs"].number;
        EXPECT_EQ(from, pin.fromMs);
        EXPECT_EQ(until, pin.untilMs);
        EXPECT_LE(0.0, from);
        EXPECT_LE(from, until);
        EXPECT_LE(until, elapsed);
        if (std::string(pin.kind) == "attainment-at-least") {
            EXPECT_EQ(from, 0.0);
            EXPECT_EQ(until, elapsed);
        }
        const Json *cut = w.find("events");
        if (events) {
            ASSERT_NE(cut, nullptr);
            EXPECT_FALSE(cut->items.empty());
        } else {
            EXPECT_EQ(cut, nullptr);
        }
    }
}

TEST(InstrumentedDrill, FailedAssertionsAttachTheirViolationWindows)
{
    // Two blinded drills that fail all four assertion kinds between
    // them (the rack drill still meets its attainment floor). The
    // literals pin every window exactly.
    expectViolationWindows(
        "guardrail/flash-crowd",
        [](scenario::Scenario &s) {
            s.placement = sim::PlacementPolicy::RoundRobin;
            s.control.honorThrottle = false;
        },
        {{"class-tail-at-most", false, 1074.2187113792063,
          2301.897238669728},
         {"attainment-at-least", false, 0.0, 3492.0087597102947}},
        true);
    expectViolationWindows(
        "rack/node-degradation",
        [](scenario::Scenario &s) {
            s.ingress.policy = cluster::IngressPolicy::RoundRobin;
        },
        {{"fleet-tail-at-most", false, 1409.448370546676,
          2114.1725558200133},
         {"recovery-within", false, 2029.605653587213, 2677.9519040386836},
         {"attainment-at-least", true}},
        false);
}

// ---- Scenario-level reporting -----------------------------------------

scenario::Scenario
smallScenario()
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "mcf";
    return scenario::ScenarioBuilder()
        .name("obs-small")
        .addCore(core)
        .addCore(core)
        .serviceClasses(
            workloads::ServiceClassRegistry::searchAnalyticsPair(6.0, 75.0))
        .requests(2000)
        .arrivalRate(3.0)
        .timeline(50.0)
        .seed(5)
        .expect();
}

TEST(ScenarioReporting, RunWritesArtifactsWithoutChangingResults)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir());
    const std::string trace = (dir / "small.trace.json").string();
    const std::string report = (dir / "small.report.json").string();

    sim::FleetResult bare = scenario::run(smallScenario());

    scenario::Scenario s = smallScenario();
    s.tracePath = trace;
    s.reportPath = report;
    sim::FleetResult instrumented = scenario::run(s);

    expectIdentical(bare.dispatch, instrumented.dispatch);
    EXPECT_TRUE(fs::exists(trace));
    EXPECT_TRUE(fs::exists(report));

    std::ifstream rf(report);
    std::stringstream body;
    body << rf.rdbuf();
    EXPECT_NE(body.str().find("\"label\":\"obs-small\""), std::string::npos);
    EXPECT_NE(body.str().find("\"metrics\":{"), std::string::npos);
    EXPECT_NE(body.str().find("\"hash\":\""), std::string::npos);
}

TEST(ScenarioReporting, RackRunWritesArtifactsWithoutChangingResults)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir());
    scenario::Scenario rack = smallScenario();
    rack.nodes = 4;
    const cluster::ClusterResult bare = scenario::runRack(rack);
    const sim::DispatchOutcome &want = bare.merged.dispatch;

    // Once through runRack, once through run's rack route.
    for (const char *via : {"runRack", "run"}) {
        SCOPED_TRACE(via);
        scenario::Scenario s = rack;
        s.tracePath = (dir / (std::string(via) + ".rack.trace.json")).string();
        s.reportPath =
            (dir / (std::string(via) + ".rack.report.json")).string();
        sim::FleetResult merged;
        if (std::string(via) == "run") {
            merged = scenario::run(s);
        } else {
            cluster::ClusterResult r = scenario::runRack(s);
            ASSERT_EQ(r.nodes.size(), bare.nodes.size());
            for (std::size_t j = 0; j < r.nodes.size(); ++j)
                EXPECT_EQ(r.nodes[j].dispatch.placed,
                          bare.nodes[j].dispatch.placed);
            EXPECT_EQ(r.ingress.decisions, bare.ingress.decisions);
            EXPECT_EQ(r.ingress.failovers, bare.ingress.failovers);
            EXPECT_EQ(r.ingress.spillovers, bare.ingress.spillovers);
            EXPECT_EQ(r.ingress.signalRefreshes,
                      bare.ingress.signalRefreshes);
            EXPECT_EQ(r.ingress.steered, bare.ingress.steered);
            EXPECT_EQ(r.ingress.capacityPerMs, bare.ingress.capacityPerMs);
            EXPECT_EQ(r.ingress.signalStalenessMs.count(),
                      bare.ingress.signalStalenessMs.count());
            merged = std::move(r.merged);
        }
        EXPECT_EQ(merged.dispatch.latencyMs.p99, want.latencyMs.p99);
        EXPECT_EQ(merged.dispatch.placed, want.placed);
        expectIdentical(want, merged.dispatch);

        // One process group per node, named after it.
        const Json trace = readJson(s.tracePath);
        EXPECT_EQ(trace["otherData"]["nodes"].number, 4.0);
        std::vector<std::pair<double, std::string>> groups;
        for (const Json &e : trace["traceEvents"].items)
            if (e["name"].text == "process_name")
                groups.emplace_back(e["pid"].number, e["args"]["name"].text);
        const std::vector<std::pair<double, std::string>> nodes = {
            {1, "node 0"}, {2, "node 1"}, {3, "node 2"}, {4, "node 3"}};
        EXPECT_EQ(groups, nodes);

        const Json report = readJson(s.reportPath);
        EXPECT_EQ(report["scenario"]["label"].text, "obs-small");
        EXPECT_EQ(report["metrics"]["counters"]["ingress.decisions"].number,
                  static_cast<double>(bare.ingress.decisions));
    }
}

TEST(ScenarioReporting, RunInstrumentedReturnsLiveObjectsAndWritesNothing)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir());
    const std::string trace = (dir / "live.trace.json").string();

    scenario::Scenario s = smallScenario();
    s.tracePath = trace;
    s.reportPath = (dir / "live.report.json").string();
    scenario::InstrumentedRun r = scenario::runInstrumented(s);

    ASSERT_EQ(r.traces.size(), 1u);
    ASSERT_NE(r.metrics, nullptr);
    EXPECT_GT(r.traces[0]->events().size(), 0u);
    EXPECT_EQ(r.metrics->counterValue("engine.completions"),
              r.result.dispatch.latencyMs.count);
    EXPECT_FALSE(fs::exists(trace)); // serialization is the caller's call
}

TEST(ArtifactSinks, WritersReturnFalseForAPathInAMissingDirectory)
{
    namespace fs = std::filesystem;
    const fs::path missing = fs::path(::testing::TempDir()) / "no-such-dir";
    fs::remove_all(missing);

    obs::EngineTracer tr(1);
    tr.arrival(1.0, 0);
    const sim::FleetResult result;
    obs::RunReport rep;
    rep.result = &result;

    EXPECT_FALSE(tr.writeFile((missing / "run.trace.json").string()));
    EXPECT_FALSE(obs::writeClusterTraceFile(
        {&tr}, (missing / "rack.trace.json").string()));
    EXPECT_FALSE(
        obs::writeReportFile((missing / "run.report.json").string(), rep));
    EXPECT_FALSE(fs::exists(missing));
}

// ---- Sweep artifact paths ---------------------------------------------

TEST(VariantArtifactPath, SanitizesLabelsIntoThePath)
{
    EXPECT_EQ(scenario::variantArtifactPath("runs/day.json",
                                            "policy=qos, load=90%"),
              "runs/day-policy-qos-load-90.json");
    EXPECT_EQ(scenario::variantArtifactPath("trace", "a=b"), "trace-a-b");
    EXPECT_EQ(scenario::variantArtifactPath("out.d/trace", "x=1"),
              "out.d/trace-x-1");
}

} // namespace
} // namespace stretch
