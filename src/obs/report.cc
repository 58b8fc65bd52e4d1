#include "obs/report.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"

namespace stretch::obs
{

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 14695981039346656037ull; // FNV offset basis
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull; // FNV prime
    }
    return h;
}

void
RunReport::addConfig(std::string key, std::string value)
{
    config.push_back({std::move(key), std::move(value)});
}

void
RunReport::addConfig(std::string key, double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.15g", value);
    config.push_back({std::move(key), buf});
}

void
RunReport::addConfig(std::string key, std::uint64_t value)
{
    config.push_back({std::move(key), std::to_string(value)});
}

std::uint64_t
RunReport::hash() const
{
    std::string echo = label + "\n" + std::to_string(seed) + "\n";
    for (const ConfigEntry &e : config)
        echo += e.key + "=" + e.value + "\n";
    return fnv1a(echo);
}

namespace
{

void
writeSummary(JsonWriter &w, const stats::ViolinSummary &s)
{
    w.beginObject();
    w.field("count", static_cast<std::uint64_t>(s.count));
    w.field("min", s.min);
    w.field("q1", s.q1);
    w.field("median", s.median);
    w.field("q3", s.q3);
    w.field("max", s.max);
    w.field("mean", s.mean);
    w.field("p95", s.p95);
    w.field("p99", s.p99);
    w.field("p999", s.p999);
    w.endObject();
}

} // namespace

std::string
toJson(const RunReport &r)
{
    STRETCH_ASSERT(r.result != nullptr, "run report needs a result");
    const sim::FleetResult &res = *r.result;
    const sim::DispatchOutcome &d = res.dispatch;

    JsonWriter w;
    w.beginObject();
    w.field("schemaVersion", std::int64_t{1});
    w.field("kind", "run-report");
    w.field("generator", "stretch");

    w.key("scenario");
    w.beginObject();
    w.field("label", std::string_view(r.label));
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(r.hash()));
    w.field("hash", static_cast<const char *>(hex));
    w.field("seed", r.seed);
    w.key("config");
    w.beginObject();
    for (const RunReport::ConfigEntry &e : r.config)
        w.field(std::string_view(e.key), std::string_view(e.value));
    w.endObject();
    w.endObject();

    w.key("outcome");
    w.beginObject();
    w.field("elapsedMs", d.elapsedMs);
    w.field("throughputRps", d.throughputRps);
    w.field("offeredRatePerMs", d.offeredRatePerMs);
    w.field("totalShed", d.totalShed);
    w.field("modeTransitions", d.totalTransitions());
    w.field("throttleEngagements", d.totalThrottleEngagements());
    w.field("throttleCoreMs", d.totalThrottleMs());
    w.field("effectiveBatchUipc", res.effectiveBatchUipc);
    w.field("totalLsUipc", res.totalLsUipc);
    w.field("totalBatchUipc", res.totalBatchUipc);
    w.key("latencyMs");
    writeSummary(w, d.latencyMs);
    w.endObject();

    w.key("perClass");
    w.beginArray();
    for (const sim::ClassOutcome &c : d.perClass) {
        w.beginObject();
        w.field("name", std::string_view(c.name));
        w.field("completed", c.completed);
        w.field("shed", c.shed);
        w.field("sloTargetMs", c.sloTargetMs);
        w.field("tailPercentile", c.tailPercentile);
        w.field("tailMs", c.tailMs);
        w.field("sloAttainment", c.sloAttainment);
        w.field("sloMet", c.sloMet());
        w.key("latencyMs");
        writeSummary(w, c.latencyMs);
        w.endObject();
    }
    w.endArray();

    w.field("timelineBucketMs", r.timelineBucketMs);
    w.key("timeline");
    w.beginArray();
    for (const sim::TimelineBucket &b : d.timeline) {
        w.beginObject();
        w.field("startMs", b.startMs);
        w.field("completions", b.completions);
        w.field("p50Ms", b.p50Ms);
        w.field("p99Ms", b.p99Ms);
        w.field("loadFraction", b.loadFraction);
        w.field("throttledCoreMs", b.throttledCoreMs);
        if (!b.perClass.empty()) {
            w.key("perClass");
            w.beginArray();
            for (const sim::TimelineBucket::ClassCell &cell : b.perClass) {
                w.beginObject();
                w.field("completions", cell.completions);
                w.field("shed", cell.shed);
                w.field("p99Ms", cell.p99Ms);
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();

    w.key("metrics");
    if (r.metrics)
        r.metrics->writeJson(w);
    else
        w.null();

    w.key("assertions");
    w.beginArray();
    for (const RunReport::Assertion &a : r.assertions) {
        w.beginObject();
        w.field("kind", std::string_view(a.kind));
        if (!a.className.empty())
            w.field("className", std::string_view(a.className));
        w.field("bound", a.bound);
        w.field("fromMs", a.fromMs);
        w.field("untilMs", a.untilMs); // +inf serializes as null
        w.field("observed", a.observed);
        w.field("pass", a.pass);
        w.field("detail", std::string_view(a.detail));
        w.key("traceWindow");
        if (a.hasWindow) {
            w.beginObject();
            w.field("fromMs", a.windowFromMs);
            w.field("untilMs", a.windowUntilMs);
            if (r.trace) {
                w.key("events");
                r.trace->writeWindow(w, a.windowFromMs, a.windowUntilMs);
            }
            w.endObject();
        } else {
            w.null();
        }
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

bool
writeReportFile(const std::string &path, const RunReport &r)
{
    return writeArtifactFile(path, "report",
                             [&](std::ostream &os) { os << toJson(r); });
}

} // namespace stretch::obs
