#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/log.h"

namespace stretch::obs
{

void
JsonWriter::preValue()
{
    if (stack.empty()) {
        STRETCH_ASSERT(out.empty(), "a JSON document has exactly one root "
                                    "value");
        return;
    }
    if (stack.back() == Ctx::Object) {
        STRETCH_ASSERT(pendingKey, "object members need a key() before "
                                   "the value");
        pendingKey = false;
        return;
    }
    if (hasElement.back())
        raw(",");
    hasElement.back() = 1;
}

void
JsonWriter::beginObject()
{
    preValue();
    raw("{");
    stack.push_back(Ctx::Object);
    hasElement.push_back(0);
}

void
JsonWriter::endObject()
{
    STRETCH_ASSERT(!stack.empty() && stack.back() == Ctx::Object &&
                       !pendingKey,
                   "endObject outside an object (or after a dangling "
                   "key)");
    raw("}");
    stack.pop_back();
    hasElement.pop_back();
}

void
JsonWriter::beginArray()
{
    preValue();
    raw("[");
    stack.push_back(Ctx::Array);
    hasElement.push_back(0);
}

void
JsonWriter::endArray()
{
    STRETCH_ASSERT(!stack.empty() && stack.back() == Ctx::Array,
                   "endArray outside an array");
    raw("]");
    stack.pop_back();
    hasElement.pop_back();
}

void
JsonWriter::key(std::string_view k)
{
    STRETCH_ASSERT(!stack.empty() && stack.back() == Ctx::Object &&
                       !pendingKey,
                   "key() is only valid directly inside an object");
    if (hasElement.back())
        raw(",");
    hasElement.back() = 1;
    out += quoted(k);
    raw(":");
    pendingKey = true;
}

void
JsonWriter::value(std::string_view s)
{
    preValue();
    out += quoted(s);
}

void
JsonWriter::value(double v)
{
    if (!std::isfinite(v)) {
        // Strict JSON has no NaN/Infinity token; consumers treat null
        // as "no value", which is what a non-finite double means here.
        preValue();
        raw("null");
        return;
    }
    preValue();
    // Shortest representation that round-trips: try %.15g first (enough
    // for almost every value this project produces), fall back to the
    // always-exact %.17g.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    if (std::strtod(buf, nullptr) != v)
        std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(buf);
}

void
JsonWriter::value(std::int64_t v)
{
    preValue();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    raw(buf);
}

void
JsonWriter::value(std::uint64_t v)
{
    preValue();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    raw(buf);
}

void
JsonWriter::value(bool b)
{
    preValue();
    raw(b ? "true" : "false");
}

void
JsonWriter::null()
{
    preValue();
    raw("null");
}

const std::string &
JsonWriter::str() const
{
    STRETCH_ASSERT(stack.empty() && !out.empty(),
                   "str() before the document's nesting is closed");
    return out;
}

std::string
JsonWriter::quoted(std::string_view s)
{
    std::string q;
    q.reserve(s.size() + 2);
    q += '"';
    for (char ch : s) {
        auto c = static_cast<unsigned char>(ch);
        switch (c) {
        case '"':
            q += "\\\"";
            break;
        case '\\':
            q += "\\\\";
            break;
        case '\b':
            q += "\\b";
            break;
        case '\f':
            q += "\\f";
            break;
        case '\n':
            q += "\\n";
            break;
        case '\r':
            q += "\\r";
            break;
        case '\t':
            q += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                q += buf;
            } else {
                q += ch;
            }
        }
    }
    q += '"';
    return q;
}

bool
writeArtifactFile(const std::string &path, const char *kind,
                  const std::function<void(std::ostream &)> &write)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        STRETCH_WARN("cannot open ", kind, " sink '", path, "'");
        return false;
    }
    write(os);
    os.flush();
    if (!os) {
        STRETCH_WARN("short write on ", kind, " sink '", path, "'");
        return false;
    }
    return true;
}

} // namespace stretch::obs
