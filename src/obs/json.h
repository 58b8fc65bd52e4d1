/**
 * @file
 * Minimal streaming JSON writer for the observability artifacts.
 *
 * The telemetry layer emits two machine-readable artifact kinds — Chrome
 * trace files and structured run reports — and both must be *strict*
 * JSON (RFC 8259): consumers include `json.loads`, Perfetto, and the
 * repo's own `tools/validate_trace.py`, none of which accept NaN or
 * Infinity literals. The repo bakes in no third-party JSON dependency,
 * so this writer is the one shared serializer: append-only, exact
 * nesting tracked by an explicit stack, full string escaping, and every
 * non-finite double mapped to `null` (several report fields are
 * legitimately +inf, e.g. an unbounded assertion window).
 *
 * Not a general-purpose library: no parsing, no pretty-printing beyond
 * a single indent style, and misuse (value without a key inside an
 * object) is a programming error caught by assertion.
 *
 * `writeArtifactFile` is the one file sink both artifact kinds go
 * through.
 */

#ifndef STRETCH_OBS_JSON_H
#define STRETCH_OBS_JSON_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace stretch::obs
{

/**
 * Append-only JSON document builder. Usage:
 *
 *     JsonWriter w;
 *     w.beginObject();
 *     w.key("schemaVersion"); w.value(std::int64_t{1});
 *     w.key("events"); w.beginArray(); ... w.endArray();
 *     w.endObject();
 *     file << w.str();
 *
 * The writer asserts on structural misuse (an `endObject` closing an
 * array, a value emitted in object context without a preceding `key`),
 * so a malformed document dies loudly at the write site instead of
 * surfacing as a downstream parse error.
 */
class JsonWriter
{
  public:
    JsonWriter() { out.reserve(256); }

    /// @name Containers.
    /// @{
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    /// @}

    /** Emit the key of the next object member (object context only). */
    void key(std::string_view k);

    /// @name Scalar values.
    /// Doubles that are NaN or ±Infinity are written as `null` — strict
    /// JSON has no token for them.
    /// @{
    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(double v);
    void value(std::int64_t v);
    void value(std::uint64_t v);
    void value(bool b);
    void null();
    /// @}

    /// @name Keyed-value conveniences (`key(k); value(v);`).
    /// @{
    template <class T>
    void
    field(std::string_view k, T v)
    {
        key(k);
        value(v);
    }
    void
    nullField(std::string_view k)
    {
        key(k);
        null();
    }
    /// @}

    /** The finished document (call once nesting is fully closed). */
    const std::string &str() const;

    /** Escape @p s as a JSON string literal (with quotes). */
    static std::string quoted(std::string_view s);

  private:
    enum class Ctx : char
    {
        Object,
        Array,
    };

    /** Comma bookkeeping + context check before any value/container. */
    void preValue();
    void raw(std::string_view s) { out.append(s.data(), s.size()); }

    std::string out;
    std::vector<Ctx> stack;
    /** Per-level "already holds an element" flags (parallel to stack). */
    std::vector<char> hasElement;
    /** A `key` was emitted and awaits its value. */
    bool pendingKey = false;
};

/**
 * Open @p path, let @p write fill it, and flush. Warns, naming the @p kind
 * of sink ("trace", "report"), and returns false on I/O failure: a failed
 * artifact write must not kill a finished run.
 */
bool writeArtifactFile(const std::string &path, const char *kind,
                       const std::function<void(std::ostream &)> &write);

} // namespace stretch::obs

#endif // STRETCH_OBS_JSON_H
