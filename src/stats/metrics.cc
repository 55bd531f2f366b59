/**
 * @file
 * Metrics registry implementation and its JSON round-trip.
 *
 * The serializer emits dotted paths as nested objects; the parser is a
 * small recursive-descent JSON reader restricted to the subset the
 * serializer produces (objects, arrays, strings, numbers). Unsigned
 * integers are kept exact through the round trip rather than passed
 * through double.
 */

#include "stats/metrics.hh"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/failpoint.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace cachescope {

namespace {

/** Split @p path at '.' into segments. */
std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> segs;
    std::size_t pos = 0;
    while (true) {
        const std::size_t dot = path.find('.', pos);
        segs.push_back(path.substr(
            pos, dot == std::string::npos ? dot : dot - pos));
        if (dot == std::string::npos)
            break;
        pos = dot + 1;
    }
    return segs;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
renderU64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

/** Round-trip-precision double; non-finite values become strings. */
std::string
renderDouble(double v)
{
    if (std::isnan(v))
        return "\"nan\"";
    if (std::isinf(v))
        return v > 0 ? "\"inf\"" : "\"-inf\"";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** A metric leaf flattened to its path segments + rendered value. */
struct Leaf
{
    std::vector<std::string> segs;
    std::string rendered;
};

void
indentTo(std::ostream &os, int depth)
{
    for (int i = 0; i < depth; ++i)
        os << "  ";
}

/**
 * Emit the leaves in [lo, hi) — all sharing the first @p depth path
 * segments — as one JSON object, grouping on segment @p depth.
 */
void
emitGroup(std::ostream &os, const std::vector<Leaf> &leaves,
          std::size_t lo, std::size_t hi, std::size_t depth,
          int indent_depth)
{
    os << "{";
    bool first = true;
    std::size_t i = lo;
    while (i < hi) {
        const std::string &seg = leaves[i].segs[depth];
        std::size_t j = i;
        while (j < hi && leaves[j].segs[depth] == seg)
            ++j;
        if (!first)
            os << ",";
        first = false;
        os << "\n";
        indentTo(os, indent_depth + 1);
        os << '"' << jsonEscape(seg) << "\": ";
        if (leaves[i].segs.size() == depth + 1) {
            // checkPath() guarantees a leaf is never also a group.
            os << leaves[i].rendered;
        } else {
            emitGroup(os, leaves, i, j, depth + 1, indent_depth + 1);
        }
        i = j;
    }
    if (!first) {
        os << "\n";
        indentTo(os, indent_depth);
    }
    os << "}";
}

/** Render a path-keyed map as nested JSON via a segment-sorted list. */
template <typename Map, typename Render>
void
emitNested(std::ostream &os, const Map &map, Render render,
           int indent_depth)
{
    std::vector<Leaf> leaves;
    leaves.reserve(map.size());
    for (const auto &[path, value] : map)
        leaves.push_back({splitPath(path), render(value)});
    // Dotted-path string order is not segment-wise order when segment
    // names contain characters below '.' (e.g. '-'); re-sort.
    std::sort(leaves.begin(), leaves.end(),
              [](const Leaf &a, const Leaf &b) { return a.segs < b.segs; });
    emitGroup(os, leaves, 0, leaves.size(), 0, indent_depth);
}

// --------------------------------------------------------------------
// Parsing.

/** A parsed JSON value (subset: no booleans, no null). */
struct JsonValue
{
    enum class Kind { Object, Array, String, Number };

    Kind kind = Kind::Number;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;
    std::string str;
    double num = 0.0;
    std::uint64_t unum = 0;
    bool isUint = false;
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    Expected<JsonValue>
    parse()
    {
        CS_TRY_ASSIGN(JsonValue v, parseValue(0));
        skipWs();
        if (pos != s.size())
            return err("trailing data after JSON value");
        return v;
    }

  private:
    Status
    errStatus(const char *what) const
    {
        return corruptionError("metrics JSON: %s at byte %zu", what, pos);
    }

    Expected<JsonValue>
    err(const char *what) const
    {
        return errStatus(what);
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
                s[pos] == '\r')) {
            ++pos;
        }
    }

    Expected<JsonValue>
    parseValue(int depth)
    {
        if (depth > kMaxDepth)
            return err("nesting too deep");
        skipWs();
        if (pos >= s.size())
            return err("unexpected end of input");
        const char c = s[pos];
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"')
            return parseStringValue();
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber();
        return err("unexpected character");
    }

    Expected<JsonValue>
    parseObject(int depth)
    {
        ++pos; // '{'
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return v;
        }
        while (true) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"')
                return err("expected object key");
            CS_TRY_ASSIGN(std::string key, parseString());
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return err("expected ':'");
            ++pos;
            CS_TRY_ASSIGN(JsonValue member, parseValue(depth + 1));
            if (!v.object.emplace(std::move(key), std::move(member))
                     .second) {
                return err("duplicate object key");
            }
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return v;
            }
            return err("expected ',' or '}'");
        }
    }

    Expected<JsonValue>
    parseArray(int depth)
    {
        ++pos; // '['
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return v;
        }
        while (true) {
            CS_TRY_ASSIGN(JsonValue member, parseValue(depth + 1));
            v.array.push_back(std::move(member));
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return v;
            }
            return err("expected ',' or ']'");
        }
    }

    Expected<std::string>
    parseString()
    {
        ++pos; // '"'
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos];
            if (c == '\\') {
                ++pos;
                if (pos >= s.size())
                    return Status(errStatus("unterminated escape"));
                switch (s[pos]) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'u': {
                    if (pos + 4 >= s.size())
                        return Status(errStatus("truncated \\u escape"));
                    unsigned code = 0;
                    for (int k = 1; k <= 4; ++k) {
                        const char h = s[pos + k];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return Status(errStatus("bad \\u escape"));
                    }
                    if (code > 0x7f) {
                        // The serializer only \u-escapes control
                        // characters; anything else is out of scope.
                        return Status(
                            errStatus("non-ASCII \\u escape unsupported"));
                    }
                    pos += 4;
                    c = static_cast<char>(code);
                    break;
                  }
                  default:
                    return Status(errStatus("unknown escape"));
                }
            }
            out += c;
            ++pos;
        }
        if (pos >= s.size())
            return Status(errStatus("unterminated string"));
        ++pos; // closing '"'
        return out;
    }

    Expected<JsonValue>
    parseStringValue()
    {
        CS_TRY_ASSIGN(std::string str, parseString());
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.str = std::move(str);
        return v;
    }

    Expected<JsonValue>
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        bool integral = true;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-')) {
            if (!std::isdigit(static_cast<unsigned char>(s[pos])))
                integral = false;
            ++pos;
        }
        const std::string token = s.substr(start, pos - start);
        if (token.empty() || token == "-")
            return err("malformed number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        if (integral && token[0] != '-') {
            auto parsed = parseU64(token);
            if (parsed.ok()) {
                v.unum = parsed.take();
                v.num = static_cast<double>(v.unum);
                v.isUint = true;
                return v;
            }
        }
        char *end = nullptr;
        v.num = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return err("malformed number");
        return v;
    }

    static constexpr int kMaxDepth = 64;

    const std::string &s;
    std::size_t pos = 0;
};

/** Parse a gauge value: a number, or one of the non-finite strings. */
Expected<double>
gaugeOf(const JsonValue &v, const std::string &path)
{
    if (v.kind == JsonValue::Kind::Number)
        return v.num;
    if (v.kind == JsonValue::Kind::String) {
        if (v.str == "nan")
            return std::nan("");
        if (v.str == "inf")
            return std::numeric_limits<double>::infinity();
        if (v.str == "-inf")
            return -std::numeric_limits<double>::infinity();
    }
    return corruptionError("metrics JSON: gauge '%s' is not a number",
                           path.c_str());
}

/** Flatten an object tree of uint leaves into registry counters. */
Status
flattenCounters(const JsonValue &node, const std::string &prefix,
                MetricsRegistry &out)
{
    for (const auto &[key, value] : node.object) {
        const std::string path =
            prefix.empty() ? key : prefix + "." + key;
        if (value.kind == JsonValue::Kind::Object) {
            CS_TRY(flattenCounters(value, path, out));
        } else if (value.kind == JsonValue::Kind::Number && value.isUint) {
            out.setCounter(path, value.unum);
        } else {
            return corruptionError(
                "metrics JSON: counter '%s' is not an unsigned integer",
                path.c_str());
        }
    }
    return Status();
}

Status
flattenGauges(const JsonValue &node, const std::string &prefix,
              MetricsRegistry &out)
{
    for (const auto &[key, value] : node.object) {
        const std::string path =
            prefix.empty() ? key : prefix + "." + key;
        if (value.kind == JsonValue::Kind::Object) {
            CS_TRY(flattenGauges(value, path, out));
        } else {
            CS_TRY_ASSIGN(double gauge, gaugeOf(value, path));
            out.setGauge(path, gauge);
        }
    }
    return Status();
}

Expected<std::uint64_t>
uintField(const JsonValue &obj, const char *key, const std::string &path)
{
    auto it = obj.object.find(key);
    if (it == obj.object.end() || !it->second.isUint) {
        return corruptionError(
            "metrics JSON: histogram '%s' missing uint field '%s'",
            path.c_str(), key);
    }
    return it->second.unum;
}

} // anonymous namespace

void
MetricsRegistry::checkPath(const std::string &path) const
{
    CS_ASSERT(!path.empty(), "empty metric path");
    CS_ASSERT(path.front() != '.' && path.back() != '.' &&
                  path.find("..") == std::string::npos,
              "malformed metric path");
    // A path may not be both a leaf and an interior node within one
    // section; cross-section reuse (counter "x" + gauge "x.y") is also
    // rejected so the JSON sections stay structurally parallel.
    auto conflicts = [&path](const auto &map) {
        auto it = map.lower_bound(path + ".");
        if (it != map.end() &&
            it->first.compare(0, path.size() + 1, path + ".") == 0) {
            return true;
        }
        for (std::size_t dot = path.find('.'); dot != std::string::npos;
             dot = path.find('.', dot + 1)) {
            if (map.count(path.substr(0, dot)))
                return true;
        }
        return false;
    };
    CS_ASSERT(!conflicts(counters_) && !conflicts(gauges_) &&
                  !conflicts(histograms_),
              "metric path is both a leaf and an interior node");
}

void
MetricsRegistry::addCounter(const std::string &path, std::uint64_t delta)
{
    auto it = counters_.find(path);
    if (it == counters_.end()) {
        checkPath(path);
        counters_[path] = delta;
    } else {
        it->second += delta;
    }
}

void
MetricsRegistry::setCounter(const std::string &path, std::uint64_t value)
{
    if (!counters_.count(path))
        checkPath(path);
    counters_[path] = value;
}

void
MetricsRegistry::setGauge(const std::string &path, double value)
{
    if (!gauges_.count(path))
        checkPath(path);
    gauges_[path] = value;
}

void
MetricsRegistry::setHistogram(const std::string &path,
                              const Histogram &histogram)
{
    if (!histograms_.count(path))
        checkPath(path);
    HistogramSnapshot snap;
    snap.width = histogram.bucketWidth();
    snap.samples = histogram.totalSamples();
    snap.counts.reserve(histogram.numBuckets());
    for (std::size_t i = 0; i < histogram.numBuckets(); ++i)
        snap.counts.push_back(histogram.bucket(i));
    histograms_[path] = std::move(snap);
}

void
MetricsRegistry::setHistogram(const std::string &path,
                              HistogramSnapshot snapshot)
{
    if (!histograms_.count(path))
        checkPath(path);
    histograms_[path] = std::move(snapshot);
}

std::uint64_t
MetricsRegistry::counter(const std::string &path) const
{
    auto it = counters_.find(path);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(const std::string &path) const
{
    auto it = gauges_.find(path);
    return it == gauges_.end() ? 0.0 : it->second;
}

bool
MetricsRegistry::hasCounter(const std::string &path) const
{
    return counters_.count(path) != 0;
}

bool
MetricsRegistry::hasGauge(const std::string &path) const
{
    return gauges_.count(path) != 0;
}

bool
MetricsRegistry::hasHistogram(const std::string &path) const
{
    return histograms_.count(path) != 0;
}

void
MetricsRegistry::merge(const MetricsRegistry &other,
                       const std::string &prefix)
{
    const std::string p = prefix.empty() ? "" : prefix + ".";
    for (const auto &[path, value] : other.counters_)
        addCounter(p + path, value);
    for (const auto &[path, value] : other.gauges_)
        setGauge(p + path, value);
    for (const auto &[path, snap] : other.histograms_) {
        const std::string full = p + path;
        auto it = histograms_.find(full);
        if (it == histograms_.end()) {
            checkPath(full);
            histograms_[full] = snap;
            continue;
        }
        HistogramSnapshot &mine = it->second;
        CS_ASSERT(mine.width == snap.width &&
                      mine.counts.size() == snap.counts.size(),
                  "merging histograms of different shapes");
        mine.samples += snap.samples;
        for (std::size_t i = 0; i < snap.counts.size(); ++i)
            mine.counts[i] += snap.counts[i];
    }
}

bool
isHostTimePath(const std::string &path)
{
    const auto ends_with = [&path](std::string_view suffix) {
        return path.size() >= suffix.size() &&
               path.compare(path.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
    };
    return ends_with(".wall_ms") || ends_with("wall_seconds") ||
           ends_with(".throughput_mips") || path == "sweep.cell_wall_ms";
}

MetricsRegistry
withoutHostTime(const MetricsRegistry &in)
{
    MetricsRegistry out;
    for (const auto &[path, value] : in.counters())
        out.setCounter(path, value);
    for (const auto &[path, value] : in.gauges()) {
        if (!isHostTimePath(path))
            out.setGauge(path, value);
    }
    for (const auto &[path, snapshot] : in.histograms()) {
        if (!isHostTimePath(path))
            out.setHistogram(path, snapshot);
    }
    return out;
}

std::string
metricsToJson(const MetricsDocument &doc)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n"
       << "  \"name\": \"" << jsonEscape(doc.name) << "\",\n"
       << "  \"wall_ms\": " << renderDouble(doc.wallMs) << ",\n"
       << "  \"counters\": ";
    emitNested(os, doc.metrics.counters(),
               [](std::uint64_t v) { return renderU64(v); }, 1);
    os << ",\n  \"gauges\": ";
    emitNested(os, doc.metrics.gauges(),
               [](double v) { return renderDouble(v); }, 1);
    os << ",\n  \"histograms\": {";
    bool first = true;
    for (const auto &[path, snap] : doc.metrics.histograms()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    \"" << jsonEscape(path)
           << "\": {\"width\": " << renderU64(snap.width)
           << ", \"samples\": " << renderU64(snap.samples)
           << ", \"counts\": [";
        for (std::size_t i = 0; i < snap.counts.size(); ++i) {
            if (i)
                os << ", ";
            os << renderU64(snap.counts[i]);
        }
        os << "]}";
    }
    if (!first)
        os << "\n  ";
    os << "}\n}\n";
    return os.str();
}

Expected<MetricsDocument>
metricsFromJson(const std::string &text)
{
    JsonParser parser(text);
    CS_TRY_ASSIGN(JsonValue root, parser.parse());
    if (root.kind != JsonValue::Kind::Object)
        return corruptionError("metrics JSON: top level is not an object");

    auto schema = root.object.find("schema");
    if (schema == root.object.end() ||
        schema->second.kind != JsonValue::Kind::String ||
        schema->second.str != kMetricsSchema) {
        return corruptionError(
            "metrics JSON: missing or unknown schema (want \"%s\")",
            kMetricsSchema);
    }

    MetricsDocument doc;
    auto name = root.object.find("name");
    if (name == root.object.end() ||
        name->second.kind != JsonValue::Kind::String)
        return corruptionError("metrics JSON: missing \"name\" string");
    doc.name = name->second.str;

    auto wall = root.object.find("wall_ms");
    if (wall == root.object.end())
        return corruptionError("metrics JSON: missing \"wall_ms\"");
    CS_TRY_ASSIGN(doc.wallMs, gaugeOf(wall->second, "wall_ms"));

    auto counters = root.object.find("counters");
    if (counters != root.object.end()) {
        if (counters->second.kind != JsonValue::Kind::Object)
            return corruptionError(
                "metrics JSON: \"counters\" is not an object");
        CS_TRY(flattenCounters(counters->second, "", doc.metrics));
    }
    auto gauges = root.object.find("gauges");
    if (gauges != root.object.end()) {
        if (gauges->second.kind != JsonValue::Kind::Object)
            return corruptionError(
                "metrics JSON: \"gauges\" is not an object");
        CS_TRY(flattenGauges(gauges->second, "", doc.metrics));
    }
    auto histograms = root.object.find("histograms");
    if (histograms != root.object.end()) {
        if (histograms->second.kind != JsonValue::Kind::Object)
            return corruptionError(
                "metrics JSON: \"histograms\" is not an object");
        for (const auto &[path, value] : histograms->second.object) {
            if (value.kind != JsonValue::Kind::Object)
                return corruptionError(
                    "metrics JSON: histogram '%s' is not an object",
                    path.c_str());
            CS_TRY_ASSIGN(const std::uint64_t width,
                          uintField(value, "width", path));
            CS_TRY_ASSIGN(const std::uint64_t samples,
                          uintField(value, "samples", path));
            auto counts = value.object.find("counts");
            if (counts == value.object.end() ||
                counts->second.kind != JsonValue::Kind::Array) {
                return corruptionError(
                    "metrics JSON: histogram '%s' missing counts array",
                    path.c_str());
            }
            if (width == 0 || counts->second.array.size() < 2) {
                return corruptionError(
                    "metrics JSON: histogram '%s' has a degenerate shape",
                    path.c_str());
            }
            MetricsRegistry::HistogramSnapshot snap;
            snap.width = width;
            snap.samples = samples;
            snap.counts.reserve(counts->second.array.size());
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < counts->second.array.size(); ++i) {
                const JsonValue &c = counts->second.array[i];
                if (!c.isUint) {
                    return corruptionError(
                        "metrics JSON: histogram '%s' count %zu is not "
                        "an unsigned integer",
                        path.c_str(), i);
                }
                snap.counts.push_back(c.unum);
                total += c.unum;
            }
            if (total != samples) {
                return corruptionError(
                    "metrics JSON: histogram '%s' samples %" PRIu64
                    " != sum of counts %" PRIu64,
                    path.c_str(), samples, total);
            }
            doc.metrics.setHistogram(path, std::move(snap));
        }
    }
    return doc;
}

Status
writeMetricsJsonFile(const MetricsDocument &doc, const std::string &path)
{
    CS_FAILPOINT("metrics.json.write");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open())
        return ioError("cannot open '%s' for writing", path.c_str());
    out << metricsToJson(doc);
    out.flush();
    if (!out.good())
        return ioError("error writing metrics JSON to '%s'", path.c_str());
    return Status();
}

Expected<MetricsDocument>
readMetricsJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return ioError("cannot open '%s' for reading", path.c_str());
    std::ostringstream raw;
    raw << in.rdbuf();
    if (in.bad())
        return ioError("error reading '%s'", path.c_str());
    return metricsFromJson(raw.str());
}

} // namespace cachescope
