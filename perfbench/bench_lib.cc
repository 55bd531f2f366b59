/**
 * @file
 * Benchmark helper implementations.
 */

#include "bench_lib.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/checksum.hh"

namespace perfbench {

using namespace cachescope;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailStat
tailPercentile(std::vector<double> values)
{
    TailStat out;
    out.samples = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    // Nearest rank r (1-based) has n - r samples above it. A rank below
    // the median is no tail: small samples fall back to the maximum.
    const std::size_t rank = n > TailStat::kTailBeyond &&
            n - TailStat::kTailBeyond > n / 2
        ? n - TailStat::kTailBeyond
        : n;
    out.value = values[rank - 1];
    out.percentile = 100.0 * static_cast<double>(rank) /
                     static_cast<double>(n);
    out.beyond = n - rank;
    return out;
}

MetricsRegistry
stripHostTime(const MetricsRegistry &in)
{
    const auto ends_with = [](const std::string &s, const char *suffix) {
        const std::size_t n = std::char_traits<char>::length(suffix);
        return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
    };
    MetricsRegistry out;
    for (const auto &[path, value] : in.counters())
        out.setCounter(path, value);
    for (const auto &[path, value] : in.gauges()) {
        if (ends_with(path, ".wall_ms") || ends_with(path, "wall_seconds") ||
            ends_with(path, ".throughput_mips"))
            continue;
        out.setGauge(path, value);
    }
    for (const auto &[path, snap] : in.histograms()) {
        if (path == "sweep.cell_wall_ms")
            continue;
        out.setHistogram(path, snap);
    }
    return out;
}

std::uint64_t
treeDigest(const MetricsRegistry &tree)
{
    MetricsDocument doc;
    doc.name = "perfbench";
    doc.metrics = stripHostTime(tree);
    const std::string json = metricsToJson(doc);
    Checksum64 sum;
    sum.update(json.data(), json.size());
    return sum.digest();
}

double
uncoveredTime(double start, double end,
              std::vector<std::pair<double, double>> children)
{
    if (end <= start)
        return 0.0;
    for (auto &[a, b] : children) {
        a = std::clamp(a, start, end);
        b = std::clamp(b, start, end);
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = start;
    for (const auto &[a, b] : children) {
        const double from = std::max(a, reach);
        if (b > from) {
            covered += b - from;
            reach = b;
        }
    }
    return (end - start) - covered;
}

double
selfTime(const std::vector<SpanRecord> &spans, std::uint64_t id)
{
    const SpanRecord *self = nullptr;
    std::vector<std::pair<double, double>> children;
    for (const SpanRecord &s : spans) {
        if (s.id == id)
            self = &s;
        else if (s.parent == id)
            children.emplace_back(s.start, s.end);
    }
    return self ? uncoveredTime(self->start, self->end, std::move(children))
                : 0.0;
}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

std::uint64_t
SpanRecorder::begin(const std::string &name, std::uint64_t parent)
{
    if (!enabled_.load())
        return 0;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord s;
    s.id = nextId_++;
    s.parent = parent;
    s.name = name;
    s.start = t;
    open_.push_back(std::move(s));
    return open_.back().id;
}

void
SpanRecorder::end(std::uint64_t id)
{
    if (id == 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(open_.begin(), open_.end(),
                                 [id](const SpanRecord &s) {
                                     return s.id == id;
                                 });
    if (it == open_.end())
        return;
    it->end = t;
    closed_.push_back(std::move(*it));
    open_.erase(it);
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

void
CountingWorkload::run(InstructionSink &sink)
{
    ++runs_;
    ScopedSpan span(spans_, "workload.run", parent_.load());
    inner_->run(sink);
}

Provenance
Provenance::ofThisBuild(unsigned jobs, std::uint64_t seed)
{
    Provenance p;
    p.gitDescribe = PERFBENCH_GIT_DESCRIBE;
    p.buildType = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
    p.optimized = true;
#endif
    p.native = PERFBENCH_NATIVE != 0;
    p.lto = PERFBENCH_LTO != 0;
    p.nproc = std::thread::hardware_concurrency();
    p.jobs = jobs;
    p.seed = seed;
    return p;
}

std::string
Provenance::toJson() const
{
    return "{\"git_describe\": " + jsonString(gitDescribe) +
           ", \"build_type\": " + jsonString(buildType) +
           ", \"optimized\": " + (optimized ? "true" : "false") +
           ", \"CACHESCOPE_NATIVE\": " + (native ? "true" : "false") +
           ", \"CACHESCOPE_LTO\": " + (lto ? "true" : "false") +
           ", \"nproc\": " + std::to_string(nproc) +
           ", \"jobs\": " + std::to_string(jobs) +
           ", \"seed\": " + std::to_string(seed) + "}";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
