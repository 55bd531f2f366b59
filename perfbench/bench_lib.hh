/**
 * @file
 * Helpers of the CacheScope benchmark program that are worth testing on
 * their own: the tail-percentile rule, the metric-tree digest, the
 * in-memory span recorder with its self-time arithmetic, the counting
 * Workload decorator, and the run's provenance record.
 */

#ifndef CACHESCOPE_PERFBENCH_BENCH_LIB_HH
#define CACHESCOPE_PERFBENCH_BENCH_LIB_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats/metrics.hh"
#include "trace/workload.hh"

namespace perfbench {

/** @return the median of @p values (mean of the middle two); 0 if empty. */
double median(std::vector<double> values);

/**
 * The highest nearest-rank percentile of a sample that still has at
 * least kTailBeyond samples above it. When that percentile would lie
 * below the median (2 * kTailBeyond samples or fewer), the sample is
 * too small for the rule; it then falls back to the maximum and
 * reports percentile 100 with fewer samples beyond.
 */
struct TailStat
{
    static constexpr std::size_t kTailBeyond = 10;

    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
    /** Samples ranked above the reported one. */
    std::size_t beyond = 0;
};

TailStat tailPercentile(std::vector<double> values);

/**
 * Copy @p in minus its host-time gauges: the suffixes
 * tests/test_golden_metrics.cc strips (".wall_ms", "wall_seconds",
 * ".throughput_mips") and the "sweep.cell_wall_ms" histogram. What is
 * left is simulated state and repeats exactly for a given input.
 */
cachescope::MetricsRegistry stripHostTime(
    const cachescope::MetricsRegistry &in);

/**
 * Checksum64 digest of the canonical cachescope-metrics-v1 JSON of
 * @p tree after stripHostTime().
 */
std::uint64_t treeDigest(const cachescope::MetricsRegistry &tree);

/** One finished span; times are seconds since the recorder started. */
struct SpanRecord
{
    std::uint64_t id = 0;
    /** 0 = a root span. */
    std::uint64_t parent = 0;
    std::string name;
    double start = 0.0;
    double end = 0.0;
};

/**
 * @return the part of [start, end] that none of @p children covers.
 * Children may nest, overlap each other (parallel workers) or stick
 * out of the parent; only their union inside the parent counts.
 */
double uncoveredTime(double start, double end,
                     std::vector<std::pair<double, double>> children);

/** @return span @p id's duration minus the time its children cover. */
double selfTime(const std::vector<SpanRecord> &spans, std::uint64_t id);

/**
 * Thread-safe in-memory span log. Disabled recorders hand out id 0 and
 * record nothing, so the untraced run pays one branch per call site.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_.load(); }

    /** Start or stop recording; spans already open still close. */
    void setEnabled(bool on) { enabled_.store(on); }

    /** Open a span under @p parent (0 = root). @return its id, or 0. */
    std::uint64_t begin(const std::string &name, std::uint64_t parent);

    /** Close span @p id (no-op for 0). */
    void end(std::uint64_t id);

    /** Closed spans, in closing order. */
    std::vector<SpanRecord> spans() const;

  private:
    double now() const;

    std::atomic<bool> enabled_;
    const std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mu_;
    std::uint64_t nextId_ = 1;
    std::vector<SpanRecord> open_;
    std::vector<SpanRecord> closed_;
};

/** Closes its span when it goes out of scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const std::string &name,
               std::uint64_t parent = 0)
        : recorder_(recorder), id_(recorder.begin(name, parent))
    {}
    ~ScopedSpan() { recorder_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanRecorder &recorder_;
    const std::uint64_t id_;
};

/**
 * Workload decorator that counts run() calls — one per generator pass,
 * so a Belady cell counts two — and, when the recorder is enabled,
 * puts a "workload.run" span around each under the current parent.
 * The name and warmup hint are forwarded unchanged, so a sweep over
 * decorated workloads exports the same metric tree as one over the
 * originals.
 */
class CountingWorkload final : public cachescope::Workload
{
  public:
    CountingWorkload(std::shared_ptr<cachescope::Workload> inner,
                     SpanRecorder &spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    const std::string &name() const override { return inner_->name(); }
    void run(cachescope::InstructionSink &sink) override;
    cachescope::InstCount
    warmupHint() const override
    {
        return inner_->warmupHint();
    }

    std::uint64_t runs() const { return runs_.load(); }

    /** Parent of the spans opened from now on; set between passes. */
    void setParentSpan(std::uint64_t id) { parent_.store(id); }

  private:
    std::shared_ptr<cachescope::Workload> inner_;
    SpanRecorder &spans_;
    std::atomic<std::uint64_t> runs_{0};
    std::atomic<std::uint64_t> parent_{0};
};

/** Which code and settings produced a run's numbers. */
struct Provenance
{
    std::string gitDescribe;
    std::string buildType;
    /** False for a build without optimisation: its times are not data. */
    bool optimized = false;
    bool native = false;
    bool lto = false;
    unsigned nproc = 0;
    unsigned jobs = 0;
    std::uint64_t seed = 0;

    /** Fill in the compile-time fields and the host's core count. */
    static Provenance ofThisBuild(unsigned jobs, std::uint64_t seed);

    std::string toJson() const;
};

/** @return @p s quoted and escaped as a JSON string. */
std::string jsonString(const std::string &s);

/** @return @p v printed with round-trip precision. */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // CACHESCOPE_PERFBENCH_BENCH_LIB_HH
