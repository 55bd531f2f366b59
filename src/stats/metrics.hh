/**
 * @file
 * The metrics subsystem: a hierarchical counter/gauge/histogram
 * registry with a machine-readable JSON export.
 *
 * Every component that owns statistics (cache levels, the core, DRAM,
 * replacement policies, prefetchers, the sweep harness) exports into a
 * MetricsRegistry at *report* time — the hot path keeps its plain
 * `uint64_t` struct counters and pays nothing for this layer. Metrics
 * are keyed by dotted paths ("llc.hits.load"), which the JSON
 * serializer renders as nested objects, so downstream tooling (the
 * BENCH_*.json perf trajectory, the --metrics-json CLI flag) gets one
 * stable, greppable schema instead of hand-formatted tables.
 *
 * Three metric kinds:
 *  - counters: monotonically accumulated uint64 event counts. Merging
 *    two registries sums counters, so per-worker registries from a
 *    parallel sweep aggregate to exactly the serial totals
 *    (integer addition is order-independent).
 *  - gauges: point-in-time doubles (IPC, MPKI, wall time). Merging
 *    overwrites, so gauges are only meaningful under unique paths.
 *  - histograms: fixed-bucket distributions snapshotted from
 *    stats::Histogram. Merging sums counts bucket-wise.
 *
 * A path must name either a leaf or an interior node, never both
 * ("llc" and "llc.hits" cannot both be counters); violations are
 * internal errors caught at registration time.
 */

#ifndef CACHESCOPE_STATS_METRICS_HH
#define CACHESCOPE_STATS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/summary.hh"
#include "util/status.hh"

namespace cachescope {

/** JSON schema identifier emitted/required by the serializer. */
inline constexpr const char *kMetricsSchema = "cachescope-metrics-v1";

class MetricsRegistry
{
  public:
    /** Snapshot of a Histogram's buckets (width + counts + samples). */
    struct HistogramSnapshot
    {
        std::uint64_t width = 0;
        std::uint64_t samples = 0;
        std::vector<std::uint64_t> counts;

        bool
        operator==(const HistogramSnapshot &o) const
        {
            return width == o.width && samples == o.samples &&
                   counts == o.counts;
        }
    };

    /** Add @p delta to the counter at @p path (created at 0). */
    void addCounter(const std::string &path, std::uint64_t delta = 1);

    /** Overwrite the counter at @p path. */
    void setCounter(const std::string &path, std::uint64_t value);

    /** Overwrite the gauge at @p path. */
    void setGauge(const std::string &path, double value);

    /** Snapshot @p histogram under @p path (overwrites). */
    void setHistogram(const std::string &path, const Histogram &histogram);

    /** Install an already-built snapshot under @p path (overwrites). */
    void setHistogram(const std::string &path, HistogramSnapshot snapshot);

    /** @return the counter at @p path, or 0 if absent. */
    std::uint64_t counter(const std::string &path) const;

    /** @return the gauge at @p path, or 0.0 if absent. */
    double gauge(const std::string &path) const;

    bool hasCounter(const std::string &path) const;
    bool hasGauge(const std::string &path) const;
    bool hasHistogram(const std::string &path) const;

    /**
     * Fold @p other into this registry, optionally re-rooting its
     * paths under @p prefix. Counters sum, histograms sum bucket-wise
     * (widths must match), gauges overwrite.
     */
    void merge(const MetricsRegistry &other,
               const std::string &prefix = "");

    bool
    empty() const
    {
        return counters_.empty() && gauges_.empty() &&
               histograms_.empty();
    }

    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }

    const std::map<std::string, double> &gauges() const { return gauges_; }

    const std::map<std::string, HistogramSnapshot> &
    histograms() const
    {
        return histograms_;
    }

    bool
    operator==(const MetricsRegistry &o) const
    {
        return counters_ == o.counters_ && gauges_ == o.gauges_ &&
               histograms_ == o.histograms_;
    }

  private:
    /** fatal() if @p path would be both a leaf and an interior node. */
    void checkPath(const std::string &path) const;

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, HistogramSnapshot> histograms_;
};

/**
 * @return true iff @p path holds host time rather than simulated
 * state: a gauge ending in ".wall_ms", "wall_seconds" or
 * ".throughput_mips", or the "sweep.cell_wall_ms" histogram. These
 * move with host load, so every determinism check (golden digests,
 * difftest, soak, serial-vs-parallel sweeps) compares trees without
 * them.
 */
bool isHostTimePath(const std::string &path);

/**
 * @return a copy of @p in without its host-time gauges and histograms
 * (isHostTimePath). Counters are simulated events and always kept.
 */
MetricsRegistry withoutHostTime(const MetricsRegistry &in);

/**
 * One exportable metrics report: a registry plus the identification
 * and timing fields the BENCH_*.json perf-trajectory schema requires.
 */
struct MetricsDocument
{
    /** Experiment/run identifier ("fig2", "sweep:gap", ...). */
    std::string name;
    /** Wall-clock time of the run in milliseconds. */
    double wallMs = 0.0;
    MetricsRegistry metrics;
};

/**
 * @return @p doc rendered as pretty-printed JSON:
 * `{"schema": ..., "name": ..., "wall_ms": ..., "counters": {nested},
 *   "gauges": {nested}, "histograms": {flat path -> snapshot}}`.
 * Gauges are printed with round-trip precision.
 */
std::string metricsToJson(const MetricsDocument &doc);

/**
 * Parse a document produced by metricsToJson().
 * @return the document, or Corruption/InvalidArgument for malformed
 * input or an unknown schema identifier.
 */
Expected<MetricsDocument> metricsFromJson(const std::string &text);

/** Serialize @p doc to @p path (overwrites). */
Status writeMetricsJsonFile(const MetricsDocument &doc,
                            const std::string &path);

/** Read and parse the document at @p path. */
Expected<MetricsDocument> readMetricsJsonFile(const std::string &path);

} // namespace cachescope

#endif // CACHESCOPE_STATS_METRICS_HH
