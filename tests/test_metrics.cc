/**
 * @file
 * Tests for the metrics subsystem: registry semantics, merge algebra,
 * the JSON round trip, SimResult export, and the parallel-sweep
 * determinism guarantee (merged worker counters == serial sweep sums).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/cascade_lake.hh"
#include "harness/experiment.hh"
#include "stats/metrics.hh"
#include "trace/pc_site.hh"
#include "trace/traced_memory.hh"
#include "util/rng.hh"

namespace cachescope {
namespace {

TEST(MetricsRegistry, CountersAccumulateAndDefaultToZero)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.counter("llc.hits.load"), 0u);
    EXPECT_FALSE(reg.hasCounter("llc.hits.load"));

    reg.addCounter("llc.hits.load");
    reg.addCounter("llc.hits.load", 4);
    EXPECT_EQ(reg.counter("llc.hits.load"), 5u);
    EXPECT_TRUE(reg.hasCounter("llc.hits.load"));

    reg.setCounter("llc.hits.load", 9);
    EXPECT_EQ(reg.counter("llc.hits.load"), 9u);
    EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistry, GaugesOverwrite)
{
    MetricsRegistry reg;
    EXPECT_DOUBLE_EQ(reg.gauge("derived.ipc"), 0.0);
    reg.setGauge("derived.ipc", 1.25);
    reg.setGauge("derived.ipc", 0.75);
    EXPECT_DOUBLE_EQ(reg.gauge("derived.ipc"), 0.75);
    EXPECT_TRUE(reg.hasGauge("derived.ipc"));
}

TEST(MetricsRegistry, HistogramSnapshotsCapture)
{
    Histogram h(10, 4);
    h.add(5);
    h.add(15);
    h.add(1000); // overflow bucket

    MetricsRegistry reg;
    reg.setHistogram("latency", h);
    ASSERT_TRUE(reg.hasHistogram("latency"));
    const auto &snap = reg.histograms().at("latency");
    EXPECT_EQ(snap.width, 10u);
    EXPECT_EQ(snap.samples, 3u);
    // numBuckets regular buckets plus the trailing overflow bucket.
    ASSERT_EQ(snap.counts.size(), 5u);
    EXPECT_EQ(snap.counts[0], 1u);
    EXPECT_EQ(snap.counts[1], 1u);
    EXPECT_EQ(snap.counts[4], 1u);
}

TEST(MetricsRegistry, MergeSumsCountersAndReRoots)
{
    MetricsRegistry a;
    a.addCounter("hits", 10);
    a.setGauge("rate", 0.5);

    MetricsRegistry b;
    b.addCounter("hits", 32);
    b.setGauge("rate", 0.9);

    MetricsRegistry out;
    out.merge(a, "cell.w1");
    out.merge(b, "cell.w1");
    EXPECT_EQ(out.counter("cell.w1.hits"), 42u);
    EXPECT_DOUBLE_EQ(out.gauge("cell.w1.rate"), 0.9); // last write wins

    out.merge(a, "cell.w2");
    EXPECT_EQ(out.counter("cell.w2.hits"), 10u);
}

TEST(MetricsRegistry, MergeSumsHistogramsBucketWise)
{
    Histogram h1(10, 3), h2(10, 3);
    h1.add(5);
    h2.add(5);
    h2.add(25);

    MetricsRegistry a, b, out;
    a.setHistogram("wall", h1);
    b.setHistogram("wall", h2);
    out.merge(a);
    out.merge(b);
    const auto &snap = out.histograms().at("wall");
    EXPECT_EQ(snap.samples, 3u);
    EXPECT_EQ(snap.counts[0], 2u);
    EXPECT_EQ(snap.counts[2], 1u);
}

TEST(MetricsRegistry, MergeOrderDoesNotChangeCounters)
{
    MetricsRegistry a, b, c;
    a.addCounter("x", 1);
    b.addCounter("x", 100);
    c.addCounter("x", 10'000);
    c.addCounter("only_c", 7);

    MetricsRegistry fwd, rev;
    fwd.merge(a);
    fwd.merge(b);
    fwd.merge(c);
    rev.merge(c);
    rev.merge(b);
    rev.merge(a);
    EXPECT_EQ(fwd.counters(), rev.counters());
}

TEST(MetricsJson, RoundTripsEveryValueExactly)
{
    MetricsDocument doc;
    doc.name = "unit-test";
    doc.wallMs = 123.456789;
    doc.metrics.addCounter("llc.hits.load", 18'446'744'073'709'551'004ull);
    doc.metrics.addCounter("llc.misses.load", 0);
    doc.metrics.setCounter("sweep.cells_total", 12);
    doc.metrics.setGauge("derived.ipc", 0.1 + 0.2); // non-representable
    doc.metrics.setGauge("policy.psel", -512.0);
    Histogram h(100, 8);
    h.add(50);
    h.add(250);
    h.add(100'000);
    doc.metrics.setHistogram("sweep.cell_wall_ms", h);

    const std::string json = metricsToJson(doc);
    auto parsed_or = metricsFromJson(json);
    ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().toString();
    const MetricsDocument parsed = parsed_or.take();
    EXPECT_EQ(parsed.name, doc.name);
    EXPECT_DOUBLE_EQ(parsed.wallMs, doc.wallMs);
    EXPECT_TRUE(parsed.metrics == doc.metrics);
}

TEST(MetricsJson, RoundTripsNonFiniteGauges)
{
    MetricsDocument doc;
    doc.name = "nonfinite";
    doc.metrics.addCounter("n", 1);
    doc.metrics.setGauge("g.nan",
                         std::numeric_limits<double>::quiet_NaN());
    doc.metrics.setGauge("g.inf", std::numeric_limits<double>::infinity());
    doc.metrics.setGauge("g.ninf",
                         -std::numeric_limits<double>::infinity());

    auto parsed_or = metricsFromJson(metricsToJson(doc));
    ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().toString();
    const MetricsDocument parsed = parsed_or.take();
    EXPECT_TRUE(std::isnan(parsed.metrics.gauge("g.nan")));
    EXPECT_DOUBLE_EQ(parsed.metrics.gauge("g.inf"),
                     std::numeric_limits<double>::infinity());
    EXPECT_DOUBLE_EQ(parsed.metrics.gauge("g.ninf"),
                     -std::numeric_limits<double>::infinity());
}

TEST(MetricsJson, FileRoundTrip)
{
    MetricsDocument doc;
    doc.name = "file-round-trip";
    doc.wallMs = 1.0;
    doc.metrics.addCounter("a.b.c", 3);
    const std::string path =
        std::string(::testing::TempDir()) + "/cachescope_metrics.json";
    ASSERT_TRUE(writeMetricsJsonFile(doc, path).ok());
    auto read_or = readMetricsJsonFile(path);
    ASSERT_TRUE(read_or.ok()) << read_or.status().toString();
    EXPECT_TRUE(read_or.value().metrics == doc.metrics);
    std::remove(path.c_str());
}

TEST(MetricsJson, RejectsMalformedInput)
{
    EXPECT_FALSE(metricsFromJson("").ok());
    EXPECT_FALSE(metricsFromJson("{").ok());
    EXPECT_FALSE(metricsFromJson("[1,2,3]").ok());
    EXPECT_FALSE(metricsFromJson("{\"schema\": \"bogus-v9\"}").ok());
    // Trailing garbage after a valid document.
    MetricsDocument doc;
    doc.name = "x";
    doc.metrics.addCounter("n", 1);
    EXPECT_FALSE(metricsFromJson(metricsToJson(doc) + "garbage").ok());
}

/** Deterministic cache-stressing workload (cyclic scan + hot set). */
class MiniWorkload : public Workload
{
  public:
    explicit MiniWorkload(std::string tag = "mini")
        : displayName(std::move(tag))
    {}

    const std::string &name() const override { return displayName; }

    void
    run(InstructionSink &sink) override
    {
        AddressSpace space;
        TracedArray<std::uint64_t> scan(16 * 1024, space, sink, 1);
        TracedArray<std::uint64_t> hot(1024, space, sink, 2);
        PcRegion region(91);
        const Pc pc_scan = region.allocate();
        const Pc pc_hot = region.allocate();
        const Pc pc_alu = region.allocate();
        InstructionMix mix(sink);
        Rng rng(7);

        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; sink.wantsMore(); ++i) {
            acc += scan.load((i * 8) % scan.size(), pc_scan);
            acc += hot.load(rng.nextBounded(hot.size()), pc_hot);
            mix.alu(pc_alu, 4);
        }
        (void)acc;
        sink.onEnd();
    }

  private:
    std::string displayName;
};

SimConfig
metricsTestConfig(const std::string &policy = "lru")
{
    SimConfig cfg = cascadeLakeConfig(policy, /*warmup=*/5'000,
                                      /*measure=*/50'000);
    cfg.hierarchy.l1d.sizeBytes = 4 * 1024;
    cfg.hierarchy.l1d.numWays = 4;
    cfg.hierarchy.l2.sizeBytes = 16 * 1024;
    cfg.hierarchy.l2.numWays = 4;
    cfg.hierarchy.llc.sizeBytes = 64 * 1024;
    cfg.hierarchy.llc.numWays = 8;
    cfg.core.simulateFetch = false;
    return cfg;
}

TEST(MetricsJson, ZeroSampleHistogramRoundTrips)
{
    MetricsDocument doc;
    doc.name = "empty-hist";
    Histogram h(50, 6);
    doc.metrics.setHistogram("latency", h); // never add()ed

    auto parsed_or = metricsFromJson(metricsToJson(doc));
    ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().toString();
    const auto &snap =
        parsed_or.value().metrics.histograms().at("latency");
    EXPECT_EQ(snap.width, 50u);
    EXPECT_EQ(snap.samples, 0u);
    // 6 requested buckets plus the overflow bucket.
    ASSERT_EQ(snap.counts.size(), 7u);
    for (std::uint64_t c : snap.counts)
        EXPECT_EQ(c, 0u);
}

TEST(MetricsJson, CounterAtUint64MaxRoundTripsExactly)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max(); // 2^64 - 1
    MetricsDocument doc;
    doc.name = "u64max";
    doc.metrics.setCounter("edge.max", kMax);
    doc.metrics.setCounter("edge.max_minus_one", kMax - 1);
    doc.metrics.setCounter("edge.zero", 0);

    auto parsed_or = metricsFromJson(metricsToJson(doc));
    ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().toString();
    // A parser that detours through double would land on 2^64 exactly
    // and lose the low bits of both values.
    EXPECT_EQ(parsed_or.value().metrics.counter("edge.max"), kMax);
    EXPECT_EQ(parsed_or.value().metrics.counter("edge.max_minus_one"),
              kMax - 1);
    EXPECT_EQ(parsed_or.value().metrics.counter("edge.zero"), 0u);
}

TEST(MetricsRegistry, MergeWithDisjointKeysKeepsBothSides)
{
    MetricsRegistry a, b;
    a.setCounter("only.in.a", 1);
    a.setGauge("gauge.a", 1.5);
    b.setCounter("only.in.b", 2);
    b.setGauge("gauge.b", -2.5);

    a.merge(b);
    EXPECT_EQ(a.counter("only.in.a"), 1u);
    EXPECT_EQ(a.counter("only.in.b"), 2u);
    EXPECT_DOUBLE_EQ(a.gauge("gauge.a"), 1.5);
    EXPECT_DOUBLE_EQ(a.gauge("gauge.b"), -2.5);
    EXPECT_EQ(a.counters().size(), 2u);
    EXPECT_EQ(a.gauges().size(), 2u);
}

TEST(MetricsRegistry, MergeWithOverlappingKeysSumsAndOverwrites)
{
    MetricsRegistry a, b;
    a.setCounter("shared.counter", 10);
    a.setGauge("shared.gauge", 1.0);
    b.setCounter("shared.counter", 32);
    b.setGauge("shared.gauge", 9.0);

    a.merge(b);
    // Counters sum; gauges take the incoming value.
    EXPECT_EQ(a.counter("shared.counter"), 42u);
    EXPECT_DOUBLE_EQ(a.gauge("shared.gauge"), 9.0);
}

TEST(SimResultMetrics, ExportMatchesStatsStructs)
{
    MiniWorkload w;
    const SimResult r = runOne(w, metricsTestConfig());

    MetricsRegistry reg;
    r.exportMetrics(reg);
    EXPECT_EQ(reg.counter("core.instructions"), r.core.instructions);
    EXPECT_EQ(reg.counter("core.cycles"), r.core.cycles);
    EXPECT_EQ(reg.counter("l1d.hits.load"),
              r.l1d.hitsOf(AccessType::Load));
    EXPECT_EQ(reg.counter("l1d.misses.load"),
              r.l1d.missesOf(AccessType::Load));
    EXPECT_EQ(reg.counter("llc.evictions"), r.llc.evictions);
    EXPECT_EQ(reg.counter("dram.reads"), r.dram.reads);
    EXPECT_DOUBLE_EQ(reg.gauge("core.ipc"), r.ipc());
    EXPECT_DOUBLE_EQ(reg.gauge("derived.mpki_llc"), r.mpkiLlc());

    // Prefixed export re-roots every path.
    MetricsRegistry nested;
    r.exportMetrics(nested, "cell.mini.lru");
    EXPECT_EQ(nested.counter("cell.mini.lru.core.instructions"),
              r.core.instructions);
}

TEST(SimResultMetrics, EvictionsByFillSumToTotalEvictions)
{
    MiniWorkload w;
    const SimResult r = runOne(w, metricsTestConfig());
    std::uint64_t by_fill = 0;
    for (std::size_t t = 0; t < CacheStats::kNumTypes; ++t)
        by_fill += r.llc.evictionsByFill[t];
    EXPECT_EQ(by_fill, r.llc.evictions);
    EXPECT_GT(r.llc.evictions, 0u);
}

TEST(SimResultMetrics, DipPolicyStateIsExported)
{
    MiniWorkload w;
    const SimResult r = runOne(w, metricsTestConfig("dip"));
    EXPECT_TRUE(r.extraMetrics.hasGauge("llc.policy.psel"));

    MetricsRegistry reg;
    r.exportMetrics(reg);
    EXPECT_TRUE(reg.hasGauge("llc.policy.psel"));
}

TEST(SweepMetrics, ParallelCountersMatchSerialExactly)
{
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini_a"),
        std::make_shared<MiniWorkload>("mini_b"),
        std::make_shared<MiniWorkload>("mini_c"),
    };
    const std::vector<std::string> policies = {"lru", "srrip"};

    SuiteRunner serial(metricsTestConfig(), /*jobs=*/1);
    serial.setVerbose(false);
    const SweepReport serial_report = serial.runChecked(suite, policies);

    SuiteRunner parallel(metricsTestConfig(), /*jobs=*/4);
    parallel.setVerbose(false);
    const SweepReport parallel_report =
        parallel.runChecked(suite, policies);

    // The whole point of per-worker counters merged under the report
    // mutex: a parallel sweep reports the exact same counter map as a
    // serial one, not merely similar numbers.
    EXPECT_EQ(serial_report.metrics.counters(),
              parallel_report.metrics.counters());
    EXPECT_EQ(serial_report.metrics.counter("sweep.cells_ok"), 6u);
    EXPECT_EQ(serial_report.metrics.counter("sweep.cells_total"), 6u);
    EXPECT_TRUE(
        serial_report.metrics.hasHistogram("sweep.cell_wall_ms"));

    // Aggregate totals are the sums of the per-cell trees.
    std::uint64_t cell_instr = 0;
    const std::string suffix = ".core.instructions";
    for (const auto &[path, value] :
         serial_report.metrics.counters()) {
        if (path.rfind("cell.", 0) == 0 && path.size() > suffix.size() &&
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            cell_instr += value;
        }
    }
    EXPECT_EQ(serial_report.metrics.counter("total.core.instructions"),
              cell_instr);
}

TEST(SweepMetrics, FailedCellsAreCounted)
{
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini"),
    };
    SuiteRunner runner(metricsTestConfig(), 1);
    runner.setVerbose(false);
    const SweepReport report =
        runner.runChecked(suite, {"lru", "no_such_policy"});
    EXPECT_EQ(report.metrics.counter("sweep.cells_ok"), 1u);
    EXPECT_EQ(report.metrics.counter("sweep.cells_failed"), 1u);
}

/**
 * The host-time rule strips exactly what the one writer of the sim.*
 * gauges emits, at any prefix, plus a sweep's per-cell wall_ms gauges
 * and its cell wall-time histogram; it keeps every counter, whatever
 * its name, and every simulated gauge and histogram.
 */
TEST(HostTime, StrippingRemovesExactlyTheHostTimeMetrics)
{
    using namespace std::chrono_literals;
    const auto t0 = HostTimes::Clock::now();
    const HostTimes times{.start = t0,
                          .end = t0 + 2s,
                          .firstInstruction = t0 + 250ms,
                          .measureStart = t0 + 1500ms,
                          .instructions = 4'000'000};
    MetricsRegistry host;
    setThroughputGauges(host, "", times);
    setThroughputGauges(host, "core1", times);
    host.setGauge("cell.bfs.lru.wall_ms", 12.5);
    host.setHistogram("sweep.cell_wall_ms",
                      MetricsRegistry::HistogramSnapshot{10, 1, {1, 0}});

    std::vector<std::string> written;
    for (const auto &[path, value] : host.gauges())
        written.push_back(path);
    const std::vector<std::string> expected = {
        "cell.bfs.lru.wall_ms",
        "core1.sim.measure_wall_seconds",
        "core1.sim.setup_wall_seconds",
        "core1.sim.throughput_mips",
        "core1.sim.wall_seconds",
        "core1.sim.warmup_wall_seconds",
        "sim.measure_wall_seconds",
        "sim.setup_wall_seconds",
        "sim.throughput_mips",
        "sim.wall_seconds",
        "sim.warmup_wall_seconds",
    };
    EXPECT_EQ(written, expected);
    EXPECT_DOUBLE_EQ(host.gauge("sim.wall_seconds"), 2.0);
    EXPECT_DOUBLE_EQ(host.gauge("sim.measure_wall_seconds"), 0.5);
    EXPECT_DOUBLE_EQ(host.gauge("sim.warmup_wall_seconds"), 1.5);
    EXPECT_DOUBLE_EQ(host.gauge("sim.setup_wall_seconds"), 0.25);
    EXPECT_DOUBLE_EQ(host.gauge("sim.throughput_mips"), 2.0);

    MetricsRegistry simulated;
    simulated.setCounter("core.instructions", 4'000'000);
    simulated.setCounter("odd.wall_seconds", 3);
    simulated.setCounter("odd.throughput_mips", 4);
    simulated.setCounter("sweep.cell_wall_ms", 5);
    simulated.setGauge("derived.mpki_llc", 1.5);
    simulated.setGauge("cell.bfs.lru.derived.ipc", 0.7);
    simulated.setHistogram("llc.reuse",
                           MetricsRegistry::HistogramSnapshot{4, 2, {1, 1}});

    MetricsRegistry all = simulated;
    all.merge(host);
    for (const auto &[path, value] : host.gauges())
        EXPECT_TRUE(isHostTimePath(path)) << path;
    EXPECT_EQ(withoutHostTime(all), simulated);
}

} // anonymous namespace
} // namespace cachescope
