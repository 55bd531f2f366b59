/**
 * @file
 * Co-run invariants: the 1-core byte-identity contract, two-core
 * symmetry under way partitioning, per-core LLC attribution
 * conservation, bit-reproducibility across repeat runs (with a pinned
 * golden digest), and configuration validation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cascade_lake.hh"
#include "harness/corun.hh"
#include "harness/experiment.hh"
#include "stats/metrics.hh"
#include "trace/trace_io.hh"
#include "util/checksum.hh"
#include "workloads/synthetic.hh"

namespace cachescope {
namespace {

/**
 * Pinned digest of the stripped two-core co-run metric tree produced
 * by goldenCorunReport(). Computed when the co-run subsystem landed;
 * any change to arbitration order, stream tagging, attribution, or
 * metric export shifts it and fails here. Re-pin only for intentional
 * simulated-behavior changes, and say so in the commit message.
 */
constexpr std::uint64_t kCorunGoldenDigest = 0x7cceb5c5d08eb1c0ull;

/** Shrunken hierarchy so tiny windows produce real LLC traffic. */
SimConfig
corunConfig(InstCount warmup = 5'000, InstCount measure = 60'000)
{
    SimConfig cfg = cascadeLakeConfig("lru", warmup, measure);
    cfg.hierarchy.l1d.sizeBytes = 4 * 1024;
    cfg.hierarchy.l1d.numWays = 4;
    cfg.hierarchy.l1i.sizeBytes = 4 * 1024;
    cfg.hierarchy.l1i.numWays = 4;
    cfg.hierarchy.l2.sizeBytes = 16 * 1024;
    cfg.hierarchy.l2.numWays = 4;
    cfg.hierarchy.llc.sizeBytes = 64 * 1024;
    cfg.hierarchy.llc.numWays = 8;
    return cfg;
}

std::shared_ptr<Workload>
makeThrash()
{
    SynthParams p;
    p.pcWorkloadId = 71;
    p.seed = 21;
    p.mainBytes = 96ull << 10;
    p.aluPerOp = 2;
    return std::make_shared<SyntheticWorkload>(
        "corun", SynthPattern::ScanThrash, p);
}

std::shared_ptr<Workload>
makeHotCold()
{
    SynthParams p;
    p.pcWorkloadId = 72;
    p.seed = 22;
    p.mainBytes = 256ull << 10;
    p.hotBytes = 24ull << 10;
    p.hotFraction = 0.9;
    p.aluPerOp = 2;
    return std::make_shared<SyntheticWorkload>(
        "corun", SynthPattern::HotCold, p);
}

std::string
strippedJson(const MetricsRegistry &metrics, const std::string &name)
{
    MetricsDocument doc;
    doc.name = name;
    doc.wallMs = 0.0;
    doc.metrics = withoutHostTime(metrics);
    return metricsToJson(doc);
}

TEST(CorunConfigTest, ValidateRejectsBadShapes)
{
    CorunConfig cfg;
    cfg.base = corunConfig();
    EXPECT_FALSE(cfg.validate(0).ok());
    EXPECT_TRUE(cfg.validate(2).ok());

    // 8-way LLC cannot give 5 ways each to 2 cores.
    cfg.llcWaysPerCore = 5;
    EXPECT_FALSE(cfg.validate(2).ok());
    cfg.llcWaysPerCore = 4;
    EXPECT_TRUE(cfg.validate(2).ok());

    // Warmup overrides must be one per core.
    cfg.coreWarmups = {1'000};
    EXPECT_FALSE(cfg.validate(2).ok());
    cfg.coreWarmups = {1'000, 2'000};
    EXPECT_TRUE(cfg.validate(2).ok());
}

TEST(CorunHarnessTest, TenantWithoutSourceIsRejected)
{
    CorunRunOptions options;
    options.config.base = corunConfig();
    const std::vector<CorunTenant> tenants = {CorunTenant{}};
    EXPECT_FALSE(runCorun(tenants, options).ok());
}

/**
 * Acceptance contract: a 1-core co-run exports byte-for-byte the
 * single-core metric tree — same paths, same values, no corun.*
 * summary, no core0 prefix. Only wall-clock gauges may differ. Holds
 * under both warmup modes: the functional-mode flag on the shared LLC
 * must clear at the same instruction either way.
 */
TEST(CorunIdentity, OneCoreCorunMatchesSingleCoreRun)
{
    for (const WarmupMode mode :
         {WarmupMode::Timed, WarmupMode::Functional}) {
        SCOPED_TRACE(mode == WarmupMode::Timed ? "timed" : "functional");
        SimConfig cfg = corunConfig();
        cfg.warmupMode = mode;
        auto workload = makeHotCold();
        const SimResult solo = runOne(*workload, cfg);
        MetricsRegistry solo_metrics;
        solo.exportMetrics(solo_metrics);

        CorunRunOptions options;
        options.config.base = cfg;
        auto report_or =
            runCorun({CorunTenant::fromWorkload(makeHotCold())}, options);
        ASSERT_TRUE(report_or.ok()) << report_or.status().message();
        MetricsRegistry corun_metrics;
        report_or.value().exportMetrics(corun_metrics);

        EXPECT_EQ(strippedJson(solo_metrics, "identity"),
                  strippedJson(corun_metrics, "identity"));
    }
}

/** Every path of @p metrics, tagged with its kind. */
std::vector<std::string>
pathsOf(const MetricsRegistry &metrics)
{
    std::vector<std::string> paths;
    for (const auto &[path, value] : metrics.counters())
        paths.push_back("counter " + path);
    for (const auto &[path, value] : metrics.gauges())
        paths.push_back("gauge " + path);
    for (const auto &[path, snapshot] : metrics.histograms())
        paths.push_back("histogram " + path);
    return paths;
}

/**
 * The shape half of the identity above, before any stripping: a
 * 1-core co-run carries every path a single-core run does, host-time
 * gauges included, because both take them from one writer.
 */
TEST(CorunIdentity, OneCoreCorunHasTheRunTreesPathsUnstripped)
{
    for (const WarmupMode mode :
         {WarmupMode::Timed, WarmupMode::Functional}) {
        SCOPED_TRACE(mode == WarmupMode::Timed ? "timed" : "functional");
        SimConfig cfg = corunConfig();
        cfg.warmupMode = mode;
        MetricsRegistry solo_metrics;
        runOne(*makeHotCold(), cfg).exportMetrics(solo_metrics);

        CorunRunOptions options;
        options.config.base = cfg;
        auto report_or =
            runCorun({CorunTenant::fromWorkload(makeHotCold())}, options);
        ASSERT_TRUE(report_or.ok()) << report_or.status().message();
        MetricsRegistry corun_metrics;
        report_or.value().exportMetrics(corun_metrics);

        EXPECT_EQ(pathsOf(solo_metrics), pathsOf(corun_metrics));
        EXPECT_TRUE(corun_metrics.hasGauge("sim.setup_wall_seconds"));
    }
}

/** True for metric paths whose value depends on retire-clock timing
 *  (cycle counts and the rates derived from them). */
bool
isTimingPath(const std::string &path)
{
    const auto ends_with = [&path](const char *suffix) {
        const std::size_t n = std::char_traits<char>::length(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    return ends_with(".cycles") || ends_with(".ipc");
}

/**
 * Two cores fed identical streams over a way-partitioned LLC must
 * produce identical per-core *functional* metric subtrees: the
 * arbiter's warmup barrier, stream tagging, attribution, and the
 * partitioned fill path treat cores symmetrically, so hit/miss/
 * eviction counts match exactly. Cycle counts (and IPC) are compared
 * with a small tolerance instead: even with flat DRAM timing the
 * cores genuinely share the bank/bus queues, so each tenant's
 * latency depends slightly on the interleaving — that bandwidth
 * coupling is the point of a co-run, not an asymmetry bug.
 */
TEST(CorunDifftest, IdenticalTenantsProduceIdenticalSubtrees)
{
    CorunRunOptions options;
    options.config.base = corunConfig();
    // Flat DRAM: every read costs tController + tCas plus queueing,
    // no row-state history, so timing skew stays small.
    options.config.base.hierarchy.dram.tRcd = 0;
    options.config.base.hierarchy.dram.tRp = 0;
    options.config.base.hierarchy.dram.tBurst = 0;
    options.config.llcWaysPerCore = 4; // 8-way LLC, half each

    auto report_or = runCorun({CorunTenant::fromWorkload(makeHotCold()),
                               CorunTenant::fromWorkload(makeHotCold())},
                              options);
    ASSERT_TRUE(report_or.ok()) << report_or.status().message();
    MetricsRegistry metrics;
    report_or.value().exportMetrics(metrics);

    // Every core0.* path must exist under core1.* with the same value,
    // and vice versa (checked by comparing subtree sizes).
    std::size_t core0_counters = 0, core1_counters = 0;
    for (const auto &[path, value] : metrics.counters()) {
        if (path.rfind("core0.", 0) == 0) {
            ++core0_counters;
            const std::string twin = "core1." + path.substr(6);
            ASSERT_TRUE(metrics.hasCounter(twin)) << twin;
            if (isTimingPath(path)) {
                EXPECT_NEAR(static_cast<double>(metrics.counter(twin)),
                            static_cast<double>(value), 0.02 * value)
                    << twin;
            } else {
                EXPECT_EQ(metrics.counter(twin), value) << twin;
            }
        } else if (path.rfind("core1.", 0) == 0) {
            ++core1_counters;
        }
    }
    EXPECT_GT(core0_counters, 0u);
    EXPECT_EQ(core0_counters, core1_counters);

    std::size_t core0_gauges = 0, core1_gauges = 0;
    const auto &gauges = metrics.gauges();
    for (const auto &[path, value] : gauges) {
        if (path.rfind("core0.", 0) == 0) {
            ++core0_gauges;
            const auto twin = gauges.find("core1." + path.substr(6));
            ASSERT_NE(twin, gauges.end()) << path;
            if (isHostTimePath(path)) {
                // Existence-only: host time, not simulated behavior.
            } else if (isTimingPath(path)) {
                EXPECT_NEAR(twin->second, value, 0.02 * value) << path;
            } else {
                EXPECT_DOUBLE_EQ(twin->second, value) << path;
            }
        } else if (path.rfind("core1.", 0) == 0) {
            ++core1_gauges;
        }
    }
    EXPECT_GT(core0_gauges, 0u);
    EXPECT_EQ(core0_gauges, core1_gauges);
}

/**
 * The per-core LLC attribution slices must sum *exactly* to the shared
 * totals — on a contended configuration (no partition, full DRAM
 * timing), where the cores genuinely interleave and evict each other.
 */
TEST(CorunDifftest, AttributionSlicesSumToSharedTotals)
{
    CorunRunOptions options;
    options.config.base = corunConfig();
    auto report_or = runCorun({CorunTenant::fromWorkload(makeThrash()),
                               CorunTenant::fromWorkload(makeHotCold())},
                              options);
    ASSERT_TRUE(report_or.ok()) << report_or.status().message();
    MetricsRegistry metrics;
    report_or.value().exportMetrics(metrics);

    std::size_t checked = 0;
    for (const auto &[path, value] : metrics.counters()) {
        if (path.rfind("llc.", 0) != 0 ||
            path.find(".policy.") != std::string::npos ||
            path.find(".prefetcher.") != std::string::npos)
            continue;
        const std::uint64_t sum = metrics.counter("core0." + path) +
                                  metrics.counter("core1." + path);
        EXPECT_EQ(sum, value) << path;
        ++checked;
    }
    EXPECT_GT(checked, 10u);
    // The run must have produced real shared-LLC traffic for the
    // invariant to mean anything.
    EXPECT_GT(report_or.value().result.llc.demandAccesses(), 0u);
}

/**
 * Acceptance contract: a two-core co-run is bit-reproducible — two
 * runs of the same configuration produce byte-identical stripped
 * metric trees, and the tree's digest is pinned. The arbiter is a
 * serial loop, so there is no --jobs analog to vary; repeatability
 * plus the pin is the whole determinism surface.
 */
TEST(CorunGolden, RepeatRunsAreBitIdenticalAndDigestIsPinned)
{
    const auto run_once = [] {
        CorunRunOptions options;
        options.config.base = corunConfig();
        options.config.base.hierarchy.llc.replacement = "srrip";
        auto report_or =
            runCorun({CorunTenant::fromWorkload(makeThrash()),
                      CorunTenant::fromWorkload(makeHotCold())},
                     options);
        EXPECT_TRUE(report_or.ok()) << report_or.status().message();
        MetricsRegistry metrics;
        report_or.value().exportMetrics(metrics);
        return strippedJson(metrics, "corun-golden");
    };
    const std::string first = run_once();
    const std::string second = run_once();
    EXPECT_EQ(first, second);

    Checksum64 sum;
    sum.update(first.data(), first.size());
    const std::uint64_t digest = sum.digest();
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, kCorunGoldenDigest)
        << "Co-run golden tree changed: digest is now " << actual
        << " over " << first.size() << " JSON bytes. Re-pin "
        << "kCorunGoldenDigest in tests/test_corun.cc only for an "
        << "intentional simulated-behavior change.";
}

/** Trace-file tenants stream from disk through the same arbiter. */
TEST(CorunHarnessTest, TraceTenantsCoRun)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/cachescope_corun_tenant.trace";
    {
        TraceWriter writer(path);
        auto workload = makeHotCold();
        struct Bounded : InstructionSink
        {
            explicit Bounded(TraceWriter &out) : out(out) {}
            void
            onInstruction(const TraceRecord &rec) override
            {
                out.onInstruction(rec);
            }
            bool
            wantsMore() const override
            {
                return out.recordsWritten() < 40'000;
            }
            TraceWriter &out;
        } sink(writer);
        workload->run(sink);
        writer.onEnd();
    }

    CorunRunOptions options;
    options.config.base = corunConfig(2'000, 30'000);
    auto report_or = runCorun({CorunTenant::fromTrace(path),
                               CorunTenant::fromTrace(path)},
                              options);
    ASSERT_TRUE(report_or.ok()) << report_or.status().message();
    const CorunResult &r = report_or.value().result;
    ASSERT_EQ(r.cores.size(), 2u);
    EXPECT_GT(r.cores[0].core.instructions, 0u);
    EXPECT_GT(r.cores[1].core.instructions, 0u);
    EXPECT_EQ(report_or.value().tenantNames[0], path);

    // A missing trace surfaces as a Status, not a crash.
    EXPECT_FALSE(
        runCorun({CorunTenant::fromTrace("/nonexistent/x.trace")},
                 options)
            .ok());
    std::remove(path.c_str());
}

} // namespace
} // namespace cachescope
