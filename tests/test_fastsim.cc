/**
 * @file
 * The two-speed simulation engine's contracts: functional warmup's
 * cache-counter bit-identity with timed warmup, deterministic LLC
 * set-sampling, the sampled estimator's accuracy on the realistic LLC
 * geometry, the fast-sweep preset's reproducibility across --jobs,
 * and the configuration validation both fast paths rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/cache.hh"
#include "core/cascade_lake.hh"
#include "difftest/difftest.hh"
#include "difftest/stream_fuzzer.hh"
#include "graph/gap_kernels.hh"
#include "graph/generators.hh"
#include "harness/corun.hh"
#include "harness/experiment.hh"
#include "replacement/replacement_policy.hh"
#include "stats/metrics.hh"
#include "workloads/synthetic.hh"

namespace cachescope {
namespace {

using difftest::StreamKind;
using difftest::StreamSpec;

/** Shrunken hierarchy so small windows produce real LLC traffic. */
SimConfig
fastsimConfig(InstCount warmup = 20'000, InstCount measure = 60'000)
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
makeHotCold(std::uint64_t seed = 9)
{
    SynthParams p;
    p.pcWorkloadId = 81;
    p.seed = seed;
    p.mainBytes = 256ull << 10;
    p.hotBytes = 24ull << 10;
    p.hotFraction = 0.9;
    p.aluPerOp = 2;
    return std::make_shared<SyntheticWorkload>(
        "fastsim", SynthPattern::HotCold, p);
}

std::shared_ptr<Workload>
makeThrash(std::uint64_t seed = 5)
{
    SynthParams p;
    p.pcWorkloadId = 82;
    p.seed = seed;
    p.mainBytes = 96ull << 10;
    p.aluPerOp = 2;
    return std::make_shared<SyntheticWorkload>(
        "fastsim", SynthPattern::ScanThrash, p);
}

/** Copy of @p in holding only the paths under the cache subtrees. */
MetricsRegistry
cacheSubtrees(const MetricsRegistry &in)
{
    const auto keep = [](const std::string &path) {
        return path.rfind("l1i.", 0) == 0 || path.rfind("l1d.", 0) == 0 ||
               path.rfind("l2.", 0) == 0 || path.rfind("llc.", 0) == 0;
    };
    MetricsRegistry out;
    for (const auto &[path, value] : in.counters())
        if (keep(path))
            out.setCounter(path, value);
    for (const auto &[path, value] : in.gauges())
        if (keep(path))
            out.setGauge(path, value);
    for (const auto &[path, snap] : in.histograms())
        if (keep(path))
            out.setHistogram(path, snap);
    return out;
}

std::string
registryJson(const MetricsRegistry &metrics, const std::string &name)
{
    MetricsDocument doc;
    doc.name = name;
    doc.wallMs = 0.0;
    doc.metrics = metrics;
    return metricsToJson(doc);
}

// --- Functional warmup ---------------------------------------------------

/**
 * The load-bearing fidelity contract: functional and timed warmup feed
 * the hierarchy byte-identical (addr, pc, type) streams, so every
 * cache counter — warmup-reset and accumulated over the measured
 * window — is bit-identical between the two modes. Only timing state
 * (core cycles, DRAM row/bank history) may differ.
 */
TEST(FunctionalWarmup, CacheCountersBitIdenticalToTimed)
{
    auto workload = makeHotCold();
    SimConfig timed = fastsimConfig();
    SimConfig functional = timed;
    functional.warmupMode = WarmupMode::Functional;

    const SimResult rt = runOne(*workload, timed);
    const SimResult rf = runOne(*workload, functional);

    MetricsRegistry mt;
    rt.exportMetrics(mt);
    MetricsRegistry mf;
    rf.exportMetrics(mf);
    EXPECT_EQ(registryJson(cacheSubtrees(mt), "caches"),
              registryJson(cacheSubtrees(mf), "caches"));

    EXPECT_EQ(rt.core.instructions, rf.core.instructions);
    EXPECT_EQ(rt.core.loads, rf.core.loads);
    EXPECT_EQ(rt.core.stores, rf.core.stores);
    // The measured window itself runs the sealed timed path in both
    // modes, so IPC stays a real number even after a functional warmup.
    EXPECT_GT(rf.ipc(), 0.0);
}

TEST(FunctionalWarmup, ZeroWarmupDegeneratesToTimed)
{
    auto workload = makeThrash();
    SimConfig timed = fastsimConfig(/*warmup=*/0);
    SimConfig functional = timed;
    functional.warmupMode = WarmupMode::Functional;

    const SimResult rt = runOne(*workload, timed);
    const SimResult rf = runOne(*workload, functional);
    // No warmup window: the functional path never engages, so even
    // timing is identical.
    EXPECT_EQ(rt.core.cycles, rf.core.cycles);
    EXPECT_EQ(rt.llc.demandMisses(), rf.llc.demandMisses());
}

TEST(FunctionalWarmup, CorunSmokeAndWallSplit)
{
    CorunRunOptions options;
    options.config.base = fastsimConfig(/*warmup=*/5'000, /*measure=*/40'000);
    options.config.base.warmupMode = WarmupMode::Functional;
    std::vector<CorunTenant> tenants;
    tenants.push_back(CorunTenant::fromWorkload(makeThrash()));
    tenants.push_back(CorunTenant::fromWorkload(makeHotCold()));

    auto report_or = runCorun(tenants, options);
    ASSERT_TRUE(report_or.ok()) << report_or.status().message();
    const CorunReport &report = report_or.value();
    ASSERT_EQ(report.result.cores.size(), 2u);
    EXPECT_GT(report.result.llc.demandAccesses(), 0u);
    for (const SimResult &core : report.result.cores)
        EXPECT_GT(core.core.instructions, 0u);

    MetricsRegistry metrics;
    report.exportMetrics(metrics, "");
    const auto &gauges = metrics.gauges();
    ASSERT_TRUE(gauges.count("sim.warmup_wall_seconds"));
    ASSERT_TRUE(gauges.count("sim.measure_wall_seconds"));
    // The split partitions the total wall clock.
    EXPECT_NEAR(gauges.at("sim.warmup_wall_seconds") +
                    gauges.at("sim.measure_wall_seconds"),
                gauges.at("sim.wall_seconds"), 1e-9);
    // Per-core warmup boundaries are observable too.
    EXPECT_TRUE(gauges.count("core0.sim.warmup_wall_seconds"));
    EXPECT_TRUE(gauges.count("core1.sim.warmup_wall_seconds"));
}

TEST(FunctionalWarmup, SingleRunWallSplitPartitionsTotal)
{
    auto workload = makeHotCold();
    SimConfig cfg = fastsimConfig();
    cfg.warmupMode = WarmupMode::Functional;
    const SimResult result = runOne(*workload, cfg);
    const auto &gauges = result.extraMetrics.gauges();
    ASSERT_TRUE(gauges.count("sim.wall_seconds"));
    ASSERT_TRUE(gauges.count("sim.warmup_wall_seconds"));
    ASSERT_TRUE(gauges.count("sim.measure_wall_seconds"));
    EXPECT_GE(gauges.at("sim.warmup_wall_seconds"), 0.0);
    EXPECT_GE(gauges.at("sim.measure_wall_seconds"), 0.0);
    EXPECT_NEAR(gauges.at("sim.warmup_wall_seconds") +
                    gauges.at("sim.measure_wall_seconds"),
                gauges.at("sim.wall_seconds"), 1e-9);
}

// --- Configuration validation --------------------------------------------

TEST(FastsimValidate, RejectsWarmupPlusMeasureOverflow)
{
    SimConfig cfg = fastsimConfig();
    cfg.warmupInstructions = ~InstCount{0} - 1;
    cfg.measureInstructions = 2;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.warmupInstructions = 1'000;
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(FastsimValidate, RejectsBadSampleSets)
{
    SimConfig cfg = fastsimConfig();
    cfg.hierarchy.llc.sampleSets = 3; // not a power of two
    EXPECT_FALSE(cfg.validate().ok());
    cfg.hierarchy.llc.sampleSets = 1u << 30; // more than the set count
    EXPECT_FALSE(cfg.validate().ok());
    cfg.hierarchy.llc.sampleSets = 16;
    EXPECT_TRUE(cfg.validate().ok());
}

// --- Set-sampling --------------------------------------------------------

CacheConfig
bareLlc(const std::string &policy, std::uint32_t sample_sets)
{
    CacheConfig cfg = cascadeLakeConfig("lru", 0, 0).hierarchy.llc;
    cfg.replacement = policy;
    cfg.prefetcher = "none";
    cfg.sampleSets = sample_sets;
    return cfg;
}

/** A bottomless MemoryLevel: every request returns after one cycle. */
class FlatLevel : public MemoryLevel
{
  public:
    Cycle
    access(Addr, Pc, AccessType, Cycle now) override
    {
        return now + 1;
    }

    const std::string &levelName() const override { return name; }

  private:
    std::string name = "flat";
};

/**
 * --sample-sets must pick the same subset on every construction: the
 * selection is a pure function of (set count, rate), independent of
 * run order, jobs, or anything else. Two caches agreeing set-by-set,
 * with the exact expected subset size, pins that.
 */
TEST(SetSampling, SelectionIsDeterministicAndExactlySized)
{
    FlatLevel flat_a;
    FlatLevel flat_b;
    Cache a(bareLlc("lru", 16), &flat_a);
    Cache b(bareLlc("lru", 16), &flat_b);
    ASSERT_TRUE(a.samplingEnabled());
    const std::uint32_t sets = bareLlc("lru", 16).geometry().numSets;
    EXPECT_EQ(a.sampledSetCount(), sets / 16);
    EXPECT_EQ(b.sampledSetCount(), sets / 16);
    for (std::uint32_t s = 0; s < sets; ++s)
        EXPECT_EQ(a.setIsSampled(s), b.setIsSampled(s)) << "set " << s;
}

struct AccuracyCase
{
    const char *policy;
    StreamKind kind;
    /** Relative budget; globally-trained policies get extra head-room
     *  for training dilution, which realistic geometry keeps small. */
    double budget;
};

/** Name the case in ctest: gtest would otherwise print its raw bytes,
 *  the policy pointer included, so the names would change per build. */
void
PrintTo(const AccuracyCase &c, std::ostream *os)
{
    *os << c.policy << "/" << difftest::streamKindName(c.kind)
        << " budget " << c.budget;
}

class SampledAccuracy : public ::testing::TestWithParam<AccuracyCase>
{};

/**
 * The sampled estimator's accuracy on the *realistic* LLC geometry —
 * the regime the fast-sweep preset actually runs in, and the
 * statistical gate the adversarial difftest geometry is too small to
 * host for globally-trained policies. The tolerance is the relative
 * budget slackened by the estimator's true standard error, computed
 * from the full run's per-set miss distribution (the population the
 * subset was drawn from), plus a small-count floor.
 */
TEST_P(SampledAccuracy, MissEstimateWithinBudgetOnRealisticGeometry)
{
    const AccuracyCase &c = GetParam();
    constexpr std::uint32_t kRate = 16;

    StreamSpec spec;
    spec.seed = 17;
    spec.kind = c.kind;
    spec.memoryAccesses = 150'000;
    CacheConfig llc = bareLlc(c.policy, 1);
    spec.geometry = llc.geometry();
    const std::vector<TraceRecord> mem =
        difftest::memoryRecordsOf(difftest::generateStream(spec));

    const std::uint32_t num_sets = llc.geometry().numSets;
    const std::uint64_t set_mask = num_sets - 1;
    std::vector<std::uint64_t> set_misses(num_sets, 0);

    FlatLevel full_flat;
    Cache full(llc, &full_flat);
    full.setEventHook([&](const Cache::AccessEvent &e) {
        if ((e.type == AccessType::Load || e.type == AccessType::Store) &&
            !e.hit) {
            ++set_misses[e.set];
        }
    });
    for (const TraceRecord &rec : mem) {
        full.access(rec.addr & ~Addr{63}, rec.pc,
                    rec.kind == InstKind::Store ? AccessType::Store
                                                : AccessType::Load,
                    /*now=*/0);
    }

    FlatLevel sampled_flat;
    Cache sampled(bareLlc(c.policy, kRate), &sampled_flat);
    for (const TraceRecord &rec : mem) {
        sampled.access(rec.addr & ~Addr{63}, rec.pc,
                       rec.kind == InstKind::Store ? AccessType::Store
                                                   : AccessType::Load,
                       /*now=*/0);
    }

    const double full_misses =
        static_cast<double>(full.stats().demandMisses());
    const double est_misses =
        static_cast<double>(sampled.stats().demandMisses()) * kRate;
    ASSERT_GT(full_misses, 0.0);

    // True (population) relative standard error of the subset total.
    const double mean = full_misses / num_sets;
    double var = 0.0;
    for (std::uint32_t s = 0; s < num_sets; ++s) {
        const double d = static_cast<double>(set_misses[s]) - mean;
        var += d * d;
    }
    var /= num_sets - 1.0;
    const double n_sampled = static_cast<double>(num_sets) / kRate;
    const double se_true =
        std::sqrt((1.0 - n_sampled / num_sets) * var / n_sampled) / mean;

    const double tol = std::max({c.budget * full_misses,
                                 5.0 * se_true * full_misses,
                                 3.0 * static_cast<double>(kRate)});
    EXPECT_LE(std::abs(est_misses - full_misses), tol)
        << c.policy << "/" << difftest::streamKindName(c.kind)
        << ": estimate " << est_misses << " vs full " << full_misses
        << " (se_true " << se_true << ")";

    // Sanity on the address side, independent of the miss estimate:
    // the sampled subset saw roughly 1/rate of the stream.
    std::uint64_t in_sample = 0;
    for (const TraceRecord &rec : mem) {
        if (sampled.setIsSampled(
                static_cast<std::uint32_t>((rec.addr >> 6) & set_mask)))
            ++in_sample;
    }
    EXPECT_EQ(sampled.stats().demandAccesses(), in_sample);

    // Miss-*rate* agreement (the figure the sweeps actually plot).
    const double mr_full =
        full_misses / static_cast<double>(full.stats().demandAccesses());
    const double mr_est =
        static_cast<double>(sampled.stats().demandMisses()) /
        static_cast<double>(sampled.stats().demandAccesses());
    EXPECT_NEAR(mr_est, mr_full,
                std::max(0.05, 5.0 * se_true * mr_full));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SampledAccuracy,
    ::testing::Values(
        AccuracyCase{"lru", StreamKind::ScanThrash, 0.02},
        AccuracyCase{"lru", StreamKind::MixedWorkingSets, 0.02},
        AccuracyCase{"srrip", StreamKind::ScanThrash, 0.02},
        AccuracyCase{"srrip", StreamKind::MixedWorkingSets, 0.02},
        AccuracyCase{"hawkeye", StreamKind::ScanThrash, 0.06},
        AccuracyCase{"hawkeye", StreamKind::MixedWorkingSets, 0.06}),
    [](const ::testing::TestParamInfo<AccuracyCase> &info) {
        return std::string(info.param.policy) + "_" +
               difftest::streamKindName(info.param.kind);
    });

// --- Timing-independent LLC stream --------------------------------------

/** One LLC access as the Belady recorder keeps it. */
struct LlcAccess
{
    Addr block;
    Pc pc;
    AccessType type;

    bool operator==(const LlcAccess &) const = default;
};

enum class RunMode { Timed, FunctionalWarmup, ForcedFunctional };

/**
 * The LLC's non-writeback event-hook sequence for one run of
 * @p workload, exactly what runBelady's first pass records.
 */
std::vector<LlcAccess>
recordLlcStream(Workload &workload, const std::string &policy,
                RunMode mode, const std::string &l2_prefetcher)
{
    SimConfig cfg = fastsimConfig(/*warmup=*/100'000, /*measure=*/400'000);
    cfg.hierarchy.llc.replacement = policy;
    cfg.hierarchy.l2.prefetcher = l2_prefetcher;
    if (mode == RunMode::FunctionalWarmup)
        cfg.warmupMode = WarmupMode::Functional;
    std::vector<LlcAccess> stream;
    Simulator sim(cfg);
    if (mode == RunMode::ForcedFunctional)
        sim.forceFunctional();
    sim.hierarchy().llc().setEventHook([&](const Cache::AccessEvent &e) {
        if (e.type != AccessType::Writeback)
            stream.push_back({e.block, e.pc, e.type});
    });
    workload.run(sim);
    return stream;
}

class LlcStreamInvariance : public ::testing::TestWithParam<std::string>
{};

/**
 * runBelady records its oracle's future in an untimed pass. That is
 * sound only if the LLC's demand and prefetch stream depends on
 * neither the timing model nor the LLC policy: the levels above never
 * see the LLC's decisions, and the core issues memory operations in
 * program order in both paths. Every policy under timed warmup,
 * functional warmup and a forced-functional run must therefore see
 * the stream LRU sees under timed warmup, on two GAP kernels and one
 * fuzzed stream with stores (so writebacks are filtered out).
 */
TEST_P(LlcStreamInvariance, SameStreamTimedOrFunctional)
{
    static const auto graph = std::make_shared<const CsrGraph>(
        makeKronecker(10, 8, 42));
    GapKernelParams params;
    params.maxRepeats = 1;
    StreamSpec spec;
    spec.seed = 23;
    spec.kind = StreamKind::MixedWorkingSets;
    spec.memoryAccesses = 40'000;
    spec.geometry = fastsimConfig().hierarchy.llc.geometry();

    std::vector<std::shared_ptr<Workload>> workloads{
        std::make_shared<GapWorkload>(GapKernel::Bfs, "kron10", graph,
                                      params),
        std::make_shared<GapWorkload>(GapKernel::PageRank, "kron10",
                                      graph, params),
        std::make_shared<difftest::VectorWorkload>(
            "fuzz", difftest::generateStream(spec))};

    for (const auto &workload : workloads) {
        // The L2 streamer adds prefetch fills to the LLC stream.
        for (const std::string prefetcher : {"none", "streamer"}) {
            SCOPED_TRACE(workload->name() + ", L2 prefetcher " + prefetcher);
            const std::vector<LlcAccess> reference = recordLlcStream(
                *workload, "lru", RunMode::Timed, prefetcher);
            ASSERT_GT(reference.size(), 1000u);
            for (const RunMode mode :
                 {RunMode::Timed, RunMode::FunctionalWarmup,
                  RunMode::ForcedFunctional}) {
                const std::vector<LlcAccess> got = recordLlcStream(
                    *workload, GetParam(), mode, prefetcher);
                EXPECT_TRUE(got == reference)
                    << "mode " << static_cast<int>(mode) << ": "
                    << got.size() << " vs " << reference.size()
                    << " accesses, first difference at "
                    << std::mismatch(got.begin(), got.end(),
                                     reference.begin(), reference.end())
                               .first -
                           got.begin();
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LlcStreamInvariance,
    ::testing::ValuesIn(ReplacementPolicyFactory::availablePolicies()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// --- Fast sweep ----------------------------------------------------------

/**
 * The fast-sweep preset must be bit-reproducible across --jobs: the
 * set selection is order-independent and functional warmup touches no
 * shared state, so serial and parallel sweeps agree byte-for-byte
 * (modulo wall-clock gauges).
 */
TEST(FastSweep, DeterministicAcrossJobs)
{
    SimConfig base = fastsimConfig(/*warmup=*/10'000, /*measure=*/40'000);
    std::vector<std::shared_ptr<Workload>> suite{makeThrash(),
                                                 makeHotCold()};
    std::vector<std::string> policies{"lru", "srrip"};

    SuiteRunner serial(base, /*jobs=*/1);
    serial.setVerbose(false);
    serial.setFastSweep(true);
    SuiteRunner parallel(base, /*jobs=*/4);
    parallel.setVerbose(false);
    parallel.setFastSweep(true);

    const SweepReport rs = serial.runChecked(suite, policies);
    const SweepReport rp = parallel.runChecked(suite, policies);
    ASSERT_EQ(rs.failed(), 0u);
    ASSERT_EQ(rp.failed(), 0u);
    EXPECT_EQ(registryJson(withoutHostTime(rs.metrics), "sweep"),
              registryJson(withoutHostTime(rp.metrics), "sweep"));

    // The preset actually engaged: every cell carries the sampled
    // subtree at the preset's 1/16 rate.
    const std::string marker = "llc.sampled.sample_rate";
    bool saw_sampled = false;
    for (const auto &[path, value] : rs.metrics.counters()) {
        // Per-cell trees only: the total.* aggregate sums the marker
        // across cells.
        if (path.rfind("cell.", 0) == 0 && path.size() >= marker.size() &&
            path.compare(path.size() - marker.size(), marker.size(),
                         marker) == 0) {
            EXPECT_EQ(value, 16u) << path;
            saw_sampled = true;
        }
    }
    EXPECT_TRUE(saw_sampled);
}

} // namespace
} // namespace cachescope
