/**
 * @file
 * Tests for the online PC/address-correlation profiler: the HLL
 * footprint sketch, exact rate-1 accounting, set-sampled estimates,
 * the Simulator/sweep/co-run integration, and the determinism
 * contract (profile.* byte-identical across --jobs and across the
 * run-vs-1-core-corun boundary).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cascade_lake.hh"
#include "harness/corun.hh"
#include "harness/experiment.hh"
#include "profile/hll.hh"
#include "profile/online_profiler.hh"
#include "stats/metrics.hh"
#include "workloads/synthetic.hh"

namespace cachescope {
namespace {

TEST(HllSketch, EmptyAndSmallCardinalities)
{
    HllSketch sketch;
    EXPECT_TRUE(sketch.empty());
    EXPECT_EQ(sketch.estimate(), 0.0);

    sketch.add(0xDEADBEEF);
    EXPECT_FALSE(sketch.empty());
    // Linear counting is near-exact at tiny cardinalities.
    EXPECT_NEAR(sketch.estimate(), 1.0, 0.05);
    sketch.add(0xDEADBEEF); // duplicates must not move the estimate
    EXPECT_NEAR(sketch.estimate(), 1.0, 0.05);

    for (std::uint64_t i = 0; i < 100; ++i)
        sketch.add(i);
    EXPECT_NEAR(sketch.estimate(), 101.0, 101.0 * 0.15);

    sketch.reset();
    EXPECT_TRUE(sketch.empty());
    EXPECT_EQ(sketch.estimate(), 0.0);
}

TEST(HllSketch, LargeCardinalityWithinDocumentedError)
{
    // p=8 gives ~6.5% standard error; assert a 2.5-sigma envelope.
    // The inputs are fixed, so this is a deterministic check, not a
    // flaky statistical one.
    HllSketch sketch;
    const std::uint64_t n = 10'000;
    for (std::uint64_t i = 0; i < n; ++i)
        sketch.add(i * 64 + 0x7F000000);
    EXPECT_NEAR(sketch.estimate(), static_cast<double>(n), n * 0.17);
}

TEST(HllSketch, MergeIsExactlyTheUnionSketch)
{
    // Register-max merge means merge(A, B) has *identical* registers
    // to a sketch built from the union stream — not just a similar
    // estimate. That identity is what makes sampled merges
    // order-independent.
    HllSketch a, b, ab, ba, direct;
    for (std::uint64_t i = 0; i < 1'000; ++i) {
        a.add(i);
        direct.add(i);
    }
    for (std::uint64_t i = 1'000; i < 2'000; ++i) {
        b.add(i);
        direct.add(i);
    }
    ab = a;
    ab.merge(b);
    ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.estimate(), direct.estimate());
    EXPECT_EQ(ba.estimate(), direct.estimate());
    // Idempotence: merging a sketch into itself changes nothing.
    HllSketch aa = a;
    aa.merge(a);
    EXPECT_EQ(aa.estimate(), a.estimate());
}

/** Feed @p n accesses for @p pc cycling over @p blocks distinct
 *  blocks starting at @p base; set = block index % num_sets. */
void
feedCyclic(OnlineProfiler &prof, Pc pc, std::uint64_t base,
           std::uint64_t blocks, std::uint64_t n, std::uint32_t num_sets)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t b = base + (i % blocks);
        prof.onAccess(static_cast<std::uint32_t>(b % num_sets), b * 64,
                      pc, /*hit=*/i >= blocks);
    }
}

TEST(OnlineProfiler, RateOneCountsAreExact)
{
    ProfileConfig cfg;
    cfg.enabled = true;
    cfg.sampleRate = 1;
    OnlineProfiler prof(cfg, /*num_sets=*/64);

    // Three PCs with disjoint block ranges and known weights:
    // 600 / 300 / 100 accesses over 100 / 50 / 10 distinct blocks.
    feedCyclic(prof, 0xA1, 0, 100, 600, 64);
    feedCyclic(prof, 0xB2, 10'000, 50, 300, 64);
    feedCyclic(prof, 0xC3, 20'000, 10, 100, 64);

    const OnlineProfiler::Summary s = prof.summarize();
    EXPECT_EQ(s.sampleRate, 1u);
    EXPECT_EQ(s.sampledSets, 64u);
    EXPECT_EQ(s.demandAccesses, 1'000u);
    EXPECT_EQ(s.sampledAccesses, 1'000u);
    EXPECT_EQ(s.coldAccesses, 160u); // one per distinct block
    ASSERT_EQ(s.rows.size(), 3u);

    // Rows sorted hottest-first.
    EXPECT_EQ(s.rows[0].pc, 0xA1u);
    EXPECT_EQ(s.rows[0].accesses, 600u);
    EXPECT_EQ(s.rows[1].pc, 0xB2u);
    EXPECT_EQ(s.rows[1].accesses, 300u);
    EXPECT_EQ(s.rows[2].pc, 0xC3u);
    EXPECT_EQ(s.rows[2].accesses, 100u);

    // Small footprints sit in the sketch's linear-counting regime.
    EXPECT_NEAR(s.rows[0].footprintBlocks, 100.0, 10.0);
    EXPECT_NEAR(s.rows[1].footprintBlocks, 50.0, 5.0);
    EXPECT_NEAR(s.rows[2].footprintBlocks, 10.0, 1.0);
    EXPECT_NEAR(s.footprintBlocks, 160.0, 16.0);

    // Concentration: 0.6, then 0.9, then saturation at 1.0.
    EXPECT_DOUBLE_EQ(s.concentration[0], 0.6);
    EXPECT_DOUBLE_EQ(s.concentration[1], 0.9);
    for (std::size_t k = 2; k < s.concentration.size(); ++k)
        EXPECT_DOUBLE_EQ(s.concentration[k], 1.0);
    EXPECT_EQ(s.pcsFor90, 2u); // 600 + 300 == ceil(0.9 * 1000)

    // H(0.6, 0.3, 0.1) in bits.
    EXPECT_NEAR(s.entropyBits, 1.2955, 1e-3);
}

TEST(OnlineProfiler, ReuseDistanceMeanAndPercentiles)
{
    ProfileConfig cfg;
    cfg.enabled = true;
    OnlineProfiler prof(cfg, /*num_sets=*/16);

    // One PC cycling over 4 blocks: every non-cold access revisits its
    // block exactly 4 sampled accesses later.
    feedCyclic(prof, 0xF00D, 0, 4, 400, 16);

    const OnlineProfiler::Summary s = prof.summarize();
    ASSERT_EQ(s.rows.size(), 1u);
    const OnlineProfiler::PcRow &row = s.rows[0];
    EXPECT_EQ(row.accesses, 400u);
    EXPECT_EQ(row.hits, 396u);
    EXPECT_EQ(row.reuseSamples, 396u);
    EXPECT_DOUBLE_EQ(row.reuseMean, 4.0);
    // Distance 4 lands in the [4,8) bucket, whose lower bound is 4.
    EXPECT_EQ(row.reuseP50, 4u);
    EXPECT_EQ(row.reuseP90, 4u);
    EXPECT_EQ(s.coldAccesses, 4u);

    prof.reset();
    const OnlineProfiler::Summary empty = prof.summarize();
    EXPECT_EQ(empty.demandAccesses, 0u);
    EXPECT_TRUE(empty.rows.empty());
    EXPECT_EQ(empty.entropyBits, 0.0);
}

TEST(OnlineProfiler, SetSamplingScalesBackToFullStreamUnits)
{
    const std::uint32_t num_sets = 64;
    ProfileConfig exact_cfg;
    exact_cfg.enabled = true;
    exact_cfg.sampleRate = 1;
    ProfileConfig sampled_cfg;
    sampled_cfg.enabled = true;
    sampled_cfg.sampleRate = 4;
    OnlineProfiler exact(exact_cfg, num_sets);
    OnlineProfiler sampled(sampled_cfg, num_sets);

    // 4 sequential sweeps over 4096 blocks, uniform across sets, so
    // the 16 sampled sets see exactly 1/4 of everything.
    for (int round = 0; round < 4; ++round) {
        for (std::uint64_t b = 0; b < 4'096; ++b) {
            const auto set = static_cast<std::uint32_t>(b % num_sets);
            exact.onAccess(set, b * 64, 0xAB, round > 0);
            sampled.onAccess(set, b * 64, 0xAB, round > 0);
        }
    }

    const OnlineProfiler::Summary se = exact.summarize();
    const OnlineProfiler::Summary ss = sampled.summarize();
    EXPECT_EQ(ss.sampleRate, 4u);
    EXPECT_EQ(ss.sampledSets, 16u);
    // Demand counting is exact regardless of the sampling rate.
    EXPECT_EQ(ss.demandAccesses, se.demandAccesses);
    EXPECT_EQ(ss.sampledAccesses, se.sampledAccesses / 4);
    // Scaled footprint within the sketch error of the exact one
    // (sampling adds no error here because the stream is set-uniform).
    EXPECT_NEAR(ss.footprintBlocks, se.footprintBlocks,
                se.footprintBlocks * 0.17);
    EXPECT_NEAR(se.footprintBlocks, 4'096.0, 4'096.0 * 0.17);
    // Reuse distances are measured in sampled-access units and scaled
    // by the rate, so both agree on full-stream distances: a block
    // revisited 4096 accesses later reads ~1024 * 4 under rate 4.
    ASSERT_EQ(ss.rows.size(), 1u);
    ASSERT_EQ(se.rows.size(), 1u);
    EXPECT_NEAR(ss.rows[0].reuseMean, se.rows[0].reuseMean,
                se.rows[0].reuseMean * 0.05);
}

/** Shrunken hierarchy (the golden-test shape) with profiling on. */
SimConfig
profiledConfig(std::uint32_t sample_rate = 1)
{
    SimConfig cfg = cascadeLakeConfig("lru", /*warmup=*/5'000,
                                      /*measure=*/60'000);
    cfg.hierarchy.l1d.sizeBytes = 4 * 1024;
    cfg.hierarchy.l1d.numWays = 4;
    cfg.hierarchy.l1i.sizeBytes = 4 * 1024;
    cfg.hierarchy.l1i.numWays = 4;
    cfg.hierarchy.l2.sizeBytes = 16 * 1024;
    cfg.hierarchy.l2.numWays = 4;
    cfg.hierarchy.llc.sizeBytes = 64 * 1024;
    cfg.hierarchy.llc.numWays = 8;
    cfg.profile.enabled = true;
    cfg.profile.sampleRate = sample_rate;
    return cfg;
}

std::shared_ptr<Workload>
profiledWorkload(std::uint32_t id = 81)
{
    SynthParams p;
    p.pcWorkloadId = id;
    p.seed = 31 + id;
    p.mainBytes = 256ull << 10;
    p.hotBytes = 24ull << 10;
    p.hotFraction = 0.9;
    p.aluPerOp = 2;
    return std::make_shared<SyntheticWorkload>(
        "profiled", SynthPattern::HotCold, p);
}

/** A second suite member with a *distinct name*: sweep cell paths are
 *  keyed by workload name, and two same-named workloads would share
 *  one cell subtree (summed counters, last-writer gauges). */
std::shared_ptr<Workload>
profiledThrashWorkload()
{
    SynthParams p;
    p.pcWorkloadId = 82;
    p.seed = 41;
    p.mainBytes = 96ull << 10;
    p.aluPerOp = 2;
    return std::make_shared<SyntheticWorkload>(
        "profiled", SynthPattern::ScanThrash, p);
}

TEST(ProfileIntegration, DemandAccountingMatchesLlcStats)
{
    auto workload = profiledWorkload();
    const SimResult r = runOne(*workload, profiledConfig());
    // The profiler and CacheStats count the same thing: LLC demand
    // (Load/Store) accesses over the measured window.
    ASSERT_TRUE(r.extraMetrics.hasCounter("profile.demand_accesses"));
    EXPECT_EQ(r.extraMetrics.counter("profile.demand_accesses"),
              r.llc.demandAccesses());
    EXPECT_EQ(r.extraMetrics.counter("profile.sampled_hits"),
              r.llc.demandHits());
    EXPECT_GT(r.extraMetrics.counter("profile.distinct_pcs"), 0u);
    EXPECT_GT(r.extraMetrics.gauge("profile.pc_entropy_bits"), 0.0);
}

TEST(ProfileIntegration, DisabledProfileExportsNothing)
{
    auto workload = profiledWorkload();
    SimConfig cfg = profiledConfig();
    cfg.profile.enabled = false;
    const SimResult r = runOne(*workload, cfg);
    EXPECT_FALSE(r.extraMetrics.hasCounter("profile.demand_accesses"));
    EXPECT_FALSE(r.extraMetrics.hasGauge("profile.pc_entropy_bits"));
}

TEST(ProfileIntegration, SampledRunApproximatesExactRun)
{
    // The same deterministic workload under rate 1 and rate 4: exact
    // demand totals must match, and the scaled estimates must stay
    // within the documented sampling + sketch error envelope.
    auto workload = profiledWorkload();
    const SimResult exact = runOne(*workload, profiledConfig(1));
    const SimResult sampled = runOne(*workload, profiledConfig(4));

    EXPECT_EQ(sampled.extraMetrics.counter("profile.demand_accesses"),
              exact.extraMetrics.counter("profile.demand_accesses"));
    const auto exact_fp = static_cast<double>(
        exact.extraMetrics.counter("profile.footprint_blocks"));
    const auto sampled_fp = static_cast<double>(
        sampled.extraMetrics.counter("profile.footprint_blocks"));
    ASSERT_GT(exact_fp, 0.0);
    // 1-in-4 set sampling of a hot/cold mix: generous 35% envelope —
    // this guards against unit mistakes (forgotten scaling gives 4x
    // error), not sketch noise.
    EXPECT_NEAR(sampled_fp, exact_fp, exact_fp * 0.35);
    const double exact_top8 =
        exact.extraMetrics.gauge("profile.concentration.top_8");
    const double sampled_top8 =
        sampled.extraMetrics.gauge("profile.concentration.top_8");
    EXPECT_NEAR(sampled_top8, exact_top8, 0.15);
}

/** Copy of @p in restricted to profile subtrees (any depth). */
MetricsRegistry
profileOnly(const MetricsRegistry &in)
{
    const auto is_profile = [](const std::string &path) {
        return path.rfind("profile.", 0) == 0 ||
               path.find(".profile.") != std::string::npos;
    };
    MetricsRegistry out;
    for (const auto &[path, value] : in.counters()) {
        if (is_profile(path))
            out.setCounter(path, value);
    }
    for (const auto &[path, value] : in.gauges()) {
        if (is_profile(path))
            out.setGauge(path, value);
    }
    return out;
}

std::string
profileJson(const MetricsRegistry &in)
{
    MetricsDocument doc;
    doc.name = "profile";
    doc.wallMs = 0.0;
    doc.metrics = profileOnly(in);
    return metricsToJson(doc);
}

TEST(ProfileIntegration, SweepProfileTreeIsJobsInvariant)
{
    // Two workloads x two policies with sampling on: the aggregated
    // profile.* subtree must be byte-identical between a serial and a
    // 4-worker sweep (integer counters, max-merged sketches, fixed
    // reduction order).
    const std::vector<std::shared_ptr<Workload>> suite = {
        profiledWorkload(), profiledThrashWorkload()};
    const std::vector<std::string> policies = {"lru", "srrip"};

    SuiteRunner serial(profiledConfig(2), /*jobs=*/1);
    serial.setVerbose(false);
    SuiteRunner parallel(profiledConfig(2), /*jobs=*/4);
    parallel.setVerbose(false);

    const SweepReport a = serial.runChecked(suite, policies);
    const SweepReport b = parallel.runChecked(suite, policies);
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());

    const std::string ja = profileJson(a.metrics);
    const std::string jb = profileJson(b.metrics);
    EXPECT_FALSE(profileOnly(a.metrics).counters().empty());
    EXPECT_EQ(ja, jb);
}

TEST(ProfileIntegration, OneCoreCorunProfileMatchesSingleRun)
{
    // The shared-LLC profiler resets at the all-cores-warm barrier,
    // which for one core is the single core's warmup boundary — so a
    // profiled 1-core co-run must export the same profile.* bytes as
    // a plain run, under either warmup mode.
    for (const WarmupMode mode :
         {WarmupMode::Timed, WarmupMode::Functional}) {
        SCOPED_TRACE(mode == WarmupMode::Timed ? "timed" : "functional");
        SimConfig cfg = profiledConfig();
        cfg.warmupMode = mode;
        auto workload = profiledWorkload();
        const SimResult solo = runOne(*workload, cfg);
        MetricsRegistry solo_metrics;
        solo.exportMetrics(solo_metrics);

        CorunRunOptions options;
        options.config.base = cfg;
        auto report_or = runCorun(
            {CorunTenant::fromWorkload(profiledWorkload())}, options);
        ASSERT_TRUE(report_or.ok()) << report_or.status().message();
        MetricsRegistry corun_metrics;
        report_or.value().exportMetrics(corun_metrics);

        EXPECT_FALSE(profileOnly(solo_metrics).counters().empty());
        EXPECT_EQ(profileJson(solo_metrics), profileJson(corun_metrics));
    }
}

} // anonymous namespace
} // namespace cachescope
