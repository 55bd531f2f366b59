/**
 * @file
 * Cross-cutting behavioural tests added alongside the calibration
 * work: DRAM write buffering, warmup hints, prefetch statistics
 * plumbing, and parameterized policy-geometry sweeps.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/cascade_lake.hh"
#include "dram/dram.hh"
#include "harness/experiment.hh"
#include "harness/workload_zoo.hh"
#include "replacement/replacement_policy.hh"
#include "trace/pc_site.hh"
#include "trace/traced_memory.hh"
#include "util/rng.hh"

namespace cachescope {
namespace {

// -------------------------------------------------- DRAM write buffering --

TEST(DramWrites, WritesDoNotDisturbReadTiming)
{
    // Two identical read streams, one interleaved with writes to the
    // same banks: read completion times must be identical (writes are
    // buffered and drained off the modelled timeline).
    DramModel clean(DramConfig::ddr4_2933());
    DramModel dirty(DramConfig::ddr4_2933());
    Rng rng(9);
    Cycle now_clean = 0, now_dirty = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.nextBounded(1ull << 28) & ~Addr{63};
        now_clean = clean.read(addr, now_clean);
        dirty.write(addr ^ 0x40, now_dirty); // adjacent block, same row
        now_dirty = dirty.read(addr, now_dirty);
    }
    EXPECT_EQ(now_clean, now_dirty);
    EXPECT_EQ(dirty.stats().writes, 2000u);
    EXPECT_EQ(clean.stats().rowHits, dirty.stats().rowHits);
}

TEST(DramWrites, WritesAreCountedWithBandwidthCost)
{
    DramModel dram(DramConfig::ddr4_2933());
    const Cycle done = dram.write(0, 100);
    EXPECT_EQ(done, 100 + dram.config().tBurst);
    EXPECT_EQ(dram.stats().writes, 1u);
    EXPECT_EQ(dram.stats().reads, 0u);
}

// ----------------------------------------------------------- warmup hints --

TEST(WarmupHint, PageRankHintCoversPhaseOne)
{
    ZooOptions options;
    options.scale = 12;
    auto pr = makeNamedWorkload("pr", options);
    auto bfs = makeNamedWorkload("bfs", options);
    // Phase 1 is ~9 records per vertex; the hint must exceed it.
    EXPECT_GT(pr->warmupHint(), (1u << 12) * 9ull);
    EXPECT_EQ(bfs->warmupHint(), 0u);
}

TEST(WarmupHint, HarnessExtendsConfiguredWarmup)
{
    ZooOptions options;
    options.scale = 12;
    auto pr = makeNamedWorkload("pr", options);
    SimConfig cfg = cascadeLakeConfig("lru", /*warmup=*/1'000,
                                      /*measure=*/50'000);
    const SimResult r = runOne(*pr, cfg);
    // If the hint were ignored the measured window would start inside
    // the sequential phase-1 and show near-zero LLC pressure relative
    // to the gather phase; instead the measured window must contain
    // the gather's irregular loads.
    EXPECT_EQ(r.core.instructions, 50'000u);
    EXPECT_GT(r.mpkiL1d(), 5.0);
}

// ----------------------------------------------- prefetch stats plumbing --

TEST(PrefetchPlumbing, L2PrefetchStatsReachSimResult)
{
    ZooOptions options;
    options.synthMainBytes = 4ull << 20;
    auto stream = makeNamedWorkload("stream_triad", options);
    SimConfig cfg = cascadeLakeConfig("lru", 10'000, 200'000);
    cfg.hierarchy.l2.prefetcher = "streamer";
    const SimResult r = runOne(*stream, cfg);
    EXPECT_GT(r.l2.prefetchesIssued, 1000u);
    // A pure stream is the streamer's best case.
    EXPECT_GT(static_cast<double>(r.l2.prefetchesUseful) /
              static_cast<double>(r.l2.prefetchesIssued), 0.8);
    // And prefetching a stream reduces L2 demand misses.
    SimConfig nopf = cfg;
    nopf.hierarchy.l2.prefetcher = "none";
    auto stream2 = makeNamedWorkload("stream_triad", options);
    const SimResult base = runOne(*stream2, nopf);
    EXPECT_LT(r.l2.demandMisses(), base.l2.demandMisses() / 2);
}

TEST(PrefetchPlumbing, DefaultConfigHasNoPrefetcher)
{
    const SimConfig cfg = cascadeLakeConfig();
    EXPECT_EQ(cfg.hierarchy.l1d.prefetcher, "none");
    EXPECT_EQ(cfg.hierarchy.l2.prefetcher, "none");
    EXPECT_EQ(cfg.hierarchy.llc.prefetcher, "none");
}

// ------------------------------------- policy x geometry property sweep --

// The policy name is a std::string, not a const char *: gtest prints a
// pointer inside a tuple by address, and that address would end up in
// the ctest test names (which then change with every build).
using PolicyGeometry = std::tuple<std::string, std::uint32_t>;

class PolicyGeometryTest
    : public ::testing::TestWithParam<PolicyGeometry>
{};

TEST_P(PolicyGeometryTest, SurvivesRandomStreamAtAnyAssociativity)
{
    const auto [name, ways] = GetParam();
    const CacheGeometry geom{64, ways, 64};
    auto policy = ReplacementPolicyFactory::create(name, geom);
    Rng rng(1234);
    // Random mixed stream incl. writebacks; invariant: victims in
    // range, no crashes, and a line that was just updated as a hit is
    // tracked (exercised indirectly by the update path).
    for (int i = 0; i < 4000; ++i) {
        const auto set = static_cast<std::uint32_t>(rng.nextBounded(64));
        const Addr block = rng.nextBounded(1 << 18);
        const Pc pc = 0x400000 + 4 * rng.nextBounded(32);
        const auto type = static_cast<AccessType>(rng.nextBounded(4));
        const std::uint32_t victim =
            policy->findVictim(set, pc, block, type);
        if (victim == ReplacementPolicy::kBypassWay)
            continue;
        ASSERT_LT(victim, ways);
        policy->update(set, victim, pc, block, type, rng.nextBool(0.4));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PolicyGeometryTest,
    ::testing::Combine(
        ::testing::Values("lru", "plru", "srrip", "drrip", "dip", "ship",
                          "hawkeye", "glider", "mpppb"),
        ::testing::Values(1u, 2u, 4u, 11u, 16u)),
    [](const ::testing::TestParamInfo<PolicyGeometry> &info) {
        return std::get<0>(info.param) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------------- PC region hygiene --

TEST(PcRegions, GapAndSpecSuitesNeverCollide)
{
    // GAP ids start at 0 and the synthetic suites at 100/200; a GAP
    // suite would need >100 workloads to collide.
    ZooOptions options;
    options.scale = 8;
    const auto gap = makeNamedSuite("gap", options);
    EXPECT_LT(gap.size(), 100u);
    const Pc spec06_base =
        PcRegion(100).regionBase();
    const Pc gap_last_end =
        PcRegion(static_cast<std::uint32_t>(gap.size())).regionBase();
    EXPECT_LT(gap_last_end, spec06_base);
}

} // namespace
} // namespace cachescope
