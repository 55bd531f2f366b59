/**
 * @file
 * Golden metric-tree byte-identity test.
 *
 * Runs small deterministic (workload x policy) sweeps — the plain
 * grid, the Belady oracle cells and the --fast-sweep grid — strips
 * the wall-clock noise, serializes each full metric tree to canonical
 * JSON and pins its Checksum64 digest. Any change to a simulated
 * statistic anywhere in the stack — cache bookkeeping, policy
 * decisions, DRAM timing, metric export — shifts a digest and fails
 * here.
 *
 * This is the safety net for hot-path rewrites (SoA tag stores,
 * devirtualized dispatch, batched decode): such refactors must change
 * wall-clock only, never a simulated number. If you changed simulated
 * behavior *on purpose*, re-pin the digest with the value printed
 * by the failing run and say so in the commit message.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cascade_lake.hh"
#include "harness/experiment.hh"
#include "stats/metrics.hh"
#include "util/checksum.hh"
#include "workloads/synthetic.hh"

namespace cachescope {
namespace {

/**
 * Pinned digest of the stripped sweep metric tree. Computed once on
 * the pre-SoA AoS cache (PR 7, first commit); every refactor since
 * must reproduce it bit-for-bit.
 */
constexpr std::uint64_t kGoldenDigest = 0xdcd7b86b2cb67e63ull;

/**
 * Pinned digests of the Belady cells (same suite and config) and of
 * the --fast-sweep grid (kFastSweepPolicies). Both were computed on
 * the two-driver code, before co-run folded into Simulator, and must
 * be reproduced bit-for-bit like kGoldenDigest.
 */
constexpr std::uint64_t kBeladyGoldenDigest = 0x57043968fd13c734ull;

constexpr std::uint64_t kFastSweepGoldenDigest = 0x955dbec35ca67cbeull;

/**
 * Pinned digest of kOtherPolicies on the plain grid, computed before
 * the replacement policies' shared building blocks (set dueling,
 * strided set choice, RRPV victim search, OPTgen chassis) were folded
 * into one copy each; the refactor must reproduce it bit-for-bit.
 */
constexpr std::uint64_t kOtherPoliciesGoldenDigest = 0xc7f038eac2a2882cull;

/**
 * The sweep grid: two synthetic kernels with distinct access-pattern
 * classes (cyclic thrash, skewed hot/cold) over a shrunken hierarchy,
 * crossed with policies covering every devirtualized hit-update fast
 * path (LRU touch, FIFO no-op, NRU mark, RRIP family) plus one
 * learned policy that stays on the virtual slow path.
 */
const std::vector<std::string> kGoldenPolicies = {
    "lru", "fifo", "nru", "srrip", "drrip", "ship",
};

/**
 * Every registered policy kGoldenPolicies leaves out: the remaining
 * baselines, the bimodal and dueling insertion policies, and the
 * learned predictors (OPTgen-trained and perceptron).
 */
const std::vector<std::string> kOtherPolicies = {
    "plru", "random", "bip", "brrip", "dip", "hawkeye", "glider", "mpppb",
};

/** The fast-sweep grid: the same policies plus the Belady oracle. */
const std::vector<std::string> kFastSweepPolicies = {
    "lru", "fifo", "nru", "srrip", "drrip", "ship", "belady",
};

std::vector<std::shared_ptr<Workload>>
goldenSuite()
{
    SynthParams thrash;
    thrash.pcWorkloadId = 61;
    thrash.seed = 11;
    thrash.mainBytes = 96ull << 10; // ~1.5x the shrunken LLC
    thrash.aluPerOp = 2;

    SynthParams hotcold;
    hotcold.pcWorkloadId = 62;
    hotcold.seed = 12;
    hotcold.mainBytes = 256ull << 10;
    hotcold.hotBytes = 24ull << 10;
    hotcold.hotFraction = 0.9;
    hotcold.aluPerOp = 2;

    return {
        std::make_shared<SyntheticWorkload>("golden",
                                            SynthPattern::ScanThrash,
                                            thrash),
        std::make_shared<SyntheticWorkload>("golden",
                                            SynthPattern::HotCold,
                                            hotcold),
    };
}

SimConfig
goldenConfig()
{
    SimConfig cfg = cascadeLakeConfig("lru", /*warmup=*/5'000,
                                      /*measure=*/60'000);
    // Shrink every level so the small kernels produce real LLC traffic
    // (hits, misses, evictions, writebacks) inside the tiny window.
    cfg.hierarchy.l1d.sizeBytes = 4 * 1024;
    cfg.hierarchy.l1d.numWays = 4;
    cfg.hierarchy.l1i.sizeBytes = 4 * 1024;
    cfg.hierarchy.l1i.numWays = 4;
    cfg.hierarchy.l2.sizeBytes = 16 * 1024;
    cfg.hierarchy.l2.numWays = 4;
    cfg.hierarchy.llc.sizeBytes = 64 * 1024;
    cfg.hierarchy.llc.numWays = 8;
    // Prefetchers on two levels so the prefetch flows (issued,
    // useful, prefetched-line bookkeeping) are part of the digest.
    cfg.hierarchy.l1d.prefetcher = "next_line";
    cfg.hierarchy.l2.prefetcher = "stride";
    return cfg;
}

/** One pinned sweep: the grid it runs and the digest it must hit. */
struct GoldenCase
{
    const char *name;
    std::vector<std::string> policies;
    /** SuiteRunner::setFastSweep: functional warmup + 1/16 sampling. */
    bool fastSweep;
    std::uint64_t digest;
};

/**
 * Every pinned grid. The plain grid is the original PR 7 pin; the
 * Belady cell pins the injected-policy path (two passes, oracle
 * policy handed to the simulator) and the fast-sweep grid pins the
 * functional-warmup hand-over and LLC set-sampling, including
 * Belady's all-functional first pass. The other-policies grid pins
 * every remaining registered policy on the plain config.
 */
const std::vector<GoldenCase> &
goldenCases()
{
    static const std::vector<GoldenCase> cases = {
        {"plain", kGoldenPolicies, false, kGoldenDigest},
        {"belady", {"belady"}, false, kBeladyGoldenDigest},
        {"fast-sweep", kFastSweepPolicies, true, kFastSweepGoldenDigest},
        {"other-policies", kOtherPolicies, false, kOtherPoliciesGoldenDigest},
    };
    return cases;
}

TEST(GoldenMetrics, MiniSweepMetricTreeDigestIsPinned)
{
    for (const GoldenCase &c : goldenCases()) {
        SCOPED_TRACE(c.name);
        SuiteRunner runner(goldenConfig(), /*jobs=*/1);
        runner.setVerbose(false);
        runner.setFastSweep(c.fastSweep);
        const SweepReport report =
            runner.runChecked(goldenSuite(), c.policies);
        ASSERT_TRUE(report.allOk());
        ASSERT_EQ(report.outcomes.size(), 2 * c.policies.size());

        MetricsDocument doc;
        doc.name = "golden";
        doc.wallMs = 0.0;
        doc.metrics = withoutHostTime(report.metrics);
        const std::string json = metricsToJson(doc);

        Checksum64 sum;
        sum.update(json.data(), json.size());
        const std::uint64_t digest = sum.digest();

        char actual[32];
        std::snprintf(actual, sizeof(actual), "0x%016llx",
                      static_cast<unsigned long long>(digest));
        EXPECT_EQ(digest, c.digest)
            << "Golden metric tree '" << c.name << "' changed: digest is "
            << "now " << actual << " over " << json.size()
            << " JSON bytes.\n"
            << "A hot-path refactor must NOT get here (it may only "
            << "change wall-clock). If the simulated-behavior change is "
            << "intentional, re-pin the digest in "
            << "tests/test_golden_metrics.cc and justify it in the "
            << "commit.";
    }
}

/**
 * The digest must not depend on scheduling: a parallel sweep of the
 * same grid has to produce the identical stripped tree. This overlaps
 * the difftest serial-vs-jobs invariant but pins it to the exact grid
 * whose digest is golden above.
 */
TEST(GoldenMetrics, ParallelSweepMatchesSerialDigest)
{
    SuiteRunner serial(goldenConfig(), /*jobs=*/1);
    serial.setVerbose(false);
    SuiteRunner parallel(goldenConfig(), /*jobs=*/2);
    parallel.setVerbose(false);

    const SweepReport a = serial.runChecked(goldenSuite(), kGoldenPolicies);
    const SweepReport b = parallel.runChecked(goldenSuite(), kGoldenPolicies);
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());

    MetricsDocument da, db;
    da.name = db.name = "golden";
    da.metrics = withoutHostTime(a.metrics);
    db.metrics = withoutHostTime(b.metrics);
    EXPECT_EQ(metricsToJson(da), metricsToJson(db));
}

} // anonymous namespace
} // namespace cachescope
