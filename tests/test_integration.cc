/**
 * @file
 * Cross-module integration tests: full Cascade Lake simulations of
 * real (scaled-down) workloads under every policy, checking the
 * physical invariants the paper's figures rest on.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/cascade_lake.hh"
#include "graph/gap_kernels.hh"
#include "graph/gap_suite.hh"
#include "graph/generators.hh"
#include "harness/experiment.hh"
#include "trace/trace_io.hh"
#include "workloads/synthetic.hh"

namespace cachescope {
namespace {

SimConfig
fastConfig(const std::string &policy = "lru")
{
    // Full Cascade Lake shape, short windows to keep tests quick.
    return cascadeLakeConfig(policy, /*warmup=*/50'000,
                             /*measure=*/300'000);
}

std::shared_ptr<const CsrGraph>
sharedGraph()
{
    static auto g = std::make_shared<const CsrGraph>(
        makeKronecker(14, 8, 42));
    return g;
}

class PolicyIntegrationTest : public ::testing::TestWithParam<const char *>
{};

TEST_P(PolicyIntegrationTest, GraphWorkloadRunsSane)
{
    GapWorkload workload(GapKernel::Bfs, "kron14", sharedGraph(), {});
    const SimResult r = runOne(workload, fastConfig(GetParam()));

    EXPECT_EQ(r.core.instructions, 300'000u);
    EXPECT_GT(r.ipc(), 0.01);
    EXPECT_LT(r.ipc(), 4.0);

    // Miss counts cannot grow down the hierarchy (demand misses at a
    // lower level are a subset of upper-level misses plus L1I misses).
    const std::uint64_t upper =
        r.l1d.demandMisses() + r.l1i.demandMisses();
    EXPECT_LE(r.l2.demandMisses(), upper);
    EXPECT_LE(r.llc.demandMisses(), r.l2.demandMisses());

    // DRAM reads correspond to LLC demand misses (plus prefetch = 0).
    EXPECT_EQ(r.dram.reads, r.llc.missesOf(AccessType::Load) +
                            r.llc.missesOf(AccessType::Store));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyIntegrationTest,
                         ::testing::Values("lru", "fifo", "random", "nru",
                                           "plru", "srrip", "brrip",
                                           "drrip", "ship", "hawkeye",
                                           "glider", "mpppb"));

TEST(Integration, GraphMpkiIsBigDataScale)
{
    // The headline characterization: graph processing has MPKI in the
    // tens at every level (paper: 53.2/44.2/41.8 on full-size inputs).
    GapWorkload workload(GapKernel::Cc, "kron14", sharedGraph(), {});
    const SimResult r = runOne(workload, fastConfig());
    EXPECT_GT(r.mpkiL1d(), 10.0);
    EXPECT_GT(r.mpkiL2(), 5.0);
    EXPECT_GE(r.mpkiL1d(), r.mpkiL2());
    EXPECT_GE(r.mpkiL2(), r.mpkiLlc());
}

TEST(Integration, CacheFriendlyWorkloadHasLowLlcMpki)
{
    SynthParams p;
    p.mainBytes = 128 * 1024; // fits in L2
    SyntheticWorkload w("t", SynthPattern::SmallWs, p);
    const SimResult r = runOne(w, fastConfig());
    EXPECT_LT(r.mpkiLlc(), 1.0);
    EXPECT_GT(r.ipc(), 1.0);
}

TEST(Integration, ScanThrashRewardsRrip)
{
    // The canonical RRIP win: a cyclic scan slightly larger than the
    // LLC. LRU misses every access; BRRIP keeps most of the buffer
    // resident.
    SynthParams p;
    p.mainBytes = 1792 * 1024;
    p.aluPerOp = 2;
    SyntheticWorkload w_lru("t", SynthPattern::ScanThrash, p);
    SyntheticWorkload w_brrip("t", SynthPattern::ScanThrash, p);
    const SimResult lru = runOne(w_lru, fastConfig("lru"));
    const SimResult brrip = runOne(w_brrip, fastConfig("brrip"));
    EXPECT_LT(brrip.llc.demandMisses() * 2, lru.llc.demandMisses());
    EXPECT_GT(brrip.ipc(), lru.ipc());
}

TEST(Integration, WritebacksFlowDownToDram)
{
    // A store-heavy workload must generate DRAM writes via dirty
    // evictions cascading down the hierarchy.
    SynthParams p;
    p.mainBytes = 8 * 1024 * 1024;
    SyntheticWorkload w("t", SynthPattern::DeadFill, p);
    const SimResult r = runOne(w, fastConfig());
    EXPECT_GT(r.dram.writes, 1000u);
    EXPECT_GT(r.llc.missesOf(AccessType::Writeback), 0u);
}

TEST(Integration, LargerLlcReducesMissesOnLlcSizedWorkingSet)
{
    // 4 MB cyclic scan: misses the 1.375 MB LLC on every access but
    // fits entirely in an 11 MB LLC. The window is long enough for
    // several wraps so reuse is observable.
    SynthParams p;
    p.mainBytes = 4ull << 20;
    p.aluPerOp = 2;
    SyntheticWorkload w1("t", SynthPattern::ScanThrash, p);
    SyntheticWorkload w2("t", SynthPattern::ScanThrash, p);
    SimConfig small_cfg = cascadeLakeConfig("lru", 50'000, 1'500'000);
    SimConfig big_cfg = small_cfg;
    big_cfg.hierarchy.llc.sizeBytes = 8 * 11 * 128 * 1024; // 11 MB
    const SimResult small_llc = runOne(w1, small_cfg);
    const SimResult big_llc = runOne(w2, big_cfg);
    EXPECT_LT(big_llc.llc.demandMisses() * 4,
              small_llc.llc.demandMisses());
    EXPECT_GT(big_llc.ipc(), small_llc.ipc());
}

TEST(Integration, TraceRoundTripReproducesSimulation)
{
    // Record a workload to a file, replay the file: identical results.
    const std::string path =
        std::string(::testing::TempDir()) + "/roundtrip_sim.trace";
    SynthParams p;
    p.mainBytes = 512 * 1024;
    {
        SyntheticWorkload producer("t", SynthPattern::GatherZipf, p);
        TraceWriter writer(path);
        struct Bounded : InstructionSink
        {
            explicit Bounded(TraceWriter &writer) : out(writer) {}
            void
            onInstruction(const TraceRecord &rec) override
            {
                out.onInstruction(rec);
            }
            bool wantsMore() const override
            {
                return out.recordsWritten() < 400'000;
            }
            TraceWriter &out;
        } sink(writer);
        producer.run(sink);
        writer.onEnd();
    }

    SyntheticWorkload live("t", SynthPattern::GatherZipf, p);
    Simulator live_sim(fastConfig("drrip"));
    live.run(live_sim);

    Simulator replay_sim(fastConfig("drrip"));
    TraceReader reader(path);
    ASSERT_TRUE(reader.replayInto(replay_sim).ok());

    EXPECT_EQ(live_sim.result().core.cycles,
              replay_sim.result().core.cycles);
    EXPECT_EQ(live_sim.result().llc.demandMisses(),
              replay_sim.result().llc.demandMisses());
    std::remove(path.c_str());
}

TEST(Integration, AllSixGapKernelsSimulateUnderAllPaperPolicies)
{
    // Smoke matrix at small scale: no crashes, sane IPC everywhere.
    GapSuiteConfig suite_cfg;
    suite_cfg.scale = 12;
    suite_cfg.avgDegree = 8;
    suite_cfg.includeUniform = false;
    const auto suite = makeGapSuite(suite_cfg);
    ASSERT_EQ(suite.size(), 6u);

    SimConfig cfg = cascadeLakeConfig("lru", 10'000, 100'000);
    SuiteRunner runner(cfg, 2);
    runner.setVerbose(false);
    std::vector<std::string> policies = {"lru"};
    for (const auto &p : paperPolicies())
        policies.push_back(p);
    const SweepResults results =
        runner.runChecked(suite, policies).results;
    ASSERT_EQ(results.size(), 6u);
    for (const auto &[workload, by_policy] : results) {
        ASSERT_EQ(by_policy.size(), 7u) << workload;
        for (const auto &[policy, r] : by_policy) {
            EXPECT_GT(r.ipc(), 0.005) << workload << "/" << policy;
            EXPECT_EQ(r.core.instructions, 100'000u);
        }
    }
}

} // namespace
} // namespace cachescope
