/**
 * @file
 * Unit tests for the CPU timing model: dispatch/retire width limits,
 * load stalls, store-buffer semantics, ROB-bounded MLP, and fetch.
 */

#include <gtest/gtest.h>

#include "core/cascade_lake.hh"
#include "core/cpu_core.hh"

namespace cachescope {
namespace {

/** A tiny hierarchy with fast caches for deterministic latencies. */
HierarchyConfig
tinyHierarchy()
{
    SimConfig base = cascadeLakeConfig();
    HierarchyConfig h = base.hierarchy;
    // Shrink caches so misses are easy to provoke.
    h.l1d.sizeBytes = 4 * 1024;
    h.l1d.numWays = 4;
    h.l2.sizeBytes = 16 * 1024;
    h.l2.numWays = 4;
    h.llc.sizeBytes = 32 * 1024;
    h.llc.numWays = 4;
    return h;
}

/** The shared levels a Simulator would own: DRAM and an LLC over it. */
struct TinySharedLevels
{
    HierarchyConfig config = tinyHierarchy();
    DramModel sharedDram{config.dram};
    DramLevel dramLevel{sharedDram};
    Cache sharedLlc{config.llc, &dramLevel};
};

/** A one-core hierarchy over its own LLC and DRAM (base-from-member:
 *  the shared levels are built before the private ones wire to them). */
struct TinyHierarchy : private TinySharedLevels, public CacheHierarchy
{
    TinyHierarchy() : CacheHierarchy(config, sharedLlc, sharedDram) {}
};

CoreConfig
simpleCore(std::uint32_t rob = 32, std::uint32_t width = 4)
{
    CoreConfig cfg;
    cfg.robSize = rob;
    cfg.dispatchWidth = width;
    cfg.retireWidth = width;
    cfg.simulateFetch = false; // isolate data-path timing
    // Generous MSHRs so the ROB is the binding MLP limit in these
    // unit tests; the MSHR-specific test overrides this.
    cfg.maxOutstandingMisses = 64;
    return cfg;
}

TEST(CpuCore, AluStreamRunsAtDispatchWidth)
{
    TinyHierarchy hier;
    CpuCore core(simpleCore(32, 4), hier);
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        core.onInstruction(TraceRecord::alu(0x400000));
    EXPECT_NEAR(core.stats().ipc(), 4.0, 0.1);
    EXPECT_EQ(core.stats().instructions, static_cast<InstCount>(n));
}

TEST(CpuCore, NarrowerDispatchIsSlower)
{
    TinyHierarchy h1, h2;
    CpuCore wide(simpleCore(32, 4), h1);
    CpuCore narrow(simpleCore(32, 1), h2);
    for (int i = 0; i < 1000; ++i) {
        wide.onInstruction(TraceRecord::alu(0x400000));
        narrow.onInstruction(TraceRecord::alu(0x400000));
    }
    EXPECT_GT(wide.stats().ipc(), 2.0 * narrow.stats().ipc());
    EXPECT_NEAR(narrow.stats().ipc(), 1.0, 0.05);
}

TEST(CpuCore, LoadMissesStallRetirement)
{
    TinyHierarchy hier;
    CpuCore core(simpleCore(), hier);
    // Interleave ALU work with loads streaming over a large footprint:
    // every load misses everywhere, IPC collapses well below width.
    for (int i = 0; i < 20000; ++i) {
        core.onInstruction(
            TraceRecord::load(0x400010, static_cast<Addr>(i) * 64));
        core.onInstruction(TraceRecord::alu(0x400014));
    }
    EXPECT_LT(core.stats().ipc(), 1.0);
    EXPECT_EQ(core.stats().loads, 20000u);
}

TEST(CpuCore, CacheHitsAreFasterThanMisses)
{
    TinyHierarchy h1, h2;
    CpuCore hitting(simpleCore(), h1);
    CpuCore missing(simpleCore(), h2);
    for (int i = 0; i < 10000; ++i) {
        // Hitting core loops over 2 blocks; missing core streams.
        hitting.onInstruction(
            TraceRecord::load(0x400010, (i % 2) * 64));
        missing.onInstruction(
            TraceRecord::load(0x400010, static_cast<Addr>(i) * 64));
    }
    EXPECT_GT(hitting.stats().ipc(), 2.0 * missing.stats().ipc());
}

TEST(CpuCore, StoresDoNotStallRetirement)
{
    TinyHierarchy h1, h2;
    CpuCore storing(simpleCore(), h1);
    CpuCore loading(simpleCore(), h2);
    for (int i = 0; i < 10000; ++i) {
        storing.onInstruction(
            TraceRecord::store(0x400010, static_cast<Addr>(i) * 64));
        loading.onInstruction(
            TraceRecord::load(0x400010, static_cast<Addr>(i) * 64));
    }
    // Both miss constantly, but stores retire through the store buffer.
    EXPECT_GT(storing.stats().ipc(), 2.0 * loading.stats().ipc());
    EXPECT_EQ(storing.stats().stores, 10000u);
    // The stores still produced cache traffic.
    EXPECT_GT(h1.l1d().stats().missesOf(AccessType::Store), 9000u);
}

TEST(CpuCore, BiggerRobExtractsMoreMlp)
{
    // Independent misses overlap within the ROB window; a larger ROB
    // must overlap more of them and finish faster.
    TinyHierarchy h1, h2;
    CpuCore small(simpleCore(/*rob=*/8), h1);
    CpuCore large(simpleCore(/*rob=*/256), h2);
    // Page-strided misses: high per-access latency (row conflicts),
    // low bus utilization -> latency-bound, where run-ahead pays.
    for (int i = 0; i < 20000; ++i) {
        small.onInstruction(
            TraceRecord::load(0x400010, static_cast<Addr>(i) * 4096));
        large.onInstruction(
            TraceRecord::load(0x400010, static_cast<Addr>(i) * 4096));
    }
    EXPECT_GT(large.stats().ipc(), 1.2 * small.stats().ipc());
}

TEST(CpuCore, MshrsBoundMemoryLevelParallelism)
{
    // With a huge ROB, the MSHR count becomes the MLP limit: 2 vs 16
    // MSHRs on a miss stream must differ markedly in throughput.
    CoreConfig few = simpleCore(/*rob=*/256);
    few.maxOutstandingMisses = 2;
    CoreConfig many = simpleCore(/*rob=*/256);
    many.maxOutstandingMisses = 16;
    TinyHierarchy h1, h2;
    CpuCore core_few(few, h1);
    CpuCore core_many(many, h2);
    for (int i = 0; i < 20000; ++i) {
        core_few.onInstruction(
            TraceRecord::load(0x400010, static_cast<Addr>(i) * 4096));
        core_many.onInstruction(
            TraceRecord::load(0x400010, static_cast<Addr>(i) * 4096));
    }
    EXPECT_GT(core_many.stats().ipc(), 2.0 * core_few.stats().ipc());
}

TEST(CpuCore, FetchMissesThrottleTheFrontend)
{
    CoreConfig with_fetch = simpleCore();
    with_fetch.simulateFetch = true;
    TinyHierarchy h1, h2;
    CpuCore fetching(with_fetch, h1);
    CpuCore ideal(simpleCore(), h2);
    // Jump through PC space so every fetch block is new.
    for (int i = 0; i < 20000; ++i) {
        const Pc pc = 0x400000 + static_cast<Pc>(i) * 64;
        fetching.onInstruction(TraceRecord::alu(pc));
        ideal.onInstruction(TraceRecord::alu(pc));
    }
    EXPECT_LT(fetching.stats().ipc(), 0.8 * ideal.stats().ipc());
    EXPECT_GT(h1.l1i().stats().missesOf(AccessType::Load), 19000u);
}

TEST(CpuCore, SequentialCodeFetchesOncePerBlock)
{
    CoreConfig with_fetch = simpleCore();
    with_fetch.simulateFetch = true;
    TinyHierarchy hier;
    CpuCore core(with_fetch, hier);
    // 16 instructions per 64 B block, looping over two blocks; long
    // enough to amortize the two cold fetch misses.
    for (int i = 0; i < 128000; ++i) {
        const Pc pc = 0x400000 + static_cast<Pc>(i % 32) * 4;
        core.onInstruction(TraceRecord::alu(pc));
    }
    const auto &l1i = hier.l1i().stats();
    // Two cold misses, everything else hits.
    EXPECT_EQ(l1i.missesOf(AccessType::Load), 2u);
    EXPECT_NEAR(core.stats().ipc(), 4.0, 0.2);
}

TEST(CpuCore, ResetStatsStartsFreshWindow)
{
    TinyHierarchy hier;
    CpuCore core(simpleCore(), hier);
    for (int i = 0; i < 1000; ++i)
        core.onInstruction(TraceRecord::alu(0x400000));
    core.resetStats();
    EXPECT_EQ(core.stats().instructions, 0u);
    EXPECT_EQ(core.stats().cycles, 0u);
    for (int i = 0; i < 1000; ++i)
        core.onInstruction(TraceRecord::alu(0x400000));
    EXPECT_EQ(core.stats().instructions, 1000u);
    EXPECT_NEAR(core.stats().ipc(), 4.0, 0.2);
}

TEST(CpuCore, BranchesCountAndRetire)
{
    TinyHierarchy hier;
    CpuCore core(simpleCore(), hier);
    for (int i = 0; i < 100; ++i)
        core.onInstruction(TraceRecord::branch(0x400000));
    EXPECT_EQ(core.stats().branches, 100u);
    EXPECT_GT(core.stats().ipc(), 1.0);
}

} // namespace
} // namespace cachescope
