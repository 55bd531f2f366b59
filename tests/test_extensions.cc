/**
 * @file
 * Tests for the extension features: direction-optimizing BFS, the
 * trace-file workload adapter, and the shared result reporting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>

#include "core/cascade_lake.hh"
#include "graph/gap_kernels.hh"
#include "graph/generators.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/workload_zoo.hh"
#include "test_helpers.hh"
#include "trace/trace_workload.hh"
#include "workloads/synthetic.hh"

namespace cachescope {
namespace {

std::shared_ptr<const CsrGraph>
doGraph()
{
    static auto g = std::make_shared<const CsrGraph>(
        makeKronecker(12, 8, 42));
    return g;
}

GapKernelParams
doParams()
{
    GapKernelParams params;
    params.directionOptimizingBfs = true;
    params.maxRepeats = 1;
    return params;
}

TEST(DirectionOptimizingBfs, RunsAndIsDeterministic)
{
    GapWorkload w1(GapKernel::Bfs, "kron12", doGraph(), doParams());
    GapWorkload w2(GapKernel::Bfs, "kron12", doGraph(), doParams());
    test::HashingSink a, b;
    w1.run(a);
    w2.run(b);
    EXPECT_GT(a.count, 10000u);
    EXPECT_EQ(a.hash, b.hash);
}

TEST(DirectionOptimizingBfs, DiffersFromTopDown)
{
    GapKernelParams plain = doParams();
    plain.directionOptimizingBfs = false;
    GapWorkload top_down(GapKernel::Bfs, "kron12", doGraph(), plain);
    GapWorkload dir_opt(GapKernel::Bfs, "kron12", doGraph(), doParams());
    test::HashingSink a, b;
    top_down.run(a);
    dir_opt.run(b);
    EXPECT_NE(a.hash, b.hash);
}

TEST(DirectionOptimizingBfs, UsesBottomUpOnKron)
{
    // On a Kronecker graph the frontier explodes after a level or two,
    // so the bottom-up switch must fire: observable as loads of the
    // frontier bitmap (the fourth traced array region).
    GapWorkload w(GapKernel::Bfs, "kron12", doGraph(), doParams());
    test::VectorSink sink;
    w.run(sink);
    // The front bitmap is the third allocation (oa, na, parent, front):
    // count loads of byte-sized records (the bitmap probe).
    std::uint64_t byte_loads = 0;
    for (const auto &rec : sink.records) {
        if (rec.kind == InstKind::Load && rec.size == 1)
            ++byte_loads;
    }
    EXPECT_GT(byte_loads, 1000u);
}

TEST(DirectionOptimizingBfs, RespectsBudget)
{
    GapKernelParams params = doParams();
    params.maxRepeats = 1024;
    GapWorkload w(GapKernel::Bfs, "kron12", doGraph(), params);
    test::BoundedSink sink(300000);
    w.run(sink);
    EXPECT_EQ(sink.consumed, 300000u);
    EXPECT_LT(sink.overflow, 100000u);
}

TEST(DirectionOptimizingBfs, AvailableViaZoo)
{
    ZooOptions options;
    options.scale = 10;
    auto w = makeNamedWorkload("bfs_do", options);
    EXPECT_EQ(w->name(), "bfs.kron10");
    test::BoundedSink sink(50000);
    w->run(sink);
    EXPECT_EQ(sink.consumed, 50000u);
}

// --------------------------------------------------- TraceFileWorkload --

TEST(TraceFileWorkloadTest, ReplaysDeterministically)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/tfw.trace";
    {
        TraceWriter writer(path);
        for (int i = 0; i < 5000; ++i) {
            writer.onInstruction(
                TraceRecord::load(0x400000, static_cast<Addr>(i) * 64));
            writer.onInstruction(TraceRecord::alu(0x400004));
        }
        writer.onEnd();
    }

    TraceFileWorkload workload(path, "captured");
    EXPECT_EQ(workload.name(), "captured");
    EXPECT_EQ(workload.numRecords(), 10000u);

    test::HashingSink a, b;
    workload.run(a);
    workload.run(b); // a second run re-opens the file
    EXPECT_EQ(a.count, 10000u);
    EXPECT_EQ(a.hash, b.hash);
    std::remove(path.c_str());
}

TEST(TraceFileWorkloadTest, StopsAtSinkBudget)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/tfw2.trace";
    {
        TraceWriter writer(path);
        for (int i = 0; i < 5000; ++i)
            writer.onInstruction(TraceRecord::alu(1));
        writer.onEnd();
    }
    TraceFileWorkload workload(path);
    test::BoundedSink sink(100);
    workload.run(sink);
    EXPECT_EQ(sink.consumed, 100u);
    EXPECT_LE(sink.overflow, 1u);
    std::remove(path.c_str());
}

TEST(TraceFileWorkloadTest, WorksInSweeps)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/tfw3.trace";
    {
        SynthParams p;
        p.mainBytes = 256 * 1024;
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
            bool
            wantsMore() const override
            {
                return out.recordsWritten() < 200'000;
            }
            TraceWriter &out;
        } sink(writer);
        producer.run(sink);
        writer.onEnd();
    }

    auto workload = std::make_shared<TraceFileWorkload>(path, "zipf");
    SuiteRunner runner(cascadeLakeConfig("lru", 10'000, 100'000), 2);
    runner.setVerbose(false);
    const SweepResults results = runner.runChecked({workload}, {"lru", "drrip"}).results;
    EXPECT_EQ(results.at("zipf").size(), 2u);
    EXPECT_GT(results.at("zipf").at("drrip").ipc(), 0.0);
    std::remove(path.c_str());
}

TEST(TraceFileWorkloadDeathTest, BadPathFailsAtConstruction)
{
    EXPECT_EXIT(TraceFileWorkload workload("/no/such/file.trace"),
                ::testing::ExitedWithCode(1), "cannot open");
}

// ----------------------------------------------------- policy debugState --

TEST(DebugState, StatelessPoliciesReturnEmpty)
{
    const CacheGeometry geom{64, 8, 64};
    for (const char *name : {"lru", "fifo", "random", "nru", "plru"}) {
        auto policy = ReplacementPolicyFactory::create(name, geom);
        EXPECT_TRUE(policy->debugState().empty()) << name;
    }
}

TEST(DebugState, AdaptivePoliciesReportState)
{
    const CacheGeometry geom{64, 8, 64};
    for (const char *name : {"drrip", "dip", "ship", "hawkeye", "mpppb"}) {
        auto policy = ReplacementPolicyFactory::create(name, geom);
        EXPECT_FALSE(policy->debugState().empty()) << name;
    }
    auto drrip = ReplacementPolicyFactory::create("drrip", geom);
    EXPECT_NE(drrip->debugState().find("psel="), std::string::npos);
}

TEST(DebugState, ReachesSimResult)
{
    ZooOptions options;
    options.synthMainBytes = 512 * 1024;
    auto w = makeNamedWorkload("gather_zipf", options);
    SimConfig cfg = cascadeLakeConfig("ship", 10'000, 100'000);
    const SimResult r = runOne(*w, cfg);
    EXPECT_NE(r.llcPolicyState.find("shct"), std::string::npos);
    auto w2 = makeNamedWorkload("gather_zipf", options);
    const SimResult opt = runBelady(*w2, cfg);
    EXPECT_TRUE(opt.llcPolicyState.empty());
}

// --------------------------------------------------------- report table --

TEST(Report, TableCarriesCoreMetrics)
{
    SimResult r;
    r.core.instructions = 1000;
    r.core.cycles = 500;
    const Table table = simResultTable(r);
    EXPECT_GT(table.numRows(), 8u);
    EXPECT_EQ(table.cell(0, 0), "IPC");
    EXPECT_EQ(table.cell(0, 1), "2.000");
}

TEST(Report, PrefetchRowsOnlyWhenActive)
{
    SimResult without;
    SimResult with;
    with.l2.prefetchesIssued = 100;
    with.l2.prefetchesUseful = 80;
    EXPECT_EQ(simResultTable(with).numRows(),
              simResultTable(without).numRows() + 2);
    std::ostringstream os;
    printSimResult(with, os);
    EXPECT_NE(os.str().find("prefetch accuracy"), std::string::npos);
}

} // namespace
} // namespace cachescope
