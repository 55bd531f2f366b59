/**
 * @file
 * Self-tests of the benchmark's own helpers. perfbench/run.py runs
 * them after every build and refuses to measure when one fails.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_lib.hh"
#include "core/cascade_lake.hh"
#include "harness/experiment.hh"
#include "workloads/synthetic.hh"

namespace perfbench {
namespace {

using namespace cachescope;

TEST(TailPercentile, SmallSampleFallsBackToTheMaximum)
{
    const TailStat t = tailPercentile({3.0, 1.0, 2.0});
    EXPECT_EQ(t.value, 3.0);
    EXPECT_EQ(t.percentile, 100.0);
    EXPECT_EQ(t.samples, 3u);
    EXPECT_EQ(t.beyond, 0u);

    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(i);
    EXPECT_EQ(tailPercentile(ten).value, 10.0);
    EXPECT_EQ(tailPercentile(ten).beyond, 0u);
}

TEST(TailPercentile, KeepsTenSamplesBeyond)
{
    // Twenty samples: rank 10 would be below the median; use the max.
    std::vector<double> twenty;
    for (int i = 20; i >= 1; --i)
        twenty.push_back(i);
    EXPECT_EQ(tailPercentile(twenty).value, 20.0);
    EXPECT_EQ(tailPercentile(twenty).beyond, 0u);

    // Twenty-one samples: rank 11 is the median and has 10 beyond.
    twenty.push_back(21);
    const TailStat a = tailPercentile(twenty);
    EXPECT_EQ(a.value, 11.0);
    EXPECT_EQ(a.beyond, 10u);

    std::vector<double> many;
    for (int i = 1; i <= 200; ++i)
        many.push_back(i);
    const TailStat b = tailPercentile(many);
    EXPECT_EQ(b.value, 190.0);
    EXPECT_DOUBLE_EQ(b.percentile, 95.0);
    EXPECT_EQ(b.samples, 200u);
    EXPECT_EQ(b.beyond, 10u);
}

TEST(DigestStripper, KeepsSimulatedStateDropsHostTime)
{
    MetricsRegistry in;
    in.setCounter("cell.a.lru.llc.hits.load", 7);
    in.setGauge("cell.a.lru.derived.mpki_llc", 1.5);
    in.setGauge("cell.a.lru.wall_ms", 12.0);
    in.setGauge("cell.a.lru.sim.wall_seconds", 0.3);
    in.setGauge("cell.a.lru.sim.warmup_wall_seconds", 0.1);
    in.setGauge("cell.a.lru.sim.throughput_mips", 20.0);
    in.setHistogram("sweep.cell_wall_ms", Histogram(10, 4));
    in.setHistogram("cell.a.lru.llc.reuse", Histogram(1, 4));

    const MetricsRegistry out = stripHostTime(in);
    EXPECT_EQ(out.counter("cell.a.lru.llc.hits.load"), 7u);
    EXPECT_TRUE(out.hasGauge("cell.a.lru.derived.mpki_llc"));
    EXPECT_FALSE(out.hasGauge("cell.a.lru.wall_ms"));
    EXPECT_FALSE(out.hasGauge("cell.a.lru.sim.wall_seconds"));
    EXPECT_FALSE(out.hasGauge("cell.a.lru.sim.warmup_wall_seconds"));
    EXPECT_FALSE(out.hasGauge("cell.a.lru.sim.throughput_mips"));
    EXPECT_FALSE(out.hasHistogram("sweep.cell_wall_ms"));
    EXPECT_TRUE(out.hasHistogram("cell.a.lru.llc.reuse"));

    // Host time never moves the digest; simulated state always does.
    MetricsRegistry slower = in;
    slower.setGauge("cell.a.lru.wall_ms", 99.0);
    EXPECT_EQ(treeDigest(in), treeDigest(slower));
    MetricsRegistry different = in;
    different.setCounter("cell.a.lru.llc.hits.load", 8);
    EXPECT_NE(treeDigest(in), treeDigest(different));
}

TEST(SpanSelfTime, NestedAndOverlappingChildren)
{
    // Parent [0, 10]; children [1, 3] and [2, 5] overlap (union 4 s),
    // [4, 6] overlaps the second, [9, 12] sticks out of the parent.
    EXPECT_DOUBLE_EQ(uncoveredTime(0.0, 10.0, {{1.0, 3.0},
                                                {2.0, 5.0},
                                                {4.0, 6.0},
                                                {9.0, 12.0}}),
                     10.0 - 5.0 - 1.0);
    EXPECT_DOUBLE_EQ(uncoveredTime(0.0, 10.0, {}), 10.0);
    EXPECT_DOUBLE_EQ(uncoveredTime(0.0, 10.0, {{-1.0, 11.0}}), 0.0);

    // A grandchild is covered by its parent, not its grandparent.
    std::vector<SpanRecord> spans = {
        {1, 0, "root", 0.0, 10.0},
        {2, 1, "child", 2.0, 6.0},
        {3, 2, "grandchild", 3.0, 4.0},
        {4, 1, "child", 5.0, 8.0},
    };
    EXPECT_DOUBLE_EQ(selfTime(spans, 1), 10.0 - 6.0);
    EXPECT_DOUBLE_EQ(selfTime(spans, 2), 4.0 - 1.0);
    EXPECT_DOUBLE_EQ(selfTime(spans, 3), 1.0);
}

TEST(SpanRecorder, DisabledRecordsNothing)
{
    SpanRecorder off(false);
    {
        ScopedSpan span(off, "x");
        EXPECT_EQ(span.id(), 0u);
    }
    EXPECT_TRUE(off.spans().empty());

    SpanRecorder on(true);
    std::uint64_t parent = 0;
    {
        ScopedSpan outer(on, "outer");
        parent = outer.id();
        ScopedSpan inner(on, "inner", parent);
    }
    const auto spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].parent, parent);
    EXPECT_LE(spans[1].start, spans[0].start);
    EXPECT_GE(spans[1].end, spans[0].end);
}

TEST(CountingWorkload, CountsGeneratorRunsOfASweepWithBelady)
{
    SynthParams params;
    params.mainBytes = 64ull << 10;
    params.aluPerOp = 2;
    SpanRecorder spans(true);
    auto counted = std::make_shared<CountingWorkload>(
        std::make_shared<SyntheticWorkload>("self", SynthPattern::ScanThrash,
                                            params),
        spans);

    SimConfig cfg = cascadeLakeConfig("lru", 1'000, 10'000);
    SuiteRunner runner(cfg, /*jobs=*/2);
    runner.setVerbose(false);
    const SweepReport report =
        runner.runChecked({counted}, {"lru", "srrip", "belady"});
    ASSERT_TRUE(report.allOk());
    // One run per live-policy cell, two for Belady's two passes.
    EXPECT_EQ(counted->runs(), 4u);
    std::size_t run_spans = 0;
    for (const SpanRecord &s : spans.spans())
        run_spans += s.name == "workload.run";
    EXPECT_EQ(run_spans, 4u);
    // The decorator is invisible to the simulated results.
    const SweepReport plain = runner.runChecked(
        {std::make_shared<SyntheticWorkload>("self",
                                             SynthPattern::ScanThrash,
                                             params)},
        {"lru", "srrip", "belady"});
    ASSERT_TRUE(plain.allOk());
    EXPECT_EQ(treeDigest(report.metrics), treeDigest(plain.metrics));
}

} // namespace
} // namespace perfbench
