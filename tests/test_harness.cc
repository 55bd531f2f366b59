/**
 * @file
 * Tests for the experiment harness: single runs, the two-pass Belady
 * flow, sweeps, and speedup aggregation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/cascade_lake.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "trace/pc_site.hh"
#include "trace/traced_memory.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"

namespace cachescope {
namespace {

/**
 * A small deterministic workload with LLC-unfriendly cyclic scans plus
 * a hot set, designed so replacement policy quality matters.
 */
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
        TracedArray<std::uint64_t> scan(24 * 1024, space, sink, 1);
        TracedArray<std::uint64_t> hot(1024, space, sink, 2);
        PcRegion region(90);
        const Pc pc_scan = region.allocate();
        const Pc pc_hot = region.allocate();
        const Pc pc_alu = region.allocate();
        InstructionMix mix(sink);
        Rng rng(3);

        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; sink.wantsMore(); ++i) {
            acc += scan.load((i * 8) % scan.size(), pc_scan);
            acc += hot.load(rng.nextBounded(hot.size()), pc_hot);
            mix.alu(pc_alu, 4);
            if ((i & 1023) == 0 && !sink.wantsMore())
                break;
        }
        (void)acc;
        sink.onEnd();
    }

  private:
    std::string displayName;
};

SimConfig
testConfig(const std::string &policy = "lru")
{
    SimConfig cfg = cascadeLakeConfig(policy, /*warmup=*/20'000,
                                      /*measure=*/200'000);
    // Shrink the hierarchy so MiniWorkload stresses the LLC.
    cfg.hierarchy.l1d.sizeBytes = 4 * 1024;
    cfg.hierarchy.l1d.numWays = 4;
    cfg.hierarchy.l2.sizeBytes = 16 * 1024;
    cfg.hierarchy.l2.numWays = 4;
    cfg.hierarchy.llc.sizeBytes = 64 * 1024;
    cfg.hierarchy.llc.numWays = 8;
    cfg.core.simulateFetch = false;
    return cfg;
}

TEST(Harness, RunOneProducesMeasuredWindow)
{
    MiniWorkload w;
    const SimResult r = runOne(w, testConfig());
    EXPECT_EQ(r.core.instructions, 200'000u);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_GT(r.mpkiLlc(), 0.0);
    EXPECT_EQ(r.llcPolicy, "lru");
}

TEST(Harness, ThroughputGaugesAreAlwaysPresentAndFinite)
{
    // A tiny run can finish inside the steady_clock's resolution;
    // the throughput gauge must still come out finite (the divisor is
    // clamped), or BENCH JSON baseline comparisons poison downstream.
    MiniWorkload w;
    SimConfig cfg = testConfig();
    cfg.warmupInstructions = 0;
    cfg.measureInstructions = 100;
    const SimResult r = runOne(w, cfg);
    const auto &gauges = r.extraMetrics.gauges();
    const auto secs = gauges.find("sim.wall_seconds");
    ASSERT_NE(secs, gauges.end());
    EXPECT_TRUE(std::isfinite(secs->second));
    EXPECT_GE(secs->second, 0.0);
    const auto mips = gauges.find("sim.throughput_mips");
    ASSERT_NE(mips, gauges.end());
    EXPECT_TRUE(std::isfinite(mips->second));
    EXPECT_GT(mips->second, 0.0);

    // Set-up (cell start to first consumed instruction) is the head of
    // the warmup phase, for the exact run and for both Belady passes.
    for (const SimResult &result : {r, runBelady(w, cfg)}) {
        const auto &g = result.extraMetrics.gauges();
        const auto setup = g.find("sim.setup_wall_seconds");
        const auto warmup = g.find("sim.warmup_wall_seconds");
        ASSERT_NE(setup, g.end()) << result.llcPolicy;
        ASSERT_NE(warmup, g.end()) << result.llcPolicy;
        EXPECT_TRUE(std::isfinite(setup->second)) << result.llcPolicy;
        EXPECT_GE(setup->second, 0.0) << result.llcPolicy;
        EXPECT_LE(setup->second, warmup->second) << result.llcPolicy;
    }
}

TEST(Harness, BeladyBeatsEveryOnlinePolicyOnLlcMisses)
{
    MiniWorkload w;
    const SimResult opt = runBelady(w, testConfig());
    EXPECT_EQ(opt.llcPolicy, "belady");
    for (const char *policy : {"lru", "srrip", "ship"}) {
        MiniWorkload w2;
        const SimResult online = runOne(w2, testConfig(policy));
        EXPECT_LE(opt.llc.demandMisses(), online.llc.demandMisses())
            << "OPT lost to " << policy;
    }
}

TEST(Harness, SweepCoversGrid)
{
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini.a"),
        std::make_shared<MiniWorkload>("mini.b"),
    };
    SuiteRunner runner(testConfig(), /*jobs=*/2);
    runner.setVerbose(false);
    const SweepResults results =
        runner.run(suite, {"lru", "srrip", "belady"});
    ASSERT_EQ(results.size(), 2u);
    for (const auto &[workload, by_policy] : results) {
        (void)workload;
        ASSERT_EQ(by_policy.size(), 3u);
        EXPECT_GT(by_policy.at("lru").ipc(), 0.0);
        EXPECT_GT(by_policy.at("belady").ipc(), 0.0);
    }
}

TEST(Harness, SweepIsDeterministicAcrossJobCounts)
{
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini.a"),
        std::make_shared<MiniWorkload>("mini.b"),
    };
    SuiteRunner serial(testConfig(), 1);
    SuiteRunner parallel(testConfig(), 4);
    serial.setVerbose(false);
    parallel.setVerbose(false);
    const auto a = serial.run(suite, {"lru", "drrip"});
    const auto b = parallel.run(suite, {"lru", "drrip"});
    for (const auto &[workload, by_policy] : a) {
        for (const auto &[policy, result] : by_policy) {
            EXPECT_EQ(result.core.cycles,
                      b.at(workload).at(policy).core.cycles);
        }
    }
}

TEST(Harness, SpeedupMath)
{
    SweepResults results;
    auto mk = [](double ipc_value) {
        SimResult r;
        r.core.instructions = static_cast<InstCount>(ipc_value * 1000);
        r.core.cycles = 1000;
        return r;
    };
    results["w1"]["lru"] = mk(1.0);
    results["w1"]["x"] = mk(1.1);
    results["w2"]["lru"] = mk(2.0);
    results["w2"]["x"] = mk(1.8);

    const auto per_workload = speedupsOver(results, "x");
    ASSERT_EQ(per_workload.size(), 2u);
    EXPECT_NEAR(per_workload.at("w1"), 1.1, 1e-9);
    EXPECT_NEAR(per_workload.at("w2"), 0.9, 1e-9);
    EXPECT_NEAR(geomeanSpeedup(results, "x"), std::sqrt(1.1 * 0.9),
                1e-9);
    // Missing policies are skipped silently.
    EXPECT_TRUE(speedupsOver(results, "nope").empty());
    EXPECT_DOUBLE_EQ(geomeanSpeedup(results, "nope"), 0.0);
}

TEST(Harness, PaperPolicyListIsThePaperSix)
{
    const auto &policies = paperPolicies();
    ASSERT_EQ(policies.size(), 6u);
    EXPECT_EQ(policies[0], "srrip");
    EXPECT_EQ(policies[3], "hawkeye");
    for (const auto &p : policies)
        EXPECT_TRUE(ReplacementPolicyFactory::isRegistered(p)) << p;
}

// ---------------------------------------------------- fault isolation --

/** A workload that always throws partway into its run. */
class ThrowingWorkload : public Workload
{
  public:
    const std::string &name() const override { return displayName; }

    void
    run(InstructionSink &sink) override
    {
        sink.onInstruction(TraceRecord::alu(1));
        throw std::runtime_error("simulated segfault in kernel");
    }

  private:
    std::string displayName = "exploder";
};

/** Throws on the first @p failures runs, then behaves like mini. */
class FlakyWorkload : public Workload
{
  public:
    explicit FlakyWorkload(int failures) : failuresLeft(failures) {}

    const std::string &name() const override { return displayName; }

    void
    run(InstructionSink &sink) override
    {
        if (failuresLeft-- > 0)
            throw std::runtime_error("transient failure");
        MiniWorkload("mini").run(sink);
    }

  private:
    int failuresLeft;
    std::string displayName = "flaky";
};

TEST(Harness, RunCheckedIsolatesBadPolicyAndThrowingWorkload)
{
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini"),
        std::make_shared<ThrowingWorkload>(),
    };
    SuiteRunner runner(testConfig(), /*jobs=*/2);
    runner.setVerbose(false);
    const SweepReport report =
        runner.runChecked(suite, {"lru", "nosuch_policy"});

    ASSERT_EQ(report.outcomes.size(), 4u);
    EXPECT_EQ(report.failed(), 3u);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.executed, 4u);

    // The one healthy cell completed normally despite its neighbours.
    ASSERT_EQ(report.results.size(), 1u);
    ASSERT_TRUE(report.results.count("mini"));
    ASSERT_TRUE(report.results.at("mini").count("lru"));
    EXPECT_GT(report.results.at("mini").at("lru").ipc(), 0.0);

    for (const CellOutcome &cell : report.outcomes) {
        if (cell.workload == "mini" && cell.policy == "lru") {
            EXPECT_TRUE(cell.ok);
            EXPECT_EQ(cell.attempts, 1u);
            EXPECT_TRUE(cell.error.empty());
            continue;
        }
        EXPECT_FALSE(cell.ok) << cell.workload << "/" << cell.policy;
        EXPECT_FALSE(cell.error.empty());
        if (cell.policy == "nosuch_policy") {
            // Rejected by validation before any simulation ran.
            EXPECT_EQ(cell.attempts, 0u);
            EXPECT_NE(cell.error.find("unknown replacement policy"),
                      std::string::npos);
        } else {
            EXPECT_NE(cell.error.find("simulated segfault"),
                      std::string::npos);
        }
    }
}

TEST(Harness, RetriesAbsorbTransientFailures)
{
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<FlakyWorkload>(/*failures=*/1),
    };
    SuiteRunner runner(testConfig(), 1);
    runner.setVerbose(false);
    runner.setRetries(1);
    const SweepReport report = runner.runChecked(suite, {"lru"});
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_TRUE(report.outcomes[0].ok);
    EXPECT_EQ(report.outcomes[0].attempts, 2u);
    EXPECT_TRUE(report.allOk());
}

TEST(Harness, WithoutRetriesTransientFailureFailsTheCell)
{
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<FlakyWorkload>(/*failures=*/1),
    };
    SuiteRunner runner(testConfig(), 1);
    runner.setVerbose(false);
    const SweepReport report = runner.runChecked(suite, {"lru"});
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_FALSE(report.outcomes[0].ok);
    EXPECT_EQ(report.outcomes[0].attempts, 1u);
    EXPECT_NE(report.outcomes[0].error.find("transient failure"),
              std::string::npos);
}

// -------------------------------------------- failure accounting --

/** Sum of per-cell attempts, for checking sweep.attempts_total. */
std::uint64_t
attemptsSum(const SweepReport &report)
{
    std::uint64_t sum = 0;
    for (const CellOutcome &out : report.outcomes)
        sum += out.attempts;
    return sum;
}

/**
 * The bookkeeping invariants every sweep report must satisfy, however
 * chaotic the run: the sweep.* counters are exactly the outcome list
 * re-aggregated, and every failure carries a description.
 */
void
expectConsistentAccounting(const SweepReport &report)
{
    std::size_t ok = 0, failed = 0, cancelled = 0, restored = 0;
    for (const CellOutcome &out : report.outcomes) {
        ok += out.ok ? 1 : 0;
        failed += out.ok ? 0 : 1;
        cancelled += out.cancelled ? 1 : 0;
        restored += out.fromCheckpoint ? 1 : 0;
        EXPECT_GE(out.wallMs, 0.0);
        if (!out.ok) {
            EXPECT_FALSE(out.error.empty())
                << out.workload << "/" << out.policy;
        }
        if (out.cancelled) {
            EXPECT_FALSE(out.ok);
        }
    }
    const MetricsRegistry &m = report.metrics;
    EXPECT_EQ(m.counter("sweep.cells_total"), report.outcomes.size());
    EXPECT_EQ(m.counter("sweep.cells_ok"), ok);
    EXPECT_EQ(m.counter("sweep.cells_failed"), failed);
    EXPECT_EQ(m.counter("sweep.cells_cancelled"), cancelled);
    EXPECT_EQ(m.counter("sweep.checkpoint_restores"), restored);
    EXPECT_EQ(m.counter("sweep.attempts_total"), attemptsSum(report));
    EXPECT_EQ(m.counter("sweep.executed"), report.executed);
    EXPECT_EQ(report.failed(), failed);
}

/** Failpoint-driven tests leave the global registry disarmed. */
class HarnessFailpoint : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::reset(); }
    void TearDown() override { failpoint::reset(); }
};

TEST_F(HarnessFailpoint, InjectedAttemptFailuresKeepAccountingConsistent)
{
    // Every second simulation attempt dies at the harness boundary;
    // with one retry per cell some cells recover and some do not,
    // depending on scheduling. The books must balance regardless.
    ASSERT_TRUE(
        failpoint::configure("harness.cell.attempt=every(2)").ok());
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini.a"),
        std::make_shared<MiniWorkload>("mini.b"),
    };
    SuiteRunner runner(testConfig(), /*jobs=*/2);
    runner.setVerbose(false);
    runner.setRetries(1);
    const SweepReport report =
        runner.runChecked(suite, {"lru", "srrip"});

    ASSERT_EQ(report.outcomes.size(), 4u);
    EXPECT_EQ(report.executed, 4u);
    expectConsistentAccounting(report);
    for (const CellOutcome &out : report.outcomes) {
        EXPECT_FALSE(out.cancelled);
        EXPECT_GE(out.attempts, 1u);
        EXPECT_LE(out.attempts, 2u);
        if (!out.ok) {
            EXPECT_NE(out.error.find("harness.cell.attempt"),
                      std::string::npos);
        }
    }
}

TEST_F(HarnessFailpoint, RetriedCellCountsEveryAttemptOnce)
{
    ASSERT_TRUE(
        failpoint::configure("harness.cell.attempt=hit(1)").ok());
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini"),
    };
    SuiteRunner runner(testConfig(), 1);
    runner.setVerbose(false);
    runner.setRetries(1);
    const SweepReport report = runner.runChecked(suite, {"lru"});

    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_TRUE(report.outcomes[0].ok);
    EXPECT_EQ(report.outcomes[0].attempts, 2u);
    EXPECT_EQ(report.metrics.counter("sweep.attempts_total"), 2u);
    EXPECT_EQ(report.metrics.counter("sweep.cells_ok"), 1u);
    EXPECT_EQ(report.metrics.counter("sweep.cells_failed"), 0u);
    expectConsistentAccounting(report);
}

TEST_F(HarnessFailpoint, CheckpointRestoreDoesNotDoubleCountWork)
{
    const std::string path =
        ::testing::TempDir() + "/harness_accounting.journal";
    std::remove(path.c_str());
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini"),
    };

    std::uint64_t first_attempts = 0;
    {
        CheckpointJournal journal;
        ASSERT_TRUE(journal.open(path).ok());
        SuiteRunner runner(testConfig(), 1);
        runner.setVerbose(false);
        runner.setCheckpoint(&journal);
        const SweepReport report =
            runner.runChecked(suite, {"lru", "srrip"});
        EXPECT_EQ(report.executed, 2u);
        EXPECT_EQ(report.metrics.counter("sweep.checkpoint_restores"),
                  0u);
        expectConsistentAccounting(report);
        first_attempts = report.metrics.counter("sweep.attempts_total");
    }

    // The resumed run restores both cells: nothing executes, no new
    // attempts are invented, and the accounting still balances.
    CheckpointJournal journal;
    ASSERT_TRUE(journal.open(path).ok());
    SuiteRunner runner(testConfig(), 1);
    runner.setVerbose(false);
    runner.setCheckpoint(&journal);
    const SweepReport report =
        runner.runChecked(suite, {"lru", "srrip"});
    EXPECT_EQ(report.executed, 0u);
    EXPECT_EQ(report.metrics.counter("sweep.checkpoint_restores"), 2u);
    EXPECT_EQ(report.metrics.counter("sweep.cells_ok"), 2u);
    EXPECT_EQ(report.metrics.counter("sweep.attempts_total"),
              first_attempts);
    for (const CellOutcome &out : report.outcomes)
        EXPECT_TRUE(out.fromCheckpoint);
    expectConsistentAccounting(report);
    std::remove(path.c_str());
}

TEST_F(HarnessFailpoint, CellTimeoutReapsHungCellWithoutRetries)
{
    // The cell sleeps 5 s inside the simulation loop; its 0.2 s budget
    // must reap it long before that, and cancellation must not burn
    // the configured retries.
    ASSERT_TRUE(
        failpoint::configure("sim.loop=hit(1):sleep(5000)").ok());
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini"),
    };
    SuiteRunner runner(testConfig(), 1);
    runner.setVerbose(false);
    runner.setRetries(3);
    runner.setCellTimeout(0.2);
    const SweepReport report = runner.runChecked(suite, {"lru"});

    ASSERT_EQ(report.outcomes.size(), 1u);
    const CellOutcome &out = report.outcomes[0];
    EXPECT_FALSE(out.ok);
    EXPECT_TRUE(out.cancelled);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(out.error.rfind("cancelled:", 0), 0u) << out.error;
    EXPECT_LT(out.wallMs, 3000.0);
    EXPECT_EQ(report.metrics.counter("sweep.cells_cancelled"), 1u);
    expectConsistentAccounting(report);
}

TEST_F(HarnessFailpoint, SweepDeadlinePreemptsUnstartedCells)
{
    // One serial worker; the first cell stalls past the 0.25 s sweep
    // deadline, so the remaining cells must be recorded as cancelled
    // sentinels without ever running.
    ASSERT_TRUE(
        failpoint::configure("sim.loop=hit(1):sleep(5000)").ok());
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini.a"),
        std::make_shared<MiniWorkload>("mini.b"),
        std::make_shared<MiniWorkload>("mini.c"),
    };
    SuiteRunner runner(testConfig(), 1);
    runner.setVerbose(false);
    runner.setSweepDeadline(0.25);
    const SweepReport report = runner.runChecked(suite, {"lru"});

    ASSERT_EQ(report.outcomes.size(), 3u);
    EXPECT_EQ(report.metrics.counter("sweep.cells_cancelled"), 3u);
    EXPECT_EQ(report.metrics.counter("sweep.cells_ok"), 0u);
    // The stalled cell consumed the only real attempt.
    EXPECT_EQ(report.outcomes[0].attempts, 1u);
    for (std::size_t i = 1; i < report.outcomes.size(); ++i) {
        EXPECT_EQ(report.outcomes[i].attempts, 0u);
        EXPECT_NE(report.outcomes[i].error.find("cancelled before start"),
                  std::string::npos)
            << report.outcomes[i].error;
    }
    expectConsistentAccounting(report);
}

TEST(Harness, LegacyRunReturnsTheSurvivors)
{
    std::vector<std::shared_ptr<Workload>> suite = {
        std::make_shared<MiniWorkload>("mini"),
        std::make_shared<ThrowingWorkload>(),
    };
    SuiteRunner runner(testConfig(), 1);
    runner.setVerbose(false);
    ::testing::internal::CaptureStderr();
    const SweepResults results = runner.run(suite, {"lru"});
    const std::string log = ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results.count("mini"));
    EXPECT_NE(log.find("exploder"), std::string::npos);
}

} // namespace
} // namespace cachescope
