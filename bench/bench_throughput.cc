/**
 * @file
 * Simulator throughput benchmark (perf trajectory, not a paper
 * figure): captures the GAP BFS workload to a binary trace, then
 * replays it end-to-end — trace decode, checksum verification, core
 * timing model, full cache hierarchy — and reports wall-clock seconds
 * and simulated MIPS for both phases. A third phase replays the same
 * trace through the two-speed engine's fast-sweep configuration
 * (functional warmup over the first half, 1/16 LLC set-sampling) so
 * its speedup is tracked as "fast.sim.throughput_mips" alongside the
 * exact-path number. A fourth phase times workload generation alone:
 * the bfs and tc GAP suite members at one sweep cell's budget, into a
 * sink that discards every record ("gen.throughput_mips") — the part
 * of every sweep cell that no simulator fast path touches.
 *
 * The replay numbers are the ones the CI perf-smoke job tracks: the
 * sweep wall-clock that gates every experiment in EXPERIMENTS.md is
 * proportional to them. Timing uses steady_clock only (the CI grep
 * guard enforces this repo-wide). MIPS here means "simulated
 * instructions pushed through the pipeline per wall-clock second of
 * host time" — a host-speed-dependent number, only comparable across
 * runs on the same machine (see EXPERIMENTS.md, "Performance
 * methodology").
 *
 * Quick mode (CACHESCOPE_QUICK=1) replays 2M records instead of 20M
 * so the CI job stays time-boxed.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_util.hh"
#include "core/simulator.hh"
#include "graph/gap_suite.hh"
#include "harness/workload_zoo.hh"
#include "trace/trace_io.hh"

using namespace cachescope;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // anonymous namespace

int
main()
{
    bench::banner("throughput",
                  "simulator hot-path throughput (GAP BFS capture + "
                  "replay)",
                  "methodology artifact; tracks simulator speed, not a "
                  "paper figure");
    bench::BenchMetrics bench_metrics("throughput");

    const std::uint64_t records =
        bench::quickMode() ? 2'000'000 : 20'000'000;
    ZooOptions zoo;
    zoo.scale = bench::quickMode() ? 16 : 19;
    const std::string trace_path =
        (std::filesystem::temp_directory_path() /
         "cachescope_bench_throughput.trace")
            .string();

    // --- Phase 1: capture ------------------------------------------------
    auto workload = makeNamedWorkload("bfs", zoo);
    const auto capture_start = std::chrono::steady_clock::now();
    std::uint64_t captured = 0;
    {
        TraceWriter writer(trace_path);
        struct Bounded : InstructionSink
        {
            Bounded(TraceWriter &writer, std::uint64_t budget)
                : out(writer), budget(budget)
            {}
            void
            onInstruction(const TraceRecord &rec) override
            {
                out.onInstruction(rec);
            }
            bool
            wantsMore() const override
            {
                return out.status().ok() &&
                       out.recordsWritten() < budget;
            }
            TraceWriter &out;
            std::uint64_t budget;
        } sink(writer, records);
        workload->run(sink);
        if (Status s = writer.finish(); !s.ok())
            fatal("capture failed: %s", s.message().c_str());
        captured = writer.recordsWritten();
    }
    const double capture_s = secondsSince(capture_start);

    // --- Phase 2: replay (the tracked number) ----------------------------
    // Warmup 0 / measure 0: every record is simulated and counted, so
    // the MIPS figure covers the whole trace, checksum verification
    // included.
    const SimConfig cfg = cascadeLakeConfig("lru", 0, 0);
    auto reader = TraceReader::open(trace_path);
    if (!reader.ok())
        fatal("%s", reader.status().message().c_str());
    Simulator sim(cfg);
    const auto replay_start = std::chrono::steady_clock::now();
    std::uint64_t replayed = 0;
    if (Status s = reader.value()->replayInto(sim, &replayed); !s.ok())
        fatal("replay failed: %s", s.message().c_str());
    const double replay_s = secondsSince(replay_start);
    const double replay_mips = replay_s > 0.0
        ? static_cast<double>(sim.instructionsConsumed()) / replay_s /
          1e6
        : 0.0;

    // --- Phase 3: fast-mode replay (two-speed engine) --------------------
    // Same trace through the fast-sweep configuration — functional
    // warmup over the first half, 1/16 LLC set-sampling throughout —
    // so the speedup the two-speed engine buys is tracked alongside
    // the exact-path number it multiplies.
    SimConfig fast_cfg = cascadeLakeConfig("lru", replayed / 2, 0);
    fast_cfg.warmupMode = WarmupMode::Functional;
    fast_cfg.hierarchy.llc.sampleSets = 16;
    auto fast_reader = TraceReader::open(trace_path);
    if (!fast_reader.ok())
        fatal("%s", fast_reader.status().message().c_str());
    Simulator fast_sim(fast_cfg);
    const auto fast_start = std::chrono::steady_clock::now();
    std::uint64_t fast_replayed = 0;
    if (Status s = fast_reader.value()->replayInto(fast_sim,
                                                   &fast_replayed);
        !s.ok()) {
        fatal("fast replay failed: %s", s.message().c_str());
    }
    const double fast_s = secondsSince(fast_start);
    const double fast_mips = fast_s > 0.0
        ? static_cast<double>(fast_sim.instructionsConsumed()) / fast_s /
          1e6
        : 0.0;

    // --- Phase 4: generation only ----------------------------------------
    // The bfs and tc suite members, each given one sweep cell's budget
    // (warmup + measure) into a sink that counts and drops every record.
    // Each runs twice and only the second run is timed: that is what
    // every later cell of a sweep pays (TC sorts its adjacency on its
    // first run only).
    GapSuiteConfig gen_suite_cfg;
    gen_suite_cfg.scale = zoo.scale;
    gen_suite_cfg.avgDegree = zoo.avgDegree;
    gen_suite_cfg.seed = zoo.seed;
    gen_suite_cfg.includeUniform = false;
    gen_suite_cfg.kernels = {GapKernel::Bfs, GapKernel::Tc};
    const SimConfig cell_cfg = bench::sweepConfig();
    struct Discard : InstructionSink
    {
        explicit Discard(std::uint64_t budget) : budget(budget) {}
        void onInstruction(const TraceRecord &) override { ++seen; }
        bool wantsMore() const override { return seen < budget; }
        std::uint64_t budget;
        std::uint64_t seen = 0;
    };
    double gen_s = 0.0;
    std::uint64_t generated = 0;
    for (const auto &member : makeGapSuite(gen_suite_cfg)) {
        const std::uint64_t budget =
            std::max(cell_cfg.warmupInstructions, member->warmupHint()) +
            cell_cfg.measureInstructions;
        Discard untimed(budget);
        member->run(untimed);
        Discard timed(budget);
        const auto gen_start = std::chrono::steady_clock::now();
        member->run(timed);
        gen_s += secondsSince(gen_start);
        generated += timed.seen;
    }
    const double gen_mips =
        gen_s > 0.0 ? static_cast<double>(generated) / gen_s / 1e6 : 0.0;

    std::error_code ec;
    std::filesystem::remove(trace_path, ec);

    // --- Report ----------------------------------------------------------
    Table table({"phase", "records", "wall_s", "mips"});
    table.newRow();
    table.addCell("capture");
    table.addNumber(static_cast<double>(captured), 0);
    table.addNumber(capture_s, 2);
    table.addNumber(capture_s > 0.0
                        ? static_cast<double>(captured) / capture_s / 1e6
                        : 0.0,
                    1);
    table.newRow();
    table.addCell("replay");
    table.addNumber(static_cast<double>(replayed), 0);
    table.addNumber(replay_s, 2);
    table.addNumber(replay_mips, 1);
    table.newRow();
    table.addCell("fast replay");
    table.addNumber(static_cast<double>(fast_replayed), 0);
    table.addNumber(fast_s, 2);
    table.addNumber(fast_mips, 1);
    table.newRow();
    table.addCell("generation");
    table.addNumber(static_cast<double>(generated), 0);
    table.addNumber(gen_s, 2);
    table.addNumber(gen_mips, 1);
    bench::emitTable(table, "throughput");

    const SimResult result = sim.result();
    bench_metrics.add(result, "replay");
    bench_metrics.add(fast_sim.result(), "fast");
    MetricsRegistry &reg = bench_metrics.registry();
    reg.setCounter("replay.records", replayed);
    reg.setCounter("capture.records", captured);
    reg.setGauge("capture.wall_seconds", capture_s);
    reg.setGauge("sim.wall_seconds", replay_s);
    reg.setGauge("sim.throughput_mips", replay_mips);
    reg.setGauge("fast.sim.wall_seconds", fast_s);
    reg.setGauge("fast.sim.warmup_wall_seconds",
                 fast_sim.warmupWallSeconds());
    reg.setGauge("fast.sim.measure_wall_seconds",
                 fast_sim.measureWallSeconds());
    reg.setGauge("fast.sim.throughput_mips", fast_mips);
    reg.setCounter("gen.records", generated);
    reg.setGauge("gen.wall_seconds", gen_s);
    reg.setGauge("gen.throughput_mips", gen_mips);
    bench_metrics.emit();
    return 0;
}
