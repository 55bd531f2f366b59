/**
 * @file
 * The cachescope command-line driver — the front door for downstream
 * users who want simulations without writing C++.
 *
 * Subcommands:
 *   policies                     list replacement policies/prefetchers
 *   run      --workload W ...    simulate one workload, print stats
 *   sweep    --suite S ...       workload x policy grid + speedups
 *   capture  --workload W --out F  record a binary trace
 *   replay   --trace F ...       simulate from a trace file
 *
 * Run `cachescope <subcommand> --help` (or no arguments) for the
 * option list.
 *
 * Exit codes: 0 success; 1 bad input (flags, configuration, unusable
 * trace); 2 a sweep finished but one or more cells failed (the table
 * of successful cells and a failure summary are still printed);
 * 130/143 interrupted by SIGINT/SIGTERM after in-flight cells were
 * cooperatively cancelled and completed work was checkpointed.
 */

#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <algorithm>

#include "core/cascade_lake.hh"
#include "harness/checkpoint.hh"
#include "harness/corun.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/workload_zoo.hh"
#include "stats/metrics.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "trace/trace_io.hh"
#include "util/cancel.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace cachescope;

namespace {

/**
 * Fired by the SIGINT/SIGTERM handler; sweeps chain to it so ^C stops
 * scheduling new cells and cooperatively unwinds in-flight ones while
 * completed work still reaches the checkpoint journal.
 */
CancelToken g_signalToken;
/** The delivered signal number (0 = none), for the 128+N exit code. */
std::atomic<int> g_signalNumber{0};

extern "C" void
onTerminationSignal(int signo)
{
    // Async-signal-safe: one relaxed store + one CAS, no allocation,
    // no locks, no stdio.
    g_signalNumber.store(signo, std::memory_order_relaxed);
    g_signalToken.requestCancel(CancelReason::Signal);
}

void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onTerminationSignal;
    sigemptyset(&sa.sa_mask);
    // SA_RESETHAND: the first signal requests a graceful stop; a
    // second one gets the default disposition and kills immediately,
    // so an operator is never trapped behind a wedged shutdown.
    sa.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

/** Tiny flag parser: --key value pairs plus boolean --key. */
class Args
{
  public:
    // GCC 12 reports a spurious -Wrestrict (PR105329) when it inlines
    // these map inserts into main; the copies are tiny and disjoint.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0)
                fatal("unexpected argument '%s'", argv[i]);
            const std::string key(argv[i] + 2);
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
                values.insert_or_assign(key, argv[++i]);
            } else {
                values.insert_or_assign(key, "1");
            }
        }
    }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    std::uint64_t
    getU64(const std::string &key, std::uint64_t fallback) const
    {
        auto it = values.find(key);
        if (it == values.end())
            return fallback;
        auto parsed = parseU64(it->second);
        if (!parsed.ok()) {
            fatal("flag --%s: %s", key.c_str(),
                  parsed.status().message().c_str());
        }
        return parsed.take();
    }

    /**
     * Strictly parsed non-negative seconds (fractions allowed);
     * rejects negatives, inf/nan, and trailing garbage via
     * parseF64NonNegative rather than silently truncating.
     */
    double
    getSeconds(const std::string &key, double fallback) const
    {
        auto it = values.find(key);
        if (it == values.end())
            return fallback;
        auto parsed = parseF64NonNegative(it->second);
        if (!parsed.ok()) {
            fatal("flag --%s: %s", key.c_str(),
                  parsed.status().message().c_str());
        }
        return parsed.take();
    }

    bool has(const std::string &key) const { return values.count(key); }

  private:
    std::map<std::string, std::string> values;
};

/** Wall-clock stopwatch for --metrics-json timing. */
class WallTimer
{
  public:
    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};

/**
 * Honour --metrics-json FILE: dump @p metrics as a
 * cachescope-metrics-v1 document. @return 0, or 1 on write failure.
 */
int
emitMetricsJson(const Args &args, const std::string &name, double wall_ms,
                const MetricsRegistry &metrics)
{
    if (!args.has("metrics-json"))
        return 0;
    MetricsDocument doc;
    doc.name = name;
    doc.wallMs = wall_ms;
    doc.metrics = metrics;
    const std::string path = args.get("metrics-json", "metrics.json");
    if (Status s = writeMetricsJsonFile(doc, path); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.message().c_str());
        return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", path.c_str());
    return 0;
}

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string>
splitCsv(const std::string &list)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > pos)
            items.push_back(list.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return items;
}

ZooOptions
zooOptionsFrom(const Args &args)
{
    ZooOptions options;
    options.scale = static_cast<unsigned>(args.getU64("scale", 19));
    options.avgDegree = static_cast<unsigned>(args.getU64("degree", 8));
    options.seed = args.getU64("seed", 42);
    options.uniformGraph = args.has("uniform");
    options.synthMainBytes = args.getU64("synth-mb", 8) << 20;
    return options;
}

SimConfig
configFrom(const Args &args, const std::string &policy)
{
    SimConfig cfg = cascadeLakeConfig(
        policy, args.getU64("warmup", 500'000),
        args.getU64("measure", 5'000'000));
    if (args.has("llc-kb")) {
        cfg.hierarchy.llc.sizeBytes = args.getU64("llc-kb", 1408) * 1024;
    }
    cfg.hierarchy.l2.prefetcher = args.get("prefetcher", "none");
    // --warmup-mode functional skips core/DRAM timing until the warmup
    // boundary (measured cache counters stay bit-identical to timed).
    const std::string warmup_mode = args.get("warmup-mode", "timed");
    if (warmup_mode == "functional")
        cfg.warmupMode = WarmupMode::Functional;
    else if (warmup_mode != "timed")
        fatal("flag --warmup-mode: expected 'timed' or 'functional', "
              "got '%s'", warmup_mode.c_str());
    // --sample-sets N (or the paper-style "1/N" spelling): simulate a
    // deterministic 1-in-N subset of LLC sets; estimates land under
    // llc.sampled.*. Validation of N (power of two <= set count)
    // happens in CacheConfig::validate.
    if (args.has("sample-sets")) {
        std::string spec = args.get("sample-sets", "1");
        if (spec.rfind("1/", 0) == 0)
            spec = spec.substr(2);
        char *end = nullptr;
        const unsigned long long n = std::strtoull(spec.c_str(), &end, 10);
        if (end == spec.c_str() || *end != '\0' || n == 0 ||
            n > (1ull << 31)) {
            fatal("flag --sample-sets: expected N or 1/N with N in "
                  "[1, 2^31], got '%s'",
                  args.get("sample-sets", "1").c_str());
        }
        cfg.hierarchy.llc.sampleSets = static_cast<std::uint32_t>(n);
    }
    // --profile (every set) or --profile N (1-in-N set sampling).
    // Parsed here so run, sweep, replay and corun all honour it.
    if (args.has("profile")) {
        const std::uint64_t rate = args.getU64("profile", 1);
        if (rate == 0 || rate > (1ull << 31))
            fatal("flag --profile: sample rate must be in [1, 2^31]");
        cfg.profile.enabled = true;
        cfg.profile.sampleRate = static_cast<std::uint32_t>(rate);
    }
    return cfg;
}

/** One-line human summary of a run's profile.* subtree (if present). */
void
printProfileSummary(const MetricsRegistry &metrics)
{
    if (!metrics.hasCounter("profile.demand_accesses"))
        return;
    std::printf(
        "profile: %llu distinct LLC PCs; top-8 cover %.1f%% of demand "
        "accesses (%llu PC(s) for 90%%); footprint ~%llu blocks; "
        "pc entropy %.2f bits (1-in-%llu sets)\n",
        static_cast<unsigned long long>(
            metrics.counter("profile.distinct_pcs")),
        metrics.gauge("profile.concentration.top_8") * 100.0,
        static_cast<unsigned long long>(
            metrics.counter("profile.pcs_for_90pct")),
        static_cast<unsigned long long>(
            metrics.counter("profile.footprint_blocks")),
        metrics.gauge("profile.pc_entropy_bits"),
        static_cast<unsigned long long>(
            metrics.counter("profile.sample_rate")));
}

int
cmdPolicies()
{
    std::printf("replacement policies:");
    for (const auto &name : ReplacementPolicyFactory::availablePolicies())
        std::printf(" %s", name.c_str());
    std::printf(" belady(offline)\nprefetchers: none");
    for (const auto &name : availablePrefetchers())
        std::printf(" %s", name.c_str());
    std::printf("\nworkloads:");
    for (const auto &name : zooWorkloadNames())
        std::printf(" %s", name.c_str());
    std::printf("\nsuites: gap spec06 spec17\n");
    return 0;
}

int
cmdRun(const Args &args)
{
    const std::string policy = args.get("policy", "lru");
    auto workload_or = tryMakeNamedWorkload(args.get("workload", "bfs"),
                                            zooOptionsFrom(args));
    if (!workload_or.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     workload_or.status().message().c_str());
        return 1;
    }
    auto workload = workload_or.take();
    const SimConfig cfg =
        configFrom(args, policy == "belady" ? "lru" : policy);
    if (Status valid = cfg.validate(); !valid.ok()) {
        std::fprintf(stderr, "error: %s\n", valid.message().c_str());
        return 1;
    }
    std::fprintf(stderr, "running %s under %s...\n",
                 workload->name().c_str(), policy.c_str());
    const WallTimer timer;
    const SimResult r = policy == "belady" ? runBelady(*workload, cfg)
                                           : runOne(*workload, cfg);
    const double wall_ms = timer.elapsedMs();
    printSimResult(r, std::cout);
    if (!r.llcPolicyState.empty()) {
        std::printf("llc policy state: %s\n",
                    r.llcPolicyState.c_str());
    }
    {
        const auto &gauges = r.extraMetrics.gauges();
        const auto mips = gauges.find("sim.throughput_mips");
        std::printf("wall-clock: %.1f ms (%.1f simulated MIPS)\n",
                    wall_ms,
                    mips == gauges.end() ? 0.0 : mips->second);
    }
    MetricsRegistry metrics;
    r.exportMetrics(metrics);
    printProfileSummary(metrics);
    return emitMetricsJson(
        args, "run:" + workload->name() + ":" + policy, wall_ms, metrics);
}

int
cmdSweep(const Args &args)
{
    auto suite_or = tryMakeNamedSuite(args.get("suite", "gap"),
                                      zooOptionsFrom(args));
    if (!suite_or.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     suite_or.status().message().c_str());
        return 1;
    }
    const auto suite = suite_or.take();

    std::vector<std::string> policies = {"lru"};
    for (std::string &name : splitCsv(
             args.get("policies", "srrip,drrip,ship,hawkeye,glider,mpppb"))) {
        if (name != "lru")
            policies.push_back(std::move(name));
    }

    SuiteRunner runner(configFrom(args, "lru"),
                       static_cast<unsigned>(args.getU64("jobs", 0)));
    runner.setRetries(static_cast<unsigned>(args.getU64("retries", 0)));
    // --fast-sweep: functional warmup + 1/16 LLC set-sampling per cell
    // (an explicit --sample-sets > 1 overrides the preset's 16).
    runner.setFastSweep(args.has("fast-sweep"));
    runner.setCellTimeout(args.getSeconds("cell-timeout-s", 0.0));
    runner.setSweepDeadline(args.getSeconds("deadline-s", 0.0));
    runner.setCancelToken(&g_signalToken);

    CheckpointJournal journal;
    if (args.has("checkpoint")) {
        const std::string path = args.get("checkpoint", "");
        journal.setSync(args.has("checkpoint-sync"));
        if (Status s = journal.open(path); !s.ok()) {
            std::fprintf(stderr, "error: %s\n", s.message().c_str());
            return 1;
        }
        if (journal.completedCells() > 0) {
            std::fprintf(stderr,
                         "resuming from '%s': %zu cell(s) already "
                         "complete\n",
                         path.c_str(), journal.completedCells());
        }
        runner.setCheckpoint(&journal);
    }

    const WallTimer timer;
    const SweepReport report = runner.runChecked(suite, policies);
    const double wall_ms = timer.elapsedMs();
    const SweepResults &results = report.results;

    // Render every workload that produced at least one result; cells
    // whose run failed (or whose LRU baseline is missing) print "-".
    std::vector<std::string> columns = {"workload", "lru_ipc"};
    for (std::size_t i = 1; i < policies.size(); ++i)
        columns.push_back(policies[i]);
    Table table(columns);
    for (const auto &[workload, by_policy] : results) {
        table.newRow();
        table.addCell(workload);
        const auto lru = by_policy.find("lru");
        if (lru == by_policy.end())
            table.addCell("-");
        else
            table.addNumber(lru->second.ipc(), 3);
        for (std::size_t i = 1; i < policies.size(); ++i) {
            const auto p = by_policy.find(policies[i]);
            if (p == by_policy.end() || lru == by_policy.end() ||
                lru->second.ipc() <= 0.0) {
                table.addCell("-");
            } else {
                table.addNumber(p->second.ipc() / lru->second.ipc(), 4);
            }
        }
    }
    table.newRow();
    table.addCell("geomean");
    table.addCell("-");
    for (std::size_t i = 1; i < policies.size(); ++i)
        table.addNumber(geomeanSpeedup(results, policies[i]), 4);
    table.printAscii(std::cout);

    // Total wall-clock and aggregate simulated MIPS (instructions
    // simulated in this process / sweep wall time; checkpoint-restored
    // cells did their work in an earlier process and are excluded).
    {
        double instructions = 0.0;
        std::size_t simulated = 0;
        for (const auto &outcome : report.outcomes) {
            if (!outcome.ok || outcome.fromCheckpoint)
                continue;
            const auto &gauges = outcome.result.extraMetrics.gauges();
            const auto secs = gauges.find("sim.wall_seconds");
            const auto mips = gauges.find("sim.throughput_mips");
            if (secs == gauges.end() || mips == gauges.end())
                continue;
            instructions += mips->second * 1e6 * secs->second;
            ++simulated;
        }
        std::printf("sweep wall-clock: %.1f s, %zu cell(s) simulated "
                    "(aggregate %.1f simulated MIPS)\n",
                    wall_ms / 1000.0, simulated,
                    wall_ms > 0.0 ? instructions / (wall_ms * 1000.0)
                                  : 0.0);
    }

    if (int rc = emitMetricsJson(args, "sweep:" + args.get("suite", "gap"),
                                 wall_ms, report.metrics);
        rc != 0) {
        return rc;
    }

    if (!report.allOk()) {
        std::fprintf(stderr, "\n%zu of %zu cell(s) FAILED:\n",
                     report.failed(), report.outcomes.size());
        for (const auto &outcome : report.outcomes) {
            if (!outcome.ok) {
                std::fprintf(stderr, "  %s/%s: %s\n",
                             outcome.workload.c_str(),
                             outcome.policy.c_str(),
                             outcome.error.c_str());
            }
        }
    }

    // A termination signal trumps the failed-cells code: 128+N tells
    // the caller the sweep was interrupted, and the stderr summary
    // says how much of it survives in the journal for --checkpoint
    // resumption.
    if (const int signo = g_signalNumber.load(); signo != 0) {
        std::size_t done = 0;
        for (const auto &outcome : report.outcomes)
            if (outcome.ok)
                ++done;
        std::fprintf(stderr,
                     "\ninterrupted by %s: %zu of %zu cell(s) "
                     "complete%s\n",
                     signo == SIGINT ? "SIGINT" : "SIGTERM", done,
                     report.outcomes.size(),
                     args.has("checkpoint")
                         ? " and checkpointed; re-run with the same "
                           "--checkpoint to resume"
                         : " (no --checkpoint: progress is lost)");
        return 128 + signo;
    }
    return report.allOk() ? 0 : 2;
}

int
cmdCorun(const Args &args)
{
    const std::string spec = args.get("cores", "");
    if (spec.empty()) {
        std::fprintf(stderr,
                     "error: corun needs --cores t1,t2,... (zoo "
                     "workload names or trace paths, one per core)\n");
        return 1;
    }
    const std::vector<std::string> names = splitCsv(spec);

    // Each --cores item is a zoo workload if the zoo knows the name,
    // otherwise a trace file path.
    const std::vector<std::string> &zoo = zooWorkloadNames();
    std::vector<CorunTenant> tenants;
    for (const std::string &name : names) {
        if (std::find(zoo.begin(), zoo.end(), name) != zoo.end()) {
            auto workload_or =
                tryMakeNamedWorkload(name, zooOptionsFrom(args));
            if (!workload_or.ok()) {
                std::fprintf(stderr, "error: %s\n",
                             workload_or.status().message().c_str());
                return 1;
            }
            tenants.push_back(
                CorunTenant::fromWorkload(workload_or.take()));
        } else {
            tenants.push_back(CorunTenant::fromTrace(name));
        }
    }

    const std::string policy = args.get("policy", "lru");
    CorunRunOptions options;
    options.config.base = configFrom(args, policy);
    options.config.llcWaysPerCore =
        static_cast<std::uint32_t>(args.getU64("llc-ways-per-core", 0));
    options.config.tagStreams = !args.has("no-tag");
    options.soloBaselines = args.has("baselines");

    std::fprintf(stderr, "co-running %zu tenant(s) under %s...\n",
                 tenants.size(), policy.c_str());
    const WallTimer timer;
    auto report_or = runCorun(tenants, options);
    if (!report_or.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     report_or.status().message().c_str());
        return 1;
    }
    const CorunReport report = report_or.take();
    const double wall_ms = timer.elapsedMs();

    std::vector<std::string> columns = {"core", "tenant", "instructions",
                                        "ipc", "llc_mpki"};
    if (options.soloBaselines)
        columns.push_back("vs_solo");
    Table table(columns);
    for (std::size_t i = 0; i < report.result.cores.size(); ++i) {
        const SimResult &core = report.result.cores[i];
        table.newRow();
        table.addCell(std::to_string(i));
        table.addCell(report.tenantNames[i]);
        table.addCell(std::to_string(core.core.instructions));
        table.addNumber(core.ipc(), 3);
        table.addNumber(mpki(report.result.llcPerCore[i].demandMisses(),
                             core.core.instructions),
                        2);
        if (options.soloBaselines) {
            const double solo = report.soloIpc[i];
            if (solo > 0.0)
                table.addNumber(core.ipc() / solo, 4);
            else
                table.addCell("-");
        }
    }
    table.printAscii(std::cout);

    std::printf("aggregate ipc: %.3f\n", report.result.ipcSum());
    if (options.soloBaselines && report.result.cores.size() >= 2) {
        std::printf("weighted speedup: %.3f  fairness: %.3f\n",
                    report.weightedSpeedup, report.fairness);
    }
    MetricsRegistry metrics;
    report.exportMetrics(metrics);
    std::printf("wall-clock: %.1f ms (%.1f simulated MIPS)\n", wall_ms,
                metrics.gauge("sim.throughput_mips"));
    printProfileSummary(metrics);
    return emitMetricsJson(args, "corun:" + policy, wall_ms, metrics);
}

int
cmdCapture(const Args &args)
{
    const std::string path = args.get("out", "cachescope.trace");
    const std::uint64_t records = args.getU64("records", 10'000'000);
    auto workload_or = tryMakeNamedWorkload(args.get("workload", "bfs"),
                                            zooOptionsFrom(args));
    if (!workload_or.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     workload_or.status().message().c_str());
        return 1;
    }
    auto workload = workload_or.take();

    auto writer_or = TraceWriter::open(path);
    if (!writer_or.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     writer_or.status().message().c_str());
        return 1;
    }
    TraceWriter &writer = *writer_or.value();
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
            // Stop producing on writer errors too (e.g. a full disk);
            // finish() below reports the failure.
            return out.status().ok() && out.recordsWritten() < budget;
        }
        TraceWriter &out;
        std::uint64_t budget;
    } sink(writer, records);
    workload->run(sink);
    if (Status s = writer.finish(); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.message().c_str());
        return 1;
    }
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                path.c_str());
    return 0;
}

int
cmdReplay(const Args &args)
{
    const std::string path = args.get("trace", "cachescope.trace");
    const SimConfig cfg = configFrom(args, args.get("policy", "lru"));
    if (Status valid = cfg.validate(); !valid.ok()) {
        std::fprintf(stderr, "error: %s\n", valid.message().c_str());
        return 1;
    }
    auto reader_or = TraceReader::open(path);
    if (!reader_or.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     reader_or.status().message().c_str());
        return 1;
    }
    const auto start = HostTimes::Clock::now();
    Simulator sim(cfg);
    std::uint64_t replayed = 0;
    if (Status s = reader_or.value()->replayInto(sim, &replayed);
        !s.ok()) {
        std::fprintf(stderr,
                     "error: %s\n(no statistics printed: a partial "
                     "replay would misreport the workload)\n",
                     s.message().c_str());
        return 1;
    }
    MetricsRegistry metrics;
    setThroughputGauges(metrics, "",
                        {.start = start,
                         .end = HostTimes::Clock::now(),
                         .firstInstruction = sim.firstInstructionAt(),
                         .measureStart = sim.barrierOpenedAt(),
                         .instructions = sim.instructionsConsumed()});
    const double wall_ms = metrics.gauge("sim.wall_seconds") * 1000.0;
    std::fprintf(stderr, "replayed %llu records in %.2f s "
                 "(%.1f simulated MIPS)\n",
                 static_cast<unsigned long long>(replayed),
                 wall_ms / 1000.0, metrics.gauge("sim.throughput_mips"));
    sim.warnIfWarmupUnfinished("trace '" + path + "'");
    const SimResult r = sim.result();
    printSimResult(r, std::cout);
    r.exportMetrics(metrics);
    metrics.setCounter("replay.records", replayed);
    printProfileSummary(metrics);
    return emitMetricsJson(args, "replay:" + args.get("policy", "lru"),
                           wall_ms, metrics);
}

void
usage()
{
    std::printf(
        "usage: cachescope <subcommand> [--flag value ...]\n"
        "\n"
        "subcommands:\n"
        "  policies                         list policies/workloads\n"
        "  run     --workload W --policy P  simulate one workload\n"
        "  sweep   --suite S --policies a,b workload x policy grid\n"
        "  corun   --cores t1,t2,...        co-run tenants over one\n"
        "                                   shared LLC (each item is a\n"
        "                                   workload name or trace path)\n"
        "  capture --workload W --out FILE  record a binary trace\n"
        "  replay  --trace FILE --policy P  simulate from a trace\n"
        "\n"
        "common flags: --scale N --degree N --seed N --uniform\n"
        "              --warmup N --measure N --llc-kb N\n"
        "              --warmup-mode timed|functional (functional\n"
        "               warms caches/predictors without core or DRAM\n"
        "               timing; measured cache counters are identical,\n"
        "               warmup wall time shrinks)\n"
        "              --sample-sets N|1/N (simulate a deterministic\n"
        "               1-in-N subset of LLC sets; scaled estimates\n"
        "               and an error gauge land under llc.sampled.*)\n"
        "              --prefetcher none|next_line|stride|streamer\n"
        "              --profile [N] (attach the online PC/address-\n"
        "               correlation profiler to the LLC: per-PC\n"
        "               footprints, reuse distances, entropy and\n"
        "               concentration under profile.*; N = profile\n"
        "               1-in-N sets, default 1 = every set)\n"
        "              --metrics-json FILE (run/sweep/replay: dump the\n"
        "               full counter tree as cachescope-metrics-v1)\n"
        "corun flags:  --llc-ways-per-core K (static way partition:\n"
        "               core c fills ways [c*K,(c+1)*K); 0 = shared)\n"
        "              --baselines (also run each tenant alone and\n"
        "               report weighted speedup and fairness)\n"
        "              --no-tag (do not tag per-core address spaces;\n"
        "               identical tenants then share lines and PCs)\n"
        "sweep flags:  --jobs N --retries N --checkpoint FILE\n"
        "              --fast-sweep (two-speed preset: functional\n"
        "               warmup + 1/16 LLC set-sampling per cell)\n"
        "              (--checkpoint resumes an interrupted sweep,\n"
        "               skipping cells the journal says are complete)\n"
        "              --checkpoint-sync (fsync the journal after\n"
        "               every record: survives machine crashes, not\n"
        "               just process kills)\n"
        "              --cell-timeout-s S (reap any cell past S\n"
        "               seconds as a failed outcome; fractions ok)\n"
        "              --deadline-s S (cancel the whole sweep after S\n"
        "               seconds; finished cells keep their results)\n"
        "debug flags:  --failpoints SPEC (deterministic fault\n"
        "               injection, e.g. 'checkpoint.append=every(3)';\n"
        "               also read from $CACHESCOPE_FAILPOINTS)\n"
        "\n"
        "exit codes: 0 ok; 1 bad input; 2 sweep had failed cells;\n"
        "            130/143 interrupted by SIGINT/SIGTERM (in-flight\n"
        "            cells cancelled, completed cells checkpointed)\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);

    // Fault injection: the environment arms sites first so wrapper
    // scripts can inject without touching flags; an explicit
    // --failpoints then replaces that configuration entirely.
    if (Status s = failpoint::configureFromEnv(); !s.ok())
        fatal("$CACHESCOPE_FAILPOINTS: %s", s.message().c_str());
    if (args.has("failpoints")) {
        if (Status s = failpoint::configure(args.get("failpoints", ""));
            !s.ok()) {
            fatal("--failpoints: %s", s.message().c_str());
        }
    }
    installSignalHandlers();

    if (cmd == "policies")
        return cmdPolicies();
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "corun")
        return cmdCorun(args);
    if (cmd == "capture")
        return cmdCapture(args);
    if (cmd == "replay")
        return cmdReplay(args);
    usage();
    return cmd == "--help" || cmd == "help" ? 0 : 1;
}
