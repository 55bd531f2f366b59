/**
 * @file
 * cachescope-soak — chaos soak for the sweep harness.
 *
 * Repeatedly runs a small (workload x policy) sweep in forked child
 * processes while injecting faults and killing children mid-run, all
 * against one shared checkpoint journal, then verifies the harness's
 * crash-consistency story end to end:
 *
 *  - every child ends in a clean report or a clean recoverable error
 *    (exit 0/2/3, an injected abort's exit 42, or the parent's kill
 *    signal) — never a crash of its own;
 *  - the journal reopens cleanly after every death, including hard
 *    kills that tear the trailing record;
 *  - a cell hung by an injected sleep is reaped by --cell-timeout-s
 *    instead of stalling the sweep;
 *  - after all the chaos, resuming the journal produces a metric tree
 *    byte-identical (modulo wall-clock noise) to an uninterrupted run.
 *
 * Cycle kinds rotate deterministically from --seed: a shotgun pass
 * arming every failpoint site at low probability, targeted single-site
 * error/throw schedules, an injected abort (std::_Exit mid-run, no
 * flushing — a simulated SIGKILL), real parent-side SIGKILL/SIGTERM at
 * a random delay, a hang+timeout check, and a trace-I/O chaos pass so
 * the trace.* and metrics.json.write sites get exercised too.
 *
 * Exit codes: 0 all invariants held; 1 an invariant was violated or
 * the driver was misused. Everything needed to replay a failure — the
 * seed, the journal, and per-cycle failpoint specs — is printed and
 * left in --out-dir.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/cascade_lake.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/workload_zoo.hh"
#include "stats/metrics.hh"
#include "trace/trace_io.hh"
#include "util/failpoint.hh"
#include "util/parse.hh"
#include "util/rng.hh"

using namespace cachescope;

namespace {

/** Child exit code for a recoverable setup error (journal/metrics). */
constexpr int kExitRecoverable = 3;
/** Child exit code for a soak-driver bug (bad generated spec). */
constexpr int kExitDriverBug = 4;

/** The grid every sweep cycle runs: small, synthetic, deterministic. */
const std::vector<std::string> &
soakPolicies()
{
    static const std::vector<std::string> policies = {"lru", "srrip",
                                                      "ship"};
    return policies;
}

ZooOptions
soakZooOptions()
{
    ZooOptions options;
    // Fixed seed: the chaos schedule varies per cycle, the simulated
    // work never does — that is what makes the final byte-identity
    // check meaningful.
    options.seed = 7;
    options.synthMainBytes = 4ull << 20;
    return options;
}

std::vector<std::shared_ptr<Workload>>
soakSuite()
{
    std::vector<std::shared_ptr<Workload>> suite;
    for (const char *name : {"small_ws", "scan_thrash", "hot_cold"})
        suite.push_back(makeNamedWorkload(name, soakZooOptions()));
    return suite;
}

SimConfig
soakConfig()
{
    // Enough instructions that the sim.loop polling point fires ~100
    // times per cell (so injected sleeps and timeouts land mid-cell)
    // while a full 9-cell sweep still takes well under a second.
    SimConfig cfg = cascadeLakeConfig("lru", 2'000, 2'000'000);
    // Half the default LLC (keeping it divisible into the 11-way
    // Cascade Lake geometry) so the small synthetic workloads actually
    // stress eviction paths.
    cfg.hierarchy.llc.sizeBytes = 704 * 1024;
    return cfg;
}

/**
 * Child body: one sweep against @p journal_path under @p failpoints.
 * Never returns; exits via std::_Exit so the parent's stdio buffers
 * (inherited by fork) are not flushed twice.
 */
[[noreturn]] void
childSweep(const std::string &failpoints, const std::string &journal_path,
           double cell_timeout_s, unsigned retries,
           const std::string &metrics_path)
{
    if (!failpoints.empty()) {
        if (Status s = failpoint::configure(failpoints); !s.ok()) {
            std::fprintf(stderr, "soak child: bad failpoint spec: %s\n",
                         s.message().c_str());
            std::_Exit(kExitDriverBug);
        }
    }

    CheckpointJournal journal;
    if (Status s = journal.open(journal_path); !s.ok()) {
        // Injected checkpoint.open/replay failures and real corruption
        // both surface here: a clean, recoverable error.
        std::fprintf(stderr, "soak child: journal: %s\n",
                     s.message().c_str());
        std::_Exit(kExitRecoverable);
    }

    SuiteRunner runner(soakConfig(), /*jobs=*/2);
    runner.setVerbose(false);
    runner.setRetries(retries);
    if (cell_timeout_s > 0.0)
        runner.setCellTimeout(cell_timeout_s);
    runner.setCheckpoint(&journal);

    const SweepReport report = runner.runChecked(soakSuite(),
                                                 soakPolicies());

    if (!metrics_path.empty()) {
        MetricsDocument doc;
        doc.name = "soak";
        doc.metrics = report.metrics;
        if (Status s = writeMetricsJsonFile(doc, metrics_path);
            !s.ok()) {
            std::fprintf(stderr, "soak child: metrics: %s\n",
                         s.message().c_str());
            std::_Exit(kExitRecoverable);
        }
    }
    journal.close();
    if (!report.allOk()) {
        for (const auto &outcome : report.outcomes) {
            if (!outcome.ok) {
                std::fprintf(stderr, "soak child: cell %s/%s: %s\n",
                             outcome.workload.c_str(),
                             outcome.policy.c_str(),
                             outcome.error.c_str());
            }
        }
    }
    std::_Exit(report.allOk() ? 0 : 2);
}

/**
 * Child body for the trace-chaos cycle: capture a bounded trace,
 * replay it, and export metrics, with the trace.* and
 * metrics.json.write sites armed. Any failure must surface as a clean
 * Status, never a crash.
 */
[[noreturn]] void
childTrace(const std::string &failpoints, const std::string &dir)
{
    if (Status s = failpoint::configure(failpoints); !s.ok()) {
        std::fprintf(stderr, "soak child: bad failpoint spec: %s\n",
                     s.message().c_str());
        std::_Exit(kExitDriverBug);
    }

    const std::string trace_path = dir + "/soak_trace.bin";
    bool ok = true;
    std::string err;

    {
        auto writer_or = TraceWriter::open(trace_path);
        if (!writer_or.ok()) {
            ok = false;
            err = writer_or.status().message();
        } else {
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
                    return out.status().ok() &&
                           out.recordsWritten() < budget;
                }
                TraceWriter &out;
                std::uint64_t budget;
            } sink(writer, 200'000);
            makeNamedWorkload("small_ws", soakZooOptions())->run(sink);
            if (Status s = writer.finish(); !s.ok()) {
                ok = false;
                err = s.message();
            }
        }
    }

    if (ok) {
        auto reader_or = TraceReader::open(trace_path);
        if (!reader_or.ok()) {
            ok = false;
            err = reader_or.status().message();
        } else {
            Simulator sim(soakConfig());
            std::uint64_t replayed = 0;
            if (Status s = reader_or.value()->replayInto(sim, &replayed);
                !s.ok()) {
                ok = false;
                err = s.message();
            }
        }
    }

    MetricsDocument doc;
    doc.name = "soak-trace";
    doc.metrics.addCounter("soak.trace_roundtrip_ok", ok ? 1 : 0);
    if (Status s = writeMetricsJsonFile(doc,
                                        dir + "/soak_trace_metrics.json");
        !s.ok()) {
        ok = false;
        err = s.message();
    }

    if (!ok)
        std::fprintf(stderr, "soak child (trace): %s\n", err.c_str());
    std::_Exit(ok ? 0 : 2);
}

/**
 * Fork @p child_fn and reap it. When @p kill_after_s > 0, send
 * @p kill_signo once that much time has passed (if the child is still
 * alive). @return the exit code, or -1 if the child died by a signal
 * (reported via @p term_signal).
 */
template <typename Fn>
int
runChild(Fn &&child_fn, double kill_after_s, int kill_signo,
         int *term_signal, double *wall_s)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("soak: fork");
        std::exit(1);
    }
    if (pid == 0) {
        child_fn();
        std::_Exit(kExitDriverBug); // child bodies never return
    }

    int status = 0;
    if (kill_after_s > 0.0) {
        bool reaped = false;
        while (true) {
            const pid_t r = waitpid(pid, &status, WNOHANG);
            if (r == pid) {
                reaped = true;
                break;
            }
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (elapsed >= kill_after_s)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (!reaped) {
            kill(pid, kill_signo);
            waitpid(pid, &status, 0);
        }
    } else {
        waitpid(pid, &status, 0);
    }

    *wall_s = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    if (WIFSIGNALED(status)) {
        *term_signal = WTERMSIG(status);
        return -1;
    }
    *term_signal = 0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : kExitDriverBug;
}

/**
 * Drop run-dependent noise so metric trees compare byte-for-byte: the
 * host-time metrics (isHostTimePath), and the sweep counters that
 * record how a result was reached (attempts, restores, executed and
 * cancelled cells), which differ between a resumed and a clean run.
 */
MetricsRegistry
stripNondeterministic(const MetricsRegistry &in)
{
    MetricsRegistry out;
    for (const auto &[path, value] : in.counters()) {
        if (path == "sweep.attempts_total" ||
            path == "sweep.checkpoint_restores" ||
            path == "sweep.executed" ||
            path == "sweep.cells_cancelled") {
            continue;
        }
        out.setCounter(path, value);
    }
    for (const auto &[path, value] : in.gauges()) {
        if (!isHostTimePath(path))
            out.setGauge(path, value);
    }
    for (const auto &[path, snapshot] : in.histograms()) {
        if (!isHostTimePath(path))
            out.setHistogram(path, snapshot);
    }
    return out;
}

enum class CycleKind
{
    Shotgun,     ///< every site armed at low probability
    Kill,        ///< parent sends SIGKILL/SIGTERM mid-run
    SingleError, ///< one sweep-path site returns an injected error
    Abort,       ///< one site std::_Exit()s mid-run (simulated SIGKILL)
    Hang,        ///< sim.loop sleeps; --cell-timeout-s must reap it
    TraceChaos,  ///< trace/metrics I/O sites armed on a capture+replay
    SingleThrow, ///< one sweep-path site throws mid-run
};

const char *
cycleKindName(CycleKind kind)
{
    switch (kind) {
    case CycleKind::Shotgun: return "shotgun";
    case CycleKind::Kill: return "kill";
    case CycleKind::SingleError: return "single-error";
    case CycleKind::Abort: return "abort";
    case CycleKind::Hang: return "hang";
    case CycleKind::TraceChaos: return "trace-chaos";
    case CycleKind::SingleThrow: return "single-throw";
    }
    return "?";
}

/** One full rotation covers every kind and three kill/resume cycles. */
constexpr std::array<CycleKind, 10> kRotation = {
    CycleKind::Shotgun,    CycleKind::Kill,  CycleKind::SingleError,
    CycleKind::Abort,      CycleKind::Kill,  CycleKind::Hang,
    CycleKind::TraceChaos, CycleKind::Kill,  CycleKind::SingleThrow,
    CycleKind::Shotgun,
};

/** Sweep-path sites for targeted single-site schedules. */
constexpr std::array<const char *, 6> kSweepSites = {
    "checkpoint.append", "checkpoint.open",     "checkpoint.replay",
    "harness.cell.attempt", "sim.loop",         "sim.build.alloc",
};

std::string
shotgunSpec(Rng &rng)
{
    std::string spec;
    for (const auto &site : failpoint::knownSites()) {
        if (!spec.empty())
            spec += ';';
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s=prob(0.03,%llu)",
                      site.c_str(),
                      static_cast<unsigned long long>(rng.next()));
        spec += buf;
    }
    return spec;
}

struct SoakOptions
{
    std::uint64_t seed = 1;
    std::uint64_t cycles = 0; ///< 0 = one rotation minimum, then budget
    double timeBudgetS = 600.0;
    std::string outDir = "soak-out";
};

int
soakMain(const SoakOptions &opt)
{
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "soak: cannot create out dir '%s': %s\n",
                     opt.outDir.c_str(), ec.message().c_str());
        return 1;
    }
    const std::string journal_path = opt.outDir + "/soak.journal";
    std::filesystem::remove(journal_path, ec);

    Rng rng(opt.seed);
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::printf("soak: seed=%llu out-dir=%s journal=%s\n",
                static_cast<unsigned long long>(opt.seed),
                opt.outDir.c_str(), journal_path.c_str());

    std::size_t violations = 0;
    auto violation = [&violations](const char *what,
                                   const std::string &detail) {
        ++violations;
        std::printf("soak: INVARIANT VIOLATED: %s: %s\n", what,
                    detail.c_str());
    };

    // The journal must reopen cleanly after every child death; torn
    // tails being repaired (with a warning) counts as clean.
    auto checkJournal = [&]() -> std::size_t {
        CheckpointJournal probe;
        if (Status s = probe.open(journal_path); !s.ok()) {
            violation("journal reopen", s.message());
            return 0;
        }
        return probe.completedCells();
    };

    const std::uint64_t max_cycles =
        opt.cycles == 0 ? 1'000'000 : opt.cycles;
    std::uint64_t cycle = 0;
    while (cycle < max_cycles &&
           (cycle < kRotation.size() || elapsed() < opt.timeBudgetS)) {
        // Each rotation after the first starts from an empty journal:
        // once every cell is checkpointed, sweeps restore instantly
        // and the chaos would stop touching the code under test.
        if (cycle > 0 && cycle % kRotation.size() == 0)
            std::filesystem::remove(journal_path, ec);
        const CycleKind kind = kRotation[cycle % kRotation.size()];
        std::string spec;
        double kill_after_s = 0.0;
        int kill_signo = 0;
        double cell_timeout_s = 0.0;
        unsigned retries = static_cast<unsigned>(rng.nextBounded(2));

        switch (kind) {
        case CycleKind::Shotgun:
            spec = shotgunSpec(rng);
            break;
        case CycleKind::Kill:
            kill_after_s =
                0.02 + 0.001 * static_cast<double>(rng.nextBounded(180));
            kill_signo = rng.nextBool(0.5) ? SIGKILL : SIGTERM;
            break;
        case CycleKind::SingleError:
        case CycleKind::SingleThrow: {
            const char *site =
                kSweepSites[rng.nextBounded(kSweepSites.size())];
            char buf[128];
            std::snprintf(
                buf, sizeof buf, "%s=%s(%llu)%s", site,
                rng.nextBool(0.5) ? "hit" : "every",
                static_cast<unsigned long long>(1 + rng.nextBounded(8)),
                kind == CycleKind::SingleThrow ? ":throw" : "");
            spec = buf;
            break;
        }
        case CycleKind::Abort: {
            const char *site =
                kSweepSites[rng.nextBounded(kSweepSites.size())];
            char buf[128];
            std::snprintf(
                buf, sizeof buf, "%s=hit(%llu):abort", site,
                static_cast<unsigned long long>(1 + rng.nextBounded(5)));
            spec = buf;
            break;
        }
        case CycleKind::Hang: {
            char buf[128];
            std::snprintf(
                buf, sizeof buf, "sim.loop=hit(%llu):sleep(4000)",
                static_cast<unsigned long long>(3 + rng.nextBounded(30)));
            spec = buf;
            cell_timeout_s = 0.4;
            break;
        }
        case CycleKind::TraceChaos: {
            for (const char *site :
                 {"trace.open.write", "trace.write.header",
                  "trace.write.record", "trace.finalize",
                  "trace.open.read", "trace.read.header",
                  "trace.read.record", "metrics.json.write"}) {
                if (!spec.empty())
                    spec += ';';
                char buf[128];
                std::snprintf(
                    buf, sizeof buf, "%s=prob(0.10,%llu)", site,
                    static_cast<unsigned long long>(rng.next()));
                spec += buf;
            }
            break;
        }
        }

        int term_signal = 0;
        double wall_s = 0.0;
        int code;
        if (kind == CycleKind::TraceChaos) {
            code = runChild([&]() { childTrace(spec, opt.outDir); }, 0.0,
                            0, &term_signal, &wall_s);
        } else {
            code = runChild(
                [&]() {
                    childSweep(spec, journal_path, cell_timeout_s,
                               retries, "");
                },
                kill_after_s, kill_signo, &term_signal, &wall_s);
        }

        // Validate the death.
        bool death_ok;
        if (term_signal != 0) {
            death_ok = kind == CycleKind::Kill &&
                       term_signal == kill_signo;
        } else if (kind == CycleKind::Abort) {
            death_ok = code == 0 || code == 2 ||
                       code == kExitRecoverable ||
                       code == failpoint::kAbortExitCode;
        } else if (kind == CycleKind::Kill) {
            // The child may win the race and finish first.
            death_ok = code == 0 || code == 2;
        } else if (kind == CycleKind::TraceChaos) {
            death_ok = code == 0 || code == 2;
        } else {
            death_ok = code == 0 || code == 2 ||
                       code == kExitRecoverable;
        }

        char death[64];
        if (term_signal != 0) {
            std::snprintf(death, sizeof death, "killed by signal %d",
                          term_signal);
        } else {
            std::snprintf(death, sizeof death, "exit %d", code);
        }
        if (!death_ok) {
            violation("child death",
                      std::string(death) + " (kind " +
                          cycleKindName(kind) + ", spec '" + spec +
                          "')");
        }

        // A hang cycle must finish fast: the injected 4 s sleep has to
        // be cut short by the 0.4 s cell timeout's early wake-up.
        if (kind == CycleKind::Hang && wall_s > 3.5) {
            violation("hang reaping",
                      "cycle took " + std::to_string(wall_s) +
                          "s; the injected sleep was not cut short");
        }

        const std::size_t cells =
            kind == CycleKind::TraceChaos ? 0 : checkJournal();
        std::printf("soak: [%llu] %-12s %-7s wall=%.2fs journal=%zu "
                    "cells%s%s\n",
                    static_cast<unsigned long long>(cycle + 1),
                    cycleKindName(kind), death, wall_s, cells,
                    spec.empty() ? "" : " spec=", spec.c_str());
        std::fflush(stdout);
        ++cycle;
    }

    // Final invariant: resuming the battered journal must reproduce an
    // uninterrupted run's metric tree byte-for-byte (modulo wall-clock
    // noise stripped on both sides).
    const std::string resumed_json = opt.outDir + "/metrics_resumed.json";
    const std::string clean_json = opt.outDir + "/metrics_clean.json";
    const std::string clean_journal = opt.outDir + "/clean.journal";
    std::filesystem::remove(clean_journal, ec);

    int term_signal = 0;
    double wall_s = 0.0;
    int code = runChild(
        [&]() { childSweep("", journal_path, 0.0, 0, resumed_json); },
        0.0, 0, &term_signal, &wall_s);
    if (code != 0 || term_signal != 0) {
        violation("final resume pass",
                  "expected exit 0, got exit " + std::to_string(code) +
                      " signal " + std::to_string(term_signal));
    }
    code = runChild(
        [&]() { childSweep("", clean_journal, 0.0, 0, clean_json); },
        0.0, 0, &term_signal, &wall_s);
    if (code != 0 || term_signal != 0) {
        violation("clean reference pass",
                  "expected exit 0, got exit " + std::to_string(code) +
                      " signal " + std::to_string(term_signal));
    }

    if (violations == 0) {
        auto resumed = readMetricsJsonFile(resumed_json);
        auto clean = readMetricsJsonFile(clean_json);
        if (!resumed.ok() || !clean.ok()) {
            violation("metrics readback",
                      (resumed.ok() ? clean : resumed)
                          .status()
                          .message());
        } else {
            MetricsDocument a;
            a.name = "soak";
            a.metrics = stripNondeterministic(resumed->metrics);
            MetricsDocument b;
            b.name = "soak";
            b.metrics = stripNondeterministic(clean->metrics);
            const std::string ja = metricsToJson(a);
            const std::string jb = metricsToJson(b);
            if (ja != jb) {
                std::size_t at = 0;
                while (at < ja.size() && at < jb.size() &&
                       ja[at] == jb[at]) {
                    ++at;
                }
                violation(
                    "resume byte-identity",
                    "resumed and clean metric trees differ at byte " +
                        std::to_string(at) + " (see " + resumed_json +
                        " vs " + clean_json + ")");
            } else {
                std::printf("soak: resumed metric tree is "
                            "byte-identical to the clean run's "
                            "(%zu bytes)\n",
                            ja.size());
            }
        }
    }

    std::printf("soak: %llu cycle(s), %.1fs, %zu violation(s) -> %s\n",
                static_cast<unsigned long long>(cycle), elapsed(),
                violations, violations == 0 ? "PASS" : "FAIL");
    return violations == 0 ? 0 : 1;
}

void
usage()
{
    std::printf(
        "usage: cachescope-soak [--seed N] [--cycles N]\n"
        "                       [--time-budget-s S] [--out-dir DIR]\n"
        "\n"
        "Chaos-soaks the sweep harness: forked sweeps under randomized\n"
        "failpoint schedules and kill/resume cycles against one shared\n"
        "checkpoint journal, then checks that resuming it reproduces\n"
        "an uninterrupted run byte-for-byte. --cycles 0 (default) runs\n"
        "full rotations of all cycle kinds until the time budget is\n"
        "spent. Exit 0 = all invariants held.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    SoakOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "soak: %s needs a value\n",
                             key.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (key == "--help" || key == "-h") {
            usage();
            return 0;
        } else if (key == "--seed") {
            auto parsed = parseU64(value());
            if (!parsed.ok()) {
                std::fprintf(stderr, "soak: --seed: %s\n",
                             parsed.status().message().c_str());
                return 1;
            }
            opt.seed = parsed.take();
        } else if (key == "--cycles") {
            auto parsed = parseU64(value());
            if (!parsed.ok()) {
                std::fprintf(stderr, "soak: --cycles: %s\n",
                             parsed.status().message().c_str());
                return 1;
            }
            opt.cycles = parsed.take();
        } else if (key == "--time-budget-s") {
            auto parsed = parseF64NonNegative(value());
            if (!parsed.ok()) {
                std::fprintf(stderr, "soak: --time-budget-s: %s\n",
                             parsed.status().message().c_str());
                return 1;
            }
            opt.timeBudgetS = parsed.take();
        } else if (key == "--out-dir") {
            opt.outDir = value();
        } else {
            std::fprintf(stderr, "soak: unknown flag '%s'\n",
                         key.c_str());
            usage();
            return 1;
        }
    }
    return soakMain(opt);
}
