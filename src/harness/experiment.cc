/**
 * @file
 * Experiment harness implementation.
 */

#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "harness/checkpoint.hh"
#include "replacement/belady.hh"
#include "stats/summary.hh"
#include "util/cancel.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"

namespace cachescope {

namespace {

/**
 * Record how fast the simulator itself ran: sim.wall_seconds and
 * sim.throughput_mips (instructions pushed through the pipeline,
 * warmup included, per wall-clock second), split into
 * sim.warmup_wall_seconds + sim.measure_wall_seconds so the functional
 * warmup speedup is directly observable in every BENCH JSON. The part
 * of the warmup spent before the first instruction reached the
 * simulator (Simulator construction, generator set-up) is
 * sim.setup_wall_seconds; a run that consumed nothing was all set-up.
 * steady_clock only, so the numbers survive clock adjustments
 * mid-campaign. All of these gauges are nondeterministic by nature and
 * are stripped by the determinism tooling (difftest byte-identity,
 * golden metric-tree tests).
 */
void
setThroughputGauges(
    SimResult &result, InstCount instructions,
    std::chrono::steady_clock::time_point start,
    std::optional<std::chrono::steady_clock::time_point> first_instruction,
    double measure_seconds)
{
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    // A tiny trace can finish inside the clock's resolution, making
    // `secs` zero (or denormal-small, where the division overflows to
    // inf). Clamp the divisor so the gauge is always present and
    // finite: an absent or non-finite value poisons BENCH JSON
    // baseline comparisons downstream (check_bench_json rejects both).
    constexpr double kMinSeconds = 1e-9;
    const double divisor = secs > kMinSeconds ? secs : kMinSeconds;
    const double measure =
        std::clamp(measure_seconds, 0.0, secs < 0.0 ? 0.0 : secs);
    const double warmup = secs - measure;
    double setup = warmup;
    if (first_instruction) {
        setup = std::clamp(
            std::chrono::duration<double>(*first_instruction - start)
                .count(),
            0.0, std::max(warmup, 0.0));
    }
    result.extraMetrics.setGauge("sim.wall_seconds", secs);
    result.extraMetrics.setGauge("sim.warmup_wall_seconds", warmup);
    result.extraMetrics.setGauge("sim.setup_wall_seconds", setup);
    result.extraMetrics.setGauge("sim.measure_wall_seconds", measure);
    result.extraMetrics.setGauge(
        "sim.throughput_mips",
        static_cast<double>(instructions) / divisor / 1e6);
}

} // anonymous namespace

SimResult
runOne(Workload &workload, const SimConfig &config)
{
    SimConfig cfg = config;
    cfg.warmupInstructions =
        std::max(cfg.warmupInstructions, workload.warmupHint());
    const auto start = std::chrono::steady_clock::now();
    Simulator sim(cfg);
    workload.run(sim);
    SimResult result = sim.result();
    sim.warnIfWarmupUnfinished("workload '" + workload.name() + "'");
    setThroughputGauges(result, sim.instructionsConsumed(), start,
                        sim.firstInstructionAt(), sim.measureWallSeconds());
    return result;
}

SimResult
runBelady(Workload &workload, const SimConfig &base_config)
{
    const auto start = std::chrono::steady_clock::now();
    SimConfig config = base_config;
    config.warmupInstructions =
        std::max(config.warmupInstructions, workload.warmupHint());
    // Belady is incompatible with LLC set-sampling: the FutureOracle
    // counts positions over the *full* recorded stream, and a sampled
    // replay would consume oracle positions out of step. Force exact
    // simulation for both passes; the fast-sweep preset still speeds
    // pass 1 up via functional mode below.
    config.hierarchy.llc.sampleSets = 1;

    // Pass 1: record the LLC demand stream. The stream is independent
    // of the LLC policy (the levels above are fixed), so any policy
    // works for recording; use the configured one. Only architectural
    // state matters here — the recorded stream carries no timing — so
    // the whole pass runs functionally when functional warmup is on.
    auto stream = std::make_shared<std::vector<Addr>>();
    InstCount pass1_instructions = 0;
    std::optional<std::chrono::steady_clock::time_point> first_instruction;
    {
        Simulator sim(config);
        if (config.warmupMode == WarmupMode::Functional)
            sim.forceFunctional();
        sim.hierarchy().llc().setAccessHook(
            [&stream](Addr block, Pc, AccessType) {
                stream->push_back(block);
            });
        workload.run(sim);
        pass1_instructions = sim.instructionsConsumed();
        first_instruction = sim.firstInstructionAt();
    }

    // Pass 2: replay against the recorded future.
    auto oracle = std::make_shared<FutureOracle>(*stream);
    auto policy = std::make_unique<BeladyPolicy>(
        config.hierarchy.llc.geometry(), oracle);
    Simulator sim(config, 1, std::move(policy));
    workload.run(sim);
    SimResult result = sim.result();
    result.llcPolicy = "belady";
    result.llcPolicyState.clear();
    sim.warnIfWarmupUnfinished("belady replay of '" + workload.name() +
                               "'");
    // Both passes count: the oracle's cost is real simulated work.
    // Pass 1 is all bookkeeping for the oracle, so it lands on the
    // warmup side of the wall-time split.
    setThroughputGauges(result,
                        pass1_instructions + sim.instructionsConsumed(),
                        start, first_instruction, sim.measureWallSeconds());
    return result;
}

SuiteRunner::SuiteRunner(SimConfig base, unsigned jobs)
    : base(std::move(base)), jobs(jobs)
{
    if (this->jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        this->jobs = hw == 0 ? 1 : hw;
    }
}

std::size_t
SweepReport::failed() const
{
    std::size_t n = 0;
    for (const auto &outcome : outcomes)
        if (!outcome.ok)
            ++n;
    return n;
}

void
CellOutcome::exportCellMetrics(MetricsRegistry &metrics,
                               const std::string &prefix) const
{
    if (hasCellMetrics)
        metrics.merge(cellMetrics, prefix);
    else
        result.exportMetrics(metrics, prefix);
}

CellOutcome
SuiteRunner::runCell(Workload &workload, const std::string &policy,
                     const CancelToken *sweep_token) const
{
    CellOutcome out;
    out.workload = workload.name();
    out.policy = policy;
    // steady_clock everywhere: cell timing and deadlines must survive
    // wall-clock adjustments mid-campaign.
    const auto start = std::chrono::steady_clock::now();

    // The cell's own token: chained to the sweep token (signal /
    // sweep deadline) and armed with the per-cell budget. CancelScope
    // publishes it thread-locally so even layers without a token
    // parameter (the failpoint sleep action) honour it.
    CancelToken cell_token;
    cell_token.setParent(sweep_token);
    if (cellTimeoutS_ > 0.0) {
        cell_token.setDeadline(
            start + std::chrono::duration_cast<
                        CancelToken::Clock::duration>(
                        std::chrono::duration<double>(cellTimeoutS_)),
            CancelReason::CellDeadline);
    }
    CancelScope scope(&cell_token);

    SimConfig config = base;
    config.cancel = &cell_token;
    if (fastSweep_) {
        config.warmupMode = WarmupMode::Functional;
        if (config.hierarchy.llc.sampleSets == 1)
            config.hierarchy.llc.sampleSets = 16;
    }
    // "belady" is the offline oracle, injected rather than looked up in
    // the registry; validate the base configuration unchanged for it.
    const bool belady = policy == "belady";
    if (!belady)
        config.hierarchy.llc.replacement = policy;

    if (Status valid = config.validate(); !valid.ok()) {
        out.error = valid.toString();
    } else {
        const unsigned max_attempts = retries_ + 1;
        for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
            out.attempts = attempt;
            try {
                if (failpoint::anyArmed())
                    failpoint::hitOrThrow("harness.cell.attempt");
                out.result = belady ? runBelady(workload, config)
                                    : runOne(workload, config);
                out.ok = true;
                out.error.clear();
                break;
            } catch (const CancelledError &e) {
                // Cancellation is not a transient fault: no retry, and
                // the distinct flag keeps the accounting honest.
                out.cancelled = true;
                out.error = e.what();
                break;
            } catch (const std::exception &e) {
                out.error = e.what();
            } catch (...) {
                out.error = "non-standard exception";
            }
            // A timeout that fired between attempts must not burn the
            // remaining retries on cells that can no longer finish.
            if (cell_token.cancelled()) {
                out.cancelled = true;
                out.error = CancelledError(cell_token.reason()).what();
                break;
            }
        }
    }

    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    return out;
}

SweepReport
SuiteRunner::runChecked(const std::vector<std::shared_ptr<Workload>> &suite,
                        const std::vector<std::string> &policies) const
{
    struct Cell
    {
        std::shared_ptr<Workload> workload;
        std::string policy;
    };
    std::vector<Cell> cells;
    for (const auto &workload : suite)
        for (const auto &policy : policies)
            cells.push_back({workload, policy});

    SweepReport report;
    report.outcomes.resize(cells.size());

    // Cell wall times in 10 ms buckets up to ~2.5 s plus overflow.
    Histogram wall_hist(10, 256);

    // Fold one finished cell into the report's metric tree. Callers
    // must hold the report mutex once workers are running; counter
    // sums are order-independent, which is what keeps a parallel
    // sweep's counters identical to a serial one's.
    auto recordCell = [&report, &wall_hist](const CellOutcome &out) {
        const std::string cell_prefix =
            "cell." + out.workload + "." + out.policy;
        if (out.ok) {
            report.metrics.addCounter("sweep.cells_ok");
            // exportCellMetrics prefers the tree a v2 checkpoint
            // carried over; that is what keeps a resumed sweep's
            // metric tree byte-identical to an uninterrupted run's.
            out.exportCellMetrics(report.metrics, cell_prefix);
            // Counters additionally sum across cells under "total.";
            // gauges and histograms stay per-cell only.
            MetricsRegistry cell_metrics;
            out.exportCellMetrics(cell_metrics);
            for (const auto &[path, value] : cell_metrics.counters())
                report.metrics.addCounter("total." + path, value);
        } else {
            report.metrics.addCounter("sweep.cells_failed");
        }
        if (out.cancelled)
            report.metrics.addCounter("sweep.cells_cancelled");
        report.metrics.addCounter("sweep.attempts_total", out.attempts);
        if (out.fromCheckpoint)
            report.metrics.addCounter("sweep.checkpoint_restores");
        report.metrics.setGauge(cell_prefix + ".wall_ms", out.wallMs);
        wall_hist.add(static_cast<std::uint64_t>(
            out.wallMs < 0.0 ? 0.0 : out.wallMs));
    };

    // Restore cells a previous (interrupted) run already finished.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        const CellOutcome *done = journal_
            ? journal_->find(cell.workload->name(), cell.policy)
            : nullptr;
        if (done) {
            report.outcomes[i] = *done;
            report.outcomes[i].fromCheckpoint = true;
            report.results[cell.workload->name()][cell.policy] =
                done->result;
            recordCell(report.outcomes[i]);
            if (verbose_) {
                std::fprintf(stderr, "  [%zu/%zu] %-24s %-8s restored "
                             "from checkpoint\n",
                             i + 1, cells.size(),
                             cell.workload->name().c_str(),
                             cell.policy.c_str());
            }
        } else {
            pending.push_back(i);
        }
    }

    // The sweep-wide token: chained to any external (signal) token and
    // armed with the whole-sweep deadline. Workers consult it before
    // pulling work; runCell chains each cell token to it so in-flight
    // simulations unwind too.
    CancelToken sweep_token;
    sweep_token.setParent(external_);
    if (deadlineS_ > 0.0) {
        sweep_token.setDeadline(
            std::chrono::steady_clock::now() +
                std::chrono::duration_cast<CancelToken::Clock::duration>(
                    std::chrono::duration<double>(deadlineS_)),
            CancelReason::SweepDeadline);
    }

    // Watchdog bookkeeping: which cells are currently simulating, so a
    // cell stuck in non-cooperative code (never reaching a polling
    // point) is at least reported even though it cannot be reaped.
    struct ActiveCell
    {
        std::string workload;
        std::string policy;
        std::chrono::steady_clock::time_point start;
        bool warned = false;
    };
    std::mutex active_mutex;
    std::map<std::size_t, ActiveCell> active;

    std::mutex report_mutex;
    std::atomic<std::size_t> cursor{0};

    auto worker = [&]() {
        while (true) {
            // Checked before claiming work, so cancellation stops
            // scheduling promptly; cells claimed before the check still
            // run (and unwind almost immediately via their own token).
            if (sweep_token.cancelled())
                return;
            const std::size_t k = cursor.fetch_add(1);
            if (k >= pending.size())
                return;
            const std::size_t i = pending[k];
            const Cell &cell = cells[i];
            {
                std::lock_guard<std::mutex> lock(active_mutex);
                active[i] = {cell.workload->name(), cell.policy,
                             std::chrono::steady_clock::now(), false};
            }
            CellOutcome out = runCell(*cell.workload, cell.policy,
                                      &sweep_token);
            {
                std::lock_guard<std::mutex> lock(active_mutex);
                active.erase(i);
            }
            {
                std::lock_guard<std::mutex> lock(report_mutex);
                ++report.executed;
                if (out.ok) {
                    report.results[out.workload][out.policy] = out.result;
                    if (journal_) {
                        if (Status s = journal_->append(out); !s.ok()) {
                            warn("checkpoint append failed: %s",
                                 s.message().c_str());
                        }
                    }
                }
                if (verbose_ && out.ok) {
                    const auto &gauges = out.result.extraMetrics.gauges();
                    const auto mips =
                        gauges.find("sim.throughput_mips");
                    std::fprintf(stderr,
                                 "  [%zu/%zu] %-24s %-8s ipc=%.3f "
                                 "llc_mpki=%.2f wall=%.2fs mips=%.1f\n",
                                 i + 1, cells.size(),
                                 out.workload.c_str(), out.policy.c_str(),
                                 out.result.ipc(), out.result.mpkiLlc(),
                                 out.wallMs / 1000.0,
                                 mips == gauges.end() ? 0.0
                                                      : mips->second);
                } else if (verbose_) {
                    std::fprintf(stderr,
                                 "  [%zu/%zu] %-24s %-8s FAILED after "
                                 "%u attempt(s): %s\n",
                                 i + 1, cells.size(),
                                 out.workload.c_str(), out.policy.c_str(),
                                 out.attempts, out.error.c_str());
                }
                recordCell(out);
                report.outcomes[i] = std::move(out);
            }
        }
    };

    // Watchdog: a cell that blows well past its budget without being
    // reaped is stuck somewhere that never polls; cancellation is
    // cooperative, so all we can do is tell the operator which one.
    std::mutex watchdog_mutex;
    std::condition_variable watchdog_cv;
    bool watchdog_done = false;
    std::thread watchdog;
    if (cellTimeoutS_ > 0.0) {
        watchdog = std::thread([&]() {
            const auto grace =
                std::chrono::duration<double>(2.0 * cellTimeoutS_);
            std::unique_lock<std::mutex> lock(watchdog_mutex);
            while (!watchdog_done) {
                watchdog_cv.wait_for(lock,
                                     std::chrono::milliseconds(200));
                if (watchdog_done)
                    return;
                const auto now = std::chrono::steady_clock::now();
                std::lock_guard<std::mutex> alock(active_mutex);
                for (auto &[idx, cell] : active) {
                    if (cell.warned || now - cell.start <= grace)
                        continue;
                    cell.warned = true;
                    warn("cell %s/%s is %0.1fs past 2x its "
                         "--cell-timeout-s budget and not responding "
                         "to cancellation; it may be stuck in "
                         "non-cooperative code",
                         cell.workload.c_str(), cell.policy.c_str(),
                         std::chrono::duration<double>(
                             now - cell.start - grace)
                             .count());
                }
            }
        });
    }

    const unsigned nthreads =
        static_cast<unsigned>(std::min<std::size_t>(jobs, pending.size()));
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();

    if (watchdog.joinable()) {
        {
            std::lock_guard<std::mutex> lock(watchdog_mutex);
            watchdog_done = true;
        }
        watchdog_cv.notify_all();
        watchdog.join();
    }

    // Cells the cancelled sweep never started: record them so the
    // report still has one outcome per grid cell and the accounting
    // (cells_total == ok + failed) stays closed.
    for (const std::size_t i : pending) {
        CellOutcome &out = report.outcomes[i];
        if (!out.workload.empty())
            continue;
        out.workload = cells[i].workload->name();
        out.policy = cells[i].policy;
        out.cancelled = true;
        out.attempts = 0;
        out.error = std::string("cancelled before start: ") +
                    cancelReasonName(sweep_token.reason());
        recordCell(out);
    }

    report.metrics.setCounter("sweep.cells_total", cells.size());
    report.metrics.setCounter("sweep.executed", report.executed);
    report.metrics.setHistogram("sweep.cell_wall_ms", wall_hist);
    return report;
}

SweepResults
SuiteRunner::run(const std::vector<std::shared_ptr<Workload>> &suite,
                 const std::vector<std::string> &policies) const
{
    SweepReport report = runChecked(suite, policies);
    for (const auto &outcome : report.outcomes) {
        if (!outcome.ok) {
            warn("sweep cell %s/%s failed: %s", outcome.workload.c_str(),
                 outcome.policy.c_str(), outcome.error.c_str());
        }
    }
    return std::move(report.results);
}

std::map<std::string, double>
speedupsOver(const SweepResults &results, const std::string &policy,
             const std::string &baseline)
{
    std::map<std::string, double> out;
    for (const auto &[workload, by_policy] : results) {
        auto p = by_policy.find(policy);
        auto b = by_policy.find(baseline);
        if (p == by_policy.end() || b == by_policy.end())
            continue;
        const double base_ipc = b->second.ipc();
        if (base_ipc <= 0.0) {
            warn("workload '%s' has non-positive baseline IPC",
                 workload.c_str());
            continue;
        }
        out[workload] = p->second.ipc() / base_ipc;
    }
    return out;
}

double
geomeanSpeedup(const SweepResults &results, const std::string &policy,
               const std::string &baseline)
{
    std::vector<double> ratios;
    for (const auto &[workload, ratio] : speedupsOver(results, policy,
                                                      baseline)) {
        (void)workload;
        ratios.push_back(ratio);
    }
    return ratios.empty() ? 0.0 : geomean(ratios);
}

const std::vector<std::string> &
paperPolicies()
{
    static const std::vector<std::string> policies = {
        "srrip", "drrip", "ship", "hawkeye", "glider", "mpppb",
    };
    return policies;
}

} // namespace cachescope
