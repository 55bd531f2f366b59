/**
 * @file
 * The experiment harness: runs (workload x policy) grids, including the
 * two-pass Belady oracle, and aggregates speedups the way the paper
 * reports them (geometric mean of per-workload IPC ratios over LRU).
 */

#ifndef CACHESCOPE_HARNESS_EXPERIMENT_HH
#define CACHESCOPE_HARNESS_EXPERIMENT_HH

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "trace/workload.hh"

namespace cachescope {

/** Host-clock instants of one simulation, for setThroughputGauges(). */
struct HostTimes
{
    using Clock = std::chrono::steady_clock;

    /** The run began, before any set-up (construction, generation). */
    Clock::time_point start;
    /** The run ended. */
    Clock::time_point end;
    /** The first instruction reached the simulator; empty if none did. */
    std::optional<Clock::time_point> firstInstruction;
    /** The measured window opened; empty if it never did. */
    std::optional<Clock::time_point> measureStart;
    /** Instructions pushed through the simulator, warmup included. */
    InstCount instructions = 0;
};

/**
 * Write how fast one simulation ran under "<prefix>.sim." (or "sim."
 * for an empty prefix): wall_seconds, split into warmup_wall_seconds +
 * measure_wall_seconds; setup_wall_seconds, the head of the warmup
 * before the first instruction (all of it for a run that consumed
 * nothing); and throughput_mips, instructions per wall-clock second.
 * This is the only writer of these gauges, so every tree that carries
 * them (run, belady, corun, replay) has the same shape. They are host
 * time (isHostTimePath), stripped by every determinism check.
 */
void setThroughputGauges(MetricsRegistry &metrics, const std::string &prefix,
                         const HostTimes &times);

/**
 * Run @p workload through a simulator built from @p config.
 * @return the measured-window result.
 */
SimResult runOne(Workload &workload, const SimConfig &config);

/**
 * Run @p workload under the offline Belady OPT policy at the LLC.
 *
 * Two passes: the first records the LLC demand stream under the
 * baseline configuration, the second replays with a BeladyPolicy
 * consulting that future. Requires the workload to be deterministic.
 */
SimResult runBelady(Workload &workload, const SimConfig &config);

/** Results of a suite sweep: workload name -> policy name -> result. */
using SweepResults =
    std::map<std::string, std::map<std::string, SimResult>>;

/** Fate of a single (workload x policy) grid cell. */
struct CellOutcome
{
    std::string workload;
    std::string policy;
    /** True iff `result` holds a completed simulation. */
    bool ok = false;
    /** True iff restored from a checkpoint journal, not simulated. */
    bool fromCheckpoint = false;
    /**
     * True iff the cell was reaped by cooperative cancellation: its
     * --cell-timeout-s budget, the sweep --deadline-s, or a signal.
     * Cancelled cells are never retried and never checkpointed.
     */
    bool cancelled = false;
    /** Simulation attempts consumed (0 = rejected before running). */
    unsigned attempts = 0;
    /** Wall-clock steady_clock time on this cell, across attempts. */
    double wallMs = 0.0;
    /** Human-readable failure description; empty when ok. */
    std::string error;
    SimResult result;
    /**
     * Full exported metric tree of the cell, restored from a v2
     * checkpoint record (set iff hasCellMetrics). Simulated cells
     * leave this empty and export from `result` instead; carrying the
     * tree through the journal is what makes a resumed sweep's metric
     * tree byte-identical to an uninterrupted run's.
     */
    bool hasCellMetrics = false;
    MetricsRegistry cellMetrics;

    /**
     * Export this cell's metric tree into @p metrics under @p prefix:
     * the restored tree when hasCellMetrics, else `result`'s export.
     */
    void exportCellMetrics(MetricsRegistry &metrics,
                           const std::string &prefix = "") const;
};

/** Everything a fault-isolating sweep reports. */
struct SweepReport
{
    /** Successful cells only, in the legacy map shape. */
    SweepResults results;
    /** One entry per grid cell, in grid (workload-major) order. */
    std::vector<CellOutcome> outcomes;
    /** Cells actually simulated this run (checkpoint hits excluded). */
    std::size_t executed = 0;
    /**
     * Aggregated metric tree: per-cell trees under
     * "cell.<workload>.<policy>.", counter sums across all successful
     * cells under "total.", and sweep bookkeeping (cells_ok,
     * cells_failed, attempts_total, checkpoint_restores, cell wall-time
     * histogram) under "sweep.". Counters are merged per cell under the
     * report mutex; their sums are order-independent, so a parallel
     * sweep reports exactly the counters of a serial one.
     */
    MetricsRegistry metrics;

    std::size_t failed() const;
    bool allOk() const { return failed() == 0; }
};

class CheckpointJournal;

/**
 * Runs workload x policy grids, optionally in parallel.
 *
 * runChecked() isolates faults per cell: a cell whose configuration
 * fails validation (e.g. an unknown policy name) or whose workload
 * throws is recorded as a failed CellOutcome while every other cell
 * completes normally. Optional per-cell retries absorb transient
 * failures, and an optional CheckpointJournal makes interrupted sweeps
 * resumable.
 */
class SuiteRunner
{
  public:
    /**
     * @param base configuration template; the LLC policy field is
     *        overridden per grid cell.
     * @param jobs worker threads (0 = hardware concurrency).
     */
    explicit SuiteRunner(SimConfig base, unsigned jobs = 0);

    /**
     * Run every workload under every policy, isolating per-cell
     * failures instead of propagating them.
     */
    SweepReport runChecked(
        const std::vector<std::shared_ptr<Workload>> &suite,
        const std::vector<std::string> &policies) const;

    /** Enable/disable per-cell progress lines on stderr. */
    void setVerbose(bool verbose) { verbose_ = verbose; }

    /** Extra simulation attempts per cell after a failure (default 0). */
    void setRetries(unsigned retries) { retries_ = retries; }

    /**
     * Attach a checkpoint journal (not owned; must outlive the run).
     * Cells already completed in the journal are restored instead of
     * re-simulated; newly completed cells are appended to it.
     */
    void setCheckpoint(CheckpointJournal *journal) { journal_ = journal; }

    /**
     * Per-cell wall-clock budget in seconds (0 = none). A cell past
     * its budget is cooperatively cancelled and recorded as a failed,
     * cancelled CellOutcome; the rest of the sweep continues. A
     * watchdog thread additionally warns about cells that overrun
     * without polling (stuck in non-cooperative code).
     */
    void setCellTimeout(double seconds) { cellTimeoutS_ = seconds; }

    /**
     * Whole-sweep wall-clock budget in seconds (0 = none), measured
     * from runChecked() entry. On expiry, in-flight cells are
     * cancelled and not-yet-started cells are recorded as cancelled
     * without running; completed cells keep their results.
     */
    void setSweepDeadline(double seconds) { deadlineS_ = seconds; }

    /**
     * Chain the sweep to an external token (not owned; e.g. one fired
     * by a SIGINT/SIGTERM handler). Cancelling it stops scheduling new
     * cells and cooperatively cancels in-flight ones; cells that
     * complete during shutdown are still checkpointed.
     */
    void setCancelToken(const CancelToken *token) { external_ = token; }

    /**
     * Fast-sweep preset: functional warmup plus 1/16 LLC set-sampling
     * applied to every cell (an explicit base sampleSets > 1 wins over
     * the preset's 16). Trades exact timing during warmup and exact
     * LLC counters for a >= 5x wall-clock speedup on fig6-style
     * sweeps; sampled estimates land under each cell's "llc.sampled.*"
     * subtree with a relative-standard-error gauge. The Belady cell is
     * only partially accelerated (functional pass 1; sampling is
     * incompatible with the oracle and stays off there).
     */
    void setFastSweep(bool on) { fastSweep_ = on; }

  private:
    CellOutcome runCell(Workload &workload, const std::string &policy,
                        const CancelToken *sweep_token) const;

    SimConfig base;
    unsigned jobs;
    bool verbose_ = true;
    unsigned retries_ = 0;
    CheckpointJournal *journal_ = nullptr;
    double cellTimeoutS_ = 0.0;
    double deadlineS_ = 0.0;
    bool fastSweep_ = false;
    const CancelToken *external_ = nullptr;
};

/**
 * @return per-workload speedup of @p policy over @p baseline
 * (IPC ratio), keyed by workload name.
 */
std::map<std::string, double>
speedupsOver(const SweepResults &results, const std::string &policy,
             const std::string &baseline = "lru");

/** @return the geometric-mean speedup of @p policy over @p baseline. */
double geomeanSpeedup(const SweepResults &results, const std::string &policy,
                      const std::string &baseline = "lru");

/** The six LLC policies the paper evaluates, in its order. */
const std::vector<std::string> &paperPolicies();

} // namespace cachescope

#endif // CACHESCOPE_HARNESS_EXPERIMENT_HH
