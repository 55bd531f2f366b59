/**
 * @file
 * The simulation driver: N >= 1 cores, each with private L1/L2 and a
 * ROB timing core, over one shared LLC and DRAM model, with
 * ChampSim-style warmup and measurement windows. One core is the
 * paper's single-core setup; more are a multi-programmed co-run, where
 * a cache-hostile graph kernel and a cache-friendly tenant contend for
 * the replacement policy under study.
 */

#ifndef CACHESCOPE_CORE_SIMULATOR_HH
#define CACHESCOPE_CORE_SIMULATOR_HH

#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cpu_core.hh"
#include "core/hierarchy.hh"
#include "profile/online_profiler.hh"
#include "stats/metrics.hh"
#include "trace/record.hh"
#include "util/cancel.hh"
#include "util/status.hh"

namespace cachescope {

/**
 * How the warmup window is simulated.
 *
 * Timed (the default) drives warmup through the full ROB/MSHR core
 * model and DRAM bank queues, exactly like measurement. Functional
 * bypasses all timing state until inMeasurement(): instructions skip
 * the issue/retire loop and the hierarchy is driven with
 * architectural-state-only accesses — tags, replacement metadata,
 * predictor training and prefetcher state update exactly as in timed
 * mode, while DRAM is skipped entirely. The measured window always
 * runs the sealed timed path; the only fidelity loss is that timing
 * state (ROB, MSHRs, DRAM bank queues) starts cold at the boundary.
 * Cache and core counters over the measured window are bit-identical
 * between the two modes.
 */
enum class WarmupMode : std::uint8_t
{
    Timed = 0,
    Functional = 1,
};

/** Full simulation configuration. */
struct SimConfig
{
    CoreConfig core;
    HierarchyConfig hierarchy;
    /** Instructions consumed before statistics start counting. */
    InstCount warmupInstructions = 0;
    /** Measured instructions after warmup; 0 = until the trace ends. */
    InstCount measureInstructions = 0;
    /** Fast-path selector for the warmup window (default: timed). */
    WarmupMode warmupMode = WarmupMode::Timed;
    /**
     * Online PC/address-correlation profiler attached to the LLC's
     * demand stream (off by default; zero hot-path cost when off
     * beyond the existing hook guard). The Simulator attaches exactly
     * one, to the shared LLC, whatever the core count: in a co-run it
     * sees every tenant's demand stream merged.
     */
    ProfileConfig profile;
    /**
     * Cooperative-cancellation token (not owned; may be null). The
     * instruction loop polls it every kCancelPollInterval instructions
     * and unwinds with CancelledError once it fires — this is how
     * --cell-timeout-s / --deadline-s / ^C reap a running simulation.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Validate every cache level's geometry plus its replacement-policy
     * and prefetcher names, and reject a warmup + measurement window
     * that overflows the instruction counter. Run this on
     * user-assembled configurations before constructing a Simulator:
     * construction fatal()s on the same conditions, whereas validate()
     * reports them recoverably.
     */
    Status validate() const;
};

/** Everything a finished simulation reports. */
struct SimResult
{
    std::string llcPolicy;
    /** Snapshot of the LLC policy's learned state (may be empty). */
    std::string llcPolicyState;
    CoreStats core;
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    CacheStats llc;
    DramStats dram;
    /**
     * Dynamic per-component state metrics (replacement-policy and
     * prefetcher internals) captured by Simulator::result(); already
     * prefixed by cache level ("llc.policy.psel", ...).
     */
    MetricsRegistry extraMetrics;

    double ipc() const { return core.ipc(); }
    /** Demand MPKI at a given level over the measured window. */
    double mpkiL1d() const;
    double mpkiL2() const;
    double mpkiLlc() const;
    /** Fraction of L1D demand misses ultimately served by DRAM. */
    double dramServiceRatio() const;

    /**
     * Register the full statistics tree — core, every cache level,
     * DRAM, derived gauges (ipc, mpki_*, dram_service_ratio), and
     * extraMetrics — under "<prefix>." in @p metrics ("" = top level).
     */
    void exportMetrics(MetricsRegistry &metrics,
                       const std::string &prefix = "") const;
};

/**
 * Configuration of a Simulator of N >= 1 cores: the per-core template
 * plus the co-run shape (per-core warmups, way partition, stream
 * tagging). The shape's defaults are inert for one core.
 */
struct CorunConfig
{
    CorunConfig() = default;

    /** One core running @p single: what Simulator(SimConfig) builds. */
    CorunConfig(const SimConfig &single) : base(single) {}

    /**
     * Per-core template: core model, private L1I/L1D/L2, the shared
     * LLC geometry/policy and DRAM timing, warmup/measure windows and
     * the cancellation token. Every core uses the same template; only
     * the warmup may differ per core (coreWarmups).
     */
    SimConfig base;

    /**
     * Per-core warmup overrides (empty = base.warmupInstructions for
     * every core; otherwise one entry per core). Lets workload tenants
     * keep their individual warmupHint()-adjusted windows.
     */
    std::vector<InstCount> coreWarmups;

    /**
     * Static LLC way partitioning: core c may only fill ways
     * [c*K, (c+1)*K). 0 = fully shared (the default). Used as the
     * interference ablation: partitioned co-runs isolate capacity
     * contention away, leaving only bandwidth coupling.
     */
    std::uint32_t llcWaysPerCore = 0;

    /**
     * Tag each core's PCs and memory addresses with the core id (XOR
     * into bit kStreamTagShift and up) — multi-programmed semantics:
     * tenants occupy disjoint address spaces and PC-indexed LLC
     * policies (SHiP/Hawkeye/Glider/MPPPB) see per-core signatures.
     * Core 0's tag is zero, so a 1-core co-run is bit-identical to a
     * single-core run. Turning this off aliases identical tenants onto
     * the same lines and PCs (shared-memory-like semantics).
     */
    bool tagStreams = true;

    /** First address/PC bit the core-id tag is XORed into. Above every
     *  set-index and DRAM-row bit the default configs use, so tagging
     *  relabels tags/rows without skewing set distribution. */
    static constexpr unsigned kStreamTagShift = 48;

    /** Validate the template and the co-run shape for @p num_cores. */
    Status validate(std::size_t num_cores) const;
};

/** Everything a finished co-run reports. */
struct CorunResult
{
    std::string llcPolicy;
    std::string llcPolicyState;
    /**
     * Per-core results. Private levels (core/l1i/l1d/l2 and their
     * dynamic metrics) are truly per-core; the llc/dram fields and the
     * llc.* / profile.* dynamic metrics hold the *shared* end-of-run
     * snapshots (which is what makes a 1-core co-run's export
     * byte-identical to a single-core run's).
     */
    std::vector<SimResult> cores;
    /** Shared-LLC statistics attributed per core; sums to `llc`. */
    std::vector<CacheStats> llcPerCore;
    CacheStats llc;
    DramStats dram;
    /** Shared-LLC policy/prefetcher internals ("llc.policy.*") and
     *  the profiler's "profile.*" tree. */
    MetricsRegistry extraMetrics;
    std::uint32_t llcWaysPerCore = 0;
    /** Wall seconds from the all-cores-warm barrier to the end of
     *  run() (0 if the barrier never opened). */
    double measureWallSeconds = 0.0;

    /** Sum of per-core IPCs (the raw throughput summary). */
    double ipcSum() const;

    /**
     * Export the co-run metric tree under "<prefix>.".
     *
     * With one core this emits exactly the single-core SimResult tree
     * (no core0 prefix, no corun.* summary) so downstream tooling and
     * baselines see no difference between `run` and a 1-core `corun`.
     * With N >= 2 cores: "core<i>.{core,l1i,l1d,l2}.*" private levels,
     * "core<i>.llc.*" attribution slices, "core<i>.derived.*" per-core
     * gauges, the shared "llc.*"/"dram.*"/"profile.*" trees, and
     * "corun.*" summary metrics (num_cores, llc_ways_per_core, ipc_sum).
     */
    void exportMetrics(MetricsRegistry &metrics,
                       const std::string &prefix = "") const;
};

/**
 * One per-core instruction source (pull model). The arbiter owns the
 * interleaving, so co-run inputs are pulled one record at a time
 * instead of pushed like Workload::run().
 */
class CorunStream
{
  public:
    virtual ~CorunStream() = default;

    /** Pull the next record. @return false when the stream is dry. */
    virtual bool next(TraceRecord &rec) = 0;
};

/**
 * The simulation driver, for any core count N >= 1.
 *
 * It owns the shared levels — the LLC (with an optional injected
 * policy, for Belady), DRAM, the one LLC profiler and the LLC's
 * functional-mode flag — and one private hierarchy + timing core per
 * core. The shared levels reset at one place, the all-cores-warm
 * barrier; with one core that barrier is the core's own warmup
 * boundary.
 *
 * Two ways to feed it, sharing one per-core step:
 *  - push (N = 1): the Simulator is an InstructionSink; push a
 *    workload or trace through it, then read result(). wantsMore()
 *    turns false once the measurement budget is consumed so producers
 *    can stop early.
 *  - pull (any N): run(streams) interleaves one stream per core with
 *    a deterministic arbiter; read corunResult().
 *
 * Determinism contract of run(): the arbiter is a single serial loop
 * that always steps the core whose retire clock is furthest behind,
 * breaking ties by the lowest core id. There is no thread scheduling
 * anywhere in it, so a co-run is bit-reproducible across repeats and
 * unaffected by any --jobs setting of an enclosing sweep.
 *
 * Statistics: the shared LLC attributes every counter to the core that
 * caused it (Cache::enableCoreAttribution), so the per-core llc slices
 * sum exactly to the shared totals by construction. Private-level
 * stats reset per core at each core's own warmup boundary; the shared
 * LLC, its slices, DRAM and the profiler reset once, at the barrier
 * where every live core has entered its measurement window. A core
 * that finishes its warmup early is held at that barrier — not
 * stepped — until every live core has warmed, so no core's measured
 * traffic predates the shared reset and every attribution slice covers
 * exactly its core's measurement window.
 */
class Simulator : public InstructionSink
{
  public:
    /**
     * Instructions between cancellation/failpoint polls in the main
     * loop. Power of two so the check is one mask + branch; small
     * enough that a 1-second timeout is observed within microseconds
     * of simulated work.
     */
    static constexpr InstCount kCancelPollInterval = 16384;

    /**
     * Build @p num_cores cores from @p config (a plain SimConfig
     * converts to a one-core CorunConfig). A non-null @p llc_policy
     * replaces the policy config.base.hierarchy.llc names (Belady).
     */
    explicit Simulator(const CorunConfig &config,
                       std::size_t num_cores = 1,
                       std::unique_ptr<ReplacementPolicy> llc_policy =
                           nullptr);

    /** Push one record into core 0 (the N = 1 path). */
    void onInstruction(const TraceRecord &rec) override;

    bool
    wantsMore() const override
    {
        return !cores_.front().budgetExhausted;
    }

    /**
     * Drive all @p streams to completion (the any-N path): each core
     * stops when its stream dries up or its measurement budget is
     * exhausted. One stream per core, in core order. Throws
     * CancelledError if the config's cancellation token fires.
     */
    void run(const std::vector<CorunStream *> &streams);

    /** @return true once core @p i has consumed its warmup window. */
    bool
    inMeasurement(std::size_t i = 0) const
    {
        return cores_[i].consumed >= cores_[i].warmup;
    }

    InstCount
    instructionsConsumed(std::size_t i = 0) const
    {
        return cores_[i].consumed;
    }

    /**
     * warn() once if core @p i's input dried up inside its warmup
     * window — a too-short input otherwise yields an all-warmup,
     * zero-measurement result that looks like a clean (but empty) run.
     * @p what names the input ("workload 'bfs'", "trace 'x.trace'").
     */
    void warnIfWarmupUnfinished(const std::string &what,
                                std::size_t i = 0) const;

    /** Core 0's hierarchy, through which the LLC is reachable. */
    CacheHierarchy &hierarchy() { return cores_.front().hier; }

    /** Snapshot core 0's measured window (the N = 1 result). */
    SimResult result() const { return coreResult(0); }

    /** Snapshot every core and the shared levels after run(). */
    CorunResult corunResult() const;

    /**
     * Keep the functional fast path active for the whole run instead
     * of switching to the timed path at the warmup boundary. Used for
     * runs whose output is timing-independent — Belady's first pass
     * only records the LLC demand stream, which the functional path
     * reproduces exactly. Timing results (cycles, IPC, DRAM stats) are
     * meaningless after this call.
     */
    void forceFunctional();

    /**
     * Wall seconds core @p i spent before its warmup boundary (from
     * its first instruction to the boundary; everything so far if the
     * boundary has not been crossed). 0 before the first instruction.
     */
    double warmupWallSeconds(std::size_t i = 0) const;

    /** Wall seconds since core 0's warmup boundary (0 until then). */
    double measureWallSeconds() const;

    /** When core 0 consumed its first instruction; empty until then. */
    std::optional<std::chrono::steady_clock::time_point>
    firstInstructionAt() const;

  private:
    /** One core's private state; the arbiter and push path step it. */
    struct Core
    {
        Core(const SimConfig &config, InstCount warmup_instructions,
             Cache &llc, DramModel &dram)
            : hier(config.hierarchy, llc, dram), cpu(config.core, hier),
              warmup(warmup_instructions),
              functional(config.warmupMode == WarmupMode::Functional &&
                         warmup_instructions > 0)
        {}

        CacheHierarchy hier;
        CpuCore cpu;
        InstCount warmup;
        InstCount consumed = 0;
        bool warmupDone = false;
        bool budgetExhausted = false;
        /** True while the core takes the functional (untimed) path. */
        bool functional;
        bool sawInstruction = false;
        std::chrono::steady_clock::time_point firstInstructionAt{};
        std::chrono::steady_clock::time_point warmupEndedAt{};
    };

    /** Consume one record on core @p c: the loop both paths share. */
    void step(Core &c, const TraceRecord &rec);

    /** Core @p c crossed its warmup boundary: reset its private state. */
    void enterMeasurement(Core &c);

    /** The all-cores-warm barrier: hand the shared levels to the timed
     *  path and reset their statistics. */
    void openBarrier();

    /** The LLC's dynamic metrics and the profiler's tree. */
    void exportSharedMetrics(MetricsRegistry &metrics) const;

    SimResult coreResult(std::size_t i) const;

    CorunConfig cfg;
    std::unique_ptr<DramModel> dram_;
    std::unique_ptr<DramLevel> dramLevel_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<OnlineProfiler> profiler_;
    /** A deque never moves its elements, and each CpuCore holds a
     *  reference to its hierarchy. */
    std::deque<Core> cores_;
    bool barrierOpen_ = false;
    std::chrono::steady_clock::time_point barrierAt_{};
    /** forceFunctional(): never hand over to the timed path. */
    bool forcedFunctional_ = false;
    /** Wall seconds of the last run()'s measured phase. */
    double runMeasureWallSeconds_ = 0.0;
};

} // namespace cachescope

#endif // CACHESCOPE_CORE_SIMULATOR_HH
