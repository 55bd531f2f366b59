/**
 * @file
 * The differential-testing driver.
 *
 * Ties the pieces of the difftest subsystem together: for a seed it
 * generates an adversarial stream (stream_fuzzer), replays it through
 * both the production Cache and the reference model (reference_cache),
 * and checks six invariant families:
 *
 *  1. model agreement — per-access hit/miss/way/victim equality between
 *     core/cache.cc and the reference model, for every policy with a
 *     reference implementation (LRU, SRRIP);
 *  2. OPT dominance — Belady's optimal-with-bypass hit count bounds
 *     every registered policy's on the same stream;
 *  3. trace round-trip — write -> read -> write of the stream as a v3
 *     trace preserves every record and produces byte-identical files;
 *  4. conservation — the exported metrics tree of a full Simulator run
 *     obeys the hierarchy's flow-conservation laws (e.g. LLC accesses
 *     of a type equal L2 misses of that type);
 *  5. sweep equality — a serial and a parallel SuiteRunner sweep over
 *     the stream produce byte-identical metric trees (modulo wall-clock
 *     gauges);
 *  6. sampling accuracy — for every registered policy, 1-in-N LLC
 *     set-sampling obeys exact structural laws (scaled counters,
 *     published set selection); for strictly per-set policies the
 *     sampled run additionally equals the full run restricted to the
 *     sampled sets bit-exactly, and its scaled estimate agrees with
 *     the full run within a configurable relative-error budget
 *     slackened by the true (population) sampling standard error.
 *
 * A violation is reported as a DiffFailure carrying the expected and
 * actual metric trees; minimize() shrinks the triggering stream by
 * prefix bisection plus chunk removal while the violation reproduces.
 */

#ifndef CACHESCOPE_DIFFTEST_DIFFTEST_HH
#define CACHESCOPE_DIFFTEST_DIFFTEST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "difftest/stream_fuzzer.hh"
#include "stats/metrics.hh"
#include "trace/workload.hh"
#include "util/status.hh"

namespace cachescope::difftest {

/** How the differential driver exercises one registered policy. */
enum class CheckKind : std::uint8_t {
    /** Checked access-by-access against a reference model + dominance. */
    ExactModel,
    /** Checked against the OPT hit-count bound only. */
    DominanceOnly,
};

/** One registered policy and the invariant family that covers it. */
struct RunMatrixEntry
{
    std::string policy;
    CheckKind kind = CheckKind::DominanceOnly;
    /** Sampling-accuracy budget multiplier. > 0: strictly per-set
     *  state, held to exact restriction equality plus the statistical
     *  bound (budget x this). 0: globally-coupled state (PSEL,
     *  predictor tables, shared fill counters, a single RNG stream),
     *  structural checks only. */
    double samplingSlack = 1.0;
};

/**
 * Build the policy run matrix from @p registered (normally the live
 * ReplacementPolicyFactory listing). Every registered policy must have
 * a coverage entry and vice versa; a divergence in either direction is
 * an Internal error, so adding a policy without difftest coverage
 * fails loudly rather than silently shrinking the net.
 */
Expected<std::vector<RunMatrixEntry>>
buildRunMatrixFor(const std::vector<std::string> &registered);

/** buildRunMatrixFor() over the live policy registry. */
Expected<std::vector<RunMatrixEntry>> buildRunMatrix();

/** Sentinel for "no single access localizes this failure". */
inline constexpr std::size_t kNoAccess = ~std::size_t{0};

/** One invariant violation found by the driver. */
struct DiffFailure
{
    std::uint64_t seed = 0;
    StreamKind kind = StreamKind::ScanThrash;
    /** Violated invariant id, "family" or "family:detail"
     *  ("model_agreement:lru", "opt_dominance:ship", ...). */
    std::string invariant;
    /** Human-readable description of the divergence. */
    std::string detail;
    /** Index (into the memory records) of the first diverging access,
     *  or kNoAccess when the violation is not access-localized. */
    std::size_t firstBadAccess = kNoAccess;
    /** Memory records in the stream that was checked. */
    std::size_t memoryAccesses = 0;
    /** What the invariant demanded, as a metric tree. */
    MetricsRegistry expected;
    /** What the system under test produced. */
    MetricsRegistry actual;
};

/** Knobs of one differential run. */
struct DiffOptions
{
    /** Memory records per generated stream. */
    std::size_t memoryAccesses = 8192;
    /** Geometry of the bare cache under differential test. */
    CacheGeometry geometry{64, 8, 64};
    /** Directory for trace round-trip scratch files; "" skips trace
     *  round-trip checks (e.g. minimization inner loops). */
    std::string scratchDir;
    /** Run the serial-vs-parallel sweep equality family. */
    bool checkSweep = true;
    /** Run the full-Simulator metrics conservation family. */
    bool checkConservation = true;
    /**
     * Run the sampled-vs-full accuracy family: every registered policy
     * is run twice over the stream on a bare cache — exact, and with
     * 1-in-samplingRate LLC set-sampling. Structural invariants hold
     * exactly for every policy (scaled counters = raw x rate, the
     * access-count estimate equals an independent recount over the
     * published set selection, miss rate = misses/accesses in [0,1],
     * finite stderr). Policies whose replacement state is strictly
     * per-set must additionally (a) reproduce the full run restricted
     * to the sampled sets bit-exactly — sampling is a pure set filter
     * — and (b) agree statistically with the full run within
     * samplingErrorBudget, slackened by the estimator's true standard
     * error from the full run's per-set miss distribution and a
     * small-count floor. Globally-coupled policies (set dueling, PC
     * predictors, shared bimodal counters, RNG streams) are exempt
     * from (a) and (b) — filtering the stream changes the surviving
     * sets' behaviour (training dilution) — and their accuracy is
     * instead held on the realistic LLC geometry by the fastsim tests.
     */
    bool checkSampling = true;
    /** Relative-error budget of the sampling accuracy family. */
    double samplingErrorBudget = 0.02;
    /** Set-sampling rate the accuracy family simulates with (a power
     *  of two dividing geometry.numSets; 1 disables the family). */
    std::uint32_t samplingRate = 4;
    /**
     * Test-only bug injection: replace the simulator-side LRU with an
     * off-by-one victim pick, which the model-agreement family must
     * catch. Never set outside tests of the difftest subsystem itself.
     */
    bool injectOffByOneLru = false;
};

/** An in-memory Workload replaying a fixed record vector. */
class VectorWorkload : public Workload
{
  public:
    VectorWorkload(std::string name, std::vector<TraceRecord> records)
        : name_(std::move(name)), records(std::move(records))
    {}

    const std::string &name() const override { return name_; }

    void
    run(InstructionSink &sink) override
    {
        for (const TraceRecord &rec : records) {
            if (!sink.wantsMore())
                break;
            sink.onInstruction(rec);
        }
        sink.onEnd();
    }

  private:
    std::string name_;
    std::vector<TraceRecord> records;
};

/**
 * The differential driver. Construction validates that the run matrix
 * covers the live policy registry exactly.
 */
class DifferentialDriver
{
  public:
    /** Result of shrinking a failing stream. */
    struct MinimizeResult
    {
        std::vector<TraceRecord> stream;
        /** Predicate evaluations consumed. */
        std::size_t evaluations = 0;
    };

    static Expected<std::unique_ptr<DifferentialDriver>>
    create(DiffOptions options);

    const DiffOptions &options() const { return opts; }
    const std::vector<RunMatrixEntry> &runMatrix() const { return matrix; }

    /** @return the full (filler included) stream for @p seed. */
    std::vector<TraceRecord> streamForSeed(std::uint64_t seed) const;

    /**
     * Generate the stream for @p seed and check every enabled invariant
     * family. @return the violations found (empty = all invariants
     * hold); a non-OK Expected signals an infrastructure error (e.g.
     * an unwritable scratch directory), not an invariant violation.
     */
    Expected<std::vector<DiffFailure>> runSeed(std::uint64_t seed);

    /**
     * Check every enabled invariant family on an explicit stream
     * (attributed to @p seed / the seed's kind in reports).
     */
    Expected<std::vector<DiffFailure>>
    checkStream(const std::vector<TraceRecord> &stream, std::uint64_t seed);

    /**
     * @return true iff @p invariant (as reported in a DiffFailure)
     * still fires on @p stream. Re-runs only the relevant family, so
     * it is cheap enough to drive minimization.
     */
    bool failsOn(const std::vector<TraceRecord> &stream,
                 std::uint64_t seed, const std::string &invariant);

    /**
     * Shrink @p stream while @p failure's invariant keeps firing:
     * truncate after the first diverging access if one is known, then
     * bisect to the shortest failing prefix, then drop chunks ddmin-
     * style. Bounded by @p maxEvaluations predicate runs. The result
     * is always a failing stream (or the input, if nothing smaller
     * fails within budget).
     */
    MinimizeResult minimize(const std::vector<TraceRecord> &stream,
                            const DiffFailure &failure,
                            std::size_t maxEvaluations = 200);

  private:
    explicit DifferentialDriver(DiffOptions options,
                                std::vector<RunMatrixEntry> matrix);

    void checkModelAgreement(const std::vector<TraceRecord> &mem,
                             const std::string &policy, std::uint64_t seed,
                             std::vector<DiffFailure> &out) const;
    void checkOptDominance(const std::vector<TraceRecord> &mem,
                           const std::string &policy, std::uint64_t seed,
                           std::vector<DiffFailure> &out) const;
    Status checkTraceRoundTrip(const std::vector<TraceRecord> &stream,
                               std::uint64_t seed,
                               std::vector<DiffFailure> &out) const;
    void checkConservation(const std::vector<TraceRecord> &stream,
                           std::uint64_t seed,
                           std::vector<DiffFailure> &out) const;
    void checkSweepEquality(const std::vector<TraceRecord> &stream,
                            std::uint64_t seed,
                            std::vector<DiffFailure> &out) const;
    void checkSamplingAccuracy(const std::vector<TraceRecord> &mem,
                               const RunMatrixEntry &entry,
                               std::uint64_t seed,
                               std::vector<DiffFailure> &out) const;

    DiffOptions opts;
    std::vector<RunMatrixEntry> matrix;
};

} // namespace cachescope::difftest

#endif // CACHESCOPE_DIFFTEST_DIFFTEST_HH
