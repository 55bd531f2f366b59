/**
 * @file
 * CacheScope benchmark program: host-time cost of a GAP policy sweep,
 * plain and under the --fast-sweep preset, measured end to end and, in
 * a separate traced run, layer by layer.
 *
 *   perfbench --workload sweep_gap|sweep_gap_fast --seed N --seconds S
 *             --trace 0|1 [--digests FILE] [--work-dir DIR]
 *
 * One client drives the workload in a closed loop: it sets the
 * workload up several times (reporting the median set-up time), runs
 * one untimed warm-up pass, then starts pass after pass — one sweep
 * grid on min(nproc, 4) SuiteRunner workers — until S seconds have
 * gone by. Simulated results are deterministic, so every pass must
 * reproduce the first one's metric-tree digest, and for pinned seeds
 * that digest must match the expected one in --digests.
 *
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding the end-to-end metrics with --trace 0 and the per-layer
 * metrics with --trace 1. The traced run repeats the timed region with
 * spans on, runs the layer ladder on the first suite member (generator
 * only, capture, TraceReader::replayInto decode, functional, timed, LLC
 * set-sampling, per-policy LLC replay, DRAM replay) and a four-tenant
 * co-run through runCorun, and writes every span to
 * DIR/spans-<workload>-<seed>.json.
 *
 * No simulated-accuracy figure is reported: the timing model is not
 * validated against hardware.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hh"
#include "core/cache.hh"
#include "core/cascade_lake.hh"
#include "dram/dram.hh"
#include "graph/gap_suite.hh"
#include "harness/corun.hh"
#include "harness/experiment.hh"
#include "harness/workload_zoo.hh"
#include "trace/trace_io.hh"
#include "util/parse.hh"

using namespace cachescope;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** SuiteRunner workers never exceed this, whatever the host has. */
constexpr unsigned kMaxJobs = 4;

/** Graph scale of every GAP input (512K vertices). */
constexpr unsigned kGraphScale = 19;
/** LLC set-sampling rate of the --fast-sweep preset (1 set in 16). */
constexpr unsigned kSampleSets = 16;

/** The seven non-oracle LLC policies: LRU plus the paper's six. */
std::vector<std::string>
livePolicies()
{
    std::vector<std::string> p = {"lru"};
    for (const std::string &name : paperPolicies())
        p.push_back(name);
    return p;
}

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Discards records after counting them, stopping at a budget. */
class BudgetSink final : public CountingSink
{
  public:
    explicit BudgetSink(std::uint64_t budget) : budget_(budget) {}
    bool wantsMore() const override { return total < budget_; }

  private:
    std::uint64_t budget_;
};

/**
 * Captures up to a budget of records into a TraceWriter, handing them
 * over in chunks so the time spent inside the writer (encode, checksum,
 * write) is measured with two clock reads per chunk.
 */
class TimedCapture final : public InstructionSink
{
  public:
    TimedCapture(TraceWriter &writer, std::uint64_t budget)
        : writer_(writer), budget_(budget)
    {
        chunk_.reserve(kChunk);
    }

    void
    onInstruction(const TraceRecord &rec) override
    {
        chunk_.push_back(rec);
        ++seen_;
        if (chunk_.size() == kChunk)
            flush();
    }

    bool
    wantsMore() const override
    {
        return seen_ < budget_ && writer_.status().ok();
    }

    /** Write the last chunk and finalise the file. */
    Status
    finish()
    {
        flush();
        const auto start = Clock::now();
        Status s = writer_.finish();
        encodeS_ += since(start);
        return s;
    }

    double encodeSeconds() const { return encodeS_; }

  private:
    static constexpr std::size_t kChunk = 4096;

    void
    flush()
    {
        const auto start = Clock::now();
        for (const TraceRecord &rec : chunk_)
            writer_.onInstruction(rec);
        encodeS_ += since(start);
        chunk_.clear();
    }

    TraceWriter &writer_;
    std::uint64_t budget_;
    std::uint64_t seen_ = 0;
    std::vector<TraceRecord> chunk_;
    double encodeS_ = 0.0;
};

/**
 * Capture @p budget records of @p workload to @p path; fatal on I/O
 * error. @return the seconds spent inside the TraceWriter.
 */
double
capture(Workload &workload, std::uint64_t budget, const std::string &path)
{
    auto writer = TraceWriter::open(path);
    if (!writer.ok())
        fatal("%s", writer.status().message().c_str());
    TimedCapture sink(*writer.value(), budget);
    workload.run(sink);
    if (Status s = sink.finish(); !s.ok())
        fatal("capture to %s failed: %s", path.c_str(), s.message().c_str());
    return sink.encodeSeconds();
}

/** Open @p path for replay; fatal when it is missing or corrupt. */
std::unique_ptr<TraceReader>
openTrace(const std::string &path)
{
    auto reader = TraceReader::open(path);
    if (!reader.ok())
        fatal("%s", reader.status().message().c_str());
    return reader.take();
}

/** Correctness checks of one pass: how many ran, which failed. */
struct Checks
{
    std::size_t run = 0;
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        ++run;
        if (!ok)
            failures.push_back(what);
    }
};

/** Loads + stores + writebacks + prefetches seen by a level. */
std::uint64_t
allAccesses(const CacheStats &s)
{
    std::uint64_t n = 0;
    for (std::size_t t = 0; t < CacheStats::kNumTypes; ++t)
        n += s.hits[t] + s.misses[t];
    return n;
}

/**
 * Conservation down one core's private levels: every memory op reaches
 * the L1D once, every L1 miss reaches the L2 once.
 */
void
checkPrivateLevels(const SimResult &r, const std::string &what, Checks &c)
{
    c.expect(r.l1d.demandAccesses() == r.core.loads + r.core.stores,
             what + ": L1D demand hits + misses != loads + stores");
    c.expect(r.l2.demandAccesses() ==
                 r.l1d.demandMisses() + r.l1i.demandMisses(),
             what + ": L2 demand hits + misses != L1D + L1I misses");
}

/** The LLC sees every L2 miss and writeback, or skips it by sampling. */
void
checkLlcInflow(const CacheStats &llc, std::uint64_t skipped,
               std::uint64_t l2_outflow, const std::string &what, Checks &c)
{
    c.expect(allAccesses(llc) + skipped == l2_outflow,
             what + ": LLC hits + misses + skipped != L2 misses + "
                    "writebacks");
}

void
checkSingleCore(const SimResult &r, InstCount expected_instructions,
                const std::string &what, Checks &c)
{
    c.expect(r.core.instructions == expected_instructions,
             what + ": measured " + std::to_string(r.core.instructions) +
                 " instructions, window is " +
                 std::to_string(expected_instructions));
    checkPrivateLevels(r, what, c);
    checkLlcInflow(r.llc,
                   r.extraMetrics.counter("llc.sampled.skipped_accesses"),
                   r.l2.demandMisses() + r.l2.writebacksIssued, what, c);
}

/** Everything one pass of the timed region produced. */
struct PassOutcome
{
    /** SuiteRunner::runChecked plus JSON serialisation of its tree. */
    double wallS = 0.0;
    /** Wall time of every cell. */
    std::vector<double> cellS;
    /** Cell wall minus the cell's own sim.wall_seconds. */
    std::vector<double> cellOverheadS;
    double exportS = 0.0;
    /** Wall seconds of the belady cells. */
    double beladyS = 0.0;
    /** Simulated instructions requested: warmup + measure windows. */
    std::uint64_t instructions = 0;
    /** Cells run, and how many failed. */
    std::size_t operations = 0;
    std::size_t failedOperations = 0;
    std::uint64_t digest = 0;
    Checks checks;
    /** Level counters of the pass, for the per-layer access counts. */
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcDemandHits = 0;
    std::uint64_t llcDemandAccesses = 0;

    void
    addLevels(const SimResult &r)
    {
        l1dAccesses += allAccesses(r.l1d);
        l2Accesses += allAccesses(r.l2);
        llcAccesses += allAccesses(r.llc);
        llcDemandHits += r.llc.demandHits();
        llcDemandAccesses += r.llc.demandAccesses();
    }
};

/** What the layer ladder replays: one representative stream. */
struct LadderInput
{
    Workload *generator = nullptr;
    std::uint64_t budget = 0;
    /** Where the ladder captures the stream. */
    std::string tracePath;
};

/**
 * The export step of every pass, as --metrics-json does it: SuiteRunner
 * has already exported every cell into @p tree, which is serialised to
 * JSON. @return the seconds that took.
 */
double
serialiseMetrics(const MetricsRegistry &tree, SpanRecorder &spans,
                 std::uint64_t parent)
{
    ScopedSpan span(spans, "metrics.export", parent);
    const auto start = Clock::now();
    MetricsDocument doc;
    doc.name = "perfbench";
    doc.metrics = tree;
    if (metricsToJson(doc).empty())
        fatal("metrics export produced no JSON");
    return since(start);
}

// ---------------------------------------------------------------------
// sweep_gap / sweep_gap_fast

/**
 * One benchmark workload: the GAP suite (scale 19, Kronecker and
 * uniform inputs) x policies through SuiteRunner::runChecked.
 */
class GapSweep
{
  public:
    GapSweep(std::string name, SimConfig base,
             std::vector<std::string> policies, bool fast,
             std::uint64_t seed, unsigned jobs, const std::string &work_dir)
        : name_(std::move(name)), base_(std::move(base)),
          policies_(std::move(policies)), fast_(fast), seed_(seed),
          jobs_(jobs), tracePath_(work_dir + "/" + name_ + ".trace")
    {}

    /** Build the inputs; called several times, the last one kept. */
    void
    setUp(SpanRecorder &spans, std::uint64_t parent)
    {
        // Drop the previous set-up's graphs first, so only one copy is
        // ever alive and peak_rss_mb stays the timed region's.
        counting_.clear();
        suite_.clear();
        inner_.clear();
        ScopedSpan span(spans, "graph.build", parent);
        const auto start = Clock::now();
        GapSuiteConfig cfg;
        cfg.scale = kGraphScale;
        cfg.seed = seed_;
        inner_ = makeGapSuite(cfg);
        graphBuildS.push_back(since(start));
        for (const auto &w : inner_) {
            auto c = std::make_shared<CountingWorkload>(w, spans);
            counting_.push_back(c);
            suite_.push_back(c);
        }
    }

    /** Run one pass of the timed region and check its outputs. */
    PassOutcome
    pass(SpanRecorder &spans, std::uint64_t parent)
    {
        PassOutcome out;
        ScopedSpan pass_span(spans, "pass", parent);
        const auto start = Clock::now();
        SuiteRunner runner(base_, jobs_);
        runner.setVerbose(false);
        runner.setFastSweep(fast_);
        SweepReport report;
        {
            ScopedSpan span(spans, "SuiteRunner.runChecked",
                            pass_span.id());
            for (const auto &c : counting_)
                c->setParentSpan(span.id());
            report = runner.runChecked(suite_, policies_);
        }
        out.exportS = serialiseMetrics(report.metrics, spans, pass_span.id());
        out.wallS = since(start);

        std::map<std::string, InstCount> hint;
        for (const auto &w : suite_)
            hint[w->name()] = w->warmupHint();
        for (const CellOutcome &cell : report.outcomes) {
            const std::string what =
                name_ + " " + cell.workload + "/" + cell.policy;
            const double wall = cell.wallMs / 1000.0;
            out.cellS.push_back(wall);
            out.cellOverheadS.push_back(
                wall -
                cell.result.extraMetrics.gauge("sim.wall_seconds"));
            if (cell.policy == "belady")
                out.beladyS += wall;
            out.instructions +=
                std::max(base_.warmupInstructions, hint[cell.workload]) +
                base_.measureInstructions;
            ++out.operations;
            if (!cell.ok)
                ++out.failedOperations;
            out.checks.expect(cell.ok, what + ": " + cell.error);
            if (!cell.ok)
                continue;
            checkSingleCore(cell.result, base_.measureInstructions, what,
                            out.checks);
            out.addLevels(cell.result);
        }
        out.checks.expect(report.outcomes.size() ==
                              suite_.size() * policies_.size(),
                          name_ + ": grid has missing cells");
        out.digest = treeDigest(report.metrics);
        return out;
    }

    /** The first suite member at one cell's instruction budget. */
    LadderInput
    ladderInput() const
    {
        Workload &first = *inner_.front();
        const std::uint64_t budget =
            std::max(base_.warmupInstructions, first.warmupHint()) +
            base_.measureInstructions;
        return {&first, budget, tracePath_};
    }

    /** Decorator run() calls so far (generator passes). */
    std::uint64_t
    generatorRuns() const
    {
        std::uint64_t n = 0;
        for (const auto &c : counting_)
            n += c->runs();
        return n;
    }

    /** Seconds each set-up spent constructing the suite's graphs. */
    std::vector<double> graphBuildS;

  private:
    std::string name_;
    SimConfig base_;
    std::vector<std::string> policies_;
    bool fast_;
    std::uint64_t seed_;
    unsigned jobs_;
    std::string tracePath_;
    std::vector<std::shared_ptr<Workload>> inner_;
    std::vector<std::shared_ptr<CountingWorkload>> counting_;
    std::vector<std::shared_ptr<Workload>> suite_;
};

std::unique_ptr<GapSweep>
makeBench(const std::string &name, std::uint64_t seed, unsigned jobs,
          const std::string &work_dir)
{
    if (name == "sweep_gap") {
        // The paper-style 1:10 warmup:measure ratio at 0.2M + 2M
        // instructions, so a 96-cell grid takes seconds and several
        // passes fit into one run.
        std::vector<std::string> policies = livePolicies();
        policies.push_back("belady");
        return std::make_unique<GapSweep>(
            name, cascadeLakeConfig("lru", 200'000, 2'000'000), policies,
            /*fast=*/false, seed, jobs, work_dir);
    }
    if (name == "sweep_gap_fast") {
        // The --fast-sweep preset (functional warmup, 1-in-16 LLC
        // sets) with a warmup as long as the measured window, so the
        // functional path and the sampling filter carry the cells.
        // Belady is left out: runBelady turns set-sampling off.
        return std::make_unique<GapSweep>(
            name, cascadeLakeConfig("lru", 2'000'000, 2'000'000),
            livePolicies(), /*fast=*/true, seed, jobs, work_dir);
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// The timed region and the layer ladder

struct Region
{
    std::vector<PassOutcome> passes;
    std::uint64_t generatorRuns = 0;

    double
    medianWall() const
    {
        std::vector<double> w;
        for (const PassOutcome &p : passes)
            w.push_back(p.wallS);
        return median(w);
    }

    std::vector<double>
    cells() const
    {
        std::vector<double> c;
        for (const PassOutcome &p : passes)
            c.insert(c.end(), p.cellS.begin(), p.cellS.end());
        return c;
    }

    template <typename F>
    double
    medianOf(F f) const
    {
        std::vector<double> v;
        for (const PassOutcome &p : passes)
            v.push_back(f(p));
        return median(v);
    }
};

/** Closed loop: start passes until @p seconds have gone by (at least one). */
Region
runRegion(GapSweep &bench, double seconds, SpanRecorder &spans,
          std::uint64_t parent)
{
    Region region;
    const std::uint64_t runs_before = bench.generatorRuns();
    const auto start = Clock::now();
    do {
        region.passes.push_back(bench.pass(spans, parent));
    } while (since(start) < seconds);
    region.generatorRuns = bench.generatorRuns() - runs_before;
    return region;
}

/** Ordered name -> (value, unit) list, printed as the result's metrics. */
class MetricList
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items_.push_back({name, value, unit});
    }

    std::string
    toJson() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += jsonString(items_[i].name) +
                   ": {\"value\": " + jsonNumber(items_[i].value) +
                   ", \"unit\": " + jsonString(items_[i].unit) + "}";
        }
        return out + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/** Stands in for DRAM below a standalone LLC; optionally records it. */
class RecordingLevel final : public MemoryLevel
{
  public:
    struct Request
    {
        Addr addr;
        Cycle now;
        bool write;
    };

    Cycle
    access(Addr addr, Pc, AccessType type, Cycle now) override
    {
        if (recording)
            requests.push_back({addr, now, type == AccessType::Writeback});
        return now + kLatency;
    }

    const std::string &levelName() const override { return name_; }

    bool recording = false;
    std::vector<Request> requests;

  private:
    static constexpr Cycle kLatency = 200;
    std::string name_ = "recorder";
};

/**
 * The layer ladder over one representative stream: generator alone,
 * capture, decode alone, functional hierarchy, timed hierarchy, each
 * LLC policy on the recorded LLC stream, DRAM on the recorded miss and
 * writeback stream. Each rung is one span and one metric.
 */
void
runLadder(const LadderInput &in, SpanRecorder &spans, std::uint64_t parent,
          MetricList &layers)
{
    double gen_s = 0.0;
    {
        ScopedSpan span(spans, "ladder.generate", parent);
        const auto start = Clock::now();
        BudgetSink sink(in.budget);
        in.generator->run(sink);
        gen_s = since(start);
    }
    double encode_s = 0.0;
    {
        ScopedSpan span(spans, "ladder.capture", parent);
        encode_s = capture(*in.generator, in.budget, in.tracePath);
    }

    CountingSink kinds;
    double decode_s = 0.0;
    {
        ScopedSpan span(spans, "ladder.decode", parent);
        const auto start = Clock::now();
        if (Status s = openTrace(in.tracePath)->replayInto(kinds); !s.ok())
            fatal("decode: %s", s.toString().c_str());
        decode_s = since(start);
    }
    const SimConfig cfg = cascadeLakeConfig("lru", 0, 0);
    double functional_s = 0.0;
    {
        ScopedSpan span(spans, "ladder.functional", parent);
        const auto start = Clock::now();
        Simulator sim(cfg);
        sim.forceFunctional();
        if (Status s = openTrace(in.tracePath)->replayInto(sim); !s.ok())
            fatal("functional replay: %s", s.toString().c_str());
        functional_s = since(start);
    }
    double timed_s = 0.0;
    {
        ScopedSpan span(spans, "ladder.timed", parent);
        const auto start = Clock::now();
        Simulator sim(cfg);
        if (Status s = openTrace(in.tracePath)->replayInto(sim); !s.ok())
            fatal("timed replay: %s", s.toString().c_str());
        timed_s = since(start);
    }
    // The fast-sweep preset's LLC set-sampling filter on the same stream.
    double skip_ratio = 0.0;
    {
        ScopedSpan span(spans, "ladder.sampled", parent);
        SimConfig sampled = cfg;
        sampled.hierarchy.llc.sampleSets = kSampleSets;
        Simulator sim(sampled);
        if (Status s = openTrace(in.tracePath)->replayInto(sim); !s.ok())
            fatal("sampled replay: %s", s.toString().c_str());
        const SimResult r = sim.result();
        const double skipped = static_cast<double>(
            r.extraMetrics.counter("llc.sampled.skipped_accesses"));
        skip_ratio =
            skipped / (skipped + static_cast<double>(allAccesses(r.llc)));
    }

    struct LlcEvent
    {
        Addr addr;
        Pc pc;
        AccessType type;
    };
    std::vector<LlcEvent> events;
    Cycle cycles = 0;
    {
        ScopedSpan span(spans, "ladder.record_llc", parent);
        Simulator sim(cfg);
        const Addr block_bytes = cfg.hierarchy.llc.blockBytes;
        sim.hierarchy().llc().setEventHook(
            [&events, block_bytes](const Cache::AccessEvent &e) {
                events.push_back({e.block * block_bytes, e.pc, e.type});
            });
        if (Status s = openTrace(in.tracePath)->replayInto(sim); !s.ok())
            fatal("recording replay: %s", s.toString().c_str());
        cycles = sim.result().core.cycles;
    }
    // Space the replayed LLC accesses at the timed run's average
    // arrival rate, so DRAM sees a realistic request spacing.
    const Cycle spacing = events.empty()
        ? 1
        : std::max<Cycle>(1, cycles / events.size());

    std::vector<std::pair<std::string, double>> policy_ns;
    RecordingLevel below;
    for (const std::string &policy : livePolicies()) {
        CacheConfig llc_cfg = cfg.hierarchy.llc;
        llc_cfg.replacement = policy;
        below.recording = policy == "lru";
        Cache llc(llc_cfg, &below);
        ScopedSpan span(spans, "ladder.llc." + policy, parent);
        const auto start = Clock::now();
        Cycle now = 0;
        for (const LlcEvent &e : events) {
            llc.access(e.addr, e.pc, e.type, now);
            now += spacing;
        }
        const double s = since(start);
        policy_ns.emplace_back(
            policy, events.empty() ? 0.0 : s * 1e9 / events.size());
    }

    double dram_s = 0.0;
    DramModel dram(cfg.hierarchy.dram);
    {
        ScopedSpan span(spans, "ladder.dram", parent);
        const auto start = Clock::now();
        for (const RecordingLevel::Request &r : below.requests) {
            if (r.write)
                dram.write(r.addr, r.now);
            else
                dram.read(r.addr, r.now);
        }
        dram_s = since(start);
    }

    const double records = static_cast<double>(kinds.total);
    layers.add("trace.decode_s", decode_s, "s");
    layers.add("trace.decode_mrps", records / decode_s / 1e6, "Mrec/s");
    layers.add("trace.bytes_per_record",
               static_cast<double>(std::filesystem::file_size(in.tracePath)) /
                   records,
               "B/rec");
    layers.add("trace.mem_record_ratio",
               static_cast<double>(kinds.loads + kinds.stores) / records,
               "ratio");
    layers.add("trace.encode_s", encode_s, "s");
    layers.add("gen.s", gen_s, "s");
    layers.add("gen.mips", static_cast<double>(in.budget) / gen_s / 1e6,
               "MIPS");
    layers.add("core.functional_s", functional_s, "s");
    layers.add("core.timing_self_s", timed_s - functional_s, "s");
    layers.add("llc.sample_skip_ratio", skip_ratio, "ratio");
    for (const auto &[policy, ns] : policy_ns)
        layers.add("llc." + policy + ".ns_per_access", ns, "ns");
    const double requests = static_cast<double>(below.requests.size());
    layers.add("dram.ns_per_request",
               requests == 0.0 ? 0.0 : dram_s * 1e9 / requests, "ns");
    layers.add("dram.requests", requests, "count");
    layers.add("dram.row_hit_ratio", dram.stats().rowHitRate(), "ratio");
}

void
addStats(CacheStats &sum, const CacheStats &s)
{
    for (std::size_t t = 0; t < CacheStats::kNumTypes; ++t) {
        sum.hits[t] += s.hits[t];
        sum.misses[t] += s.misses[t];
        sum.evictionsByFill[t] += s.evictionsByFill[t];
    }
    sum.bypasses += s.bypasses;
    sum.writebacksIssued += s.writebacksIssued;
    sum.evictions += s.evictions;
    sum.prefetchesIssued += s.prefetchesIssued;
    sum.prefetchesUseful += s.prefetchesUseful;
}

/**
 * The co-run rung: a four-tenant shared-LLC co-run (bfs, pr,
 * gather_zipf, scan_thrash under DRRIP) with solo baselines, through
 * runCorun. Times the co-run pass and the baselines apart, and checks
 * the per-core attribution: every core measures its window, and the
 * per-core LLC slices sum to the shared LLC's counters.
 */
void
runCorunRung(std::uint64_t seed, SpanRecorder &spans, std::uint64_t parent,
             MetricList &layers, Checks &checks)
{
    constexpr InstCount kWarmup = 500'000;
    constexpr InstCount kMeasure = 2'000'000;
    ScopedSpan rung(spans, "ladder.corun", parent);
    std::vector<CorunTenant> tenants;
    {
        ScopedSpan span(spans, "graph.build", rung.id());
        ZooOptions zoo;
        zoo.scale = kGraphScale;
        zoo.seed = seed;
        for (const char *name : {"bfs", "pr", "gather_zipf", "scan_thrash"})
            tenants.push_back(
                CorunTenant::fromWorkload(makeNamedWorkload(name, zoo)));
    }
    CorunRunOptions options;
    options.config.base = cascadeLakeConfig("drrip", kWarmup, kMeasure);
    options.soloBaselines = true;
    double call_s = 0.0;
    Expected<CorunReport> report = [&] {
        ScopedSpan span(spans, "runCorun", rung.id());
        const auto start = Clock::now();
        Expected<CorunReport> r = runCorun(tenants, options);
        call_s = since(start);
        return r;
    }();

    checks.expect(report.ok(), "corun: " + report.status().toString());
    if (!report.ok()) {
        layers.add("corun.pass_s", call_s, "s");
        layers.add("corun.solo_s", 0.0, "s");
        return;
    }
    const CorunResult &r = report.value().result;
    checks.expect(r.cores.size() == tenants.size() &&
                      r.llcPerCore.size() == tenants.size(),
                  "corun: wrong core count");
    std::uint64_t l2_outflow = 0;
    CacheStats slices;
    for (std::size_t i = 0; i < r.cores.size(); ++i) {
        const SimResult &core = r.cores[i];
        const std::string what = "corun core" + std::to_string(i);
        checks.expect(core.core.instructions == kMeasure,
                      what + ": measured " +
                          std::to_string(core.core.instructions) +
                          " instructions, window is " +
                          std::to_string(kMeasure));
        checkPrivateLevels(core, what, checks);
        l2_outflow += core.l2.demandMisses() + core.l2.writebacksIssued;
        if (i < r.llcPerCore.size())
            addStats(slices, r.llcPerCore[i]);
    }
    MetricsRegistry shared_tree, slice_tree;
    r.llc.exportMetrics(shared_tree, "llc");
    slices.exportMetrics(slice_tree, "llc");
    checks.expect(shared_tree == slice_tree,
                  "corun: per-core LLC slices do not sum to the shared LLC "
                  "counters");
    checkLlcInflow(r.llc,
                   r.extraMetrics.counter("llc.sampled.skipped_accesses"),
                   l2_outflow, "corun", checks);
    layers.add("corun.pass_s", report.value().wallSeconds, "s");
    layers.add("corun.solo_s", call_s - report.value().wallSeconds, "s");
}

/** Per-layer metrics read off the traced region's passes. */
void
addRegionLayers(const Region &traced, const GapSweep &bench,
                unsigned jobs, MetricList &layers)
{
    const PassOutcome &first = traced.passes.front();
    const double passes = static_cast<double>(traced.passes.size());
    const double gen_runs =
        static_cast<double>(traced.generatorRuns) / passes;
    const double cells_per_pass =
        static_cast<double>(traced.cells().size()) / passes;
    layers.add("graph.build_s", median(bench.graphBuildS), "s");
    layers.add("gen.runs", gen_runs, "count");
    layers.add("gen.runs_per_cell", gen_runs / cells_per_pass, "ratio");
    layers.add("l1d.accesses", static_cast<double>(first.l1dAccesses),
               "count");
    layers.add("l2.accesses", static_cast<double>(first.l2Accesses),
               "count");
    layers.add("llc.accesses", static_cast<double>(first.llcAccesses),
               "count");
    layers.add("llc.demand_hit_ratio",
               first.llcDemandAccesses == 0
                   ? 0.0
                   : static_cast<double>(first.llcDemandHits) /
                         static_cast<double>(first.llcDemandAccesses),
               "ratio");
    layers.add("llc.belady_s",
               traced.medianOf([](const PassOutcome &p) { return p.beladyS; }),
               "s");
    std::vector<double> overhead;
    double busy = 0.0;
    double wall = 0.0;
    for (const PassOutcome &p : traced.passes) {
        overhead.insert(overhead.end(), p.cellOverheadS.begin(),
                        p.cellOverheadS.end());
        for (const double c : p.cellS)
            busy += c;
        wall += p.wallS;
    }
    layers.add("harness.cell_overhead_s", median(overhead), "s");
    layers.add("harness.worker_busy_ratio", busy / (jobs * wall),
               "ratio");
    layers.add("metrics.export_s",
               traced.medianOf([](const PassOutcome &p) { return p.exportS; }),
               "s");
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Expected digests: lines "<workload> <seed> 0x<digest>", # comments. */
std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
readDigests(const std::string &path)
{
    std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> out;
    std::ifstream in(path);
    if (!in)
        fatal("cannot read expected digests from %s", path.c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, digest;
        std::uint64_t seed = 0;
        if (!(fields >> workload >> seed >> digest))
            fatal("malformed digest line in %s: %s", path.c_str(),
                  line.c_str());
        out[{workload, seed}] = std::stoull(digest, nullptr, 16);
    }
    return out;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
writeSpans(const std::string &path, const Provenance &prov,
           const std::vector<SpanRecord> &spans)
{
    std::ofstream out(path);
    out << "{\"provenance\": " << prov.toJson() << ",\n \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << s.id
            << ", \"parent\": " << s.parent
            << ", \"name\": " << jsonString(s.name)
            << ", \"start_s\": " << jsonNumber(s.start)
            << ", \"end_s\": " << jsonNumber(s.end)
            << ", \"self_s\": " << jsonNumber(selfTime(spans, s.id)) << "}";
    }
    out << "\n]}\n";
    if (!out)
        fatal("cannot write spans to %s", path.c_str());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string workDir = ".bench_work";
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sweep_gap|sweep_gap_fast "
                 "--seed N --seconds S --trace 0|1 [--digests FILE] "
                 "[--work-dir DIR]\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            auto v = parseU64(value);
            if (!v.ok())
                usage();
            o.seed = v.value();
        } else if (flag == "--seconds") {
            auto v = parseF64NonNegative(value);
            if (!v.ok())
                usage();
            o.seconds = v.value();
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage();
            o.trace = value == "1";
        } else if (flag == "--digests") {
            o.digests = value;
        } else if (flag == "--work-dir") {
            o.workDir = value;
        } else {
            usage();
        }
    }
    if (o.workload.empty())
        usage();
    return o;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = std::min(hw, kMaxJobs);
    const Provenance prov = Provenance::ofThisBuild(jobs, opt.seed);
    std::filesystem::create_directories(opt.workDir);

    // Declared before the workload, whose decorators refer to it.
    SpanRecorder spans(opt.trace);
    auto bench = makeBench(opt.workload, opt.seed, jobs, opt.workDir);
    if (!bench)
        usage();
    std::printf("perfbench provenance: %s\n", prov.toJson().c_str());
    std::fflush(stdout);

    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        ScopedSpan span(spans, "setup");
        const auto start = Clock::now();
        bench->setUp(spans, span.id());
        setup_s.push_back(since(start));
    }

    // One untimed warm-up pass first: the first pass in a process runs
    // on cold memory (the allocator's arenas grow by fresh page faults)
    // and is up to a third slower than the rest. The end-to-end region
    // then runs with spans off; the traced run repeats it with spans on
    // and climbs the ladder.
    spans.setEnabled(false);
    bench->pass(spans, 0);
    const Region region = runRegion(*bench, opt.seconds, spans, 0);
    Region traced;
    MetricList metrics;
    // Invariants of the co-run rung, which runs only in the traced run.
    Checks ladder_checks;
    if (opt.trace) {
        spans.setEnabled(true);
        {
            ScopedSpan span(spans, "traced_region");
            traced = runRegion(*bench, opt.seconds, spans, span.id());
        }
        ScopedSpan span(spans, "ladder");
        runLadder(bench->ladderInput(), spans, span.id(), metrics);
        runCorunRung(opt.seed, spans, span.id(), metrics, ladder_checks);
    }

    // Correctness: every pass reproduces the first pass's digest, the
    // first matches the pinned digest when this seed has one, and every
    // invariant holds.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    const std::uint64_t digest = region.passes.front().digest;
    for (const Region *r : std::vector<const Region *>{&region, &traced}) {
        for (const PassOutcome &p : r->passes) {
            attempted += p.operations + p.checks.run + 1;
            failed += p.failedOperations + p.checks.failures.size();
            problems.insert(problems.end(), p.checks.failures.begin(),
                            p.checks.failures.end());
            if (p.digest != digest) {
                ++failed;
                problems.push_back("pass digest " + hex(p.digest) +
                                   " differs from the first pass's " +
                                   hex(digest));
            }
        }
    }
    attempted += ladder_checks.run;
    failed += ladder_checks.failures.size();
    problems.insert(problems.end(), ladder_checks.failures.begin(),
                    ladder_checks.failures.end());
    std::string pinned = "none";
    if (!opt.digests.empty()) {
        const auto expected = readDigests(opt.digests);
        const auto it = expected.find({opt.workload, opt.seed});
        if (it != expected.end()) {
            ++attempted;
            pinned = it->second == digest ? "match" : "MISMATCH";
            if (it->second != digest) {
                ++failed;
                problems.push_back("digest " + hex(digest) +
                                   " != pinned " + hex(it->second));
            }
        }
    }
    if (!prov.optimized) {
        ++attempted;
        ++failed;
        problems.push_back("build is not optimised (" + prov.buildType +
                           "): its times are not data");
    }
    for (const std::string &p : problems)
        std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());

    const std::vector<double> cells = region.cells();
    const TailStat tail = tailPercentile(cells);
    const double wall_s = region.medianWall();
    // Cell percentiles are printed, not gated: their run-to-run spread
    // on a shared host is wider than any bound BENCHMARK.json can set.
    std::printf("perfbench %s seed=%llu passes=%zu digest=%s pinned=%s "
                "cell_p50_s=%.4f cell_tail_s=%.4f at p%.1f (%zu of %zu "
                "cells beyond)\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                region.passes.size(), hex(digest).c_str(), pinned.c_str(),
                median(cells), tail.value, tail.percentile, tail.beyond,
                tail.samples);

    if (!opt.trace) {
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("wall_s", wall_s, "s");
        metrics.add("sim_mips",
                    static_cast<double>(region.passes.front().instructions) /
                        wall_s / 1e6,
                    "MIPS");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        addRegionLayers(traced, *bench, jobs, metrics);
        metrics.add("tracing.overhead_ratio",
                    traced.medianWall() / wall_s - 1.0, "ratio");
        const std::string span_path = opt.workDir + "/spans-" +
                                      opt.workload + "-" +
                                      std::to_string(opt.seed) + ".json";
        writeSpans(span_path, prov, spans.spans());
        std::printf("perfbench spans: %s\n", span_path.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metrics.toJson().c_str());
    return 0;
}
