/**
 * @file
 * Differential driver implementation.
 */

#include "difftest/difftest.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>

#include "core/cache.hh"
#include "core/cascade_lake.hh"
#include "difftest/reference_cache.hh"
#include "harness/experiment.hh"
#include "trace/trace_io.hh"
#include "util/intmath.hh"
#include "util/logging.hh"

namespace cachescope::difftest {

namespace {

/**
 * The coverage table: every policy the registry can name, and the
 * strongest invariant family the subsystem has for it. Kept next to
 * buildRunMatrixFor() so adding a policy without deciding its coverage
 * is a hard error, not a silent gap.
 */
struct PolicyCoverage
{
    const char *policy;
    CheckKind kind;
    /**
     * Sampling-accuracy budget multiplier. > 0 marks a policy whose
     * replacement state is strictly per-set (a set's victim choices
     * depend only on the accesses that set saw): for those, a sampled
     * run must reproduce the full run *restricted to the sampled
     * sets* bit-exactly — sampling is a pure set filter — and the
     * scaled estimate must additionally agree with the full run
     * within the base budget times this multiplier, slackened by the
     * true (full-run population) sampling standard error. 0 marks a
     * policy whose state couples sets globally — set-dueling PSEL
     * counters, PC-indexed predictor tables, BIP/BRRIP's shared
     * bimodal fill counter, the random policy's single RNG stream —
     * where filtering the stream changes the surviving sets' own
     * behaviour (training dilution: the textbook caveat of sampled
     * simulation, observed at 30%+ relative error for glider on the
     * tiny adversarial difftest geometry). Those policies get the
     * exact structural checks only — still fatal for scaling bugs
     * like a forgotten x-rate — and their statistical accuracy is
     * enforced on the realistic LLC geometry by the fastsim property
     * tests instead.
     */
    double samplingSlack;
};

constexpr PolicyCoverage kCoverage[] = {
    {"lru", CheckKind::ExactModel, 1.0},
    {"srrip", CheckKind::ExactModel, 1.0},
    {"fifo", CheckKind::DominanceOnly, 1.0},
    {"random", CheckKind::DominanceOnly, 0.0},
    {"nru", CheckKind::DominanceOnly, 1.0},
    {"plru", CheckKind::DominanceOnly, 1.0},
    {"bip", CheckKind::DominanceOnly, 0.0},
    {"dip", CheckKind::DominanceOnly, 0.0},
    {"brrip", CheckKind::DominanceOnly, 0.0},
    {"drrip", CheckKind::DominanceOnly, 0.0},
    {"ship", CheckKind::DominanceOnly, 0.0},
    {"hawkeye", CheckKind::DominanceOnly, 0.0},
    {"glider", CheckKind::DominanceOnly, 0.0},
    {"mpppb", CheckKind::DominanceOnly, 0.0},
};

/** A bottomless MemoryLevel: every request returns after one cycle. */
class FlatLevel : public MemoryLevel
{
  public:
    Cycle
    access(Addr, Pc, AccessType, Cycle now) override
    {
        return now + 1;
    }

    const std::string &levelName() const override { return name; }

  private:
    std::string name = "flat";
};

/**
 * A test-only broken LRU: correct timestamps, but the victim pick is
 * rotated one way past the true least-recently-used line. Exists to
 * prove the model-agreement net catches single-way mistakes.
 */
class OffByOneLruPolicy : public ReplacementPolicy
{
  public:
    explicit OffByOneLruPolicy(const CacheGeometry &geometry)
        : ReplacementPolicy(geometry),
          stamps(static_cast<std::size_t>(geometry.numSets) *
                     geometry.numWays,
                 0)
    {}

    std::uint32_t
    findVictim(std::uint32_t set, Pc, Addr, AccessType) override
    {
        const std::uint32_t ways = geometry().numWays;
        const std::uint64_t *row =
            &stamps[static_cast<std::size_t>(set) * ways];
        std::uint32_t oldest = 0;
        for (std::uint32_t w = 1; w < ways; ++w) {
            if (row[w] < row[oldest])
                oldest = w;
        }
        // The injected bug: evict the way *after* the true victim.
        return (oldest + 1) % ways;
    }

    void
    update(std::uint32_t set, std::uint32_t way, Pc, Addr, AccessType,
           bool) override
    {
        stamps[static_cast<std::size_t>(set) * geometry().numWays + way] =
            ++clock;
    }

  private:
    std::vector<std::uint64_t> stamps;
    std::uint64_t clock = 0;
};

AccessType
typeOf(const TraceRecord &rec)
{
    return rec.kind == InstKind::Store ? AccessType::Store
                                       : AccessType::Load;
}

/** Lower a record stream to block-granular reference accesses. */
std::vector<RefAccess>
refAccessesOf(const std::vector<TraceRecord> &mem, std::uint32_t block_bits)
{
    std::vector<RefAccess> accs;
    accs.reserve(mem.size());
    for (const TraceRecord &rec : mem)
        accs.push_back({rec.addr >> block_bits, rec.pc, typeOf(rec)});
    return accs;
}

/** Cache config matching @p geometry with @p policy, no prefetcher. */
CacheConfig
bareConfig(const CacheGeometry &geometry, const std::string &policy)
{
    CacheConfig cfg;
    cfg.name = "difftest";
    cfg.blockBytes = geometry.blockBytes;
    cfg.numWays = geometry.numWays;
    cfg.sizeBytes = std::uint64_t{geometry.numSets} * geometry.numWays *
                    geometry.blockBytes;
    cfg.hitLatency = 1;
    cfg.replacement = policy;
    return cfg;
}

std::string
hex(Addr addr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

std::string
describeEvent(const RefEvent &ev)
{
    if (ev.bypassed)
        return "bypass";
    std::string s = ev.hit ? "hit" : "fill";
    s += " way " + std::to_string(ev.way);
    if (!ev.hit && ev.victimBlock != kInvalidAddr)
        s += " evicting " + hex(ev.victimBlock);
    return s;
}

/** The simulation config the conservation/sweep families run under. */
SimConfig
fullSimConfig(const std::string &llc_policy)
{
    SimConfig cfg = cascadeLakeConfig(llc_policy, /*warmup=*/0,
                                      /*measure=*/0);
    // Prefetchers on two levels so the prefetch-flow laws (issued
    // prefetches reappear as accesses, pollute lower levels, ...) are
    // exercised, not vacuous.
    cfg.hierarchy.l1d.prefetcher = "next_line";
    cfg.hierarchy.l2.prefetcher = "stride";
    return cfg;
}

/** Read a whole file; @return false on any I/O error. */
bool
slurp(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

std::string
invariantFamily(const std::string &invariant)
{
    const std::size_t colon = invariant.find(':');
    return colon == std::string::npos ? invariant
                                      : invariant.substr(0, colon);
}

} // anonymous namespace

Expected<std::vector<RunMatrixEntry>>
buildRunMatrixFor(const std::vector<std::string> &registered)
{
    std::set<std::string> live(registered.begin(), registered.end());
    std::vector<RunMatrixEntry> matrix;
    for (const PolicyCoverage &cov : kCoverage) {
        if (live.erase(cov.policy) == 0) {
            return internalError(
                "difftest coverage table lists policy '%s' which is not "
                "registered; remove it from kCoverage in difftest.cc",
                cov.policy);
        }
        matrix.push_back({cov.policy, cov.kind, cov.samplingSlack});
    }
    if (!live.empty()) {
        return internalError(
            "registered policy '%s' has no difftest coverage entry; add "
            "it to kCoverage in difftest.cc and pick its CheckKind",
            live.begin()->c_str());
    }
    return matrix;
}

Expected<std::vector<RunMatrixEntry>>
buildRunMatrix()
{
    return buildRunMatrixFor(ReplacementPolicyFactory::availablePolicies());
}

DifferentialDriver::DifferentialDriver(DiffOptions options,
                                       std::vector<RunMatrixEntry> entries)
    : opts(std::move(options)), matrix(std::move(entries))
{}

Expected<std::unique_ptr<DifferentialDriver>>
DifferentialDriver::create(DiffOptions options)
{
    CS_TRY_ASSIGN(auto matrix, buildRunMatrix());
    if (options.memoryAccesses == 0)
        return invalidArgumentError("difftest streams cannot be empty");
    return std::unique_ptr<DifferentialDriver>(new DifferentialDriver(
        std::move(options), std::move(matrix)));
}

std::vector<TraceRecord>
DifferentialDriver::streamForSeed(std::uint64_t seed) const
{
    StreamSpec spec;
    spec.seed = seed;
    spec.memoryAccesses = opts.memoryAccesses;
    spec.geometry = opts.geometry;
    spec.kind = kindForSeed(seed);
    return generateStream(spec);
}

void
DifferentialDriver::checkModelAgreement(const std::vector<TraceRecord> &mem,
                                        const std::string &policy,
                                        std::uint64_t seed,
                                        std::vector<DiffFailure> &out) const
{
    const std::uint32_t block_bits = floorLog2(opts.geometry.blockBytes);
    const std::vector<RefAccess> accs = refAccessesOf(mem, block_bits);

    auto ref_policy = makeReferencePolicy(policy, opts.geometry, accs);
    CS_ASSERT(ref_policy != nullptr,
              "model agreement requested for a policy with no reference");
    ReferenceCache ref(opts.geometry, std::move(ref_policy));

    FlatLevel flat;
    const CacheConfig cfg = bareConfig(opts.geometry, policy);
    std::unique_ptr<Cache> sim;
    if (opts.injectOffByOneLru && policy == "lru") {
        sim = std::make_unique<Cache>(
            cfg, &flat, std::make_unique<OffByOneLruPolicy>(opts.geometry));
    } else {
        sim = std::make_unique<Cache>(cfg, &flat);
    }

    RefEvent sim_ev;
    sim->setEventHook([&sim_ev](const Cache::AccessEvent &ev) {
        sim_ev = {ev.hit, ev.bypassed, ev.set, ev.way, ev.victimBlock};
    });

    for (std::size_t i = 0; i < accs.size(); ++i) {
        sim_ev = RefEvent{};
        sim->access(accs[i].block << block_bits, accs[i].pc, accs[i].type,
                    /*now=*/0);
        const RefEvent ref_ev = ref.access(accs[i]);
        if (sim_ev == ref_ev)
            continue;

        DiffFailure f;
        f.seed = seed;
        f.kind = kindForSeed(seed);
        f.invariant = "model_agreement:" + policy;
        f.detail = "access #" + std::to_string(i) + " block " +
                   hex(accs[i].block) + " set " +
                   std::to_string(ref_ev.set) + ": sim " +
                   describeEvent(sim_ev) + ", reference " +
                   describeEvent(ref_ev);
        f.firstBadAccess = i;
        f.memoryAccesses = mem.size();
        f.expected.setCounter("ref.hits", ref.hits());
        f.expected.setCounter("ref.misses", ref.misses());
        f.expected.setCounter("ref.bypasses", ref.bypasses());
        f.expected.setCounter("ref.divergence_index", i);
        sim->stats().exportMetrics(f.actual, "sim");
        out.push_back(std::move(f));
        return;
    }
}

void
DifferentialDriver::checkOptDominance(const std::vector<TraceRecord> &mem,
                                      const std::string &policy,
                                      std::uint64_t seed,
                                      std::vector<DiffFailure> &out) const
{
    const std::uint32_t block_bits = floorLog2(opts.geometry.blockBytes);
    const std::vector<RefAccess> accs = refAccessesOf(mem, block_bits);

    ReferenceCache opt(opts.geometry,
                       std::make_unique<RefBelady>(opts.geometry, accs));
    for (const RefAccess &acc : accs)
        opt.access(acc);

    FlatLevel flat;
    Cache sim(bareConfig(opts.geometry, policy), &flat);
    for (const RefAccess &acc : accs)
        sim.access(acc.block << block_bits, acc.pc, acc.type, /*now=*/0);

    const std::uint64_t policy_hits = sim.stats().demandHits();
    if (policy_hits <= opt.hits())
        return;

    DiffFailure f;
    f.seed = seed;
    f.kind = kindForSeed(seed);
    f.invariant = "opt_dominance:" + policy;
    f.detail = "policy '" + policy + "' scored " +
               std::to_string(policy_hits) + " hits, above Belady OPT's " +
               std::to_string(opt.hits()) + " on " +
               std::to_string(accs.size()) + " accesses";
    f.memoryAccesses = mem.size();
    f.expected.setCounter("opt.hits", opt.hits());
    f.expected.setCounter("opt.bypasses", opt.bypasses());
    f.actual.setCounter("policy.hits", policy_hits);
    sim.stats().exportMetrics(f.actual, "sim");
    out.push_back(std::move(f));
}

Status
DifferentialDriver::checkTraceRoundTrip(
    const std::vector<TraceRecord> &stream, std::uint64_t seed,
    std::vector<DiffFailure> &out) const
{
    // Scratch names carry the pid and a per-process nonce besides the
    // seed: concurrent drivers checking the same seed (ctest -j runs
    // gtest cases of this binary in parallel) must not clobber or
    // clean up each other's files.
    static std::atomic<std::uint64_t> rt_nonce{0};
    const std::string base =
        opts.scratchDir + "/difftest_rt_" +
        std::to_string(static_cast<long long>(::getpid())) + "_" +
        std::to_string(rt_nonce.fetch_add(1)) + "_" +
        std::to_string(seed);
    const std::string path_a = base + "_a.trace";
    const std::string path_b = base + "_b.trace";

    auto fail = [&](const std::string &detail, std::uint64_t expected_n,
                    std::uint64_t actual_n) {
        DiffFailure f;
        f.seed = seed;
        f.kind = kindForSeed(seed);
        f.invariant = "trace_roundtrip";
        f.detail = detail;
        f.memoryAccesses = memoryRecordsOf(stream).size();
        f.expected.setCounter("records", expected_n);
        f.actual.setCounter("records", actual_n);
        out.push_back(std::move(f));
    };
    auto cleanup = [&] {
        std::remove(path_a.c_str());
        std::remove(path_b.c_str());
    };

    // Pass 1: write the stream.
    {
        CS_TRY_ASSIGN(auto writer, TraceWriter::open(path_a));
        for (const TraceRecord &rec : stream)
            writer->onInstruction(rec);
        CS_TRY(writer->finish());
    }

    // Read it back; a freshly written trace failing to parse or verify
    // is itself a round-trip violation, not an infrastructure error.
    std::vector<TraceRecord> replayed;
    {
        auto reader = TraceReader::open(path_a);
        if (!reader.ok()) {
            fail("freshly written trace rejected on open: " +
                     reader.status().toString(),
                 stream.size(), 0);
            cleanup();
            return Status();
        }
        replayed.reserve(stream.size());
        TraceRecord rec;
        while ((*reader)->next(rec))
            replayed.push_back(rec);
        if (!(*reader)->status().ok()) {
            fail("freshly written trace failed verification: " +
                     (*reader)->status().toString(),
                 stream.size(), replayed.size());
            cleanup();
            return Status();
        }
    }
    if (replayed != stream) {
        std::size_t i = 0;
        while (i < std::min(replayed.size(), stream.size()) &&
               replayed[i] == stream[i])
            ++i;
        fail("replayed records diverge from the source at record #" +
                 std::to_string(i),
             stream.size(), replayed.size());
        cleanup();
        return Status();
    }

    // Pass 2: re-write what was read; the files must be byte-identical
    // (headers, checksums and all).
    {
        CS_TRY_ASSIGN(auto writer, TraceWriter::open(path_b));
        for (const TraceRecord &rec : replayed)
            writer->onInstruction(rec);
        CS_TRY(writer->finish());
    }
    std::string bytes_a, bytes_b;
    if (!slurp(path_a, bytes_a) || !slurp(path_b, bytes_b)) {
        cleanup();
        return ioError("cannot re-read round-trip scratch files under %s",
                       opts.scratchDir.c_str());
    }
    if (bytes_a != bytes_b) {
        fail("write->read->write is not byte-stable (" +
                 std::to_string(bytes_a.size()) + " vs " +
                 std::to_string(bytes_b.size()) + " bytes)",
             bytes_a.size(), bytes_b.size());
    }
    cleanup();
    return Status();
}

void
DifferentialDriver::checkConservation(const std::vector<TraceRecord> &stream,
                                      std::uint64_t seed,
                                      std::vector<DiffFailure> &out) const
{
    VectorWorkload workload("difftest_conservation", stream);
    const SimResult result = runOne(workload, fullSimConfig("lru"));
    MetricsRegistry m;
    result.exportMetrics(m, "");

    std::vector<std::pair<std::string, std::string>> violations;
    auto counter = [&m](const std::string &path) { return m.counter(path); };
    auto check_eq = [&](const std::string &law, std::uint64_t lhs,
                        std::uint64_t rhs) {
        if (lhs != rhs) {
            violations.emplace_back(law, std::to_string(lhs) +
                                             " != " + std::to_string(rhs));
        }
    };
    auto check_le = [&](const std::string &law, std::uint64_t lhs,
                        std::uint64_t rhs) {
        if (lhs > rhs) {
            violations.emplace_back(law, std::to_string(lhs) + " > " +
                                             std::to_string(rhs));
        }
    };

    // Flow conservation: every access at a level is caused by a miss
    // above it or by the level's own prefetcher.
    for (const char *t : {"load", "store", "prefetch"}) {
        const std::string ty(t);
        const bool pf = ty == "prefetch";
        check_eq("l2_accesses_" + ty,
                 counter("l2.hits." + ty) + counter("l2.misses." + ty),
                 counter("l1i.misses." + ty) + counter("l1d.misses." + ty) +
                     (pf ? counter("l2.prefetches_issued") : 0));
        check_eq("llc_accesses_" + ty,
                 counter("llc.hits." + ty) + counter("llc.misses." + ty),
                 counter("l2.misses." + ty) +
                     (pf ? counter("llc.prefetches_issued") : 0));
    }
    check_eq("l2_writeback_accesses",
             counter("l2.hits.writeback") + counter("l2.misses.writeback"),
             counter("l1d.writebacks_issued") +
                 counter("l1i.writebacks_issued"));
    check_eq("llc_writeback_accesses",
             counter("llc.hits.writeback") +
                 counter("llc.misses.writeback"),
             counter("l2.writebacks_issued"));
    check_eq("dram_reads", counter("dram.reads"),
             counter("llc.misses.load") + counter("llc.misses.store") +
                 counter("llc.misses.prefetch"));
    check_eq("dram_writes", counter("dram.writes"),
             counter("llc.writebacks_issued"));

    // The demand stream entering L1 is exactly the core's memory mix.
    check_eq("l1d_loads",
             counter("l1d.hits.load") + counter("l1d.misses.load"),
             counter("core.loads"));
    check_eq("l1d_stores",
             counter("l1d.hits.store") + counter("l1d.misses.store"),
             counter("core.stores"));
    check_le("mix_le_instructions",
             counter("core.loads") + counter("core.stores") +
                 counter("core.branches"),
             counter("core.instructions"));
    check_le("fetch_le_instructions",
             counter("l1i.hits.load") + counter("l1i.misses.load"),
             counter("core.instructions"));

    // Per-level bookkeeping identities.
    for (const char *lvl : {"l1i", "l1d", "l2", "llc"}) {
        const std::string p(lvl);
        std::uint64_t misses = 0, by_fill = 0;
        for (const char *t : {"load", "store", "writeback", "prefetch"}) {
            misses += counter(p + ".misses." + t);
            by_fill += counter(p + ".evictions_by_fill." + t);
        }
        check_eq("evictions_split_" + p, counter(p + ".evictions"),
                 by_fill);
        check_le("writebacks_le_evictions_" + p,
                 counter(p + ".writebacks_issued"),
                 counter(p + ".evictions"));
        check_le("evictions_le_misses_" + p,
                 counter(p + ".evictions") + counter(p + ".bypasses"),
                 misses);
        // "Useful" is charged when a prefetch-tagged fill sees its
        // first demand hit, and fills tag prefetched only for accesses
        // of type prefetch — whether issued by this level or arriving
        // from the prefetcher above. Each tagged fill is useful at
        // most once, so the bound is prefetch-typed fills, not this
        // level's own issues.
        check_le("useful_le_prefetch_fills_" + p,
                 counter(p + ".prefetches_useful"),
                 counter(p + ".misses.prefetch"));
    }

    for (const auto &[law, what] : violations) {
        DiffFailure f;
        f.seed = seed;
        f.kind = kindForSeed(seed);
        f.invariant = "conservation:" + law;
        f.detail = "conservation law '" + law + "' violated: " + what;
        f.memoryAccesses = memoryRecordsOf(stream).size();
        f.expected.setCounter("law_violations", 0);
        f.actual = m;
        out.push_back(std::move(f));
    }
}

void
DifferentialDriver::checkSweepEquality(const std::vector<TraceRecord> &stream,
                                       std::uint64_t seed,
                                       std::vector<DiffFailure> &out) const
{
    auto workload =
        std::make_shared<VectorWorkload>("difftest_sweep", stream);
    const std::vector<std::shared_ptr<Workload>> suite{workload};
    const std::vector<std::string> policies{"lru", "srrip", "dip"};
    const SimConfig base = fullSimConfig("lru");

    SuiteRunner serial(base, /*jobs=*/1);
    serial.setVerbose(false);
    SuiteRunner parallel(base, /*jobs=*/2);
    parallel.setVerbose(false);

    const SweepReport rs = serial.runChecked(suite, policies);
    const SweepReport rp = parallel.runChecked(suite, policies);

    MetricsDocument ds{"sweep", 0.0, withoutHostTime(rs.metrics)};
    MetricsDocument dp{"sweep", 0.0, withoutHostTime(rp.metrics)};
    const std::string js = metricsToJson(ds);
    const std::string jp = metricsToJson(dp);
    if (js == jp && rs.failed() == 0 && rp.failed() == 0)
        return;

    DiffFailure f;
    f.seed = seed;
    f.kind = kindForSeed(seed);
    f.invariant = "sweep_equality";
    if (rs.failed() != 0 || rp.failed() != 0) {
        f.detail = "sweep cells failed (serial " +
                   std::to_string(rs.failed()) + ", parallel " +
                   std::to_string(rp.failed()) + ")";
    } else {
        f.detail = "serial and parallel sweep metric trees differ (" +
                   std::to_string(js.size()) + " vs " +
                   std::to_string(jp.size()) + " JSON bytes)";
    }
    f.memoryAccesses = memoryRecordsOf(stream).size();
    f.expected = ds.metrics;
    f.actual = dp.metrics;
    out.push_back(std::move(f));
}

void
DifferentialDriver::checkSamplingAccuracy(const std::vector<TraceRecord> &mem,
                                          const RunMatrixEntry &entry,
                                          std::uint64_t seed,
                                          std::vector<DiffFailure> &out) const
{
    const std::string &policy = entry.policy;
    // slack 0 = globally-coupled policy state: restricting the stream
    // to the sampled sets changes those sets' own behaviour (training
    // dilution), so only the exact structural checks apply (see
    // kCoverage).
    const bool gross = entry.samplingSlack <= 0.0;
    const double budget = opts.samplingErrorBudget * entry.samplingSlack;
    const std::uint32_t block_bits = floorLog2(opts.geometry.blockBytes);
    const std::vector<RefAccess> accs = refAccessesOf(mem, block_bits);
    const std::uint32_t num_sets = opts.geometry.numSets;

    // Full (every-set) run, tallying per-set demand misses through the
    // event hook. Exactly one event fires per demand access — hit,
    // bypass, or fill — and a bypassed access counts as a miss, which
    // matches the stats counters (both increment before the bypass
    // branch). The tallies are the *population* behind the sampled
    // estimator: they feed both the exact restriction check and the
    // true sampling standard error below.
    std::vector<std::uint64_t> full_set_misses(num_sets, 0);
    FlatLevel full_flat;
    Cache full_cache(bareConfig(opts.geometry, policy), &full_flat);
    full_cache.setEventHook([&](const Cache::AccessEvent &e) {
        if ((e.type == AccessType::Load || e.type == AccessType::Store) &&
            !e.hit) {
            ++full_set_misses[e.set];
        }
    });
    for (const RefAccess &acc : accs) {
        full_cache.access(acc.block << block_bits, acc.pc, acc.type,
                          /*now=*/0);
    }
    const CacheStats full = full_cache.stats();

    // Sampled run.
    FlatLevel sampled_flat;
    CacheConfig sampled_cfg = bareConfig(opts.geometry, policy);
    sampled_cfg.sampleSets = opts.samplingRate;
    Cache sampled_cache(sampled_cfg, &sampled_flat);
    for (const RefAccess &acc : accs) {
        sampled_cache.access(acc.block << block_bits, acc.pc, acc.type,
                             /*now=*/0);
    }
    MetricsRegistry dyn;
    sampled_cache.exportDynamicMetrics(dyn, "c");
    const CacheStats raw = sampled_cache.stats();

    // Independent per-set recount of the demand stream against the
    // cache's own published set selection: the restriction of the full
    // run to the sampled subset, computed without trusting the sampled
    // run's bookkeeping.
    const std::uint64_t set_mask = num_sets - 1;
    std::vector<std::uint64_t> per_set_accs(num_sets, 0);
    for (const RefAccess &acc : accs)
        ++per_set_accs[static_cast<std::size_t>(acc.block & set_mask)];
    std::uint64_t in_sample_accs = 0;
    std::uint64_t in_sample_misses = 0;
    for (std::uint32_t s = 0; s < num_sets; ++s) {
        if (sampled_cache.setIsSampled(s)) {
            in_sample_accs += per_set_accs[s];
            in_sample_misses += full_set_misses[s];
        }
    }
    const std::uint64_t expected_accesses =
        in_sample_accs * opts.samplingRate;

    auto fail = [&](const std::string &what, double expected,
                    double actual, double tolerance) {
        DiffFailure f;
        f.seed = seed;
        f.kind = kindForSeed(seed);
        f.invariant = "sampling_accuracy:" + policy;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: sampled estimate %.6g vs full %.6g "
                      "(tolerance %.6g, 1-in-%u sets)",
                      what.c_str(), actual, expected, tolerance,
                      opts.samplingRate);
        f.detail = buf;
        f.memoryAccesses = mem.size();
        f.expected.setGauge("full." + what, expected);
        f.actual = dyn;
        full.exportMetrics(f.expected, "full");
        raw.exportMetrics(f.actual, "raw");
        out.push_back(std::move(f));
    };

    // Scaled counters are raw * rate by construction; their being >=
    // the raw values is the check_bench_json contract, re-checked here
    // where a violation is cheapest to localize.
    const double rate = static_cast<double>(opts.samplingRate);
    const double est_misses = static_cast<double>(
        dyn.counter("c.sampled.demand_misses"));
    const double raw_misses = static_cast<double>(raw.demandMisses());
    if (est_misses < raw_misses) {
        fail("scaled_ge_raw", raw_misses, est_misses, 0.0);
        return;
    }

    const double se = dyn.gauge("c.sampled.relative_stderr");
    if (!std::isfinite(se)) {
        fail("relative_stderr_finite", 0.0, se, 0.0);
        return;
    }

    // The access-count estimate is policy-independent (every demand
    // access reaches the bare cache), so it is checked *exactly*
    // against the independent recount — any set-selection or scaling
    // bug trips this for every policy, with zero statistical slack.
    const double est_accesses = static_cast<double>(
        dyn.counter("c.sampled.demand_accesses"));
    if (est_accesses != static_cast<double>(expected_accesses)) {
        fail("demand_accesses_exact",
             static_cast<double>(expected_accesses), est_accesses, 0.0);
        return;
    }
    if (est_misses > est_accesses) {
        fail("misses_le_accesses", est_accesses, est_misses, 0.0);
        return;
    }
    const double mr_est = dyn.gauge("c.sampled.demand_miss_rate");
    if (!(mr_est >= 0.0 && mr_est <= 1.0)) {
        fail("miss_rate_in_unit_range", 0.0, mr_est, 1.0);
        return;
    }
    // The exported miss rate must be the quotient of the exported
    // counts (exact: the x-rate scaling is a power of two, so it
    // cancels without rounding) — catches a wrong-denominator export.
    if (est_accesses > 0.0 &&
        std::abs(mr_est - est_misses / est_accesses) > 1e-12) {
        fail("miss_rate_consistent", est_misses / est_accesses, mr_est,
             1e-12);
        return;
    }
    if (gross)
        return;

    // The load-bearing invariant for per-set policies: sampling must
    // be a *pure filter*. The sampled run's raw miss count must equal
    // the full run's misses restricted to the sampled sets, exactly —
    // a set's victim choices depend only on its own access
    // subsequence, which sampling preserves. Any cross-set leak in the
    // skip path (touching the policy, the tag store, or another set's
    // counters) breaks this equality with zero statistical slack.
    if (raw.demandMisses() != in_sample_misses) {
        fail("restriction_exact", static_cast<double>(in_sample_misses),
             raw_misses, 0.0);
        return;
    }

    // Statistical agreement of the scaled estimate with the full run.
    // The budget is slackened by the estimator's *true* standard error
    // — computed from the full run's per-set miss distribution, the
    // actual population behind the subset — not the sample-derived
    // c.sampled.relative_stderr, which cannot see unsampled hot sets
    // on concentrated streams (a pointer chase landing 3/4 of its
    // misses outside the subset reports a tiny SE around a wildly
    // wrong estimate). ~5 sigma keeps arbitrary fuzz seeds quiet; the
    // 3 x rate floor covers streams whose subset sees only a handful
    // of misses.
    const double full_misses = static_cast<double>(full.demandMisses());
    const double n_sampled =
        static_cast<double>(sampled_cache.sampledSetCount());
    const double mean = full_misses / num_sets;
    double var = 0.0;
    for (std::uint32_t s = 0; s < num_sets; ++s) {
        const double d = static_cast<double>(full_set_misses[s]) - mean;
        var += d * d;
    }
    var /= std::max(num_sets - 1.0, 1.0);
    const double se_true =
        mean > 0.0 && n_sampled > 0.0
            ? std::sqrt(std::max(1.0 - n_sampled / num_sets, 0.0) * var /
                        n_sampled) /
                  mean
            : 0.0;
    const double miss_tol = std::max(
        {budget * full_misses, 5.0 * se_true * full_misses, 3.0 * rate});
    if (std::abs(est_misses - full_misses) > miss_tol)
        fail("demand_misses", full_misses, est_misses, miss_tol);
}

Expected<std::vector<DiffFailure>>
DifferentialDriver::checkStream(const std::vector<TraceRecord> &stream,
                                std::uint64_t seed)
{
    std::vector<DiffFailure> failures;
    const std::vector<TraceRecord> mem = memoryRecordsOf(stream);

    for (const RunMatrixEntry &entry : matrix) {
        if (entry.kind == CheckKind::ExactModel)
            checkModelAgreement(mem, entry.policy, seed, failures);
        checkOptDominance(mem, entry.policy, seed, failures);
        if (opts.checkSampling && opts.samplingRate > 1)
            checkSamplingAccuracy(mem, entry, seed, failures);
    }
    if (!opts.scratchDir.empty())
        CS_TRY(checkTraceRoundTrip(stream, seed, failures));
    if (opts.checkConservation)
        checkConservation(stream, seed, failures);
    if (opts.checkSweep)
        checkSweepEquality(stream, seed, failures);
    return failures;
}

Expected<std::vector<DiffFailure>>
DifferentialDriver::runSeed(std::uint64_t seed)
{
    return checkStream(streamForSeed(seed), seed);
}

bool
DifferentialDriver::failsOn(const std::vector<TraceRecord> &stream,
                            std::uint64_t seed,
                            const std::string &invariant)
{
    const std::string family = invariantFamily(invariant);
    std::vector<DiffFailure> failures;

    if (family == "model_agreement" || family == "opt_dominance" ||
        family == "sampling_accuracy") {
        const std::string policy = invariant.substr(family.size() + 1);
        const std::vector<TraceRecord> mem = memoryRecordsOf(stream);
        if (mem.empty())
            return false;
        if (family == "model_agreement") {
            checkModelAgreement(mem, policy, seed, failures);
        } else if (family == "opt_dominance") {
            checkOptDominance(mem, policy, seed, failures);
        } else {
            for (const RunMatrixEntry &entry : matrix) {
                if (entry.policy == policy)
                    checkSamplingAccuracy(mem, entry, seed, failures);
            }
        }
        return !failures.empty();
    }
    if (family == "conservation") {
        checkConservation(stream, seed, failures);
    } else if (family == "sweep_equality") {
        checkSweepEquality(stream, seed, failures);
    } else if (family == "trace_roundtrip") {
        if (opts.scratchDir.empty())
            return false;
        if (!checkTraceRoundTrip(stream, seed, failures).ok())
            return false;
    } else {
        warn("failsOn: unknown invariant family '%s'", family.c_str());
        return false;
    }
    // These families report law-level ids; any failure in the family
    // counts as "still failing" for minimization purposes.
    return !failures.empty();
}

DifferentialDriver::MinimizeResult
DifferentialDriver::minimize(const std::vector<TraceRecord> &stream,
                             const DiffFailure &failure,
                             std::size_t maxEvaluations)
{
    MinimizeResult res;
    res.stream = stream;
    auto fails = [&](const std::vector<TraceRecord> &candidate) {
        ++res.evaluations;
        return failsOn(candidate, failure.seed, failure.invariant);
    };
    auto budget = [&] { return res.evaluations < maxEvaluations; };

    // 1. If the failure is access-localized, everything after the first
    // diverging memory access is dead weight: truncate right past it.
    if (failure.firstBadAccess != kNoAccess && budget()) {
        std::size_t mem_seen = 0;
        std::size_t cut = res.stream.size();
        for (std::size_t i = 0; i < res.stream.size(); ++i) {
            if (res.stream[i].isMemory() &&
                ++mem_seen > failure.firstBadAccess) {
                cut = i + 1;
                break;
            }
        }
        if (cut < res.stream.size()) {
            std::vector<TraceRecord> cand(res.stream.begin(),
                                          res.stream.begin() + cut);
            if (fails(cand))
                res.stream = std::move(cand);
        }
    }

    // 2. Bisect to the shortest failing prefix. Failure need not be
    // monotone in prefix length, so the search is a heuristic; the
    // candidate it lands on is re-verified before being accepted.
    std::size_t lo = 1, hi = res.stream.size();
    while (lo < hi && budget()) {
        const std::size_t mid = lo + (hi - lo) / 2;
        std::vector<TraceRecord> cand(res.stream.begin(),
                                      res.stream.begin() + mid);
        if (fails(cand))
            hi = mid;
        else
            lo = mid + 1;
    }
    if (hi < res.stream.size() && budget()) {
        std::vector<TraceRecord> cand(res.stream.begin(),
                                      res.stream.begin() + hi);
        if (fails(cand))
            res.stream = std::move(cand);
    }

    // 3. ddmin-style chunk removal over what remains.
    for (std::size_t chunk = res.stream.size() / 2; chunk >= 1 && budget();
         chunk /= 2) {
        std::size_t start = 0;
        while (start + chunk <= res.stream.size() && budget()) {
            std::vector<TraceRecord> cand;
            cand.reserve(res.stream.size() - chunk);
            cand.insert(cand.end(), res.stream.begin(),
                        res.stream.begin() + start);
            cand.insert(cand.end(), res.stream.begin() + start + chunk,
                        res.stream.end());
            if (!cand.empty() && fails(cand))
                res.stream = std::move(cand);
            else
                start += chunk;
        }
        if (chunk == 1)
            break;
    }
    return res;
}

} // namespace cachescope::difftest
