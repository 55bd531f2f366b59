/**
 * @file
 * Simulation driver implementation: configuration checks, result
 * export, and the one- and N-core stepping loops.
 */

#include "core/simulator.hh"

#include "stats/summary.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"

namespace cachescope {

Status
SimConfig::validate() const
{
    CS_TRY(hierarchy.l1i.validate());
    CS_TRY(hierarchy.l1d.validate());
    CS_TRY(hierarchy.l2.validate());
    CS_TRY(hierarchy.llc.validate());
    // The budget check in onInstruction compares consumed against
    // warmup + measure; if that sum wraps, the budget is never reached
    // and a "bounded" run silently consumes the whole trace.
    if (measureInstructions != 0 &&
        warmupInstructions > ~InstCount{0} - measureInstructions) {
        return invalidArgumentError(
            "warmup %llu + measure %llu instructions overflows the "
            "instruction counter",
            static_cast<unsigned long long>(warmupInstructions),
            static_cast<unsigned long long>(measureInstructions));
    }
    return Status();
}

double
SimResult::mpkiL1d() const
{
    return mpki(l1d.demandMisses(), core.instructions);
}

double
SimResult::mpkiL2() const
{
    return mpki(l2.demandMisses(), core.instructions);
}

double
SimResult::mpkiLlc() const
{
    return mpki(llc.demandMisses(), core.instructions);
}

double
SimResult::dramServiceRatio() const
{
    const std::uint64_t l1d_misses = l1d.demandMisses();
    if (l1d_misses == 0)
        return 0.0;
    // Demand reads reaching DRAM over the same window; writebacks are
    // excluded on both sides of the ratio.
    return static_cast<double>(llc.demandMisses()) /
           static_cast<double>(l1d_misses);
}

void
SimResult::exportMetrics(MetricsRegistry &metrics,
                         const std::string &prefix) const
{
    const std::string p = prefix.empty() ? "" : prefix + ".";
    core.exportMetrics(metrics, p + "core");
    l1i.exportMetrics(metrics, p + "l1i");
    l1d.exportMetrics(metrics, p + "l1d");
    l2.exportMetrics(metrics, p + "l2");
    llc.exportMetrics(metrics, p + "llc");
    dram.exportMetrics(metrics, p + "dram");
    metrics.setGauge(p + "derived.mpki_l1d", mpkiL1d());
    metrics.setGauge(p + "derived.mpki_l2", mpkiL2());
    metrics.setGauge(p + "derived.mpki_llc", mpkiLlc());
    metrics.setGauge(p + "derived.dram_service_ratio", dramServiceRatio());
    metrics.merge(extraMetrics, prefix);
}

Status
CorunConfig::validate(std::size_t num_cores) const
{
    if (num_cores == 0)
        return invalidArgumentError("corun needs at least one core");
    CS_TRY(base.validate());
    if (!coreWarmups.empty() && coreWarmups.size() != num_cores) {
        return invalidArgumentError(
            "corun: %zu warmup overrides for %zu cores",
            coreWarmups.size(), num_cores);
    }
    if (llcWaysPerCore != 0 &&
        static_cast<std::uint64_t>(llcWaysPerCore) * num_cores >
            base.hierarchy.llc.numWays) {
        return invalidArgumentError(
            "corun: %u ways/core x %zu cores exceeds the LLC's "
            "%u-way associativity",
            llcWaysPerCore, num_cores, base.hierarchy.llc.numWays);
    }
    return Status();
}

double
CorunResult::ipcSum() const
{
    double sum = 0.0;
    for (const SimResult &core : cores)
        sum += core.ipc();
    return sum;
}

void
CorunResult::exportMetrics(MetricsRegistry &metrics,
                           const std::string &prefix) const
{
    // One core: emit exactly the single-core tree (documented contract;
    // pinned by the corun-vs-run byte-identity test).
    if (cores.size() == 1) {
        cores[0].exportMetrics(metrics, prefix);
        return;
    }

    const std::string p = prefix.empty() ? "" : prefix + ".";
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const SimResult &s = cores[i];
        const CacheStats &slice = llcPerCore[i];
        const std::string cp = p + "core" + std::to_string(i);
        s.core.exportMetrics(metrics, cp + ".core");
        s.l1i.exportMetrics(metrics, cp + ".l1i");
        s.l1d.exportMetrics(metrics, cp + ".l1d");
        s.l2.exportMetrics(metrics, cp + ".l2");
        slice.exportMetrics(metrics, cp + ".llc");
        metrics.setGauge(cp + ".derived.ipc", s.ipc());
        metrics.setGauge(cp + ".derived.mpki_l1d", s.mpkiL1d());
        metrics.setGauge(cp + ".derived.mpki_l2", s.mpkiL2());
        metrics.setGauge(cp + ".derived.mpki_llc",
                         mpki(slice.demandMisses(), s.core.instructions));
        // Private dynamic metrics (l1*/l2 policy and prefetcher
        // internals). The SimResult snapshots also carry the shared
        // LLC's dynamic tree and the profiler's — identical in every
        // core — which are exported once at the top level instead.
        const auto is_private = [](const std::string &path) {
            return path.rfind("llc.", 0) != 0 &&
                   path.rfind("profile.", 0) != 0;
        };
        for (const auto &[path, value] : s.extraMetrics.counters()) {
            if (is_private(path))
                metrics.setCounter(cp + "." + path, value);
        }
        for (const auto &[path, value] : s.extraMetrics.gauges()) {
            if (is_private(path))
                metrics.setGauge(cp + "." + path, value);
        }
        for (const auto &[path, snap] : s.extraMetrics.histograms()) {
            if (is_private(path))
                metrics.setHistogram(cp + "." + path, snap);
        }
    }
    llc.exportMetrics(metrics, p + "llc");
    dram.exportMetrics(metrics, p + "dram");
    metrics.merge(extraMetrics, prefix);
    metrics.setCounter(p + "corun.num_cores", cores.size());
    metrics.setCounter(p + "corun.llc_ways_per_core", llcWaysPerCore);
    metrics.setGauge(p + "corun.ipc_sum", ipcSum());
}

Simulator::Simulator(const CorunConfig &config, std::size_t num_cores,
                     std::unique_ptr<ReplacementPolicy> llc_policy)
    : cfg(config)
{
    CS_ASSERT(num_cores > 0, "a simulation needs at least one core");
    CS_ASSERT(cfg.coreWarmups.empty() ||
                  cfg.coreWarmups.size() == num_cores,
              "per-core warmups must match the core count");
    const HierarchyConfig &h = cfg.base.hierarchy;
    dram_ = std::make_unique<DramModel>(h.dram);
    dramLevel_ = std::make_unique<DramLevel>(*dram_);
    if (!llc_policy) {
        llc_policy =
            ReplacementPolicyFactory::create(h.llc.replacement,
                                             h.llc.geometry());
    }
    llc_ = std::make_unique<Cache>(h.llc, dramLevel_.get(),
                                   std::move(llc_policy));
    // Functional warmup: the LLC's flag belongs to the driver, not to
    // any one core's boundary. It stays on until the all-cores-warm
    // barrier (held early-warm cores are not stepped, so no measured
    // traffic can predate the clear).
    if (cfg.base.warmupMode == WarmupMode::Functional)
        llc_->setFunctionalMode(true);
    if (cfg.base.profile.enabled) {
        // One profiler on the LLC, observing the merged demand stream
        // of every core (co-run tenants are distinguishable by their
        // tagged PCs when tagStreams is on). Demand accesses only:
        // writebacks carry no PC worth correlating and prefetch fills
        // are the prefetcher's stream, not the program's. This matches
        // CacheStats::demandAccesses().
        profiler_ = std::make_unique<OnlineProfiler>(cfg.base.profile,
                                                     h.llc.numSets());
        llc_->setEventHook(
            [p = profiler_.get()](const Cache::AccessEvent &e) {
                if (e.type == AccessType::Load ||
                    e.type == AccessType::Store) {
                    p->onAccess(e.set, e.block, e.pc, e.hit);
                }
            });
    }
    for (std::size_t i = 0; i < num_cores; ++i) {
        const InstCount warmup = cfg.coreWarmups.empty()
            ? cfg.base.warmupInstructions
            : cfg.coreWarmups[i];
        cores_.emplace_back(cfg.base, warmup, *llc_, *dram_);
    }
}

void
Simulator::forceFunctional()
{
    forcedFunctional_ = true;
    llc_->setFunctionalMode(true);
    for (Core &c : cores_)
        c.functional = true;
}

double
Simulator::warmupWallSeconds(std::size_t i) const
{
    const Core &c = cores_[i];
    if (!c.sawInstruction)
        return 0.0;
    const auto end =
        c.warmupDone ? c.warmupEndedAt : std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - c.firstInstructionAt)
        .count();
}

double
Simulator::measureWallSeconds() const
{
    const Core &c = cores_.front();
    if (!c.warmupDone)
        return 0.0;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - c.warmupEndedAt)
        .count();
}

std::optional<std::chrono::steady_clock::time_point>
Simulator::firstInstructionAt() const
{
    const Core &c = cores_.front();
    if (!c.sawInstruction)
        return std::nullopt;
    return c.firstInstructionAt;
}

void
Simulator::warnIfWarmupUnfinished(const std::string &what,
                                  std::size_t i) const
{
    const Core &c = cores_[i];
    if (c.warmup == 0 || inMeasurement(i))
        return;
    warn("%s ended after %llu of %llu warmup instructions; the "
         "measured window is empty",
         what.c_str(), static_cast<unsigned long long>(c.consumed),
         static_cast<unsigned long long>(c.warmup));
}

void
Simulator::openBarrier()
{
    barrierOpen_ = true;
    barrierAt_ = std::chrono::steady_clock::now();
    // End of the (possibly functional) warmup phase: the timed path
    // owns the LLC from here on.
    if (!forcedFunctional_)
        llc_->setFunctionalMode(false);
    llc_->resetStats();
    dram_->resetStats();
    if (profiler_)
        profiler_->reset();
}

void
Simulator::enterMeasurement(Core &c)
{
    c.warmupDone = true;
    c.warmupEndedAt = std::chrono::steady_clock::now();
    // Hand over from the functional to the sealed timed path. The
    // architectural state carried across the boundary (tags,
    // replacement metadata, prefetcher and predictor state) is exactly
    // what timed warmup would have built; timing state (ROB, MSHRs,
    // DRAM bank queues) starts cold.
    if (!forcedFunctional_)
        c.functional = false;
    c.hier.resetStats();
    c.cpu.resetStats();
    // With one core, its own boundary is the all-cores-warm barrier,
    // reached on this very call. run() opens the barrier for N cores
    // before it steps any core past its warmup.
    CS_ASSERT(barrierOpen_ || cores_.size() == 1,
              "a core entered measurement before the barrier opened");
    if (!barrierOpen_)
        openBarrier();
}

inline void
Simulator::step(Core &c, const TraceRecord &rec)
{
    if (c.budgetExhausted)
        return;

    // The cooperative polling point: cheap enough to sit in the hot
    // loop (one mask + predictable branch when idle), frequent enough
    // that deadlines and ^C are observed promptly.
    if ((c.consumed & (kCancelPollInterval - 1)) == 0) [[unlikely]] {
        if (!c.sawInstruction) {
            c.sawInstruction = true;
            c.firstInstructionAt = std::chrono::steady_clock::now();
        }
        if (cfg.base.cancel && cfg.base.cancel->cancelled())
            throw CancelledError(cfg.base.cancel->reason());
        if (failpoint::anyArmed())
            failpoint::hitOrThrow("sim.loop");
    }

    if (!c.warmupDone && c.consumed >= c.warmup)
        enterMeasurement(c);

    if (c.functional)
        c.cpu.onInstructionFunctional(rec);
    else
        c.cpu.onInstruction(rec);
    ++c.consumed;
    if (c.warmupDone && cfg.base.measureInstructions != 0 &&
        c.consumed >= c.warmup + cfg.base.measureInstructions) {
        c.budgetExhausted = true;
    }
}

void
Simulator::onInstruction(const TraceRecord &rec)
{
    step(cores_.front(), rec);
}

void
Simulator::run(const std::vector<CorunStream *> &streams)
{
    const std::size_t n = cores_.size();
    CS_ASSERT(streams.size() == n, "one stream per core");
    // Attribution and way partitioning are the arbiter's: it names the
    // core behind every LLC access.
    llc_->enableCoreAttribution(static_cast<unsigned>(n));
    if (cfg.llcWaysPerCore != 0)
        llc_->setWayPartition(cfg.llcWaysPerCore);

    // One prefetched record per core, so end-of-stream is known before
    // the core is considered for arbitration.
    std::vector<TraceRecord> pending(n);
    std::vector<char> alive(n, 0);
    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
        CS_ASSERT(streams[i] != nullptr, "corun stream may not be null");
        if (streams[i]->next(pending[i])) {
            alive[i] = 1;
            ++live;
        }
    }

    while (live > 0) {
        // The all-cores-warm barrier. A core that has consumed its own
        // warmup is *held* (not stepped) until every live core has;
        // the shared levels then reset once and all cores release.
        // Holding guarantees no core's measured traffic predates the
        // reset, so each per-core attribution slice covers exactly
        // that core's measurement window — and a fast tenant cannot
        // burn its whole budget before a slow one warms up.
        // inMeasurement() turns true on the exact call whose start
        // resets the core's own statistics, so opening here (before
        // stepping) matches the push path's one-core barrier. If every
        // live stream ends before its warmup the shared statistics are
        // never reset (too-short streams are all warmup).
        if (!barrierOpen_) {
            bool all_warm = true;
            for (std::size_t i = 0; i < n; ++i) {
                if (alive[i] && !inMeasurement(i)) {
                    all_warm = false;
                    break;
                }
            }
            if (all_warm)
                openBarrier();
        }

        // Deterministic arbitration: the core whose retire clock is
        // furthest behind goes next; ties break to the lowest core id
        // (the scan visits cores in id order and takes strictly-older
        // clocks only). Serial by construction — bit-reproducible and
        // independent of any --jobs setting. Warm cores are skipped
        // until the barrier opens; at least one live core is always
        // steppable, because an all-warm live set opens the barrier
        // above before arbitration runs.
        std::size_t pick = n;
        Cycle best = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!alive[i])
                continue;
            if (!barrierOpen_ && inMeasurement(i))
                continue;
            const Cycle c = cores_[i].cpu.currentCycle();
            if (pick == n || c < best) {
                pick = i;
                best = c;
            }
        }
        CS_ASSERT(pick < n, "co-run arbiter found no steppable core");

        llc_->setActiveCore(static_cast<unsigned>(pick));
        TraceRecord rec = pending[pick];
        if (cfg.tagStreams && pick != 0) {
            const Addr tag = static_cast<Addr>(pick)
                             << CorunConfig::kStreamTagShift;
            rec.pc ^= tag;
            if (rec.isMemory())
                rec.addr ^= tag;
        }
        Core &core = cores_[pick];
        step(core, rec);

        if (core.budgetExhausted || !streams[pick]->next(pending[pick])) {
            alive[pick] = 0;
            --live;
        }
    }
    runMeasureWallSeconds_ =
        barrierOpen_ ? std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - barrierAt_)
                           .count()
                     : 0.0;
}

void
Simulator::exportSharedMetrics(MetricsRegistry &metrics) const
{
    llc_->exportDynamicMetrics(metrics, "llc");
    if (profiler_)
        profiler_->exportMetrics(metrics, "profile");
}

SimResult
Simulator::coreResult(std::size_t i) const
{
    const Core &c = cores_[i];
    SimResult r;
    r.llcPolicy = cfg.base.hierarchy.llc.replacement;
    r.llcPolicyState = llc_->policy().debugState();
    r.core = c.cpu.stats();
    r.l1i = c.hier.l1i().stats();
    r.l1d = c.hier.l1d().stats();
    r.l2 = c.hier.l2().stats();
    r.llc = llc_->stats();
    r.dram = dram_->stats();
    c.hier.l1i().exportDynamicMetrics(r.extraMetrics, "l1i");
    c.hier.l1d().exportDynamicMetrics(r.extraMetrics, "l1d");
    c.hier.l2().exportDynamicMetrics(r.extraMetrics, "l2");
    exportSharedMetrics(r.extraMetrics);
    return r;
}

CorunResult
Simulator::corunResult() const
{
    CS_ASSERT(llc_->attributedCores() == cores_.size(),
              "corunResult() reports a run()");
    CorunResult r;
    r.llcPolicy = cfg.base.hierarchy.llc.replacement;
    r.llcPolicyState = llc_->policy().debugState();
    r.llc = llc_->stats();
    r.dram = dram_->stats();
    r.llcWaysPerCore = cfg.llcWaysPerCore;
    exportSharedMetrics(r.extraMetrics);
    r.measureWallSeconds = runMeasureWallSeconds_;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        r.cores.push_back(coreResult(i));
        // Per-core warmup wall time (this core's own boundary), so the
        // speedup of functional warmup is observable per tenant.
        r.cores.back().extraMetrics.setGauge("sim.warmup_wall_seconds",
                                             warmupWallSeconds(i));
        r.llcPerCore.push_back(
            llc_->coreStats(static_cast<unsigned>(i)));
    }
    return r;
}

} // namespace cachescope
