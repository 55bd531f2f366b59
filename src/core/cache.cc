/**
 * @file
 * Cache model implementation.
 */

#include "core/cache.hh"

#include <algorithm>
#include <typeinfo>

#include "dram/dram.hh"
#include "replacement/basic.hh"
#include "replacement/rrip.hh"
#include "stats/metrics.hh"
#include "stats/summary.hh"
#include "util/failpoint.hh"
#include "util/intmath.hh"
#include "util/logging.hh"

namespace cachescope {

namespace {

/**
 * @return @p cfg's set count, or InvalidArgument if its shape derives
 * no usable geometry (non-power-of-two block size, zero ways, a size
 * that does not split into the ways, a non-power-of-two set count).
 */
Expected<std::uint64_t>
derivedSets(const CacheConfig &cfg)
{
    if (cfg.blockBytes == 0 || !isPowerOf2(cfg.blockBytes)) {
        return invalidArgumentError(
            "cache '%s': block size must be a power of two",
            cfg.name.c_str());
    }
    if (cfg.numWays == 0) {
        return invalidArgumentError(
            "cache '%s': associativity must be non-zero", cfg.name.c_str());
    }
    const std::uint64_t blocks = cfg.sizeBytes / cfg.blockBytes;
    if (blocks == 0 || blocks % cfg.numWays != 0) {
        return invalidArgumentError(
            "cache '%s': size %llu not divisible into %u ways",
            cfg.name.c_str(), static_cast<unsigned long long>(cfg.sizeBytes),
            cfg.numWays);
    }
    const std::uint64_t sets = blocks / cfg.numWays;
    if (!isPowerOf2(sets)) {
        return invalidArgumentError(
            "cache '%s': derived set count %llu is not a power of two",
            cfg.name.c_str(), static_cast<unsigned long long>(sets));
    }
    return sets;
}

} // anonymous namespace

Status
CacheConfig::validate() const
{
    CS_TRY_ASSIGN(const std::uint64_t sets, derivedSets(*this));
    if (sampleSets == 0 || !isPowerOf2(sampleSets)) {
        return invalidArgumentError(
            "cache '%s': set-sampling rate %u must be a power of two",
            name.c_str(), sampleSets);
    }
    if (sampleSets > sets) {
        return invalidArgumentError(
            "cache '%s': set-sampling rate %u exceeds the %llu sets",
            name.c_str(), sampleSets,
            static_cast<unsigned long long>(sets));
    }
    if (!ReplacementPolicyFactory::isRegistered(replacement)) {
        return notFoundError(
            "cache '%s': unknown replacement policy '%s'", name.c_str(),
            replacement.c_str());
    }
    if (!isKnownPrefetcher(prefetcher)) {
        return notFoundError("cache '%s': unknown prefetcher '%s'",
                             name.c_str(), prefetcher.c_str());
    }
    return Status();
}

std::uint32_t
CacheConfig::numSets() const
{
    auto sets_or = derivedSets(*this);
    if (!sets_or.ok())
        fatal("%s", sets_or.status().message().c_str());
    return static_cast<std::uint32_t>(sets_or.value());
}

CacheGeometry
CacheConfig::geometry() const
{
    return CacheGeometry{numSets(), numWays, blockBytes};
}

std::uint64_t
CacheStats::demandHits() const
{
    return hitsOf(AccessType::Load) + hitsOf(AccessType::Store);
}

std::uint64_t
CacheStats::demandMisses() const
{
    return missesOf(AccessType::Load) + missesOf(AccessType::Store);
}

std::uint64_t
CacheStats::demandAccesses() const
{
    return demandHits() + demandMisses();
}

double
CacheStats::demandMissRate() const
{
    const std::uint64_t total = demandAccesses();
    return total == 0
        ? 0.0
        : static_cast<double>(demandMisses()) / static_cast<double>(total);
}

void
CacheStats::exportMetrics(MetricsRegistry &metrics,
                          const std::string &prefix) const
{
    const std::string p = prefix + ".";
    for (std::size_t t = 0; t < kNumTypes; ++t) {
        const std::string suffix =
            accessTypeName(static_cast<AccessType>(t));
        metrics.setCounter(p + "hits." + suffix, hits[t]);
        metrics.setCounter(p + "misses." + suffix, misses[t]);
        metrics.setCounter(p + "evictions_by_fill." + suffix,
                           evictionsByFill[t]);
    }
    metrics.setCounter(p + "bypasses", bypasses);
    metrics.setCounter(p + "writebacks_issued", writebacksIssued);
    metrics.setCounter(p + "evictions", evictions);
    metrics.setCounter(p + "prefetches_issued", prefetchesIssued);
    metrics.setCounter(p + "prefetches_useful", prefetchesUseful);
    if (prefetchesIssued > 0) {
        metrics.setGauge(p + "prefetch_accuracy",
                         static_cast<double>(prefetchesUseful) /
                             static_cast<double>(prefetchesIssued));
    }
}

Cache::Cache(const CacheConfig &config, MemoryLevel *next)
    : Cache(config, next,
            ReplacementPolicyFactory::create(config.replacement,
                                             config.geometry()))
{}

Cache::Cache(const CacheConfig &config, MemoryLevel *next,
             std::unique_ptr<ReplacementPolicy> policy)
    : cfg(config), sets(config.numSets()),
      blockBits(floorLog2(config.blockBytes)), below(next),
      repl(std::move(policy)), prefetch(makePrefetcher(config.prefetcher)),
      tags_(static_cast<std::size_t>(sets) * config.numWays, kInvalidAddr),
      validBits_((tags_.size() + 63) / 64, 0),
      dirtyBits_((tags_.size() + 63) / 64, 0),
      prefetchedBits_((tags_.size() + 63) / 64, 0)
{
    // The tag store above is the simulator's big build-up allocation;
    // this site stands in for it failing (std::bad_alloc territory) so
    // the harness's per-cell isolation can be exercised against
    // resource exhaustion during construction.
    if (failpoint::anyArmed())
        failpoint::hitOrThrow("sim.build.alloc");
    CS_ASSERT(below != nullptr, "cache needs a level below");
    CS_ASSERT(repl != nullptr, "cache needs a replacement policy");
    CS_ASSERT(repl->geometry().numSets == sets &&
              repl->geometry().numWays == cfg.numWays,
              "policy geometry does not match the cache");
    belowCache = dynamic_cast<Cache *>(below);
    belowDram = dynamic_cast<DramLevel *>(below);
    detectHitFastPath();
    initSampling();
}

namespace {

/** splitmix64: the standard 64-bit finalizer (a bijection, so distinct
 *  set indices never collide and ranking by hash has no ties). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // anonymous namespace

void
Cache::initSampling()
{
    if (cfg.sampleSets <= 1)
        return;
    CS_ASSERT(isPowerOf2(cfg.sampleSets) && cfg.sampleSets <= sets,
              "set-sampling rate must be a power of two <= numSets");
    // Rank the sets by a fixed hash of their index and keep exactly
    // numSets / sampleSets of them. A pure function of (set count,
    // rate): the same geometry always samples the same sets, which the
    // determinism tests and --jobs reproducibility rely on. Hashing
    // (rather than a stride like set % N == 0) decorrelates the subset
    // from power-of-two access patterns.
    std::vector<std::uint32_t> order(sets);
    for (std::uint32_t s = 0; s < sets; ++s)
        order[s] = s;
    std::sort(order.begin(), order.end(),
              [](std::uint32_t a, std::uint32_t b) {
                  return mix64(a) < mix64(b);
              });
    sampledSetCount_ = sets / cfg.sampleSets;
    sampledSetBits_.assign((static_cast<std::size_t>(sets) + 63) / 64, 0);
    for (std::uint32_t i = 0; i < sampledSetCount_; ++i)
        setBit(sampledSetBits_, order[i]);
    setDemandMisses_.assign(sets, 0);
    sampling_ = true;
}

void
Cache::detectHitFastPath()
{
    // Exact typeid matches only: a subclass of a builtin policy could
    // override update() with different hit semantics, so anything not
    // literally one of these classes keeps the virtual slow path.
    const std::type_info &t = typeid(*repl);
    if (t == typeid(LruPolicy)) {
        lruFast_ = static_cast<LruPolicy *>(repl.get());
        hitUpdate_ = HitUpdate::LruTouch;
    } else if (t == typeid(FifoPolicy) || t == typeid(RandomPolicy)) {
        // FifoPolicy::update ignores hits (fill-time only); Random has
        // no metadata at all.
        hitUpdate_ = HitUpdate::NoOp;
    } else if (t == typeid(NruPolicy)) {
        nruFast_ = static_cast<NruPolicy *>(repl.get());
        hitUpdate_ = HitUpdate::NruMark;
    } else if (t == typeid(SrripPolicy) || t == typeid(BrripPolicy) ||
               t == typeid(DrripPolicy)) {
        // All three share RripBase::update, which on hits promotes the
        // line to RRPV 0 and nothing else.
        rripFast_ = static_cast<RripBase *>(repl.get());
        hitUpdate_ = HitUpdate::RripTouch;
    } else {
        hitUpdate_ = HitUpdate::Generic;
    }
}

Cycle
Cache::belowAccess(Addr addr, Pc pc, AccessType type, Cycle now)
{
    if (belowCache)
        return belowCache->access(addr, pc, type, now);
    // Functional warmup: the level below here is DRAM (or a test
    // stand-in) — pure timing state with no architectural content —
    // so skip it entirely and return the data "immediately".
    if (functional_)
        return now;
    if (belowDram)
        return belowDram->access(addr, pc, type, now);
    return below->access(addr, pc, type, now);
}

bool
Cache::contains(Addr addr) const
{
    const Addr block = addr >> blockBits;
    const std::uint32_t set = static_cast<std::uint32_t>(block & (sets - 1));
    const std::size_t base = static_cast<std::size_t>(set) * cfg.numWays;
    for (std::uint32_t w = 0; w < cfg.numWays; ++w) {
        if (testBit(validBits_, base + w) && tags_[base + w] == block)
            return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidAddr);
    std::fill(validBits_.begin(), validBits_.end(), 0);
    std::fill(dirtyBits_.begin(), dirtyBits_.end(), 0);
    std::fill(prefetchedBits_.begin(), prefetchedBits_.end(), 0);
    std::fill(partTick_.begin(), partTick_.end(), 0);
    resetStats();
}

bool
Cache::invalidate(Addr addr)
{
    const Addr block = addr >> blockBits;
    const std::uint32_t set = static_cast<std::uint32_t>(block & (sets - 1));
    const std::size_t base = static_cast<std::size_t>(set) * cfg.numWays;
    for (std::uint32_t w = 0; w < cfg.numWays; ++w) {
        const std::size_t idx = base + w;
        if (!testBit(validBits_, idx) || tags_[idx] != block)
            continue;
        tags_[idx] = kInvalidAddr;
        clearBit(validBits_, idx);
        clearBit(dirtyBits_, idx);
        clearBit(prefetchedBits_, idx);
        return true;
    }
    return false;
}

void
Cache::enableCoreAttribution(unsigned num_cores)
{
    CS_ASSERT(num_cores > 0, "attribution needs at least one core");
    coreStats_.assign(num_cores, CacheStats{});
    coreSlice_ = &coreStats_[0];
}

void
Cache::setWayPartition(std::uint32_t ways_per_core)
{
    if (ways_per_core == 0) {
        waysPerCore_ = 0;
        partLo_ = 0;
        partHi_ = 0;
        return;
    }
    CS_ASSERT(!coreStats_.empty(),
              "way partitioning requires core attribution");
    CS_ASSERT(static_cast<std::uint64_t>(ways_per_core) *
                      coreStats_.size() <=
                  cfg.numWays,
              "way partition exceeds the cache's associativity");
    waysPerCore_ = ways_per_core;
    partLo_ = 0;
    partHi_ = ways_per_core;
    if (partTick_.empty())
        partTick_.assign(tags_.size(), 0);
}

Cycle
Cache::access(Addr addr, Pc pc, AccessType type, Cycle now)
{
    const Addr block = addr >> blockBits;
    const std::uint32_t set = static_cast<std::uint32_t>(block & (sets - 1));
    const auto type_idx = static_cast<std::size_t>(type);
    const Cycle lookup_done = now + cfg.hitLatency;

    // Set-sampling filter, placed before any state is touched: an
    // access to an unsampled set costs this one branch and nothing
    // else — no tag scan, no policy, no stats, no level below.
    // The event hook keeps its contract of seeing exactly what the
    // statistics count, so it does not fire for skipped accesses.
    if (sampling_) {
        if (!testBit(sampledSetBits_, set)) {
            ++skippedAccesses_;
            return lookup_done;
        }
    }

    // Lookup: a single pass over the set's contiguous tag run finds the
    // hit way and records the first invalid way so the miss path below
    // needs no second scan.
    const std::size_t base = static_cast<std::size_t>(set) * cfg.numWays;
    std::uint32_t first_invalid = ReplacementPolicy::kBypassWay;
    for (std::uint32_t w = 0; w < cfg.numWays; ++w) {
        const std::size_t idx = base + w;
        if (!testBit(validBits_, idx)) {
            // Under a way partition only the active core's window may
            // be filled; the extra range check stays inside this branch
            // because invalid ways are rare once the cache is warm.
            if (first_invalid == ReplacementPolicy::kBypassWay &&
                (partHi_ == 0 || (w >= partLo_ && w < partHi_)))
                first_invalid = w;
            continue;
        }
        if (tags_[idx] == block) {
            ++stats_.hits[type_idx];
            if (coreSlice_)
                ++coreSlice_->hits[type_idx];
            if (partHi_ != 0)
                partTick_[idx] = ++partClock_;
            if (type == AccessType::Store || type == AccessType::Writeback)
                setBit(dirtyBits_, idx);
            if (testBit(prefetchedBits_, idx) &&
                type != AccessType::Prefetch) {
                ++stats_.prefetchesUseful;
                if (coreSlice_)
                    ++coreSlice_->prefetchesUseful;
                clearBit(prefetchedBits_, idx);
            }
            switch (hitUpdate_) {
              case HitUpdate::LruTouch:
                lruFast_->touchHit(set, w);
                break;
              case HitUpdate::NoOp:
                break;
              case HitUpdate::NruMark:
                nruFast_->markReferenced(set, w);
                break;
              case HitUpdate::RripTouch:
                rripFast_->touchHit(set, w);
                break;
              case HitUpdate::Generic:
                repl->update(set, w, pc, block, type, /*hit=*/true);
                break;
            }
            if (eventHook) {
                eventHook({block, pc, type, set, w, /*hit=*/true,
                           /*bypassed=*/false, kInvalidAddr});
            }
            if (type == AccessType::Load || type == AccessType::Store)
                issuePrefetches(block, pc, /*hit=*/true, now);
            return lookup_done;
        }
    }

    ++stats_.misses[type_idx];
    if (coreSlice_)
        ++coreSlice_->misses[type_idx];
    if (sampling_ &&
        (type == AccessType::Load || type == AccessType::Store))
        ++setDemandMisses_[set];

    // Fetch from below. Writebacks carry their own data and prefetches
    // of already-inflight lines are not modelled, so only demand types
    // and prefetches go down.
    Cycle fill_done = lookup_done;
    if (type != AccessType::Writeback)
        fill_done = belowAccess(addr, pc, type, lookup_done);

    // Victim selection: invalid ways fill first without consulting the
    // policy (matching ChampSim); the lookup scan already found one.
    std::uint32_t victim_way = first_invalid;
    Addr victim_block = kInvalidAddr;
    if (victim_way == ReplacementPolicy::kBypassWay) {
        if (partHi_ != 0) {
            // Partitioned: evict the least-recently-touched line in the
            // active core's window. The policy keeps training below but
            // does not choose victims and cannot bypass.
            victim_way = partLo_;
            std::uint64_t oldest = partTick_[base + partLo_];
            for (std::uint32_t w = partLo_ + 1; w < partHi_; ++w) {
                if (partTick_[base + w] < oldest) {
                    oldest = partTick_[base + w];
                    victim_way = w;
                }
            }
        } else {
            victim_way = repl->findVictim(set, pc, block, type);
        }
        if (victim_way == ReplacementPolicy::kBypassWay) {
            // Policy elected to bypass: nothing is installed and the
            // policy is not updated for this access.
            ++stats_.bypasses;
            if (coreSlice_)
                ++coreSlice_->bypasses;
            if (eventHook) {
                eventHook({block, pc, type, set, 0, /*hit=*/false,
                           /*bypassed=*/true, kInvalidAddr});
            }
            return fill_done;
        }
        CS_ASSERT(victim_way < cfg.numWays, "policy returned a bad way");

        const std::size_t vidx = base + victim_way;
        victim_block = tags_[vidx];
        ++stats_.evictions;
        ++stats_.evictionsByFill[type_idx];
        if (coreSlice_) {
            ++coreSlice_->evictions;
            ++coreSlice_->evictionsByFill[type_idx];
        }
        if (testBit(dirtyBits_, vidx)) {
            ++stats_.writebacksIssued;
            if (coreSlice_)
                ++coreSlice_->writebacksIssued;
            // Off the critical path: latency result ignored.
            belowAccess(victim_block << blockBits, 0,
                        AccessType::Writeback, fill_done);
        }
    }

    const std::size_t idx = base + victim_way;
    tags_[idx] = block;
    setBit(validBits_, idx);
    if (partHi_ != 0)
        partTick_[idx] = ++partClock_;
    if (type == AccessType::Store || type == AccessType::Writeback)
        setBit(dirtyBits_, idx);
    else
        clearBit(dirtyBits_, idx);
    if (type == AccessType::Prefetch)
        setBit(prefetchedBits_, idx);
    else
        clearBit(prefetchedBits_, idx);
    repl->update(set, victim_way, pc, block, type, /*hit=*/false);
    if (eventHook) {
        eventHook({block, pc, type, set, victim_way, /*hit=*/false,
                   /*bypassed=*/false, victim_block});
    }

    if (type == AccessType::Load || type == AccessType::Store)
        issuePrefetches(block, pc, /*hit=*/false, now);

    return fill_done;
}

void
Cache::exportDynamicMetrics(MetricsRegistry &metrics,
                            const std::string &prefix) const
{
    repl->exportMetrics(metrics, prefix + ".policy");
    if (prefetch)
        prefetch->exportMetrics(metrics, prefix + ".prefetcher");
    if (!sampling_)
        return;
    // Full-stream estimates from the sampled subset, exported beside
    // the raw counters (which keep counting exactly what was
    // simulated, so metric-tree merges and slice-sum checks stay
    // exact). With exactly numSets/sampleSets sampled sets the scale
    // factor is the integral rate, so the scaled counters stay uint64
    // and are always >= the raw values — check_bench_json relies on
    // both. Nothing under "sampled." exists when sampling is off.
    const std::string sp = prefix + ".sampled.";
    const std::uint64_t rate = cfg.sampleSets;
    metrics.setCounter(sp + "sample_rate", rate);
    metrics.setCounter(sp + "sets_total", sets);
    metrics.setCounter(sp + "sets_sampled", sampledSetCount_);
    metrics.setCounter(sp + "skipped_accesses", skippedAccesses_);
    metrics.setCounter(sp + "demand_accesses",
                       stats_.demandAccesses() * rate);
    metrics.setCounter(sp + "demand_hits", stats_.demandHits() * rate);
    metrics.setCounter(sp + "demand_misses",
                       stats_.demandMisses() * rate);
    metrics.setGauge(sp + "demand_miss_rate", stats_.demandMissRate());
    std::vector<double> per_set;
    per_set.reserve(sampledSetCount_);
    for (std::uint32_t s = 0; s < sets; ++s) {
        if (testBit(sampledSetBits_, s))
            per_set.push_back(static_cast<double>(setDemandMisses_[s]));
    }
    metrics.setGauge(sp + "relative_stderr",
                     sampledEstimateRelativeStderr(per_set, sets));
}

void
Cache::issuePrefetches(Addr block, Pc pc, bool hit, Cycle now)
{
    if (!prefetch)
        return;
    prefetchScratch.clear();
    prefetch->onAccess(block, pc, hit, prefetchScratch);
    for (Addr target : prefetchScratch) {
        if (contains(target << blockBits))
            continue;
        ++stats_.prefetchesIssued;
        if (coreSlice_)
            ++coreSlice_->prefetchesIssued;
        // Off the critical path; timing result ignored. The Prefetch
        // access type keeps this from re-triggering the prefetcher.
        access(target << blockBits, pc, AccessType::Prefetch, now);
    }
}

DramLevel::DramLevel(DramModel &dram) : dram(dram) {}

Cycle
DramLevel::access(Addr addr, Pc, AccessType type, Cycle now)
{
    if (type == AccessType::Writeback)
        return dram.write(addr, now);
    return dram.read(addr, now);
}

} // namespace cachescope
