/**
 * @file
 * The set-associative cache model.
 *
 * Write-back, write-allocate, non-inclusive (ChampSim's default LLC
 * arrangement). Replacement is delegated to a ReplacementPolicy; the
 * level below is reached through the MemoryLevel interface so caches
 * and the DRAM adapter compose into an arbitrary-depth hierarchy.
 *
 * Timing: access() returns the cycle at which the requested data is
 * available. A hit costs the level's hit latency; a miss adds the level
 * below recursively. Writebacks update lower-level state but never
 * contribute to the returned (critical-path) latency.
 *
 * Hot-path layout: line state lives in structure-of-arrays form — one
 * contiguous tag array plus packed valid/dirty/prefetched bitmaps —
 * so the per-access set scan touches one dense tag run instead of
 * striding over padded structs. The class is `final` and the common
 * L1→L2→LLC→DRAM hops bypass the virtual MemoryLevel boundary through
 * cached concrete pointers; the virtual path remains for any other
 * MemoryLevel (e.g. the difftest FlatLevel).
 */

#ifndef CACHESCOPE_CORE_CACHE_HH
#define CACHESCOPE_CORE_CACHE_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "replacement/replacement_policy.hh"
#include "util/status.hh"
#include "util/types.hh"

namespace cachescope {

class MetricsRegistry;
class LruPolicy;
class NruPolicy;
class RripBase;

/** Anything a cache can forward misses to. */
class MemoryLevel
{
  public:
    virtual ~MemoryLevel() = default;

    /**
     * Access this level.
     * @param addr full byte address.
     * @param pc PC of the causing instruction (0 for writebacks).
     * @param type access type.
     * @param now cycle the request arrives.
     * @return cycle at which the data is available.
     */
    virtual Cycle access(Addr addr, Pc pc, AccessType type, Cycle now) = 0;

    /** @return a short display name ("L1D", "DRAM", ...). */
    virtual const std::string &levelName() const = 0;
};

/** Static configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t numWays = 8;
    std::uint32_t blockBytes = 64;
    /** Latency added by a lookup at this level (hit cost). */
    Cycle hitLatency = 4;
    /** Replacement policy registry name. */
    std::string replacement = "lru";
    /** Prefetcher name ("none", "next_line", "stride", "streamer"). */
    std::string prefetcher = "none";
    /**
     * Set-sampling rate: 1 simulates every set (the default, exact);
     * N > 1 simulates only a deterministic hash-selected 1-in-N subset
     * of the sets and skips all work (tags, policy, stats, the level
     * below) for the rest — the ChampSim/CRC2 sampled-set technique.
     * Sampled counters are exported scaled back to full-stream
     * estimates under "<prefix>.sampled."; the raw counters keep
     * counting exactly what was simulated. Must be a power of two no
     * larger than the set count.
     */
    std::uint32_t sampleSets = 1;

    /**
     * Check that the shape derives a usable geometry (power-of-two
     * block size, non-zero ways, power-of-two set count) and that the
     * replacement/prefetcher names are registered. Catching these here
     * keeps zero or non-power-of-two geometries from silently
     * corrupting set indexing and statistics downstream.
     */
    Status validate() const;

    /** @return derived number of sets; fatal() if the shape is invalid. */
    std::uint32_t numSets() const;

    /** @return the geometry handed to the replacement policy. */
    CacheGeometry geometry() const;
};

/** Counters exported by one cache level. */
struct CacheStats
{
    static constexpr std::size_t kNumTypes = 4;

    std::uint64_t hits[kNumTypes] = {};
    std::uint64_t misses[kNumTypes] = {};
    std::uint64_t bypasses = 0;
    std::uint64_t writebacksIssued = 0;  ///< dirty evictions sent below
    std::uint64_t evictions = 0;
    /** Evictions keyed by the access type of the incoming fill. */
    std::uint64_t evictionsByFill[kNumTypes] = {};
    std::uint64_t prefetchesIssued = 0;  ///< prefetch fills requested
    std::uint64_t prefetchesUseful = 0;  ///< prefetched lines later hit

    std::uint64_t hitsOf(AccessType t) const
    {
        return hits[static_cast<std::size_t>(t)];
    }
    std::uint64_t missesOf(AccessType t) const
    {
        return misses[static_cast<std::size_t>(t)];
    }

    /** Demand = loads + stores (what MPKI counts; no WB, no prefetch). */
    std::uint64_t demandHits() const;
    std::uint64_t demandMisses() const;
    std::uint64_t demandAccesses() const;
    double demandMissRate() const;

    /** Register every counter under "<prefix>." in @p metrics. */
    void exportMetrics(MetricsRegistry &metrics,
                       const std::string &prefix) const;

    void reset() { *this = CacheStats{}; }
};

class DramLevel;

/**
 * One cache level.
 */
class Cache final : public MemoryLevel
{
  public:
    /**
     * Build a cache whose replacement policy is created by name from
     * @p config.replacement.
     * @param next the level below (not owned; may not be null).
     */
    Cache(const CacheConfig &config, MemoryLevel *next);

    /** Build a cache with an explicitly injected policy (Belady). */
    Cache(const CacheConfig &config, MemoryLevel *next,
          std::unique_ptr<ReplacementPolicy> policy);

    Cycle access(Addr addr, Pc pc, AccessType type, Cycle now) override;
    const std::string &levelName() const override { return cfg.name; }

    /**
     * Functional probe: @return true iff the block holding @p addr is
     * resident. Does not touch replacement state or statistics.
     */
    bool contains(Addr addr) const;

    const CacheConfig &config() const { return cfg; }
    const CacheStats &stats() const { return stats_; }

    /**
     * Export the replacement policy's and prefetcher's internal
     * metrics under "<prefix>.policy." / "<prefix>.prefetcher.".
     * (The level's own counters travel in CacheStats snapshots and are
     * exported from there.)
     */
    void exportDynamicMetrics(MetricsRegistry &metrics,
                              const std::string &prefix) const;
    ReplacementPolicy &policy() { return *repl; }
    const ReplacementPolicy &policy() const { return *repl; }

    /** Clear line state and statistics (not policy state). */
    void invalidateAll();

    /**
     * Functional probe: invalidate the block holding @p addr if it is
     * resident. Clears the valid/dirty/prefetched bits (no writeback is
     * issued) and leaves replacement-policy metadata untouched, so the
     * next fill to the set lands in the freed way via the invalid-way
     * fast path. Used by tests to pin the fused-scan way choice.
     * @return true iff the block was resident.
     */
    bool invalidate(Addr addr);

    void
    resetStats()
    {
        stats_.reset();
        for (CacheStats &slice : coreStats_)
            slice.reset();
        skippedAccesses_ = 0;
        std::fill(setDemandMisses_.begin(), setDemandMisses_.end(), 0);
    }

    // ---- two-speed simulation support -------------------------------

    /**
     * Functional (timing-free) warmup: while enabled, misses that
     * would go to DRAM (or any non-cache level below) return
     * immediately instead of walking the bank queues. Tags,
     * replacement metadata and prefetcher state still update exactly
     * as in timed mode — only timing state is skipped. Set on the
     * DRAM-adjacent cache by the simulator during functional warmup
     * and cleared at the warmup boundary.
     */
    void setFunctionalMode(bool on) { functional_ = on; }
    bool functionalMode() const { return functional_; }

    /** @return true iff set-sampling is enabled (sampleSets > 1). */
    bool samplingEnabled() const { return sampling_; }

    /** @return true iff @p set is simulated under the sampling filter
     *  (always true when sampling is off). The selection is a pure
     *  function of (set count, sample rate), so it is identical across
     *  runs, processes and --jobs values. */
    bool
    setIsSampled(std::uint32_t set) const
    {
        return !sampling_ || testBit(sampledSetBits_, set);
    }

    /** Number of sets actually simulated (== numSets / sampleSets). */
    std::uint32_t sampledSetCount() const
    {
        return sampling_ ? sampledSetCount_ : sets;
    }

    /** Accesses dropped by the sampling filter since the last reset. */
    std::uint64_t skippedAccesses() const { return skippedAccesses_; }

    // ---- multi-core co-run support ----------------------------------
    //
    // A shared LLC serving several cores attributes every statistic to
    // the core that caused it: each counter site increments both the
    // shared CacheStats and the active core's slice, so the slices sum
    // exactly to the shared totals by construction. Single-core caches
    // never enable this and pay one always-false branch per counter.

    /**
     * Allocate @p num_cores per-core statistics slices and start
     * attributing to core 0. Call once, before any traffic.
     */
    void enableCoreAttribution(unsigned num_cores);

    /**
     * Attribute subsequent accesses (and their evictions, writebacks
     * and prefetches) to @p core. The co-run arbiter calls this before
     * stepping each core's simulator. No-op requirement: attribution
     * must be enabled first.
     */
    void
    setActiveCore(unsigned core)
    {
        coreSlice_ = &coreStats_[core];
        if (waysPerCore_ != 0) {
            partLo_ = core * waysPerCore_;
            partHi_ = partLo_ + waysPerCore_;
        }
    }

    /** The statistics slice attributed to @p core. */
    const CacheStats &
    coreStats(unsigned core) const
    {
        return coreStats_[core];
    }

    /** Number of per-core slices (0 when attribution is disabled). */
    unsigned
    attributedCores() const
    {
        return static_cast<unsigned>(coreStats_.size());
    }

    /**
     * Statically partition the ways among the attributed cores: core c
     * may only fill ways [c*K, (c+1)*K). Hits are still allowed in any
     * way (lines are not migrated). Within its partition a core evicts
     * the least-recently-touched line via a cache-maintained tick; the
     * replacement policy is still trained on every access but no longer
     * chooses victims, and it can no longer bypass. Ways beyond
     * numCores*K are never filled. Requires enableCoreAttribution()
     * first; K == 0 restores the shared (unpartitioned) mode.
     */
    void setWayPartition(std::uint32_t ways_per_core);

    /**
     * One fully resolved access, as observed by the event hook. Fired
     * once per access() call (including writebacks and recursive
     * prefetch fills), after the hit/miss outcome, victim choice and
     * installation are known. This is the observation point the
     * differential-testing subsystem replays against its reference
     * models; the hook sees exactly what the statistics count.
     */
    struct AccessEvent
    {
        Addr block = kInvalidAddr;  ///< block-aligned address accessed
        Pc pc = 0;
        AccessType type = AccessType::Load;
        std::uint32_t set = 0;
        /** Hit way, or the way filled; undefined when bypassed. */
        std::uint32_t way = 0;
        bool hit = false;
        /** True when the policy elected not to install the fill. */
        bool bypassed = false;
        /** Block evicted to make room, or kInvalidAddr if the fill
         *  landed in an invalid way (or the access hit/bypassed). */
        Addr victimBlock = kInvalidAddr;
    };

    using EventHook = std::function<void(const AccessEvent &)>;
    void setEventHook(EventHook hook)
    {
        eventHook = std::move(hook);
    }

  private:
    /**
     * Devirtualized hit-path policy update. The builtin policies'
     * on-hit behaviour is a one-line metadata touch; detecting the
     * exact concrete type at construction lets the hit path skip the
     * virtual update() call. Detection is by exact typeid so unknown
     * subclasses always take Generic (the full virtual call).
     */
    enum class HitUpdate : std::uint8_t
    {
        Generic,   ///< virtual repl->update(..., hit=true)
        LruTouch,  ///< LruPolicy: lastUse = ++clock
        NoOp,      ///< FifoPolicy / RandomPolicy: hits change nothing
        NruMark,   ///< NruPolicy: referenced bit set
        RripTouch, ///< RRIP family: RRPV promoted to 0
    };

    /** Run the prefetcher after a demand access and issue its picks. */
    void issuePrefetches(Addr block, Pc pc, bool hit, Cycle now);

    /** Classify repl's concrete type and cache the fast-path pointer. */
    void detectHitFastPath();

    /**
     * Forward an access to the level below, using the cached concrete
     * pointer (direct call — Cache and DramLevel are final) when the
     * next level is one of ours, else the virtual interface.
     */
    Cycle belowAccess(Addr addr, Pc pc, AccessType type, Cycle now);

    static bool
    testBit(const std::vector<std::uint64_t> &bits, std::size_t i)
    {
        return (bits[i >> 6] >> (i & 63)) & 1u;
    }
    static void
    setBit(std::vector<std::uint64_t> &bits, std::size_t i)
    {
        bits[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    static void
    clearBit(std::vector<std::uint64_t> &bits, std::size_t i)
    {
        bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    CacheConfig cfg;
    std::uint32_t sets;
    unsigned blockBits;
    MemoryLevel *below;
    /** Concrete view of `below` when it is a Cache / DramLevel. */
    Cache *belowCache = nullptr;
    DramLevel *belowDram = nullptr;
    std::unique_ptr<ReplacementPolicy> repl;
    std::unique_ptr<Prefetcher> prefetch;

    /**
     * SoA line state, indexed [set * numWays + way]. A tag is
     * meaningful only while its valid bit is set.
     */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> validBits_;
    std::vector<std::uint64_t> dirtyBits_;
    std::vector<std::uint64_t> prefetchedBits_;

    HitUpdate hitUpdate_ = HitUpdate::Generic;
    /** Concrete policy pointer backing the non-Generic fast paths. */
    LruPolicy *lruFast_ = nullptr;
    NruPolicy *nruFast_ = nullptr;
    RripBase *rripFast_ = nullptr;

    CacheStats stats_;
    /**
     * Per-core attribution slices (empty when disabled). coreSlice_
     * points at the active core's slice, or is null in single-core
     * mode so every counter site pays exactly one predictable branch.
     */
    std::vector<CacheStats> coreStats_;
    CacheStats *coreSlice_ = nullptr;
    /** Static way partitioning (0 = shared). */
    std::uint32_t waysPerCore_ = 0;
    /** Active core's fill window [partLo_, partHi_); whole cache when
     *  partHi_ == 0 (the unpartitioned common case). */
    std::uint32_t partLo_ = 0;
    std::uint32_t partHi_ = 0;
    /** Per-line last-touch ticks backing within-partition LRU
     *  eviction; allocated lazily by setWayPartition(). */
    std::vector<std::uint64_t> partTick_;
    std::uint64_t partClock_ = 0;
    EventHook eventHook;
    std::vector<Addr> prefetchScratch;

    /** Pick the sampled-set subset (ctor helper; no-op at rate 1). */
    void initSampling();

    /** One-branch guard for the sampling filter (sampleSets > 1). */
    bool sampling_ = false;
    /** Functional-warmup flag: skip the non-cache level below. */
    bool functional_ = false;
    /** Bitmap of simulated sets (empty when sampling is off). */
    std::vector<std::uint64_t> sampledSetBits_;
    std::uint32_t sampledSetCount_ = 0;
    /** Accesses dropped by the sampling filter. */
    std::uint64_t skippedAccesses_ = 0;
    /**
     * Per-set demand miss counts on sampled sets, backing the
     * exported sampling-error gauge (empty when sampling is off).
     */
    std::vector<std::uint64_t> setDemandMisses_;
};

/** Adapter presenting a DramModel as the bottom MemoryLevel. */
class DramModel;

class DramLevel final : public MemoryLevel
{
  public:
    explicit DramLevel(DramModel &dram);

    Cycle access(Addr addr, Pc pc, AccessType type, Cycle now) override;
    const std::string &levelName() const override { return name; }

  private:
    DramModel &dram;
    std::string name = "DRAM";
};

} // namespace cachescope

#endif // CACHESCOPE_CORE_CACHE_HH
