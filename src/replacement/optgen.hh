/**
 * @file
 * OPTgen — the sampled reconstruction of Belady's OPT used by Hawkeye
 * (Jain & Lin, ISCA 2016) and reused by Glider's online predictor.
 *
 * OPTgen answers, for a stream of accesses to one cache set, "would OPT
 * have hit this access?" using the insight that OPT caches a line iff
 * the cache has spare capacity in every time quantum of the line's
 * liveness interval. It maintains an occupancy vector over the last N
 * access quanta; an access to a line last touched at quantum t is an
 * OPT hit iff occupancy stayed below the associativity in [t, now).
 *
 * OptgenPolicy is the chassis both policies build on: everything but
 * the predictor OPTgen trains.
 */

#ifndef CACHESCOPE_REPLACEMENT_OPTGEN_HH
#define CACHESCOPE_REPLACEMENT_OPTGEN_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "replacement/building_blocks.hh"
#include "replacement/replacement_policy.hh"
#include "util/types.hh"

namespace cachescope {

/**
 * Occupancy-vector OPT reconstruction for a single set.
 */
class OptGen
{
  public:
    /**
     * @param capacity lines the set can hold (associativity).
     * @param vector_size history window in access quanta.
     */
    explicit OptGen(std::uint32_t capacity, std::uint32_t vector_size = 128);

    /**
     * Record an access whose previous access to the same line happened
     * at absolute quantum @p last_quanta.
     *
     * @param curr_quanta absolute index of this access (from quanta()).
     * @param last_quanta absolute index of the previous access.
     * @return true iff OPT would have hit.
     */
    bool accessWithHistory(std::uint64_t curr_quanta,
                           std::uint64_t last_quanta);

    /** Record a first-touch access (always an OPT miss). */
    void accessFirstTouch(std::uint64_t curr_quanta);

    /** @return the next absolute quantum index and advance the clock. */
    std::uint64_t nextQuanta() { return clock++; }

    std::uint32_t vectorSize() const { return size; }
    std::uint64_t optHits() const { return hits; }
    std::uint64_t optAccesses() const { return accesses; }

  private:
    std::uint32_t capacity;
    std::uint32_t size;
    std::uint64_t clock = 0;
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    std::vector<std::uint16_t> occupancy;
};

/**
 * Per-set address sampler feeding OPTgen: remembers, for recently seen
 * lines, the quantum and PC of their last access, so the owner policy
 * can train its predictor with OPT's verdict on the *previous* PC.
 */
class OptSampler
{
  public:
    struct Entry
    {
        std::uint64_t lastQuanta = 0;
        Pc lastPc = 0;
    };

    /** @param max_entries bound on tracked lines per set. */
    explicit OptSampler(std::uint32_t max_entries = 512)
        : maxEntries(max_entries)
    {}

    /**
     * Look up @p block_addr; if present, copy its entry into @p out.
     * @return true if the line was being tracked.
     */
    bool lookup(Addr block_addr, Entry &out) const;

    /** Insert or refresh the entry for @p block_addr. */
    void record(Addr block_addr, std::uint64_t quanta, Pc pc);

    /** Drop entries whose last access is older than @p horizon quanta. */
    void expireBefore(std::uint64_t horizon);

    std::size_t size() const { return table.size(); }

  private:
    std::uint32_t maxEntries;
    std::unordered_map<Addr, Entry> table;
};

/**
 * An OPTgen-trained RRIP policy minus its predictor, shared by Hawkeye
 * and Glider. It owns the per-line metadata, drives OPTgen on
 * kTargetSampledSets strided sets, evicts cache-averse lines first
 * (detraining the predictor when a friendly line must go instead),
 * inserts writebacks averse and places demand accesses by the
 * predictor's verdict. Subclasses supply the predictor through the
 * protected hooks.
 */
class OptgenPolicy : public ReplacementPolicy
{
  public:
    static constexpr unsigned kRrpvBits = 3;
    static constexpr std::uint8_t kMaxRrpv = (1u << kRrpvBits) - 1;
    /** Target number of sampled sets. */
    static constexpr std::uint32_t kTargetSampledSets = 64;
    static constexpr std::uint32_t kOptgenVectorSize = 128;

    explicit OptgenPolicy(const CacheGeometry &geometry);

    std::uint32_t findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                             AccessType type) final;
    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) final;

    /** @return true iff @p set feeds OPTgen. */
    bool isSampledSet(std::uint32_t set) const { return sampled.contains(set); }

    /** Exposed for tests. */
    std::uint8_t
    rrpvOf(std::uint32_t set, std::uint32_t way) const
    {
        return lines[lineIndex(set, way)].rrpv;
    }
    std::uint64_t optgenHits() const;
    std::uint64_t optgenAccesses() const;

  protected:
    /** The predictor's verdict on a demand access. */
    enum class Verdict : std::uint8_t {
        Averse,    ///< inserted and kept at kMaxRrpv: evicted first
        Friendly,  ///< fills land at kMaxRrpv / 4, hits promote to 0
        Confident, ///< fills land at 0 and age the other friendly lines
    };

    /**
     * Classify a demand access by @p pc. Called once per access, after
     * OPTgen has seen it when its set is sampled.
     */
    virtual Verdict predict(Pc pc) = 0;

    /**
     * OPT's verdict on a sampled access to @p block_addr: @p opt_hit
     * says whether OPT would have kept the line since its previous
     * access, made by @p prev_pc. @p slot numbers the sampled set.
     */
    virtual void trainOnOpt(std::uint32_t slot, Addr block_addr,
                            Pc prev_pc, bool opt_hit) = 0;

    /** A friendly line filled by @p fill_pc is evicted: it was wrong. */
    virtual void detrain(Pc fill_pc) = 0;

    /**
     * Called after each sampled access is recorded; @p expired is true
     * when the sampler has just dropped the entries that fell out of
     * the OPTgen window.
     */
    virtual void
    onSampled(std::uint32_t slot, Addr block_addr, Pc pc, bool expired)
    {
        (void)slot;
        (void)block_addr;
        (void)pc;
        (void)expired;
    }

  private:
    struct LineMeta
    {
        std::uint8_t rrpv = kMaxRrpv;
        Pc fillPc = 0;
        bool friendly = false;
        bool valid = false;
    };

    struct SampledSet
    {
        OptGen optgen;
        OptSampler sampler;

        explicit SampledSet(std::uint32_t ways)
            : optgen(ways, kOptgenVectorSize), sampler(8 * kOptgenVectorSize)
        {}
    };

    void sampleAccess(std::uint32_t set, Pc pc, Addr block_addr);

    StridedSets sampled;
    std::vector<LineMeta> lines;
    /** OPTgen state per sampled set, indexed by its slot. */
    std::vector<SampledSet> sampledSets;
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_OPTGEN_HH
