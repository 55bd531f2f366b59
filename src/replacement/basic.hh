/**
 * @file
 * Baseline replacement policies: LRU, FIFO, Random, NRU and Tree-PLRU.
 *
 * LRU is the paper's baseline — every speedup in Fig. 3 is normalized to
 * it. The others are classic low-cost alternatives used by the tests and
 * ablation benches to sanity-check the framework.
 */

#ifndef CACHESCOPE_REPLACEMENT_BASIC_HH
#define CACHESCOPE_REPLACEMENT_BASIC_HH

#include <cstdint>
#include <vector>

#include "replacement/replacement_policy.hh"
#include "util/rng.hh"

namespace cachescope {

/**
 * True LRU via per-line access timestamps (64-bit, never wraps in
 * practice). Writebacks refresh recency exactly like demand accesses,
 * matching ChampSim's baseline lru module. The victim is the first
 * way holding the set's strictly oldest stamp; FIFO, BIP and DIP
 * reuse the stamps and this search with their own stamping rules.
 */
class LruPolicy : public ReplacementPolicy
{
  public:
    explicit LruPolicy(const CacheGeometry &geometry);

    std::uint32_t findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                             AccessType type) override;
    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;

    /** Exposed for tests: current timestamp of (set, way). */
    std::uint64_t timestamp(std::uint32_t set, std::uint32_t way) const;

    /**
     * Stamp (set, way) most recently used. Also the non-virtual
     * hit-path shortcut: identical to LruPolicy::update(hit=true),
     * called directly by the cache's devirtualized fast path.
     */
    void
    touchHit(std::uint32_t set, std::uint32_t way)
    {
        lastUse[lineIndex(set, way)] = ++clock;
    }

  protected:
    /**
     * Stamp (set, way) strictly older than every live line (LRU-position
     * insertion): it is replaced next unless re-referenced first.
     */
    void
    makeOldest(std::uint32_t set, std::uint32_t way)
    {
        lastUse[lineIndex(set, way)] = 0;
    }

  private:
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> lastUse; // [set * ways + way]
};

/**
 * FIFO: evict the line that was filled earliest; hits do not promote.
 * LRU's stamps and victim search, stamped at fill time only.
 */
class FifoPolicy : public LruPolicy
{
  public:
    using LruPolicy::LruPolicy;

    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;
};

/** Uniform-random victim selection (seed-deterministic). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(const CacheGeometry &geometry);

    std::uint32_t findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                             AccessType type) override;
    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;

  private:
    Rng rng;
};

/**
 * Not-Recently-Used: one reference bit per line; victim is the first
 * line with a clear bit, clearing all bits when every line is referenced.
 */
class NruPolicy : public ReplacementPolicy
{
  public:
    explicit NruPolicy(const CacheGeometry &geometry);

    std::uint32_t findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                             AccessType type) override;
    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;

    /**
     * Non-virtual hit-path shortcut: identical to update(hit=true),
     * which sets the line's reference bit. Called directly by the
     * cache's devirtualized fast path.
     */
    void
    markReferenced(std::uint32_t set, std::uint32_t way)
    {
        referenced[lineIndex(set, way)] = 1;
    }

  private:
    std::vector<std::uint8_t> referenced;
};

/**
 * Tree pseudo-LRU. The tree covers the next power of two above the
 * associativity; victim walks cold pointers and clamps to the last way
 * when the walk lands past the associativity (standard treatment for
 * non-power-of-two caches such as the 11-way Cascade Lake LLC).
 */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    explicit TreePlruPolicy(const CacheGeometry &geometry);

    std::uint32_t findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                             AccessType type) override;
    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;

  private:
    std::uint32_t leafCount;              ///< pow2 >= numWays
    std::vector<std::uint8_t> treeBits;   ///< [set][leafCount - 1] flattened
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_BASIC_HH
