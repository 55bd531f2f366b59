/**
 * @file
 * One core's memory hierarchy: private L1I + L1D over a unified L2,
 * over the shared LLC and DDR4 of the paper's Cascade Lake setup.
 */

#ifndef CACHESCOPE_CORE_HIERARCHY_HH
#define CACHESCOPE_CORE_HIERARCHY_HH

#include <memory>

#include "core/cache.hh"
#include "dram/dram.hh"

namespace cachescope {

/** Configuration of the whole hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1i;
    CacheConfig l1d;
    CacheConfig l2;
    CacheConfig llc;
    DramConfig dram;
};

/**
 * One core's view of the memory system: its private L1I + L1D over a
 * unified L2, wired over an LLC and DRAM that the simulation driver
 * owns and shares between cores (one core: "shared" by one). The
 * replacement policy under study applies to the LLC; the private
 * levels stay at LRU, the paper's methodology.
 */
class CacheHierarchy
{
  public:
    /** Neither @p llc nor @p dram is owned; both must outlive this. */
    CacheHierarchy(const HierarchyConfig &config, Cache &llc,
                   DramModel &dram)
        : l2Cache(std::make_unique<Cache>(config.l2, &llc)),
          l1iCache(std::make_unique<Cache>(config.l1i, l2Cache.get())),
          l1dCache(std::make_unique<Cache>(config.l1d, l2Cache.get())),
          llcCache(&llc), dramModel(&dram)
    {}

    // The three core-facing entry points are inline direct calls:
    // Cache is final, so these devirtualize and the whole fixed
    // L1->L2->LLC->DRAM chain below them runs without a virtual hop.

    /** Data read issued by the core. @return data-ready cycle. */
    Cycle
    load(Addr addr, Pc pc, Cycle now)
    {
        return l1dCache->access(addr, pc, AccessType::Load, now);
    }

    /** Data write issued by the core. @return completion cycle. */
    Cycle
    store(Addr addr, Pc pc, Cycle now)
    {
        return l1dCache->access(addr, pc, AccessType::Store, now);
    }

    /** Instruction fetch. @return fetch-complete cycle. */
    Cycle
    fetch(Pc pc, Cycle now)
    {
        return l1iCache->access(pc, pc, AccessType::Load, now);
    }

    Cache &l1i() { return *l1iCache; }
    Cache &l1d() { return *l1dCache; }
    Cache &l2() { return *l2Cache; }
    Cache &llc() { return *llcCache; }
    DramModel &dram() { return *dramModel; }
    const Cache &l1i() const { return *l1iCache; }
    const Cache &l1d() const { return *l1dCache; }
    const Cache &l2() const { return *l2Cache; }
    const Cache &llc() const { return *llcCache; }
    const DramModel &dram() const { return *dramModel; }

    /**
     * Reset the private levels' statistics (state is preserved). The
     * LLC and DRAM aggregate every core's traffic, so only their owner
     * resets them.
     */
    void
    resetStats()
    {
        l1iCache->resetStats();
        l1dCache->resetStats();
        l2Cache->resetStats();
    }

  private:
    std::unique_ptr<Cache> l2Cache;
    std::unique_ptr<Cache> l1iCache;
    std::unique_ptr<Cache> l1dCache;
    Cache *llcCache;
    DramModel *dramModel;
};

} // namespace cachescope

#endif // CACHESCOPE_CORE_HIERARCHY_HH
