/**
 * @file
 * DIP — Dynamic Insertion Policy (Qureshi et al., ISCA 2007) — and its
 * constituent BIP, the pre-RRIP generation of thrash-resistant
 * replacement. Included alongside the paper's six policies so the
 * ablation benches can compare the RRIP-era designs against their
 * ancestors on the same workloads.
 *
 * BIP inserts at the LRU position except for 1-in-epsilon fills at
 * MRU; DIP set-duels traditional LRU insertion against BIP with a PSEL
 * counter, adapting per workload phase.
 */

#ifndef CACHESCOPE_REPLACEMENT_DIP_HH
#define CACHESCOPE_REPLACEMENT_DIP_HH

#include <cstdint>

#include "replacement/basic.hh"
#include "replacement/building_blocks.hh"

namespace cachescope {

/**
 * LRU's stamps with a pluggable insertion position, shared by BIP and
 * DIP: a fill lands at MRU or at the LRU position.
 */
class LruInsertionBase : public LruPolicy
{
  public:
    using LruPolicy::LruPolicy;

    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;

  protected:
    /** @return true to insert at MRU, false to insert at LRU. */
    virtual bool insertAtMru(std::uint32_t set) = 0;

    /** Hook for DIP's PSEL training on demand-miss fills. */
    virtual void onMissFill(std::uint32_t set) { (void)set; }
};

/** Bimodal Insertion Policy: LRU insertion, 1-in-32 at MRU. */
class BipPolicy : public LruInsertionBase
{
  public:
    static constexpr std::uint32_t kEpsilon = BimodalThrottle::kEpsilon;

    using LruInsertionBase::LruInsertionBase;

  protected:
    bool insertAtMru(std::uint32_t) override { return throttle.next(); }

  private:
    BimodalThrottle throttle;
};

/** Dynamic Insertion Policy: set-dueling LRU-insertion vs BIP. */
class DipPolicy : public LruInsertionBase
{
  public:
    static constexpr std::uint32_t kPselMax = SetDuel::kPselMax;

    explicit DipPolicy(const CacheGeometry &geometry)
        : LruInsertionBase(geometry), duel(geometry.numSets)
    {}

    /** StaticLeader sets insert at MRU (LRU), BimodalLeader sets BIP. */
    using SetRole = SetDuel::Role;
    SetRole roleOf(std::uint32_t set) const { return duel.roleOf(set); }
    std::uint32_t psel() const { return duel.psel(); }

    std::string debugState() const override;
    void exportMetrics(MetricsRegistry &metrics,
                       const std::string &prefix) const override;

  protected:
    bool
    insertAtMru(std::uint32_t set) override
    {
        return duel.staticInsertion(set);
    }

    void onMissFill(std::uint32_t set) override { duel.recordMiss(set); }

  private:
    SetDuel duel;
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_DIP_HH
