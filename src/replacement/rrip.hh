/**
 * @file
 * Re-Reference Interval Prediction policies (Jaleel et al., ISCA 2010):
 * SRRIP, BRRIP and the set-dueling hybrid DRRIP.
 *
 * Each line carries an M-bit re-reference prediction value (RRPV);
 * 0 predicts near-immediate re-reference, 2^M - 1 predicts distant.
 * Victims are lines with the maximum RRPV; if none exists all RRPVs in
 * the set age until one does. Hits promote to RRPV 0 (hit-priority).
 */

#ifndef CACHESCOPE_REPLACEMENT_RRIP_HH
#define CACHESCOPE_REPLACEMENT_RRIP_HH

#include <cstdint>
#include <vector>

#include "replacement/building_blocks.hh"
#include "replacement/replacement_policy.hh"

namespace cachescope {

/**
 * Shared RRPV machinery for the RRIP family.
 */
class RripBase : public ReplacementPolicy
{
  public:
    static constexpr unsigned kRrpvBits = 2;
    static constexpr std::uint8_t kMaxRrpv = (1u << kRrpvBits) - 1;

    explicit RripBase(const CacheGeometry &geometry);

    std::uint32_t findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                             AccessType type) override;
    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;

    /** Exposed for tests. */
    std::uint8_t
    rrpvOf(std::uint32_t set, std::uint32_t way) const
    {
        return rrpvs[lineIndex(set, way)];
    }

    /**
     * Non-virtual hit-path shortcut: identical to update(hit=true),
     * which promotes the line to RRPV 0 (hit-priority) for every
     * member of the RRIP family — none of them overrides update().
     * Called directly by the cache's devirtualized fast path.
     */
    void
    touchHit(std::uint32_t set, std::uint32_t way)
    {
        rrpvs[lineIndex(set, way)] = 0;
    }

  protected:
    /**
     * @return the RRPV a newly filled line should get.
     * @param set the set being filled (DRRIP duels per set).
     */
    virtual std::uint8_t insertionRrpv(std::uint32_t set) = 0;

    /** Hook for DRRIP's PSEL training: called on every demand miss fill. */
    virtual void onMissFill(std::uint32_t set) { (void)set; }

  private:
    std::vector<std::uint8_t> rrpvs;
};

/** Static RRIP: always insert with "long" re-reference (maxRrpv - 1). */
class SrripPolicy : public RripBase
{
  public:
    using RripBase::RripBase;

  protected:
    std::uint8_t insertionRrpv(std::uint32_t) override { return kMaxRrpv - 1; }
};

/**
 * Bimodal RRIP: insert with "distant" (maxRrpv) most of the time and
 * "long" (maxRrpv - 1) once every kEpsilon fills, which protects a
 * trickle of lines in thrashing access patterns.
 */
class BrripPolicy : public RripBase
{
  public:
    static constexpr std::uint32_t kEpsilon = BimodalThrottle::kEpsilon;

    using RripBase::RripBase;

  protected:
    std::uint8_t
    insertionRrpv(std::uint32_t) override
    {
        return throttle.next() ? kMaxRrpv - 1 : kMaxRrpv;
    }

  private:
    BimodalThrottle throttle;
};

/**
 * Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion.
 *
 * A few leader sets always use SRRIP insertion, a few always use BRRIP;
 * misses in leader sets steer a PSEL counter, and follower sets adopt
 * whichever leader group is missing less.
 */
class DrripPolicy : public RripBase
{
  public:
    static constexpr std::uint32_t kPselMax = SetDuel::kPselMax;

    explicit DrripPolicy(const CacheGeometry &geometry)
        : RripBase(geometry), duel(geometry.numSets)
    {}

    /** StaticLeader sets insert as SRRIP, BimodalLeader sets as BRRIP. */
    using SetRole = SetDuel::Role;
    SetRole roleOf(std::uint32_t set) const { return duel.roleOf(set); }
    std::uint32_t psel() const { return duel.psel(); }

    std::string
    debugState() const override
    {
        return duel.debugState("srrip", "brrip");
    }

  protected:
    std::uint8_t
    insertionRrpv(std::uint32_t set) override
    {
        return duel.staticInsertion(set) ? kMaxRrpv - 1 : kMaxRrpv;
    }

    void onMissFill(std::uint32_t set) override { duel.recordMiss(set); }

  private:
    SetDuel duel;
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_RRIP_HH
