/**
 * @file
 * Mechanisms several replacement policies share, each written once:
 * the strided choice of a few sets out of the whole cache (set-dueling
 * leaders, OPTgen and sampler sets), the 1-in-32 bimodal fill throttle,
 * the PSEL set-dueling monitor of DIP and DRRIP, and the RRIP victim
 * search.
 */

#ifndef CACHESCOPE_REPLACEMENT_BUILDING_BLOCKS_HH
#define CACHESCOPE_REPLACEMENT_BUILDING_BLOCKS_HH

#include <algorithm>
#include <cstdint>
#include <string>

namespace cachescope {

/**
 * @p count sets spread evenly over the index space: every stride-th
 * set from set 0, stride = numSets / count. A cache with fewer sets
 * than @p count has stride 1 and every set is chosen.
 */
class StridedSets
{
  public:
    StridedSets(std::uint32_t num_sets, std::uint32_t count)
        : stride(std::max(num_sets / count, 1u)), count(count)
    {}

    /** @return true iff @p set is one of the chosen sets. */
    bool
    contains(std::uint32_t set) const
    {
        return set % stride == 0 && set / stride < count;
    }

    /** @return @p set's slot in [0, count) if contains(set). */
    std::uint32_t slotOf(std::uint32_t set) const { return set / stride; }

  private:
    std::uint32_t stride;
    std::uint32_t count;
};

/** The bimodal insertion throttle: one fill in kEpsilon is let through. */
class BimodalThrottle
{
  public:
    static constexpr std::uint32_t kEpsilon = 32;

    /** Count a fill; @return true for every kEpsilon-th. */
    bool next() { return ++fills % kEpsilon == 0; }

  private:
    std::uint32_t fills = 0;
};

/**
 * Set dueling (Qureshi et al., ISCA 2007) between a static insertion
 * policy and its bimodal variant: LRU vs BIP in DIP, SRRIP vs BRRIP
 * in DRRIP.
 *
 * kLeadersPerPolicy leader sets per side alternate over the strided
 * leader sets. A demand miss in a leader set is a vote against that
 * side, counted in a saturating PSEL; follower sets adopt the side
 * that is missing less. Every bimodal fill, in leaders and followers
 * alike, draws on one shared throttle.
 */
class SetDuel
{
  public:
    static constexpr std::uint32_t kLeadersPerPolicy = 32;
    static constexpr std::uint32_t kPselBits = 10;
    static constexpr std::uint32_t kPselMax = (1u << kPselBits) - 1;

    enum class Role : std::uint8_t { StaticLeader, BimodalLeader, Follower };

    explicit SetDuel(std::uint32_t num_sets)
        : leaders(num_sets, 2 * kLeadersPerPolicy)
    {}

    Role
    roleOf(std::uint32_t set) const
    {
        if (!leaders.contains(set))
            return Role::Follower;
        return leaders.slotOf(set) % 2 == 0 ? Role::StaticLeader
                                            : Role::BimodalLeader;
    }

    std::uint32_t psel() const { return pselCounter; }

    /**
     * @return true iff followers use the static policy: PSEL above its
     * midpoint means the bimodal leaders missed more.
     */
    bool followersUseStatic() const { return pselCounter > kPselMax / 2; }

    /**
     * Decide one fill of @p set.
     * @return true for the static policy's insertion, false for the
     * bimodal policy's distant one.
     */
    bool
    staticInsertion(std::uint32_t set)
    {
        const Role role = roleOf(set);
        if (role == Role::StaticLeader ||
            (role == Role::Follower && followersUseStatic()))
            return true;
        return throttle.next();
    }

    /** Count a demand miss filled into @p set. */
    void
    recordMiss(std::uint32_t set)
    {
        switch (roleOf(set)) {
          case Role::StaticLeader:
            if (pselCounter > 0)
                --pselCounter;
            break;
          case Role::BimodalLeader:
            if (pselCounter < kPselMax)
                ++pselCounter;
            break;
          case Role::Follower:
            break;
        }
    }

    /** @return "psel=<n>/<max> follower_mode=<the followers' side>". */
    std::string
    debugState(const char *static_name, const char *bimodal_name) const
    {
        return "psel=" + std::to_string(pselCounter) + "/" +
               std::to_string(kPselMax) + " follower_mode=" +
               (followersUseStatic() ? static_name : bimodal_name);
    }

  private:
    StridedSets leaders;
    BimodalThrottle throttle;
    std::uint32_t pselCounter = kPselMax / 2;
};

/**
 * The RRIP victim search (Jaleel et al., ISCA 2010) over one set's
 * RRPVs: the lowest way predicted distant (RRPV @p max_rrpv). When no
 * line is, the whole set ages until one is, in a single step by the
 * gap between @p max_rrpv and the set's largest RRPV.
 */
inline std::uint32_t
agingRrpvVictim(std::uint8_t *rrpv, std::uint32_t ways,
                std::uint8_t max_rrpv)
{
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (rrpv[w] == max_rrpv)
            return w;
        if (rrpv[w] > rrpv[victim])
            victim = w;
    }
    const auto age = static_cast<std::uint8_t>(max_rrpv - rrpv[victim]);
    for (std::uint32_t w = 0; w < ways; ++w)
        rrpv[w] = static_cast<std::uint8_t>(rrpv[w] + age);
    return victim;
}

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_BUILDING_BLOCKS_HH
