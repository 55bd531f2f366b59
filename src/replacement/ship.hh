/**
 * @file
 * SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011),
 * PC-signature variant (SHiP-PC).
 *
 * SHiP layers a learned insertion policy on top of SRRIP: a table of
 * saturating counters (the SHCT), indexed by a hash of the missing
 * instruction's PC, tracks whether lines inserted by that PC tend to be
 * re-referenced before eviction. Lines whose signature has never
 * produced hits are inserted with distant RRPV (effectively predicted
 * dead on arrival).
 *
 * This is the first of the PC-correlating policies the paper shows
 * failing on graph workloads: when one PC streams over millions of
 * blocks with mixed reuse, its single SHCT counter carries no signal.
 */

#ifndef CACHESCOPE_REPLACEMENT_SHIP_HH
#define CACHESCOPE_REPLACEMENT_SHIP_HH

#include <cstdint>
#include <vector>

#include "replacement/replacement_policy.hh"
#include "util/sat_counter.hh"

namespace cachescope {

class ShipPolicy : public ReplacementPolicy
{
  public:
    static constexpr unsigned kRrpvBits = 2;
    static constexpr std::uint8_t kMaxRrpv = (1u << kRrpvBits) - 1;
    static constexpr unsigned kSignatureBits = 14;
    static constexpr std::uint32_t kShctEntries = 1u << kSignatureBits;
    static constexpr unsigned kShctCounterBits = 2;

    explicit ShipPolicy(const CacheGeometry &geometry);

    std::uint32_t findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                             AccessType type) override;
    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;

    /** @return the 14-bit signature SHiP derives from @p pc. */
    static std::uint32_t signatureOf(Pc pc);

    /** Exposed for tests. */
    std::uint32_t shctValue(std::uint32_t signature) const;
    std::uint8_t
    rrpvOf(std::uint32_t set, std::uint32_t way) const
    {
        return rrpvs[lineIndex(set, way)];
    }

    std::string debugState() const override;

  private:
    /** Training state of a line; its RRPV lives in rrpvs. */
    struct LineMeta
    {
        std::uint32_t signature = 0;
        bool outcome = false;    ///< line produced at least one hit
        bool trainable = false;  ///< filled by a demand access (not WB)
    };

    std::vector<std::uint8_t> rrpvs;
    std::vector<LineMeta> lines;
    std::vector<SatCounter> shct;
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_SHIP_HH
