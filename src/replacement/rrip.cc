/**
 * @file
 * RRIP family implementation.
 */

#include "replacement/rrip.hh"

namespace cachescope {

RripBase::RripBase(const CacheGeometry &geometry)
    : ReplacementPolicy(geometry), rrpvs(numLines(), kMaxRrpv)
{}

std::uint32_t
RripBase::findVictim(std::uint32_t set, Pc, Addr, AccessType)
{
    return agingRrpvVictim(&rrpvs[lineIndex(set, 0)], geom.numWays,
                           kMaxRrpv);
}

void
RripBase::update(std::uint32_t set, std::uint32_t way, Pc, Addr,
                 AccessType type, bool hit)
{
    if (hit) {
        // Hit-priority (HP) variant: promote to near-immediate.
        touchHit(set, way);
        return;
    }
    rrpvs[lineIndex(set, way)] = insertionRrpv(set);
    if (type != AccessType::Writeback)
        onMissFill(set);
}

} // namespace cachescope
