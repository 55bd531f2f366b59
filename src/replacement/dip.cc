/**
 * @file
 * BIP / DIP implementation.
 */

#include "replacement/dip.hh"

#include "stats/metrics.hh"

namespace cachescope {

void
LruInsertionBase::update(std::uint32_t set, std::uint32_t way, Pc, Addr,
                         AccessType type, bool hit)
{
    if (hit || insertAtMru(set))
        touchHit(set, way);
    else
        makeOldest(set, way);
    if (!hit && type != AccessType::Writeback)
        onMissFill(set);
}

std::string
DipPolicy::debugState() const
{
    return duel.debugState("lru", "bip");
}

void
DipPolicy::exportMetrics(MetricsRegistry &metrics,
                         const std::string &prefix) const
{
    metrics.setGauge(prefix + ".psel", duel.psel());
    metrics.setGauge(prefix + ".follower_mode_lru",
                     duel.followersUseStatic() ? 1.0 : 0.0);
}

} // namespace cachescope
