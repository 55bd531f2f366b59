/**
 * @file
 * SHiP-PC implementation.
 */

#include "replacement/ship.hh"

#include <cstdio>

#include "replacement/building_blocks.hh"
#include "util/intmath.hh"

namespace cachescope {

ShipPolicy::ShipPolicy(const CacheGeometry &geometry)
    : ReplacementPolicy(geometry),
      rrpvs(numLines(), kMaxRrpv),
      lines(numLines()),
      shct(kShctEntries, SatCounter(kShctCounterBits, 1))
{}

std::uint32_t
ShipPolicy::signatureOf(Pc pc)
{
    // Drop the byte-offset bits, then fold the PC down to 14 bits.
    return static_cast<std::uint32_t>(foldXor(pc >> 2, kSignatureBits));
}

std::uint32_t
ShipPolicy::shctValue(std::uint32_t signature) const
{
    return shct[signature & (kShctEntries - 1)].get();
}

std::uint32_t
ShipPolicy::findVictim(std::uint32_t set, Pc, Addr, AccessType)
{
    return agingRrpvVictim(&rrpvs[lineIndex(set, 0)], geom.numWays,
                           kMaxRrpv);
}

void
ShipPolicy::update(std::uint32_t set, std::uint32_t way, Pc pc, Addr,
                   AccessType type, bool hit)
{
    LineMeta &meta = lines[lineIndex(set, way)];
    std::uint8_t &rrpv = rrpvs[lineIndex(set, way)];

    if (hit) {
        rrpv = 0;
        // Positive training: the inserting signature produced a hit.
        // Writeback hits carry no reuse information and do not train.
        if (type != AccessType::Writeback && meta.trainable &&
            !meta.outcome) {
            meta.outcome = true;
            shct[meta.signature].increment();
        }
        return;
    }

    // Fill path: the metadata still describes the evicted line, so train
    // the negative outcome (inserted but never hit) before overwriting.
    if (meta.trainable && !meta.outcome)
        shct[meta.signature].decrement();

    const std::uint32_t sig = signatureOf(pc);
    meta.signature = sig;
    meta.outcome = false;
    meta.trainable = type != AccessType::Writeback;

    if (type == AccessType::Writeback) {
        // Dirty data arriving from above has unknown reuse; insert long.
        rrpv = kMaxRrpv - 1;
    } else if (shct[sig].isMin()) {
        // Signature has a history of zero reuse: predict dead on arrival.
        rrpv = kMaxRrpv;
    } else {
        rrpv = kMaxRrpv - 1;
    }
}

std::string
ShipPolicy::debugState() const
{
    std::uint32_t dead = 0, saturated = 0;
    for (const auto &ctr : shct) {
        dead += ctr.isMin();
        saturated += ctr.isMax();
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "shct_dead=%.1f%% shct_saturated=%.1f%%",
                  100.0 * dead / shct.size(),
                  100.0 * saturated / shct.size());
    return buf;
}

} // namespace cachescope
