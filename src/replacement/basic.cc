/**
 * @file
 * Baseline policy implementations.
 */

#include "replacement/basic.hh"

#include "util/intmath.hh"

namespace cachescope {

// ---------------------------------------------------------------- LRU --

LruPolicy::LruPolicy(const CacheGeometry &geometry)
    : ReplacementPolicy(geometry), lastUse(numLines(), 0)
{}

std::uint32_t
LruPolicy::findVictim(std::uint32_t set, Pc, Addr, AccessType)
{
    const std::uint64_t *stamps = &lastUse[lineIndex(set, 0)];
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < geom.numWays; ++w) {
        if (stamps[w] < stamps[victim])
            victim = w;
    }
    return victim;
}

void
LruPolicy::update(std::uint32_t set, std::uint32_t way, Pc, Addr, AccessType,
                  bool)
{
    touchHit(set, way);
}

std::uint64_t
LruPolicy::timestamp(std::uint32_t set, std::uint32_t way) const
{
    return lastUse[lineIndex(set, way)];
}

// --------------------------------------------------------------- FIFO --

void
FifoPolicy::update(std::uint32_t set, std::uint32_t way, Pc, Addr, AccessType,
                   bool hit)
{
    if (!hit)
        touchHit(set, way);
}

// ------------------------------------------------------------- Random --

RandomPolicy::RandomPolicy(const CacheGeometry &geometry)
    : ReplacementPolicy(geometry), rng(0xC0FFEEull)
{}

std::uint32_t
RandomPolicy::findVictim(std::uint32_t, Pc, Addr, AccessType)
{
    return static_cast<std::uint32_t>(rng.nextBounded(geom.numWays));
}

void
RandomPolicy::update(std::uint32_t, std::uint32_t, Pc, Addr, AccessType, bool)
{}

// ---------------------------------------------------------------- NRU --

NruPolicy::NruPolicy(const CacheGeometry &geometry)
    : ReplacementPolicy(geometry),
      referenced(numLines(), 0)
{}

std::uint32_t
NruPolicy::findVictim(std::uint32_t set, Pc, Addr, AccessType)
{
    for (std::uint32_t w = 0; w < geom.numWays; ++w) {
        if (!referenced[lineIndex(set, w)])
            return w;
    }
    // Everything referenced: clear the set's bits and take way 0.
    for (std::uint32_t w = 0; w < geom.numWays; ++w)
        referenced[lineIndex(set, w)] = 0;
    return 0;
}

void
NruPolicy::update(std::uint32_t set, std::uint32_t way, Pc, Addr, AccessType,
                  bool)
{
    referenced[lineIndex(set, way)] = 1;
}

// ---------------------------------------------------------- Tree-PLRU --

TreePlruPolicy::TreePlruPolicy(const CacheGeometry &geometry)
    : ReplacementPolicy(geometry),
      leafCount(1u << ceilLog2(geometry.numWays)),
      treeBits(static_cast<std::size_t>(geometry.numSets) *
               (leafCount - 1), 0)
{}

std::uint32_t
TreePlruPolicy::findVictim(std::uint32_t set, Pc, Addr, AccessType)
{
    // Single-way: the tree has zero internal nodes and treeBits is
    // empty — indexing it (even to form a reference) would be UB.
    if (leafCount == 1)
        return 0;
    std::uint8_t *tree =
        &treeBits[static_cast<std::size_t>(set) * (leafCount - 1)];
    // Walk from the root following the "cold" direction indicated by
    // each node bit (bit = 0 means the left subtree is colder).
    std::uint32_t node = 0;
    while (node < leafCount - 1)
        node = 2 * node + 1 + tree[node];
    std::uint32_t way = node - (leafCount - 1);
    // Non-power-of-two associativity: walks that land past the last
    // real way are clamped onto it.
    if (way >= geom.numWays)
        way = geom.numWays - 1;
    return way;
}

void
TreePlruPolicy::update(std::uint32_t set, std::uint32_t way, Pc, Addr,
                       AccessType, bool)
{
    if (leafCount == 1)
        return;
    std::uint8_t *tree =
        &treeBits[static_cast<std::size_t>(set) * (leafCount - 1)];
    // Flip every node on the root-to-leaf path to point away from the
    // just-touched way.
    std::uint32_t node = way + (leafCount - 1);
    while (node != 0) {
        const std::uint32_t parent = (node - 1) / 2;
        const bool came_from_left = (node == 2 * parent + 1);
        tree[parent] = came_from_left ? 1 : 0;
        node = parent;
    }
}

} // namespace cachescope
