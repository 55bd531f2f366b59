/**
 * @file
 * Belady OPT implementation.
 */

#include "replacement/belady.hh"

#include "util/logging.hh"

namespace cachescope {

FutureOracle::FutureOracle(const std::vector<Addr> &block_stream)
    : length(block_stream.size())
{
    for (std::uint64_t i = 0; i < block_stream.size(); ++i)
        index[block_stream[i]].positions.push_back(i);
}

std::uint64_t
FutureOracle::nextUseAfter(Addr block_addr, std::uint64_t pos)
{
    auto it = index.find(block_addr);
    if (it == index.end())
        return kNever;
    PerBlock &pb = it->second;
    while (pb.cursor < pb.positions.size() &&
           pb.positions[pb.cursor] <= pos) {
        ++pb.cursor;
    }
    return pb.cursor < pb.positions.size() ? pb.positions[pb.cursor]
                                           : kNever;
}

BeladyPolicy::BeladyPolicy(const CacheGeometry &geometry,
                           std::shared_ptr<FutureOracle> oracle)
    : ReplacementPolicy(geometry), oracle(std::move(oracle)),
      resident(numLines(), kInvalidAddr)
{
    CS_ASSERT(this->oracle != nullptr, "BeladyPolicy needs a FutureOracle");
}

std::uint32_t
BeladyPolicy::findVictim(std::uint32_t set, Pc, Addr, AccessType)
{
    // Evict the resident line re-used farthest in the future (or never).
    std::uint32_t victim = 0;
    std::uint64_t farthest = 0;
    for (std::uint32_t w = 0; w < geom.numWays; ++w) {
        const Addr block = resident[lineIndex(set, w)];
        if (block == kInvalidAddr)
            return w;
        const std::uint64_t next = oracle->nextUseAfter(block, pos);
        if (next == FutureOracle::kNever)
            return w;
        if (next > farthest) {
            farthest = next;
            victim = w;
        }
    }
    return victim;
}

void
BeladyPolicy::update(std::uint32_t set, std::uint32_t way, Pc,
                     Addr block_addr, AccessType type, bool hit)
{
    // The recorded stream of pass one contains demand accesses only
    // (the hierarchy records before writebacks are generated), so only
    // demand accesses advance the position.
    if (type != AccessType::Writeback)
        ++pos;
    if (!hit)
        resident[lineIndex(set, way)] = block_addr;
}

} // namespace cachescope
