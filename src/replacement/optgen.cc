/**
 * @file
 * OPTgen and the OPTgen-trained policy chassis.
 */

#include "replacement/optgen.hh"

#include "util/logging.hh"

namespace cachescope {

OptGen::OptGen(std::uint32_t capacity, std::uint32_t vector_size)
    : capacity(capacity), size(vector_size), occupancy(vector_size, 0)
{
    CS_ASSERT(capacity > 0, "OPTgen capacity must be positive");
    CS_ASSERT(vector_size > 1, "OPTgen needs a multi-quantum window");
}

void
OptGen::accessFirstTouch(std::uint64_t curr_quanta)
{
    // A fresh quantum begins: its occupancy starts at zero.
    occupancy[curr_quanta % size] = 0;
    ++accesses;
}

bool
OptGen::accessWithHistory(std::uint64_t curr_quanta,
                          std::uint64_t last_quanta)
{
    occupancy[curr_quanta % size] = 0;
    ++accesses;

    CS_ASSERT(last_quanta <= curr_quanta, "time ran backwards in OPTgen");
    // Liveness intervals longer than the window cannot be decided; OPT
    // is charged a miss, the same conservative choice Hawkeye makes.
    if (curr_quanta - last_quanta >= size)
        return false;

    // OPT caches the line iff every quantum in [last, curr) has spare
    // capacity.
    for (std::uint64_t q = last_quanta; q < curr_quanta; ++q) {
        if (occupancy[q % size] >= capacity)
            return false;
    }
    for (std::uint64_t q = last_quanta; q < curr_quanta; ++q)
        ++occupancy[q % size];
    ++hits;
    return true;
}

bool
OptSampler::lookup(Addr block_addr, Entry &out) const
{
    auto it = table.find(block_addr);
    if (it == table.end())
        return false;
    out = it->second;
    return true;
}

void
OptSampler::record(Addr block_addr, std::uint64_t quanta, Pc pc)
{
    if (table.size() >= maxEntries && table.find(block_addr) == table.end()) {
        // Evict the stalest tracked line to stay bounded.
        auto oldest = table.begin();
        for (auto it = table.begin(); it != table.end(); ++it) {
            if (it->second.lastQuanta < oldest->second.lastQuanta)
                oldest = it;
        }
        table.erase(oldest);
    }
    table[block_addr] = Entry{quanta, pc};
}

void
OptSampler::expireBefore(std::uint64_t horizon)
{
    for (auto it = table.begin(); it != table.end();) {
        if (it->second.lastQuanta < horizon)
            it = table.erase(it);
        else
            ++it;
    }
}

OptgenPolicy::OptgenPolicy(const CacheGeometry &geometry)
    : ReplacementPolicy(geometry),
      sampled(geometry.numSets, kTargetSampledSets),
      lines(numLines()),
      sampledSets(kTargetSampledSets, SampledSet(geometry.numWays))
{}

void
OptgenPolicy::sampleAccess(std::uint32_t set, Pc pc, Addr block_addr)
{
    const std::uint32_t slot = sampled.slotOf(set);
    SampledSet &s = sampledSets[slot];

    const std::uint64_t curr = s.optgen.nextQuanta();
    OptSampler::Entry prev;
    if (s.sampler.lookup(block_addr, prev) &&
        curr - prev.lastQuanta < s.optgen.vectorSize()) {
        // OPT's verdict labels the *previous* access: its PC brought
        // the line in (or kept it), and OPT tells whether that paid off.
        trainOnOpt(slot, block_addr, prev.lastPc,
                   s.optgen.accessWithHistory(curr, prev.lastQuanta));
    } else {
        s.optgen.accessFirstTouch(curr);
    }
    s.sampler.record(block_addr, curr, pc);

    // Periodically drop sampler entries that fell out of the OPTgen
    // window so the map stays small.
    const bool expired =
        (curr & 0x3FF) == 0 && curr >= s.optgen.vectorSize();
    if (expired)
        s.sampler.expireBefore(curr - s.optgen.vectorSize());
    onSampled(slot, block_addr, pc, expired);
}

std::uint32_t
OptgenPolicy::findVictim(std::uint32_t set, Pc, Addr, AccessType)
{
    LineMeta *set_lines = &lines[lineIndex(set, 0)];
    // Cache-averse lines (RRPV saturated) go first. Otherwise evict the
    // last of the oldest cache-friendly lines and tell the predictor
    // it was wrong about that line's PC.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < geom.numWays; ++w) {
        if (set_lines[w].rrpv == kMaxRrpv)
            return w;
        if (set_lines[w].rrpv >= set_lines[victim].rrpv)
            victim = w;
    }
    const LineMeta &meta = set_lines[victim];
    if (meta.valid && meta.friendly)
        detrain(meta.fillPc);
    return victim;
}

void
OptgenPolicy::update(std::uint32_t set, std::uint32_t way, Pc pc,
                     Addr block_addr, AccessType type, bool hit)
{
    LineMeta &meta = lines[lineIndex(set, way)];

    // Writebacks carry no program behaviour: they do not touch OPTgen
    // or the predictor and are inserted cache-averse.
    if (type == AccessType::Writeback) {
        if (!hit)
            meta = {kMaxRrpv, pc, /*friendly=*/false, /*valid=*/true};
        return;
    }

    if (sampled.contains(set))
        sampleAccess(set, pc, block_addr);

    const Verdict verdict = predict(pc);
    const bool friendly = verdict != Verdict::Averse;
    meta.fillPc = pc;
    meta.friendly = friendly;

    if (hit) {
        meta.rrpv = friendly ? 0 : kMaxRrpv;
        return;
    }

    meta.valid = true;
    switch (verdict) {
      case Verdict::Confident:
        // Age the other friendly lines so relative recency among them
        // is preserved (RRPV saturates below averse).
        for (std::uint32_t w = 0; w < geom.numWays; ++w) {
            LineMeta &peer = lines[lineIndex(set, w)];
            if (w != way && peer.rrpv < kMaxRrpv - 1)
                ++peer.rrpv;
        }
        meta.rrpv = 0;
        break;
      case Verdict::Friendly:
        meta.rrpv = kMaxRrpv / 4;
        break;
      case Verdict::Averse:
        meta.rrpv = kMaxRrpv;
        break;
    }
}

std::uint64_t
OptgenPolicy::optgenHits() const
{
    std::uint64_t total = 0;
    for (const SampledSet &s : sampledSets)
        total += s.optgen.optHits();
    return total;
}

std::uint64_t
OptgenPolicy::optgenAccesses() const
{
    std::uint64_t total = 0;
    for (const SampledSet &s : sampledSets)
        total += s.optgen.optAccesses();
    return total;
}

} // namespace cachescope
