/**
 * @file
 * MPPPB implementation.
 */

#include "replacement/mpppb.hh"

#include <cstdio>

#include <algorithm>

#include "util/intmath.hh"

namespace cachescope {

MpppbPolicy::MpppbPolicy(const CacheGeometry &geometry)
    : ReplacementPolicy(geometry),
      sampled(geometry.numSets, kTargetSampledSets),
      rrpvs(numLines(), kMaxRrpv),
      weights(static_cast<std::size_t>(kNumFeatures) * kTableEntries, 0),
      sampler(static_cast<std::size_t>(kTargetSampledSets) * kSamplerAssoc)
{}

void
MpppbPolicy::pushPath(Pc pc)
{
    for (std::uint32_t i = kPathDepth - 1; i > 0; --i)
        path[i] = path[i - 1];
    path[0] = pc;
}

MpppbPolicy::FeatureVec
MpppbPolicy::featuresFor(Pc pc, Addr block_addr) const
{
    const auto mask = kTableEntries - 1;
    auto fold = [mask](std::uint64_t v) {
        return static_cast<std::uint16_t>(foldXor(v, kTableIndexBits) & mask);
    };

    FeatureVec f;
    // Each perspective views the access context differently; indices
    // follow the paper's feature classes (PC, shifted PC, PC xor
    // address, path history, page number, block offset in page, and a
    // deep-path xor).
    f[0] = fold(pc >> 2);
    f[1] = fold(pc >> 5);
    f[2] = fold((pc >> 2) ^ (block_addr >> 6));
    f[3] = fold((path[0] >> 2) ^ ((path[1] >> 2) << 1));
    f[4] = fold(block_addr >> 12);
    f[5] = fold((block_addr >> 6) & 63);
    f[6] = fold(((path[2] >> 2) << 2) ^ ((path[3] >> 2) << 3) ^ (pc >> 2));
    return f;
}

std::int32_t
MpppbPolicy::sumOf(const FeatureVec &features) const
{
    std::int32_t sum = 0;
    for (std::uint32_t i = 0; i < kNumFeatures; ++i)
        sum += weights[static_cast<std::size_t>(i) * kTableEntries +
                       features[i]];
    return sum;
}

std::int32_t
MpppbPolicy::predictionSum(Pc pc, Addr block_addr) const
{
    return sumOf(featuresFor(pc, block_addr));
}

void
MpppbPolicy::train(const FeatureVec &features, bool reused)
{
    // Positive weights vote "dead"; a reused block drives its features'
    // weights down, an untouched block drives them up.
    for (std::uint32_t i = 0; i < kNumFeatures; ++i) {
        std::int32_t &w = weights[static_cast<std::size_t>(i) *
                                  kTableEntries + features[i]];
        if (reused)
            w = std::max(w - 1, -kWeightLimit);
        else
            w = std::min(w + 1, kWeightLimit);
    }
}

void
MpppbPolicy::samplerAccess(std::uint32_t set, Pc pc, Addr block_addr)
{
    const std::uint32_t slot = sampled.slotOf(set);
    SamplerEntry *set_base = &sampler[static_cast<std::size_t>(slot) *
                                      kSamplerAssoc];
    const auto tag = static_cast<std::uint16_t>(
        foldXor(block_addr >> 6, 16));

    ++samplerClock;

    // Sampler hit: the inserted block was reused -> positive training.
    for (std::uint32_t w = 0; w < kSamplerAssoc; ++w) {
        SamplerEntry &e = set_base[w];
        if (e.valid && e.partialTag == tag) {
            train(e.features, /*reused=*/true);
            e.reused = true;
            e.lruStamp = samplerClock;
            e.features = featuresFor(pc, block_addr);
            return;
        }
    }

    // Sampler miss: evict LRU entry, training it "dead" if untouched.
    std::uint32_t victim = 0;
    std::uint32_t oldest = ~std::uint32_t{0};
    for (std::uint32_t w = 0; w < kSamplerAssoc; ++w) {
        SamplerEntry &e = set_base[w];
        if (!e.valid) {
            victim = w;
            oldest = 0;
            break;
        }
        if (e.lruStamp < oldest) {
            oldest = e.lruStamp;
            victim = w;
        }
    }
    SamplerEntry &e = set_base[victim];
    if (e.valid && !e.reused)
        train(e.features, /*reused=*/false);
    e.partialTag = tag;
    e.valid = true;
    e.reused = false;
    e.lruStamp = samplerClock;
    e.features = featuresFor(pc, block_addr);
}

std::uint32_t
MpppbPolicy::findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                        AccessType type)
{
    // Bypass decision happens here: if the incoming block is predicted
    // dead with high confidence, install nothing. Writebacks are never
    // bypassed (the data must land somewhere).
    if (type != AccessType::Writeback &&
        predictionSum(pc, block_addr) >= kBypassThreshold) {
        ++bypasses;
        return kBypassWay;
    }

    return agingRrpvVictim(&rrpvs[lineIndex(set, 0)], geom.numWays,
                           kMaxRrpv);
}

void
MpppbPolicy::update(std::uint32_t set, std::uint32_t way, Pc pc,
                    Addr block_addr, AccessType type, bool hit)
{
    if (type != AccessType::Writeback) {
        if (isSampledSet(set))
            samplerAccess(set, pc, block_addr);
        pushPath(pc);
    }

    std::uint8_t &rrpv = rrpvs[lineIndex(set, way)];

    if (hit) {
        // Promotion: strong reuse prediction goes straight to MRU,
        // otherwise a conservative partial promotion.
        if (type == AccessType::Writeback) {
            return;
        }
        const std::int32_t sum = predictionSum(pc, block_addr);
        if (sum < kPromoteThreshold)
            rrpv = 0;
        else if (rrpv > 0)
            rrpv = rrpv / 2;
        return;
    }

    // Placement.
    if (type == AccessType::Writeback) {
        rrpv = kMaxRrpv - 1;
        return;
    }
    const std::int32_t sum = predictionSum(pc, block_addr);
    if (sum >= kDistantThreshold)
        rrpv = kMaxRrpv;
    else if (sum >= kPromoteThreshold)
        rrpv = kMaxRrpv - 1;
    else
        rrpv = 0;
}

std::string
MpppbPolicy::debugState() const
{
    std::int64_t weight_sum = 0;
    std::uint32_t saturated = 0;
    for (std::int32_t w : weights) {
        weight_sum += w;
        saturated += w == kWeightLimit || w == -kWeightLimit;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "bypasses=%llu mean_weight=%.2f saturated=%.1f%%",
                  static_cast<unsigned long long>(bypasses),
                  static_cast<double>(weight_sum) / weights.size(),
                  100.0 * saturated / weights.size());
    return buf;
}

} // namespace cachescope
