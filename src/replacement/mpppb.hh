/**
 * @file
 * MPPPB — Multiperspective Placement, Promotion and Bypass
 * (Jiménez & Teran, "Multiperspective Reuse Prediction", MICRO 2017).
 *
 * A hashed-perceptron reuse predictor: several independent *features*
 * (perspectives) each hash the access context (PC, PC history, address
 * bits, page, block offset) into their own table of small signed
 * weights. The sum of the selected weights predicts whether the block
 * will be reused; thresholds on the sum drive bypass (don't install),
 * placement (insertion RRPV) and promotion (hit RRPV).
 *
 * Training follows the paper's decoupled-sampler design: a small
 * set-sampled tag cache records the feature indices active when a block
 * was inserted; sampler hits train the weights toward "reused", sampler
 * evictions of untouched entries train toward "not reused". This keeps
 * bypass learnable — the sampler observes blocks even when the main
 * cache bypassed them.
 */

#ifndef CACHESCOPE_REPLACEMENT_MPPPB_HH
#define CACHESCOPE_REPLACEMENT_MPPPB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "replacement/building_blocks.hh"
#include "replacement/replacement_policy.hh"

namespace cachescope {

class MpppbPolicy : public ReplacementPolicy
{
  public:
    static constexpr unsigned kRrpvBits = 3;
    static constexpr std::uint8_t kMaxRrpv = (1u << kRrpvBits) - 1;
    /** Number of feature tables (perspectives). */
    static constexpr std::uint32_t kNumFeatures = 7;
    static constexpr unsigned kTableIndexBits = 8;
    static constexpr std::uint32_t kTableEntries = 1u << kTableIndexBits;
    static constexpr std::int32_t kWeightLimit = 31;
    /** Sum above this: predicted dead on arrival -> bypass. */
    static constexpr std::int32_t kBypassThreshold = 70;
    /** Sum above this: install at distant RRPV. */
    static constexpr std::int32_t kDistantThreshold = 25;
    /** Sum below this on a hit: strong reuse -> promote to MRU. */
    static constexpr std::int32_t kPromoteThreshold = 0;
    /** PC history depth feeding the path features. */
    static constexpr std::uint32_t kPathDepth = 4;
    static constexpr std::uint32_t kTargetSampledSets = 64;
    /** Associativity of each sampler set (> cache assoc, per paper). */
    static constexpr std::uint32_t kSamplerAssoc = 18;

    explicit MpppbPolicy(const CacheGeometry &geometry);

    std::uint32_t findVictim(std::uint32_t set, Pc pc, Addr block_addr,
                             AccessType type) override;
    void update(std::uint32_t set, std::uint32_t way, Pc pc, Addr block_addr,
                AccessType type, bool hit) override;

    /** @return the current perceptron sum for an access context. */
    std::int32_t predictionSum(Pc pc, Addr block_addr) const;

    bool isSampledSet(std::uint32_t set) const { return sampled.contains(set); }

    /** Exposed for tests. */
    std::uint8_t
    rrpvOf(std::uint32_t set, std::uint32_t way) const
    {
        return rrpvs[lineIndex(set, way)];
    }
    std::uint64_t bypassCount() const { return bypasses; }

    std::string debugState() const override;

  private:
    using FeatureVec = std::array<std::uint16_t, kNumFeatures>;

    /** Sampler entry: partial tag + the features live at insertion. */
    struct SamplerEntry
    {
        std::uint16_t partialTag = 0;
        bool valid = false;
        bool reused = false;
        std::uint32_t lruStamp = 0;
        FeatureVec features{};
    };

    FeatureVec featuresFor(Pc pc, Addr block_addr) const;
    std::int32_t sumOf(const FeatureVec &features) const;
    void train(const FeatureVec &features, bool reused);
    void samplerAccess(std::uint32_t set, Pc pc, Addr block_addr);
    void pushPath(Pc pc);

    StridedSets sampled;
    std::vector<std::uint8_t> rrpvs;
    /** kNumFeatures tables of kTableEntries signed weights, flattened. */
    std::vector<std::int32_t> weights;
    std::array<Pc, kPathDepth> path{};
    std::uint32_t samplerClock = 0;
    std::uint64_t bypasses = 0;
    /** [sampled_set_slot][kSamplerAssoc] entries, flattened. */
    std::vector<SamplerEntry> sampler;
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_MPPPB_HH
