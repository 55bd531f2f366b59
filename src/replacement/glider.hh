/**
 * @file
 * Glider (Shi, Huang, Jain & Lin, MICRO 2019) — the practical, online
 * version distilled from their offline LSTM study.
 *
 * Glider keeps Hawkeye's OPTgen training source but replaces the single
 * per-PC counter with an Integer Support Vector Machine (ISVM) over the
 * *PC history*: a register of the last k distinct load PCs. Each PC in
 * the history selects one integer weight inside the ISVM table of the
 * current PC; the prediction is the sum of selected weights compared
 * against confidence thresholds. This captures cross-PC context that a
 * single-PC counter cannot — and is precisely the mechanism the paper
 * shows collapsing when graph traversals funnel through a handful of
 * PCs with data-dependent behaviour. Everything but the predictor is
 * the OptgenPolicy chassis.
 */

#ifndef CACHESCOPE_REPLACEMENT_GLIDER_HH
#define CACHESCOPE_REPLACEMENT_GLIDER_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "replacement/optgen.hh"

namespace cachescope {

class GliderPolicy : public OptgenPolicy
{
  public:
    /** Depth of the PC history register (PCHR). */
    static constexpr std::uint32_t kHistoryDepth = 5;
    /** Weights per ISVM (PCHR entries hash into these). */
    static constexpr std::uint32_t kWeightsPerIsvm = 16;
    /** Number of ISVM tables (indexed by hashed current PC). */
    static constexpr unsigned kIsvmIndexBits = 11;
    static constexpr std::uint32_t kIsvmTables = 1u << kIsvmIndexBits;
    /** Weight saturation bound. */
    static constexpr std::int32_t kWeightLimit = 31;
    /** Prediction sum >= this: high-confidence cache-friendly. */
    static constexpr std::int32_t kHighConfidence = 30;
    /** Training stops once |sum| exceeds this margin and is correct. */
    static constexpr std::int32_t kTrainingMargin = 60;

    explicit GliderPolicy(const CacheGeometry &geometry);

    /** @return the current ISVM output for @p pc with today's history. */
    std::int32_t predictionSum(Pc pc) const;

  protected:
    Verdict predict(Pc pc) override;
    void trainOnOpt(std::uint32_t slot, Addr block_addr, Pc prev_pc,
                    bool opt_hit) override;
    void detrain(Pc fill_pc) override;
    void onSampled(std::uint32_t slot, Addr block_addr, Pc pc,
                   bool expired) override;

  private:
    /** One ISVM: a small bank of integer weights. */
    struct Isvm
    {
        std::array<std::int32_t, kWeightsPerIsvm> weights{};
    };

    /** Snapshot of PCHR weight slots used to train a past prediction. */
    struct HistorySnapshot
    {
        std::array<std::uint8_t, kHistoryDepth> slots{};
        std::uint8_t used = 0;
        std::uint32_t isvmIndex = 0;
    };

    static std::uint32_t isvmIndex(Pc pc);
    static std::uint32_t weightSlot(Pc pc);

    HistorySnapshot snapshotFor(Pc pc) const;
    std::int32_t sumOf(const HistorySnapshot &snap) const;
    void train(const HistorySnapshot &snap, bool opt_hit);
    void pushHistory(Pc pc);

    std::vector<Isvm> isvms;
    std::vector<Pc> pchr; ///< most recent distinct PCs, front = newest
    /**
     * Per sampled set (by slot), the snapshot taken when each tracked
     * line was last accessed.
     */
    std::vector<std::unordered_map<Addr, HistorySnapshot>> snapshots;
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_GLIDER_HH
