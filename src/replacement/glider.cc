/**
 * @file
 * Glider implementation.
 */

#include "replacement/glider.hh"

#include <algorithm>

#include "util/intmath.hh"

namespace cachescope {

GliderPolicy::GliderPolicy(const CacheGeometry &geometry)
    : OptgenPolicy(geometry), isvms(kIsvmTables),
      snapshots(kTargetSampledSets)
{
    pchr.reserve(kHistoryDepth);
}

std::uint32_t
GliderPolicy::isvmIndex(Pc pc)
{
    return static_cast<std::uint32_t>(foldXor(pc >> 2, kIsvmIndexBits));
}

std::uint32_t
GliderPolicy::weightSlot(Pc pc)
{
    return static_cast<std::uint32_t>(foldXor(pc >> 2, 4)) &
           (kWeightsPerIsvm - 1);
}

GliderPolicy::HistorySnapshot
GliderPolicy::snapshotFor(Pc pc) const
{
    HistorySnapshot snap;
    snap.isvmIndex = isvmIndex(pc);
    for (Pc hist_pc : pchr) {
        if (snap.used >= kHistoryDepth)
            break;
        snap.slots[snap.used++] =
            static_cast<std::uint8_t>(weightSlot(hist_pc));
    }
    return snap;
}

std::int32_t
GliderPolicy::sumOf(const HistorySnapshot &snap) const
{
    const Isvm &isvm = isvms[snap.isvmIndex];
    std::int32_t sum = 0;
    for (std::uint8_t i = 0; i < snap.used; ++i)
        sum += isvm.weights[snap.slots[i]];
    return sum;
}

void
GliderPolicy::train(const HistorySnapshot &snap, bool opt_hit)
{
    // Perceptron-style update with a margin: only adjust weights while
    // the prediction is wrong or insufficiently confident.
    const std::int32_t sum = sumOf(snap);
    if (opt_hit && sum > kTrainingMargin)
        return;
    if (!opt_hit && sum < -kTrainingMargin)
        return;

    Isvm &isvm = isvms[snap.isvmIndex];
    for (std::uint8_t i = 0; i < snap.used; ++i) {
        std::int32_t &w = isvm.weights[snap.slots[i]];
        if (opt_hit)
            w = std::min(w + 1, kWeightLimit);
        else
            w = std::max(w - 1, -kWeightLimit);
    }
}

void
GliderPolicy::pushHistory(Pc pc)
{
    // Keep the most recent occurrence only, front = newest.
    auto it = std::find(pchr.begin(), pchr.end(), pc);
    if (it != pchr.end())
        pchr.erase(it);
    pchr.insert(pchr.begin(), pc);
    if (pchr.size() > kHistoryDepth)
        pchr.pop_back();
}

std::int32_t
GliderPolicy::predictionSum(Pc pc) const
{
    return sumOf(snapshotFor(pc));
}

GliderPolicy::Verdict
GliderPolicy::predict(Pc pc)
{
    const std::int32_t sum = predictionSum(pc);
    pushHistory(pc);
    if (sum >= kHighConfidence)
        return Verdict::Confident;
    // Low-confidence friendly lines are inserted mid-stack.
    return sum >= 0 ? Verdict::Friendly : Verdict::Averse;
}

void
GliderPolicy::trainOnOpt(std::uint32_t slot, Addr block_addr, Pc,
                         bool opt_hit)
{
    const auto &slot_snapshots = snapshots[slot];
    auto it = slot_snapshots.find(block_addr);
    if (it != slot_snapshots.end())
        train(it->second, opt_hit);
}

void
GliderPolicy::detrain(Pc fill_pc)
{
    // Evicting a predicted-friendly line: detrain its fill context so
    // the ISVM learns from the misprediction.
    train(snapshotFor(fill_pc), /*opt_hit=*/false);
}

void
GliderPolicy::onSampled(std::uint32_t slot, Addr block_addr, Pc pc,
                        bool expired)
{
    auto &slot_snapshots = snapshots[slot];
    slot_snapshots[block_addr] = snapshotFor(pc);
    if (expired && slot_snapshots.size() > 16 * kOptgenVectorSize)
        slot_snapshots.clear();
}

} // namespace cachescope
