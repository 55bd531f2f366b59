/**
 * @file
 * Hawkeye implementation.
 */

#include "replacement/hawkeye.hh"

#include <cstdio>

#include "util/intmath.hh"

namespace cachescope {

HawkeyePolicy::HawkeyePolicy(const CacheGeometry &geometry)
    : OptgenPolicy(geometry),
      predictor(kPredictorEntries,
                SatCounter(kPredictorCounterBits, kFriendlyThreshold))
{}

std::uint32_t
HawkeyePolicy::predictorIndex(Pc pc)
{
    return static_cast<std::uint32_t>(
        foldXor(pc >> 2, kPredictorIndexBits));
}

bool
HawkeyePolicy::predictsFriendly(Pc pc) const
{
    return predictor[predictorIndex(pc)].get() >= kFriendlyThreshold;
}

void
HawkeyePolicy::trainOnOpt(std::uint32_t, Addr, Pc prev_pc, bool opt_hit)
{
    auto &ctr = predictor[predictorIndex(prev_pc)];
    if (opt_hit)
        ctr.increment();
    else
        ctr.decrement();
}

void
HawkeyePolicy::detrain(Pc fill_pc)
{
    predictor[predictorIndex(fill_pc)].decrement();
}

std::string
HawkeyePolicy::debugState() const
{
    std::uint32_t friendly = 0;
    for (const auto &ctr : predictor)
        friendly += ctr.get() >= kFriendlyThreshold;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "friendly_entries=%.1f%% optgen_hit_rate=%.3f "
                  "sampled_accesses=%llu",
                  100.0 * friendly / predictor.size(),
                  optgenAccesses() == 0
                      ? 0.0
                      : static_cast<double>(optgenHits()) /
                        static_cast<double>(optgenAccesses()),
                  static_cast<unsigned long long>(optgenAccesses()));
    return buf;
}

} // namespace cachescope
