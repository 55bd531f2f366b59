/**
 * @file
 * Hawkeye (Jain & Lin, ISCA 2016): learn what Belady's OPT would have
 * done on the recent past and mimic it on the future.
 *
 * A handful of sampled sets feed OPTgen; OPT's verdict on each access
 * trains a PC-indexed table of 3-bit counters (the Hawkeye predictor).
 * At fill time the predictor classifies the missing PC as cache-friendly
 * or cache-averse: friendly lines are inserted with RRPV 0 (and age
 * their peers), averse lines with RRPV 7 so they are evicted first.
 * Evicting a friendly line means the predictor was wrong, so the
 * corresponding PC is detrained. Everything but the predictor is the
 * OptgenPolicy chassis.
 */

#ifndef CACHESCOPE_REPLACEMENT_HAWKEYE_HH
#define CACHESCOPE_REPLACEMENT_HAWKEYE_HH

#include <cstdint>
#include <vector>

#include "replacement/optgen.hh"
#include "util/sat_counter.hh"

namespace cachescope {

class HawkeyePolicy : public OptgenPolicy
{
  public:
    static constexpr unsigned kPredictorIndexBits = 13;
    static constexpr std::uint32_t kPredictorEntries =
        1u << kPredictorIndexBits;
    static constexpr unsigned kPredictorCounterBits = 3;
    /** Counter value at or above which a PC is considered friendly. */
    static constexpr std::uint32_t kFriendlyThreshold = 4;

    explicit HawkeyePolicy(const CacheGeometry &geometry);

    /** @return true iff the predictor currently calls @p pc friendly. */
    bool predictsFriendly(Pc pc) const;

    std::string debugState() const override;

  protected:
    Verdict
    predict(Pc pc) override
    {
        return predictsFriendly(pc) ? Verdict::Confident : Verdict::Averse;
    }
    void trainOnOpt(std::uint32_t slot, Addr block_addr, Pc prev_pc,
                    bool opt_hit) override;
    void detrain(Pc fill_pc) override;

  private:
    static std::uint32_t predictorIndex(Pc pc);

    std::vector<SatCounter> predictor;
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_HAWKEYE_HH
