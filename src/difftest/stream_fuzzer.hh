/**
 * @file
 * Deterministic, seeded generators of adversarial access streams.
 *
 * Each generator targets a known cache-model failure mode: scan/thrash
 * cycles sized at multiples of the associativity (RRIP aging and
 * set-dueling corner cases), pointer chases (recency-stack churn),
 * PC-starved graph-like streams (PC-indexed predictor aliasing), mixed
 * working sets (hot/cold interleaving that flips DIP/DRRIP duels), and
 * prefetch-friendly strides punctuated by pollution (prefetch-fill
 * bookkeeping). Streams are ordinary TraceRecord vectors, so every
 * failing input can be written out as a v3 trace and replayed bit-for-
 * bit by the normal tooling.
 *
 * Everything is a pure function of the seed: the same (seed, length,
 * geometry) always produces byte-identical streams.
 */

#ifndef CACHESCOPE_DIFFTEST_STREAM_FUZZER_HH
#define CACHESCOPE_DIFFTEST_STREAM_FUZZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "replacement/replacement_policy.hh"
#include "trace/record.hh"

namespace cachescope::difftest {

/** The adversarial access-pattern families the fuzzer draws from. */
enum class StreamKind : std::uint8_t {
    ScanThrash = 0,      ///< cyclic scans at K x assoc working sets
    PointerChase = 1,    ///< permutation walk, no spatial locality
    PcStarved = 2,       ///< few PCs over many addresses (graph-like)
    MixedWorkingSets = 3,///< zipf-hot set + cold scans, mixed ld/st
    PrefetchPolluted = 4,///< strided runs punctuated by random noise
};

inline constexpr std::size_t kNumStreamKinds = 5;

/** @return a short lowercase name for @p kind. */
const char *streamKindName(StreamKind kind);

/** Shape parameters of one generated stream. */
struct StreamSpec
{
    std::uint64_t seed = 1;
    /** Memory records generated (ALU/branch filler rides on top). */
    std::size_t memoryAccesses = 8192;
    /** Geometry the working sets are scaled against. */
    CacheGeometry geometry{64, 8, 64};
    StreamKind kind = StreamKind::ScanThrash;
};

/** @return the deterministic kind the seeded mix assigns to @p seed. */
StreamKind kindForSeed(std::uint64_t seed);

/**
 * Generate the stream described by @p spec. Records are loads/stores
 * with stable synthetic PCs plus ALU/branch filler, so the same vector
 * drives a bare Cache (memory records only), a full Simulator, or a
 * TraceWriter unchanged.
 */
std::vector<TraceRecord> generateStream(const StreamSpec &spec);

/** @return only the memory records of @p stream, in order. */
std::vector<TraceRecord>
memoryRecordsOf(const std::vector<TraceRecord> &stream);

} // namespace cachescope::difftest

#endif // CACHESCOPE_DIFFTEST_STREAM_FUZZER_HH
