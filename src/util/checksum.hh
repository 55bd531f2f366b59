/**
 * @file
 * Streaming 64-bit checksum for trace-file integrity.
 *
 * FNV-1a over the byte stream with an xxhash-style avalanche finisher,
 * so single-bit flips anywhere in a multi-gigabyte trace change the
 * digest with overwhelming probability. Not cryptographic — it guards
 * against truncation and bit rot, not adversaries.
 */

#ifndef CACHESCOPE_UTIL_CHECKSUM_HH
#define CACHESCOPE_UTIL_CHECKSUM_HH

#include <cstddef>
#include <cstdint>

namespace cachescope {

class Checksum64
{
  public:
    /**
     * FNV-1a 64-bit offset basis — the initial state of every
     * Checksum64. Pinned as part of the on-disk trace format: traces
     * written by one build must verify identically under every other,
     * so this value (and the update/finisher math below) must never
     * change without bumping the trace-format version.
     */
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;

    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        std::uint64_t h = state;
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull; // FNV-1a prime
        }
        state = h;
    }

    /** @return the digest of everything update()d so far. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = state;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        h ^= h >> 33;
        return h;
    }

    void reset() { state = kOffsetBasis; }

  private:
    std::uint64_t state = kOffsetBasis;
};

/**
 * Eight-lane interleaved FNV-1a (trace format v3).
 *
 * Byte j of the stream feeds lane (j mod 8); each lane is an
 * independent serial FNV-1a chain, so the CPU keeps eight multiplies
 * in flight instead of waiting on one — several times the digest
 * bandwidth of Checksum64 on a single core, with the same bit-rot
 * detection properties. digest() folds the lane states and the total
 * length through the same avalanche finisher.
 *
 * Like Checksum64, every constant and the update/fold math below are
 * pinned as part of the on-disk trace format: changing any of it
 * requires a trace-format version bump.
 */
class Checksum64x8
{
  public:
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    /** Distinct per-lane seeds so lane permutations change the digest. */
    static constexpr std::uint64_t
    laneSeed(unsigned lane)
    {
        return Checksum64::kOffsetBasis ^
               (0x9e3779b97f4a7c15ull * (lane + 1));
    }

    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        std::size_t i = 0;
        // Realign to lane 0. Trace records are 24 B, so in practice
        // every chunk is 8-byte aligned and this peel never runs.
        while ((off_ & 7) != 0 && i < len) {
            lane_[off_ & 7] = (lane_[off_ & 7] ^ p[i]) * kPrime;
            ++off_;
            ++i;
        }
        std::uint64_t s0 = lane_[0], s1 = lane_[1], s2 = lane_[2],
                      s3 = lane_[3], s4 = lane_[4], s5 = lane_[5],
                      s6 = lane_[6], s7 = lane_[7];
        const std::size_t fast_start = i;
        for (; i + 8 <= len; i += 8) {
            s0 = (s0 ^ p[i + 0]) * kPrime;
            s1 = (s1 ^ p[i + 1]) * kPrime;
            s2 = (s2 ^ p[i + 2]) * kPrime;
            s3 = (s3 ^ p[i + 3]) * kPrime;
            s4 = (s4 ^ p[i + 4]) * kPrime;
            s5 = (s5 ^ p[i + 5]) * kPrime;
            s6 = (s6 ^ p[i + 6]) * kPrime;
            s7 = (s7 ^ p[i + 7]) * kPrime;
        }
        lane_[0] = s0, lane_[1] = s1, lane_[2] = s2, lane_[3] = s3;
        lane_[4] = s4, lane_[5] = s5, lane_[6] = s6, lane_[7] = s7;
        off_ += i - fast_start;
        // Fewer than 8 bytes remain. Counting k against that remainder,
        // not i against len, lets GCC bound the loop; otherwise -O3
        // reports a false "iteration 8 invokes undefined behavior".
        const std::size_t tail = len - i;
        for (std::size_t k = 0; k < tail; ++k) {
            const std::size_t lane = (off_ + k) & 7;
            lane_[lane] = (lane_[lane] ^ p[i + k]) * kPrime;
        }
        off_ += tail;
    }

    /** @return the digest of everything update()d so far. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = Checksum64::kOffsetBasis;
        for (std::uint64_t s : lane_)
            h = (h ^ s) * kPrime;
        h ^= off_; // length matters: "ab" and "ab\0" must differ
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        h ^= h >> 33;
        return h;
    }

    void reset() { *this = Checksum64x8(); }

  private:
    std::uint64_t lane_[8] = {laneSeed(0), laneSeed(1), laneSeed(2),
                              laneSeed(3), laneSeed(4), laneSeed(5),
                              laneSeed(6), laneSeed(7)};
    /** Total bytes consumed; (off_ & 7) is the next byte's lane. */
    std::uint64_t off_ = 0;
};

} // namespace cachescope

#endif // CACHESCOPE_UTIL_CHECKSUM_HH
