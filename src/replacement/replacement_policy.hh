/**
 * @file
 * The replacement-policy framework.
 *
 * The interface mirrors the ChampSim / Cache Replacement Championship
 * (CRC2) contract that all the evaluated policies were originally
 * published against: the cache asks the policy for a victim way when a
 * set is full, and notifies it on every access (hit or fill) so it can
 * maintain its own per-line metadata. Policies may also elect to bypass
 * the cache entirely by returning kBypassWay.
 */

#ifndef CACHESCOPE_REPLACEMENT_REPLACEMENT_POLICY_HH
#define CACHESCOPE_REPLACEMENT_REPLACEMENT_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/status.hh"
#include "util/types.hh"

namespace cachescope {

class MetricsRegistry;

/** Why the cache is being accessed, as seen by the replacement policy. */
enum class AccessType : std::uint8_t {
    Load = 0,       ///< demand read (includes instruction fetch)
    Store = 1,      ///< demand write / read-for-ownership
    Writeback = 2,  ///< dirty eviction arriving from the level above
    Prefetch = 3,   ///< prefetcher-initiated fill
};

/** @return a short lowercase name for @p type. */
const char *accessTypeName(AccessType type);

/** Static shape of the cache a policy instance manages. */
struct CacheGeometry
{
    std::uint32_t numSets = 0;
    std::uint32_t numWays = 0;
    std::uint32_t blockBytes = 64;

    std::uint64_t
    sizeBytes() const
    {
        return std::uint64_t{numSets} * numWays * blockBytes;
    }
};

/**
 * Abstract base class for all replacement policies.
 *
 * Call protocol, guaranteed by the cache:
 *  - findVictim() is invoked only when every way in @p set holds a valid
 *    line; it returns the way to evict, or kBypassWay to skip the fill.
 *  - update() is invoked on every hit (with the hitting way) and on
 *    every fill (with the way being filled, hit = false). On fills the
 *    policy's metadata for that way still describes the *evicted* line
 *    when update() begins, so eviction-time training (SHiP, Hawkeye)
 *    happens there before the metadata is overwritten.
 *  - update() is never invoked for bypassed fills; policies that bypass
 *    get their training signal from findVictim() itself.
 */
class ReplacementPolicy
{
  public:
    /** Returned by findVictim() to install nothing (cache bypass). */
    static constexpr std::uint32_t kBypassWay = ~std::uint32_t{0};

    explicit ReplacementPolicy(const CacheGeometry &geometry)
        : geom(geometry)
    {}

    virtual ~ReplacementPolicy() = default;

    ReplacementPolicy(const ReplacementPolicy &) = delete;
    ReplacementPolicy &operator=(const ReplacementPolicy &) = delete;

    /**
     * Choose a victim in a full set.
     *
     * @param set the set index.
     * @param pc PC of the instruction that missed.
     * @param block_addr block-aligned address being filled.
     * @param type access type of the miss.
     * @return victim way in [0, numWays), or kBypassWay.
     */
    virtual std::uint32_t findVictim(std::uint32_t set, Pc pc,
                                     Addr block_addr, AccessType type) = 0;

    /**
     * Observe an access.
     *
     * @param set the set index.
     * @param way the hitting way (hit) or the way being filled (miss).
     * @param pc PC of the accessing instruction.
     * @param block_addr block-aligned address accessed.
     * @param type access type.
     * @param hit true for hits, false for fills.
     */
    virtual void update(std::uint32_t set, std::uint32_t way, Pc pc,
                        Addr block_addr, AccessType type, bool hit) = 0;

    /** @return the registry name this instance was created under. */
    const std::string &name() const { return policyName; }

    const CacheGeometry &geometry() const { return geom; }

    /**
     * @return a one-line human-readable snapshot of the policy's
     * learned state ("psel=312/1023", "friendly_pcs=12%", ...), empty
     * for stateless policies. Purely observational — used by the CLI's
     * --policy-state flag and by tests.
     */
    virtual std::string debugState() const { return ""; }

    /**
     * Register the policy's learned-state metrics (selector counters,
     * predictor occupancy, ...) under "<prefix>." in @p metrics.
     * Stateless policies export nothing; purely observational, called
     * at report time only.
     */
    virtual void
    exportMetrics(MetricsRegistry &metrics, const std::string &prefix) const
    {
        (void)metrics;
        (void)prefix;
    }

  protected:
    /** @return the number of lines, the size of a per-line array. */
    std::size_t
    numLines() const
    {
        return static_cast<std::size_t>(geom.numSets) * geom.numWays;
    }

    /** @return the index of (set, way) in a per-line array. */
    std::size_t
    lineIndex(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * geom.numWays + way;
    }

    CacheGeometry geom;

  private:
    friend class ReplacementPolicyFactory;
    std::string policyName;
};

/**
 * Name-to-constructor registry so simulations can select policies from
 * strings ("lru", "hawkeye", ...), mirroring how ChampSim links policy
 * modules.
 */
class ReplacementPolicyFactory
{
  public:
    using Creator = std::function<std::unique_ptr<ReplacementPolicy>(
        const CacheGeometry &)>;

    /** Register @p creator under @p name; fatal() on duplicates. */
    static void registerPolicy(const std::string &name, Creator creator);

    /** Instantiate policy @p name; fatal() if unknown. */
    static std::unique_ptr<ReplacementPolicy>
    create(const std::string &name, const CacheGeometry &geometry);

    /**
     * Instantiate policy @p name, reporting unknown names (and other
     * bad input) as a Status instead of terminating.
     */
    static Expected<std::unique_ptr<ReplacementPolicy>>
    tryCreate(const std::string &name, const CacheGeometry &geometry);

    /** @return all registered names, sorted. */
    static std::vector<std::string> availablePolicies();

    /** @return true iff @p name is registered. */
    static bool isRegistered(const std::string &name);
};

} // namespace cachescope

#endif // CACHESCOPE_REPLACEMENT_REPLACEMENT_POLICY_HH
