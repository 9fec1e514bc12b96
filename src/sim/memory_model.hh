/**
 * @file
 * Memory timing model: per-tier latency/bandwidth specs and the cost
 * function every simulated memory access is charged through.
 *
 * This is the substitution for the paper's physical platforms. The
 * two-tier platform is a fast DRAM tier plus a bandwidth-throttled
 * DRAM tier (Table 4); the Optane platform layers a per-socket DRAM
 * L4 cache in front of persistent-memory timing (§6.2). Cross-socket
 * accesses pay an interconnect penalty, and an optional per-socket
 * interference factor models the streaming co-runner used in the
 * AutoNUMA experiments.
 */

#ifndef KLOC_SIM_MEMORY_MODEL_HH
#define KLOC_SIM_MEMORY_MODEL_HH

#include <string>
#include <vector>

#include "base/units.hh"

namespace kloc {

/** Static description of one memory tier. */
struct TierSpec
{
    std::string name;          ///< e.g. "fast-dram", "slow-dram", "pmem"
    Bytes capacity{};        ///< bytes of simulated frames
    Tick readLatency{};      ///< ns per access
    Tick writeLatency{};     ///< ns per access
    Bytes readBandwidth{};   ///< bytes/sec
    Bytes writeBandwidth{};  ///< bytes/sec
    int socket = 0;            ///< NUMA socket hosting the tier
};

/** Kind of simulated memory access, for stats attribution. */
enum class AccessType { Read, Write };

/**
 * Timing oracle for the machine's memory system. Stateless apart
 * from configuration; contention appears as an interference factor.
 *
 * Most simulated references touch one page, so the model keeps the
 * cost of a page access in a table indexed by (tier, access type,
 * issuing socket). Each mutator rebuilds the table by calling
 * computeAccessCost, so its entries equal the formula exactly; other
 * sizes and out-of-range indices go to the formula directly.
 */
class MemoryModel
{
  public:
    /** Register a tier; returns its TierId. */
    TierId addTier(const TierSpec &spec);

    const TierSpec &spec(TierId tier) const;

    size_t tierCount() const { return _tiers.size(); }

    /**
     * Cost of an access of @p bytes to @p tier issued from
     * @p from_socket. Expected-value LLC filtering: a fraction of
     * accesses hit on-chip SRAM and cost llcLatency instead.
     */
    Tick
    accessCost(TierId tier, Bytes bytes, AccessType type,
               int from_socket) const
    {
        const auto t = static_cast<size_t>(tier.value());
        const auto s = static_cast<size_t>(from_socket);
        if (bytes == kPageSize && t < _tiers.size() &&
            s < _interference.size())
            return _pageCost[pageCostIndex(t, type, s)];
        return computeAccessCost(tier, bytes, type, from_socket);
    }

    /** accessCost computed from the tier specs, bypassing the table. */
    Tick computeAccessCost(TierId tier, Bytes bytes, AccessType type,
                           int from_socket) const;

    /** Raw media cost with no LLC filtering (used for page copies). */
    Tick rawCost(TierId tier, Bytes bytes, AccessType type,
                 int from_socket) const;

    /** Set fraction [0,1) of accesses served by the LLC. */
    void setLlcHitFraction(double fraction);

    double llcHitFraction() const { return _llcHitFraction; }

    /** Extra latency for crossing sockets (QPI/UPI hop). */
    void setRemotePenalty(Tick penalty);

    /**
     * Multiply effective cost of accesses to tiers on @p socket by
     * @p factor (>= 1), modelling a streaming interferer.
     */
    void setInterference(int socket, double factor);

    /** Remove all interference factors. */
    void clearInterference();

  private:
    size_t
    pageCostIndex(size_t tier, AccessType type, size_t socket) const
    {
        const size_t row = tier * 2 + static_cast<size_t>(type);
        return row * _interference.size() + socket;
    }

    /** Refill _pageCost from the formula after any configuration change. */
    void rebuildPageCosts();

    std::vector<TierSpec> _tiers;
    std::vector<double> _interference;  // per socket, 1.0 = none
    double _llcHitFraction = 0.0;
    Tick _llcLatency{12};     // ~LLC hit latency in ns
    Tick _remotePenalty{60};  // ns per cross-socket access
    /** accessCost(kPageSize) per (tier, type, socket); the socket
     *  dimension is _interference's, which covers every tier. */
    std::vector<Tick> _pageCost;
};

} // namespace kloc

#endif // KLOC_SIM_MEMORY_MODEL_HH
