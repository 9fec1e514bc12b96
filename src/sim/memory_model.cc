#include "sim/memory_model.hh"

#include <cmath>

#include "base/logging.hh"

namespace kloc {

TierId
MemoryModel::addTier(const TierSpec &spec)
{
    KLOC_ASSERT(spec.capacity > 0, "tier '%s' has zero capacity",
                spec.name.c_str());
    KLOC_ASSERT(spec.readBandwidth > 0 && spec.writeBandwidth > 0,
                "tier '%s' has zero bandwidth", spec.name.c_str());
    _tiers.push_back(spec);
    const auto socket = static_cast<size_t>(spec.socket);
    if (_interference.size() <= socket)
        _interference.resize(socket + 1, 1.0);
    rebuildPageCosts();
    return static_cast<TierId>(_tiers.size() - 1);
}

const TierSpec &
MemoryModel::spec(TierId tier) const
{
    KLOC_ASSERT(tier >= 0 && static_cast<size_t>(tier) < _tiers.size(),
                "bad tier id %d", tier.value());
    return _tiers[static_cast<size_t>(tier)];
}

Tick
MemoryModel::rawCost(TierId tier, Bytes bytes, AccessType type,
                     int from_socket) const
{
    const TierSpec &ts = spec(tier);
    const Tick latency = type == AccessType::Read ? ts.readLatency
                                                  : ts.writeLatency;
    const Bytes bw = type == AccessType::Read ? ts.readBandwidth
                                              : ts.writeBandwidth;
    Tick cost = latency + transferTime(bytes, bw);
    if (from_socket != ts.socket)
        cost += _remotePenalty;
    const auto socket = static_cast<size_t>(ts.socket);
    if (socket < _interference.size() && _interference[socket] > 1.0) {
        cost = static_cast<Tick>(
            std::llround(static_cast<double>(cost) *
                         _interference[socket]));
    }
    return cost;
}

Tick
MemoryModel::computeAccessCost(TierId tier, Bytes bytes, AccessType type,
                               int from_socket) const
{
    const Tick miss = rawCost(tier, bytes, type, from_socket);
    if (_llcHitFraction <= 0.0)
        return miss;
    const double expected =
        _llcHitFraction * static_cast<double>(_llcLatency) +
        (1.0 - _llcHitFraction) * static_cast<double>(miss);
    return static_cast<Tick>(std::llround(expected));
}

void
MemoryModel::setInterference(int socket, double factor)
{
    KLOC_ASSERT(factor >= 1.0, "interference factor below 1");
    const auto idx = static_cast<size_t>(socket);
    if (_interference.size() <= idx)
        _interference.resize(idx + 1, 1.0);
    _interference[idx] = factor;
    rebuildPageCosts();
}

void
MemoryModel::clearInterference()
{
    for (auto &factor : _interference)
        factor = 1.0;
    rebuildPageCosts();
}

void
MemoryModel::setLlcHitFraction(double fraction)
{
    _llcHitFraction = fraction;
    rebuildPageCosts();
}

void
MemoryModel::setRemotePenalty(Tick penalty)
{
    _remotePenalty = penalty;
    rebuildPageCosts();
}

void
MemoryModel::rebuildPageCosts()
{
    const size_t sockets = _interference.size();
    _pageCost.assign(_tiers.size() * 2 * sockets, Tick{});
    for (size_t t = 0; t < _tiers.size(); ++t) {
        for (const AccessType type : {AccessType::Read, AccessType::Write}) {
            for (size_t s = 0; s < sockets; ++s) {
                _pageCost[pageCostIndex(t, type, s)] = computeAccessCost(
                    TierId{static_cast<int>(t)}, kPageSize, type,
                    static_cast<int>(s));
            }
        }
    }
}

} // namespace kloc
