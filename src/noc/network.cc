#include "noc/network.hh"

#include "common/logging.hh"

namespace stacknoc::noc {

Network::Network(Simulator &sim, const MeshShape &shape,
                 const NocParams &params,
                 std::unique_ptr<RoutingFunction> routing,
                 ArbitrationPolicy &policy)
    // Router-to-router channels deliver linkLatency+1 cycles after the
    // SA/ST push: the crossbar-traversal cycle and the wire cycle are
    // distinct, giving the paper's 3-cycle hop (2 router + 1 link).
    : params_(params), stats_("net"),
      topo_(shape, params.linkLatency + 1, params.linkBandwidth),
      routing_(std::move(routing))
{
    fatal_if(routing_ == nullptr, "Network requires a routing function");

    const int n = shape.totalNodes();
    routers_.reserve(static_cast<std::size_t>(n));
    nis_.reserve(static_cast<std::size_t>(n));

    for (NodeId id = 0; id < n; ++id) {
        routers_.push_back(std::make_unique<Router>(
            detail::format("net.router%d", id), id, params_, *routing_,
            policy, stats_));
        nis_.push_back(std::make_unique<NetworkInterface>(
            detail::format("net.ni%d", id), id, params_, stats_));
    }

    // Router-to-router wiring through the topology's links.
    for (NodeId id = 0; id < n; ++id) {
        for (int d = 1; d < kNumDirs; ++d) {
            const Dir dir = static_cast<Dir>(d);
            Link *out = topo_.linkOut(id, dir);
            if (!out)
                continue;
            const NodeId nb = topo_.neighbor(id, dir);
            routers_[std::size_t(id)]->connectOut(dir, out);
            routers_[std::size_t(nb)]->connectIn(opposite(dir), out);
        }
    }

    // NI <-> router local links.
    for (NodeId id = 0; id < n; ++id) {
        auto to_router = std::make_unique<Link>(params_.linkLatency,
                                                params_.linkBandwidth);
        auto from_router = std::make_unique<Link>(params_.linkLatency,
                                                  params_.linkBandwidth);
        routers_[std::size_t(id)]->connectIn(Dir::Local, to_router.get());
        routers_[std::size_t(id)]->connectOut(Dir::Local,
                                              from_router.get());
        nis_[std::size_t(id)]->connect(to_router.get(), from_router.get());
        niLinks_.push_back(std::move(to_router));
        niLinks_.push_back(std::move(from_router));
    }

    // Affinity = mesh column (node id modulo layer size): both layers'
    // router and NI at an (x, y) coordinate tick on the same shard of
    // the parallel engine, so cross-layer TSB pairs never straddle a
    // shard boundary.
    for (auto &r : routers_)
        sim.add(r.get(), r->nodeId() % shape.nodesPerLayer());
    for (auto &ni : nis_)
        sim.add(ni.get(), ni->nodeId() % shape.nodesPerLayer());
}

int
Network::totalBufferedFlits() const
{
    int total = 0;
    for (const auto &r : routers_)
        total += r->bufferedFlits();
    return total;
}

} // namespace stacknoc::noc
