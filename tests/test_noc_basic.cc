/**
 * @file
 * Unit tests for NoC building blocks: packet classes, topology wiring,
 * routing, and end-to-end single-packet timing through real routers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "noc/network.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/simulator.hh"

namespace stacknoc {
namespace {

using noc::Dir;
using noc::PacketClass;

TEST(Packet, VnetMapping)
{
    EXPECT_EQ(noc::vnetOf(PacketClass::ReadReq), noc::kVnetReq);
    EXPECT_EQ(noc::vnetOf(PacketClass::WriteReq), noc::kVnetReq);
    EXPECT_EQ(noc::vnetOf(PacketClass::MemReq), noc::kVnetReq);
    EXPECT_EQ(noc::vnetOf(PacketClass::StoreWrite), noc::kVnetWb);
    EXPECT_EQ(noc::vnetOf(PacketClass::WritebackReq), noc::kVnetWb);
    EXPECT_EQ(noc::vnetOf(PacketClass::MemWrite), noc::kVnetWb);
    EXPECT_EQ(noc::vnetOf(PacketClass::DataResp), noc::kVnetResp);
    EXPECT_EQ(noc::vnetOf(PacketClass::Ack), noc::kVnetResp);
    EXPECT_EQ(noc::vnetOf(PacketClass::MemResp), noc::kVnetResp);
    EXPECT_EQ(noc::vnetOf(PacketClass::ProbeAck), noc::kVnetResp);
    EXPECT_EQ(noc::vnetOf(PacketClass::CohCtrl), noc::kVnetCoh);
    EXPECT_EQ(noc::vnetOf(PacketClass::CohData), noc::kVnetCoh);
}

TEST(Packet, FactorySizes)
{
    auto rd = noc::makePacket(PacketClass::ReadReq, 0, 1);
    EXPECT_EQ(rd->numFlits, 1);
    auto st = noc::makePacket(PacketClass::StoreWrite, 0, 1);
    EXPECT_EQ(st->numFlits, noc::kStoreWriteFlits);
    auto wb = noc::makePacket(PacketClass::WritebackReq, 0, 1);
    EXPECT_EQ(wb->numFlits, noc::kWritebackFlits);
    auto data = noc::makePacket(PacketClass::DataResp, 0, 1);
    EXPECT_EQ(data->numFlits, 9);
    auto coh = noc::makePacket(PacketClass::CohData, 0, 1);
    EXPECT_EQ(coh->numFlits, 9);
    EXPECT_EQ(rd->id, 0u); // numbered by its source NI on send
}

TEST(Packet, RestrictedAndWriteClassification)
{
    EXPECT_TRUE(noc::isRestrictedRequest(PacketClass::ReadReq));
    EXPECT_TRUE(noc::isRestrictedRequest(PacketClass::WriteReq));
    EXPECT_TRUE(noc::isRestrictedRequest(PacketClass::StoreWrite));
    EXPECT_TRUE(noc::isRestrictedRequest(PacketClass::WritebackReq));
    EXPECT_FALSE(noc::isRestrictedRequest(PacketClass::DataResp));
    EXPECT_FALSE(noc::isRestrictedRequest(PacketClass::CohCtrl));
    EXPECT_FALSE(noc::isRestrictedRequest(PacketClass::MemReq));
    EXPECT_TRUE(noc::isLongBankWrite(PacketClass::StoreWrite));
    EXPECT_TRUE(noc::isLongBankWrite(PacketClass::WritebackReq));
    EXPECT_FALSE(noc::isLongBankWrite(PacketClass::ReadReq));
    EXPECT_FALSE(noc::isLongBankWrite(PacketClass::WriteReq));
}

TEST(Params, VnetLayout)
{
    // REQ=2, WB=2, RESP=1, COH=1: the paper's 6 VCs per port.
    noc::NocParams p;
    EXPECT_EQ(p.totalVcs(), 6);
    EXPECT_EQ(p.vnetBase(noc::kVnetReq), 0);
    EXPECT_EQ(p.vnetBase(noc::kVnetWb), 2);
    EXPECT_EQ(p.vnetBase(noc::kVnetResp), 4);
    EXPECT_EQ(p.vnetBase(noc::kVnetCoh), 5);
    EXPECT_EQ(p.vnetOfVc(0), noc::kVnetReq);
    EXPECT_EQ(p.vnetOfVc(2), noc::kVnetWb);
    EXPECT_EQ(p.vnetOfVc(4), noc::kVnetResp);
    EXPECT_EQ(p.vnetOfVc(5), noc::kVnetCoh);

    // The paper's "+1 VC" scenario adds one write-class VC.
    p.vcsPerVnet = {2, 3, 1, 1};
    EXPECT_EQ(p.totalVcs(), 7);
    EXPECT_EQ(p.vnetOfVc(4), noc::kVnetWb);
    EXPECT_EQ(p.vnetOfVc(5), noc::kVnetResp);
}

TEST(Topology, NeighborsAndOpposites)
{
    const MeshShape shape(8, 8, 2);
    noc::Topology topo(shape, 1, 1);
    EXPECT_EQ(topo.neighbor(0, Dir::East), 1);
    EXPECT_EQ(topo.neighbor(0, Dir::West), kInvalidNode);
    EXPECT_EQ(topo.neighbor(0, Dir::North), kInvalidNode);
    EXPECT_EQ(topo.neighbor(0, Dir::South), 8);
    EXPECT_EQ(topo.neighbor(0, Dir::Down), 64);
    EXPECT_EQ(topo.neighbor(64, Dir::Up), 0);
    EXPECT_EQ(topo.neighbor(64, Dir::Down), kInvalidNode);
    EXPECT_EQ(noc::opposite(Dir::East), Dir::West);
    EXPECT_EQ(noc::opposite(Dir::North), Dir::South);
    EXPECT_EQ(noc::opposite(Dir::Up), Dir::Down);
}

TEST(Topology, LinksExistExactlyWhereNeighborsAre)
{
    const MeshShape shape(4, 4, 2);
    noc::Topology topo(shape, 1, 1);
    for (NodeId n = 0; n < shape.totalNodes(); ++n) {
        for (int d = 1; d < noc::kNumDirs; ++d) {
            const Dir dir = static_cast<Dir>(d);
            const bool has_neighbor = topo.neighbor(n, dir) != kInvalidNode;
            EXPECT_EQ(topo.linkOut(n, dir) != nullptr, has_neighbor)
                << "node " << n << " dir " << d;
        }
    }
}

TEST(Topology, WidenDownLink)
{
    const MeshShape shape(4, 4, 2);
    noc::Topology topo(shape, 1, 1);
    EXPECT_EQ(topo.linkOut(5, Dir::Down)->bandwidth, 1);
    topo.widenDownLink(5, 2);
    EXPECT_EQ(topo.linkOut(5, Dir::Down)->bandwidth, 2);
}

TEST(ZxyRouting, PaperExample)
{
    // Core 63 -> cache 0 with Z-X-Y: down to 127, X to 120, Y to 64.
    const MeshShape shape(8, 8, 2);
    noc::ZxyRouting routing(shape);
    noc::Topology topo(shape, 1, 1);
    auto pkt = noc::makePacket(PacketClass::ReadReq, 63, 64);
    NodeId here = 63;
    std::vector<NodeId> path{here};
    while (here != pkt->dest) {
        here = topo.neighbor(here, routing.route(here, *pkt));
        path.push_back(here);
    }
    ASSERT_GE(path.size(), 3u);
    EXPECT_EQ(path[1], 127); // vertical first
    EXPECT_EQ(path[8], 120); // then X across the row
    EXPECT_EQ(path.back(), 64);
    EXPECT_EQ(static_cast<int>(path.size()) - 1,
              shape.hopDistance(63, 64));
}

TEST(ZxyRouting, AllPairsTerminateMinimally)
{
    const MeshShape shape(8, 8, 2);
    noc::ZxyRouting routing(shape);
    noc::Topology topo(shape, 1, 1);
    for (NodeId s = 0; s < shape.totalNodes(); ++s) {
        for (NodeId d = 0; d < shape.totalNodes(); ++d) {
            auto pkt = noc::makePacket(PacketClass::ReadReq, s, d);
            EXPECT_EQ(routing.pathLength(s, *pkt, topo),
                      shape.hopDistance(s, d));
        }
    }
}

/** Records every delivered packet with its delivery cycle. */
class SinkClient : public noc::NetworkClient
{
  public:
    void
    deliver(noc::PacketPtr pkt, Cycle now) override
    {
        received.emplace_back(std::move(pkt), now);
    }

    std::vector<std::pair<noc::PacketPtr, Cycle>> received;
};

/** A ready-to-run small network with a sink on every node. */
struct NetFixture
{
    explicit NetFixture(int w = 4, int h = 4)
        : shape(w, h, 2),
          net(sim, shape, noc::NocParams{},
              std::make_unique<noc::ZxyRouting>(shape), policy)
    {
        sinks.resize(static_cast<std::size_t>(shape.totalNodes()));
        for (NodeId n = 0; n < shape.totalNodes(); ++n)
            net.ni(n).setClient(&sinks[static_cast<std::size_t>(n)]);
    }

    Simulator sim;
    MeshShape shape;
    noc::ArbitrationPolicy policy;
    noc::Network net;
    std::vector<SinkClient> sinks;
};

TEST(NetworkTiming, SingleFlitLatencyIsThreePlusThreePerHop)
{
    // NI injection (1) + 2 router stages + per-hop 3 cycles.
    for (const auto &[src, dst] : std::vector<std::pair<NodeId, NodeId>>{
             {0, 0}, {0, 1}, {0, 3}, {0, 16}, {5, 21}, {0, 31}}) {
        NetFixture f;
        auto pkt = noc::makePacket(PacketClass::ReadReq, src, dst);
        f.net.ni(src).send(pkt, 0);
        f.sim.run(200);
        auto &sink = f.sinks[static_cast<std::size_t>(dst)];
        ASSERT_EQ(sink.received.size(), 1u);
        const Cycle expected =
            3 + 3 * static_cast<Cycle>(f.shape.hopDistance(src, dst));
        EXPECT_EQ(sink.received[0].second, expected)
            << src << "->" << dst;
        EXPECT_EQ(pkt->ejectedAt, expected);
        EXPECT_EQ(pkt->injectedAt, 0u);
    }
}

TEST(NetworkTiming, DataPacketAddsSerializationLatency)
{
    NetFixture f;
    auto pkt = noc::makePacket(PacketClass::DataResp, 0, 1);
    ASSERT_EQ(pkt->numFlits, 9);
    f.net.ni(0).send(pkt, 0);
    f.sim.run(200);
    auto &sink = f.sinks[1];
    ASSERT_EQ(sink.received.size(), 1u);
    // Head takes 3 + 3 hops; the 8 body flits pipeline behind at 1/cycle.
    const Cycle expected = 3 + 3 * 1 + 8;
    EXPECT_EQ(sink.received[0].second, expected);
}

TEST(Network, SameVnetSameSrcDstOrderPreserved)
{
    NetFixture f;
    for (int i = 0; i < 10; ++i)
        f.net.ni(2).send(noc::makePacket(PacketClass::ReadReq, 2, 9), 0);
    f.sim.run(500);
    auto &sink = f.sinks[9];
    ASSERT_EQ(sink.received.size(), 10u);
    // Single-VC-at-a-time serialisation cannot reorder same-pair traffic
    // when queue order assigns VCs; verify arrival cycle monotonicity.
    for (std::size_t i = 1; i < sink.received.size(); ++i)
        EXPECT_GE(sink.received[i].second, sink.received[i - 1].second);
}

TEST(Network, SourceNiNumbersPacketIds)
{
    // Each NI numbers what it sends from its own stream,
    // id = (node + 1) << 40 | sequence, and a new network starts afresh.
    for (int round = 0; round < 2; ++round) {
        NetFixture f;
        auto a = noc::makePacket(PacketClass::ReadReq, 2, 9);
        auto b = noc::makePacket(PacketClass::ReadReq, 2, 9);
        auto c = noc::makePacket(PacketClass::ReadReq, 5, 9);
        f.net.ni(2).send(a, 0);
        f.net.ni(5).send(c, 0);
        f.net.ni(2).send(b, 0);
        EXPECT_EQ(a->id, (3ull << 40) | 1);
        EXPECT_EQ(b->id, (3ull << 40) | 2);
        EXPECT_EQ(c->id, (6ull << 40) | 1);
    }
}

TEST(Network, DrainsCompletely)
{
    NetFixture f;
    for (NodeId n = 0; n < f.shape.totalNodes(); ++n) {
        f.net.ni(n).send(
            noc::makePacket(PacketClass::DataResp, n,
                            (n + 13) % f.shape.totalNodes()), 0);
    }
    f.sim.run(2000);
    EXPECT_EQ(f.net.totalBufferedFlits(), 0);
    EXPECT_EQ(f.net.stats().counter("packets_injected").value(), 32u);
    EXPECT_EQ(f.net.stats().counter("packets_ejected").value(), 32u);
}

/**
 * Routes all core-layer traffic through a single funnel node before
 * descending — a miniature of the region-TSB path restriction, used to
 * exercise the wide vertical link.
 */
class FunnelRouting : public noc::RoutingFunction
{
  public:
    FunnelRouting(const MeshShape &shape, NodeId funnel)
        : shape_(shape), funnel_(funnel)
    {}

    Dir
    route(NodeId here, const noc::Packet &pkt) const override
    {
        const Coord c = shape_.coord(here);
        const Coord d = shape_.coord(pkt.dest);
        if (c.layer == 0 && d.layer == 1) {
            if (here == funnel_)
                return Dir::Down;
            return noc::ZxyRouting::xyStep(c, shape_.coord(funnel_));
        }
        if (c.layer != d.layer)
            return c.layer < d.layer ? Dir::Down : Dir::Up;
        return noc::ZxyRouting::xyStep(c, d);
    }

  private:
    MeshShape shape_;
    NodeId funnel_;
};

TEST(Network, TsbDoubleBandwidthSpeedsUpVerticalBurst)
{
    // Funnel traffic from several cores through node 5's vertical link;
    // widening that link to two flits per cycle must cut the finish time.
    auto run_with_bw = [](int bw) {
        Simulator sim;
        const MeshShape shape(4, 4, 2);
        noc::ArbitrationPolicy policy;
        noc::Network net(sim, shape, noc::NocParams{},
                         std::make_unique<FunnelRouting>(shape, 5), policy);
        std::vector<SinkClient> sinks(
            static_cast<std::size_t>(shape.totalNodes()));
        for (NodeId n = 0; n < shape.totalNodes(); ++n)
            net.ni(n).setClient(&sinks[static_cast<std::size_t>(n)]);
        net.topology().widenDownLink(5, bw);

        // Four sources, distinct cache destinations, 30 two-flit
        // writebacks each (write class: two VCs, so two packets can be
        // in flight on the wide link): the vertical link is the shared
        // bottleneck.
        const std::vector<NodeId> sources{4, 6, 1, 9};
        const std::vector<NodeId> dests{16, 19, 28, 31};
        for (int i = 0; i < 30; ++i) {
            for (std::size_t s = 0; s < sources.size(); ++s) {
                net.ni(sources[s]).send(
                    noc::makePacket(PacketClass::WritebackReq, sources[s],
                                    dests[s]), 0);
            }
        }
        sim.run(4000);
        Cycle last = 0;
        std::size_t total = 0;
        for (auto &sink : sinks) {
            total += sink.received.size();
            for (auto &[p, c] : sink.received)
                last = std::max(last, c);
        }
        EXPECT_EQ(total, 120u);
        return last;
    };
    const Cycle narrow = run_with_bw(1);
    const Cycle wide = run_with_bw(2);
    EXPECT_LT(wide, narrow);
}

} // namespace
} // namespace stacknoc
