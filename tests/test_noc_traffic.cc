/**
 * @file
 * Property-style NoC tests under randomized and adversarial traffic:
 * conservation, drains, priority policies, and backpressure.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "noc/network.hh"
#include "noc/packet.hh"
#include "noc/routing.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace stacknoc {
namespace {

using noc::PacketClass;

class CountingSink : public noc::NetworkClient
{
  public:
    void
    deliver(noc::PacketPtr pkt, Cycle now) override
    {
        ++count;
        lastCycle = now;
        minLatencyOk &= (now - pkt->createdAt) >=
            3 + 3 * static_cast<Cycle>(hops(pkt->src, pkt->dest));
    }

    static int
    hops(NodeId a, NodeId b)
    {
        const MeshShape shape(8, 8, 2);
        return shape.hopDistance(a, b);
    }

    std::uint64_t count = 0;
    Cycle lastCycle = 0;
    bool minLatencyOk = true;
};

struct RandomTrafficParam
{
    double injection_rate; //!< packets per node per cycle
    PacketClass cls;
    int vcDepth = noc::NocParams{}.vcDepth; //!< flits per VC buffer
};

/**
 * Expect every output VC of every attached router port and NI
 * injection port to hold vcDepth credits again, counting the credits
 * still returning on its link: an idle router or NI drains those
 * lazily, at its next wake.
 */
void
expectCreditsRestored(const noc::Network &net)
{
    const int vcs = net.params().totalVcs();
    const int depth = net.params().vcDepth;
    const auto returning = [&](const noc::Link &link) {
        std::vector<int> n(static_cast<std::size_t>(vcs), 0);
        link.credit.forEachInFlight([&](const noc::Credit &c) {
            ++n[static_cast<std::size_t>(c.vc)];
        });
        return n;
    };
    for (NodeId n = 0; n < net.shape().totalNodes(); ++n) {
        for (int d = 0; d < noc::kNumDirs; ++d) {
            const auto dir = static_cast<noc::Dir>(d);
            const noc::Link *link = dir == noc::Dir::Local
                                        ? &net.routerToNiLink(n)
                                        : net.topology().linkOut(n, dir);
            if (link == nullptr)
                continue;
            const auto back = returning(*link);
            const auto credits = net.router(n).outCredits(dir);
            for (int v = 0; v < vcs; ++v) {
                const auto i = static_cast<std::size_t>(v);
                EXPECT_EQ(credits[i] + back[i], depth)
                    << "router " << n << " port " << d << " vc " << v;
            }
        }
        const auto back = returning(net.niToRouterLink(n));
        for (int v = 0; v < vcs; ++v) {
            EXPECT_EQ(net.ni(n).injCredits(v) +
                          back[static_cast<std::size_t>(v)],
                      depth)
                << "NI " << n << " vc " << v;
        }
    }
}

class RandomTraffic : public ::testing::TestWithParam<RandomTrafficParam>
{
};

TEST_P(RandomTraffic, ConservationAndMinimumLatency)
{
    const auto param = GetParam();
    Simulator sim;
    const MeshShape shape(8, 8, 2);
    noc::ArbitrationPolicy policy;
    noc::NocParams params;
    params.vcDepth = param.vcDepth;
    noc::Network net(sim, shape, params,
                     std::make_unique<noc::ZxyRouting>(shape), policy);
    std::vector<CountingSink> sinks(
        static_cast<std::size_t>(shape.totalNodes()));
    for (NodeId n = 0; n < shape.totalNodes(); ++n)
        net.ni(n).setClient(&sinks[static_cast<std::size_t>(n)]);

    Rng rng(1234);
    std::uint64_t sent = 0;
    const Cycle warm = 600;
    for (Cycle t = 0; t < warm; ++t) {
        for (NodeId n = 0; n < shape.totalNodes(); ++n) {
            if (rng.chance(param.injection_rate)) {
                NodeId dest = static_cast<NodeId>(
                    rng.below(static_cast<std::uint64_t>(
                        shape.totalNodes())));
                net.ni(n).send(noc::makePacket(param.cls, n, dest), t);
                ++sent;
            }
        }
        sim.step();
    }
    EXPECT_TRUE(testutil::runUntilDrained(sim, net, 30000));

    std::uint64_t received = 0;
    for (auto &s : sinks) {
        received += s.count;
        EXPECT_TRUE(s.minLatencyOk);
    }
    EXPECT_EQ(received, sent);
    EXPECT_EQ(net.totalBufferedFlits(), 0);
    EXPECT_EQ(net.stats().counter("packets_injected").value(), sent);
    EXPECT_EQ(net.stats().counter("packets_ejected").value(), sent);
    expectCreditsRestored(net);
}

// The default 5-flit buffers, then depths 1, 3 and 8: a 9-flit DataResp
// is longer than each, and depth 1 and 3 exercise rings whose
// power-of-two block is larger than the credit bound.
INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTraffic,
    ::testing::Values(RandomTrafficParam{0.02, PacketClass::ReadReq},
                      RandomTrafficParam{0.05, PacketClass::ReadReq},
                      RandomTrafficParam{0.02, PacketClass::DataResp},
                      RandomTrafficParam{0.01, PacketClass::CohCtrl},
                      RandomTrafficParam{0.03, PacketClass::Ack},
                      RandomTrafficParam{0.01, PacketClass::DataResp, 1},
                      RandomTrafficParam{0.02, PacketClass::ReadReq, 1},
                      RandomTrafficParam{0.02, PacketClass::DataResp, 3},
                      RandomTrafficParam{0.02, PacketClass::DataResp, 8},
                      RandomTrafficParam{0.05, PacketClass::ReadReq, 8}));

TEST(MixedTraffic, AllVnetsDrain)
{
    Simulator sim;
    const MeshShape shape(8, 8, 2);
    noc::ArbitrationPolicy policy;
    noc::Network net(sim, shape, noc::NocParams{},
                     std::make_unique<noc::ZxyRouting>(shape), policy);
    std::vector<CountingSink> sinks(
        static_cast<std::size_t>(shape.totalNodes()));
    for (NodeId n = 0; n < shape.totalNodes(); ++n)
        net.ni(n).setClient(&sinks[static_cast<std::size_t>(n)]);

    const PacketClass classes[] = {
        PacketClass::ReadReq, PacketClass::WritebackReq,
        PacketClass::DataResp, PacketClass::CohCtrl, PacketClass::CohData,
        PacketClass::MemResp};
    Rng rng(99);
    std::uint64_t sent = 0;
    for (Cycle t = 0; t < 600; ++t) {
        for (NodeId n = 0; n < shape.totalNodes(); ++n) {
            if (rng.chance(0.02)) {
                const PacketClass cls = classes[rng.below(6)];
                NodeId dest = static_cast<NodeId>(rng.below(128));
                net.ni(n).send(noc::makePacket(cls, n, dest), t);
                ++sent;
            }
        }
        sim.step();
    }
    EXPECT_TRUE(testutil::runUntilDrained(sim, net, 40000));
    std::uint64_t received = 0;
    for (auto &s : sinks)
        received += s.count;
    EXPECT_EQ(received, sent);
    EXPECT_EQ(net.totalBufferedFlits(), 0);
}

TEST(HotspotTraffic, ManySourcesOneDestinationAllDelivered)
{
    Simulator sim;
    const MeshShape shape(8, 8, 2);
    noc::ArbitrationPolicy policy;
    noc::Network net(sim, shape, noc::NocParams{},
                     std::make_unique<noc::ZxyRouting>(shape), policy);
    std::vector<CountingSink> sinks(
        static_cast<std::size_t>(shape.totalNodes()));
    for (NodeId n = 0; n < shape.totalNodes(); ++n)
        net.ni(n).setClient(&sinks[static_cast<std::size_t>(n)]);

    const NodeId hotspot = 91;
    std::uint64_t sent = 0;
    for (NodeId n = 0; n < 64; ++n) {
        for (int i = 0; i < 5; ++i) {
            net.ni(n).send(
                noc::makePacket(PacketClass::WritebackReq, n, hotspot), 0);
            ++sent;
        }
    }
    EXPECT_TRUE(testutil::runUntilDrained(sim, net, 80000));
    EXPECT_EQ(sinks[91].count, sent);
    EXPECT_EQ(net.totalBufferedFlits(), 0);
}

/**
 * A policy that freezes a given destination until a release cycle —
 * exercises the eligibility hook that the STT-RAM-aware scheme relies on.
 */
class FreezeDestPolicy : public noc::ArbitrationPolicy
{
  public:
    FreezeDestPolicy(NodeId dest, Cycle release)
        : dest_(dest), release_(release)
    {}

    bool
    eligible(NodeId, noc::Packet &pkt, Cycle now) override
    {
        return pkt.dest != dest_ || now >= release_;
    }

  private:
    NodeId dest_;
    Cycle release_;
};

TEST(PolicyHooks, IneligiblePacketsAreHeldUntilRelease)
{
    Simulator sim;
    const MeshShape shape(4, 4, 2);
    FreezeDestPolicy policy(16, 300);
    noc::Network net(sim, shape, noc::NocParams{},
                     std::make_unique<noc::ZxyRouting>(shape), policy);
    std::vector<CountingSink> sinks(
        static_cast<std::size_t>(shape.totalNodes()));
    for (NodeId n = 0; n < shape.totalNodes(); ++n)
        net.ni(n).setClient(&sinks[static_cast<std::size_t>(n)]);

    net.ni(0).send(noc::makePacket(PacketClass::ReadReq, 0, 16), 0);
    net.ni(1).send(noc::makePacket(PacketClass::ReadReq, 1, 17), 0);
    sim.run(100);
    EXPECT_EQ(sinks[16].count, 0u); // frozen at the first router
    EXPECT_EQ(sinks[17].count, 1u); // unaffected traffic flows
    sim.run(400);
    EXPECT_EQ(sinks[16].count, 1u); // released after cycle 300
    EXPECT_GE(sinks[16].lastCycle, 300u);
}

/**
 * A policy that gives one packet class strict priority — checks that the
 * priority path through VA/SA allocation is honoured under contention.
 */
class ClassPriorityPolicy : public noc::ArbitrationPolicy
{
  public:
    int
    priorityClass(NodeId, const noc::Packet &pkt, Cycle) override
    {
        return pkt.cls == PacketClass::CohCtrl ? 0 : 1;
    }
};

TEST(PolicyHooks, PrioritizedClassWinsUnderContention)
{
    auto mean_latency = [](bool prioritize) {
        Simulator sim;
        const MeshShape shape(8, 8, 2);
        noc::ArbitrationPolicy rr;
        ClassPriorityPolicy prio;
        noc::ArbitrationPolicy &policy =
            prioritize ? static_cast<noc::ArbitrationPolicy &>(prio) : rr;
        noc::Network net(sim, shape, noc::NocParams{},
                         std::make_unique<noc::ZxyRouting>(shape), policy);
        std::vector<CountingSink> sinks(
            static_cast<std::size_t>(shape.totalNodes()));
        for (NodeId n = 0; n < shape.totalNodes(); ++n)
            net.ni(n).setClient(&sinks[static_cast<std::size_t>(n)]);

        // Background data traffic crossing the mesh plus probe CohCtrl
        // packets sharing the same column.
        Rng rng(5);
        double coh_lat_sum = 0;
        int coh_n = 0;
        std::vector<noc::PacketPtr> coh;
        for (Cycle t = 0; t < 900; ++t) {
            for (NodeId n = 0; n < 64; ++n) {
                if (rng.chance(0.04)) {
                    net.ni(n).send(noc::makePacket(
                        PacketClass::DataResp, n,
                        static_cast<NodeId>(64 + rng.below(64))), t);
                }
            }
            if (t % 50 == 0) {
                auto p = noc::makePacket(PacketClass::CohCtrl, 0, 120);
                coh.push_back(p);
                net.ni(0).send(p, t);
            }
            sim.step();
        }
        testutil::runUntilDrained(sim, net, 40000);
        for (auto &p : coh) {
            if (p->ejectedAt != kCycleNever) {
                coh_lat_sum +=
                    static_cast<double>(p->ejectedAt - p->createdAt);
                ++coh_n;
            }
        }
        EXPECT_GT(coh_n, 0);
        return coh_lat_sum / coh_n;
    };
    const double rr_latency = mean_latency(false);
    const double prio_latency = mean_latency(true);
    EXPECT_LE(prio_latency, rr_latency);
}

} // namespace
} // namespace stacknoc
