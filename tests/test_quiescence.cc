/**
 * @file
 * The idle-elision quiescence contract (docs/ENGINE.md): a component
 * reporting quiescent() promises its tick() is a no-op — no state, no
 * stats, no channel pushes — until an external wake re-arms it. These
 * tests prove the property per component kind (tick a quiescent
 * component anyway and verify nothing changed), and unit-test the wake
 * plumbing: channel pushes wake their receiver (immediate, or when the
 * receiver's mailbox is drained), only pushes that cross a shard are
 * staged, and every mutating
 * component entry point wakes conservatively.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "coherence/l1_cache.hh"
#include "coherence/l2_bank.hh"
#include "engine/sequential_engine.hh"
#include "engine/shard_plan.hh"
#include "engine/sharded_engine.hh"
#include "mem/memory_controller.hh"
#include "noc/network.hh"
#include "noc/routing.hh"
#include "sim/channel.hh"
#include "sim/simulator.hh"
#include "snapshot/checkpoint.hh"
#include "system/cmp_system.hh"

namespace stacknoc {
namespace {

using coherence::CohKind;
using coherence::Grant;
using coherence::HomeMap;
using coherence::L1Cache;
using coherence::L2Bank;
using coherence::L2Config;
using noc::PacketClass;
using noc::PacketPtr;

/** Bit-exact digest of every stat in @p g. */
std::string
digestGroup(const stats::Group &g)
{
    std::ostringstream os;
    for (const auto &[n, c] : g.allCounters())
        os << n << "=" << c.value() << "\n";
    for (const auto &[n, a] : g.allAverages())
        os << n << " sum=" << a.sum() << " count=" << a.count() << "\n";
    return os.str();
}

// ---------------------------------------------------------------------
// Channel wake plumbing.
// ---------------------------------------------------------------------

struct StubComponent : Ticking
{
    StubComponent() : Ticking("stub") {}
    void tick(Cycle) override {}
};

TEST(Wake, ImmediatePushWakesReceiverAtPushTime)
{
    StubComponent recv;
    std::uint8_t flag = 0;
    std::uint8_t signal = 0;
    recv.bindWakeFlag(&flag);

    Channel<int> ch(1);
    ch.bindReceiver(recv, &signal, ChannelBase::OnPush::Wake);
    ch.push(0, 42);
    EXPECT_EQ(flag, 1);
    EXPECT_EQ(signal, 1);

    recv.unbindWakeFlag(&flag);
    flag = 0;
    ch.push(1, 43);
    EXPECT_EQ(flag, 0) << "unbound flag must not be written";
}

TEST(Wake, SignalOnlyPushLeavesReceiverAsleep)
{
    StubComponent recv;
    std::uint8_t flag = 0;
    std::uint8_t signal = 0;
    recv.bindWakeFlag(&flag);

    Channel<int> ch(1);
    ch.bindReceiver(recv, &signal, ChannelBase::OnPush::SignalOnly);
    ch.push(0, 42);
    EXPECT_EQ(flag, 0);
    EXPECT_EQ(signal, 1);
    recv.unbindWakeFlag(&flag);
}

/** A two-shard outbox: slots 0 and 1, then the serial slot. */
ChannelBase::Outbox
twoShardOutbox()
{
    return ChannelBase::Outbox(3);
}

TEST(Wake, SameShardPushIsImmediateAndWakesAtPush)
{
    StubComponent recv;
    std::uint8_t flag = 0;
    recv.bindWakeFlag(&flag);
    recv.setShard(0);

    Channel<int> ch(1);
    ch.bindReceiver(recv, nullptr, ChannelBase::OnPush::Wake);

    ChannelBase::Outbox outbox = twoShardOutbox();
    ChannelBase::setStaging(&outbox, 0, 0);
    ch.push(0, 42);
    ChannelBase::setStaging(nullptr);
    for (const auto &mailbox : outbox)
        EXPECT_TRUE(mailbox.empty()) << "same-shard push must not stage";
    EXPECT_FALSE(ch.hasStaged());
    EXPECT_EQ(flag, 1) << "same-shard push must wake at push time";
    EXPECT_EQ(ch.inFlight(), 1u);
    EXPECT_TRUE(ch.receive(1).has_value());
    recv.unbindWakeFlag(&flag);
}

/**
 * Push once on @p ch from shard 0 during an even cycle and check the
 * push was staged in outbox slot @p slot: no wake and no queued value
 * until the mailbox is drained.
 */
void
expectStagedUntilDrain(Channel<int> &ch, const std::uint8_t &flag,
                       std::size_t slot)
{
    ChannelBase::Outbox outbox = twoShardOutbox();
    ChannelBase::setStaging(&outbox, 0, 0);
    ch.push(0, 42);
    ChannelBase::setStaging(nullptr);
    EXPECT_EQ(flag, 0) << "staged push must defer the wake to the drain";
    EXPECT_EQ(ch.inFlight(), 0u);
    EXPECT_TRUE(ch.hasStaged());
    int seen = 0;
    ch.forEachInFlight([&](int v) { seen += v; });
    EXPECT_EQ(seen, 42) << "observers must see staged values";
    for (std::size_t i = 0; i < outbox.size(); ++i)
        ASSERT_EQ(outbox[i].size(), i == slot ? 1u : 0u) << "slot " << i;

    outbox[slot].front()->drainStaged(0);
    EXPECT_FALSE(ch.hasStaged());
    EXPECT_EQ(ch.inFlight(), 1u);
    EXPECT_TRUE(ch.receive(1).has_value());
}

TEST(Wake, CrossShardPushIsStagedAndWakesAtDrain)
{
    StubComponent recv;
    std::uint8_t flag = 0;
    recv.bindWakeFlag(&flag);
    recv.setShard(1);

    Channel<int> ch(1);
    ch.bindReceiver(recv, nullptr, ChannelBase::OnPush::Wake);
    expectStagedUntilDrain(ch, flag, 1);
    EXPECT_EQ(flag, 1) << "drainStaged must wake the receiver";

    // A serial-list (untagged) receiver is another thread's too.
    recv.setShard(Ticking::kNoShard);
    flag = 0;
    expectStagedUntilDrain(ch, flag, 2);
    EXPECT_EQ(flag, 1);
    recv.unbindWakeFlag(&flag);
}

TEST(Wake, PushWithoutBoundReceiverLandsInSerialSlot)
{
    Channel<int> ch(1);
    const std::uint8_t no_wake = 0;
    expectStagedUntilDrain(ch, no_wake, 2);
}

TEST(Wake, DrainTakesOneParityOnly)
{
    StubComponent recv;
    recv.setShard(1);
    Channel<int> ch(1);
    ch.bindReceiver(recv, nullptr, ChannelBase::OnPush::Wake);

    // Cycle 0 stages under parity 0, cycle 1 under parity 1.
    ChannelBase::Outbox outbox[2] = {twoShardOutbox(), twoShardOutbox()};
    for (Cycle now : {0u, 1u}) {
        ChannelBase::setStaging(&outbox[now], 0,
                                static_cast<unsigned>(now));
        ch.push(now, static_cast<int>(now) + 10);
    }
    ChannelBase::setStaging(nullptr);
    ASSERT_EQ(outbox[0][1].size(), 1u);
    ASSERT_EQ(outbox[1][1].size(), 1u);

    ch.drainStaged(0);
    EXPECT_EQ(ch.inFlight(), 1u);
    EXPECT_TRUE(ch.hasStaged()) << "parity 1 must stay staged";
    std::vector<int> flight;
    ch.forEachInFlight([&](int v) { flight.push_back(v); });
    EXPECT_EQ(flight, (std::vector<int>{10, 11}));

    ch.drainStaged(1);
    EXPECT_FALSE(ch.hasStaged());
    EXPECT_EQ(ch.receive(1), std::optional<int>(10));
    EXPECT_EQ(ch.receive(2), std::optional<int>(11));
}

/** Pushes one value per tick. */
struct PushingStub : Ticking
{
    explicit PushingStub(Channel<int> &out) : Ticking("pusher"), ch(out)
    {}
    void tick(Cycle now) override { ch.push(now, 1); }
    Channel<int> &ch;
};

/** Never receives; records its live queue's length at every tick. */
struct WatchingStub : Ticking
{
    explicit WatchingStub(Channel<int> &in) : Ticking("watcher"), ch(in)
    {
        ch.bindReceiver(*this, nullptr, ChannelBase::OnPush::Wake);
    }
    void tick(Cycle) override { seen.push_back(ch.inFlight()); }
    Channel<int> &ch;
    std::vector<std::size_t> seen;
};

TEST(Wake, ShardedEngineStagesOnlyCrossShardPushes)
{
    // Each receiver ticks after its sender. A same-shard push is in its
    // live queue at once; a cross-shard push arrives with the
    // receiving shard's mailbox drain at the start of the next cycle.
    Simulator sim;
    Channel<int> near_ch(1), far_ch(1);
    PushingStub near_tx(near_ch), far_tx(far_ch);
    WatchingStub near_rx(near_ch), far_rx(far_ch);
    sim.add(&near_tx, 0);
    sim.add(&near_rx, 0);
    sim.add(&far_tx, 0);
    sim.add(&far_rx, 1);

    {
        engine::ShardedParallelEngine eng(sim, 2);
        ASSERT_EQ(eng.plan().numShards(), 2u);
        eng.run(3);
        EXPECT_EQ(near_rx.shard(), 0);
        EXPECT_EQ(far_rx.shard(), 1);
    }
    using Seen = std::vector<std::size_t>;
    EXPECT_EQ(near_rx.seen, (Seen{1, 2, 3}));
    EXPECT_EQ(far_rx.seen, (Seen{0, 1, 2}));
    EXPECT_EQ(far_ch.inFlight(), 3u)
        << "run() must return with every mailbox drained";
    EXPECT_FALSE(far_ch.hasStaged());

    // Teardown clears the tags; a sequential run on the same system
    // then stages nothing.
    for (const Ticking *c : sim.components())
        EXPECT_EQ(c->shard(), Ticking::kNoShard) << c->name();
    near_rx.seen.clear();
    far_rx.seen.clear();
    engine::SequentialEngine(sim).run(3);
    EXPECT_EQ(near_rx.seen, (Seen{4, 5, 6}));
    EXPECT_EQ(far_rx.seen, (Seen{4, 5, 6}));
}

TEST(Wake, UnbindOnlyClearsMatchingFlag)
{
    StubComponent c;
    std::uint8_t a = 0, b = 0;
    c.bindWakeFlag(&a);
    c.unbindWakeFlag(&b); // not the bound flag: must stay bound
    c.wake();
    EXPECT_EQ(a, 1);
    c.unbindWakeFlag(&a);
}

// ---------------------------------------------------------------------
// Router / NetworkInterface.
// ---------------------------------------------------------------------

class AcceptAll : public noc::NetworkClient
{
  public:
    bool tryAccept(const noc::Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

struct NetFixture
{
    NetFixture()
        : shape(4, 4, 2),
          net(sim, shape, noc::NocParams{},
              std::make_unique<noc::ZxyRouting>(shape), policy)
    {
        for (NodeId n = 0; n < shape.totalNodes(); ++n)
            net.ni(n).setClient(&client);
    }

    Simulator sim;
    MeshShape shape;
    noc::ArbitrationPolicy policy;
    AcceptAll client;
    noc::Network net;
};

TEST(Quiescence, IdleNetworkIsQuiescentAndTrafficWakesIt)
{
    NetFixture f;
    f.sim.run(50); // nothing injected: everything settles idle
    const Cycle now = f.sim.now();
    for (NodeId n = 0; n < f.shape.totalNodes(); ++n) {
        EXPECT_TRUE(f.net.router(n).quiescent(now)) << "router " << n;
        EXPECT_TRUE(f.net.ni(n).quiescent(now)) << "ni " << n;
    }

    // send() must wake the NI at call time, before any tick runs.
    std::uint8_t ni_flag = 0;
    f.net.ni(0).bindWakeFlag(&ni_flag);
    f.net.ni(0).send(noc::makePacket(PacketClass::DataResp, 0, 3), now);
    EXPECT_EQ(ni_flag, 1);
    EXPECT_FALSE(f.net.ni(0).quiescent(now));
    f.net.ni(0).unbindWakeFlag(&ni_flag);

    // The injection must ripple a wake into the attached router via the
    // local-link channel push once the NI ticks.
    std::uint8_t router_flag = 0;
    f.net.router(0).bindWakeFlag(&router_flag);
    f.sim.run(2);
    EXPECT_EQ(router_flag, 1) << "local-link push did not wake router";
    f.net.router(0).unbindWakeFlag(&router_flag);

    // Drain, then everything must return to quiescence.
    f.sim.run(100);
    const Cycle later = f.sim.now();
    for (NodeId n = 0; n < f.shape.totalNodes(); ++n) {
        EXPECT_TRUE(f.net.router(n).quiescent(later)) << "router " << n;
        EXPECT_TRUE(f.net.ni(n).quiescent(later)) << "ni " << n;
    }
}

/**
 * The no-op property, end to end: run a trafficked network twice, the
 * second time ticking every router/NI that claims quiescence an extra
 * time each cycle. If quiescent() ever lies, the double tick perturbs
 * stats or buffer state and the digests diverge.
 */
std::string
runNetworkScenario(bool double_tick_quiescent)
{
    NetFixture f;
    for (int cycle = 0; cycle < 400; ++cycle) {
        const Cycle now = f.sim.now();
        if (cycle < 250 && cycle % 7 == 0) {
            const NodeId src = static_cast<NodeId>(cycle) % 16;
            const NodeId dst = (src + 5) % 32;
            f.net.ni(src).send(
                noc::makePacket(PacketClass::DataResp, src, dst), now);
        }
        if (double_tick_quiescent) {
            for (NodeId n = 0; n < f.shape.totalNodes(); ++n) {
                if (f.net.router(n).quiescent(now))
                    f.net.router(n).tick(now);
                if (f.net.ni(n).quiescent(now))
                    f.net.ni(n).tick(now);
            }
        }
        f.sim.step();
    }
    std::ostringstream os;
    os << digestGroup(f.net.stats());
    for (NodeId n = 0; n < f.shape.totalNodes(); ++n)
        os << "buf" << n << "=" << f.net.router(n).bufferedFlits()
           << " cong=" << f.net.router(n).localCongestion() << "\n";
    return os.str();
}

TEST(Quiescence, QuiescentRouterAndNiTicksAreNoops)
{
    const std::string ref = runNetworkScenario(false);
    const std::string doubled = runNetworkScenario(true);
    EXPECT_EQ(ref, doubled);
}

// ---------------------------------------------------------------------
// L2 bank (the bank controller).
// ---------------------------------------------------------------------

struct L2Fixture
{
    L2Fixture()
        : group("cache"),
          bank("l2bank0", 0, 64, sender, L2Config{}, group)
    {}

    PacketPtr
    request(CohKind kind, CoreId core, BlockAddr addr)
    {
        auto pkt = noc::makePacket(kind == CohKind::GetM
                                       ? PacketClass::WriteReq
                                       : PacketClass::ReadReq,
                                   core, 64, addr);
        pkt->destBank = 0;
        setKind(*pkt, kind, core);
        pkt->info.flags |= coherence::kFlagL2Hit;
        return pkt;
    }

    class RecordingSender : public noc::PacketSender
    {
      public:
        void send(PacketPtr, Cycle) override { ++sent; }
        std::size_t sent = 0;
    };

    stats::Group group;
    RecordingSender sender;
    L2Bank bank;
    Cycle now = 0;
};

TEST(Quiescence, L2BankDeliverWakesAndIdleTickIsNoop)
{
    L2Fixture f;
    EXPECT_TRUE(f.bank.quiescent(0));

    std::uint8_t flag = 0;
    f.bank.bindWakeFlag(&flag);
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x100), 0);
    EXPECT_EQ(flag, 1) << "deliver() must wake the bank";
    EXPECT_FALSE(f.bank.quiescent(0));

    for (f.now = 0; f.now < 10; ++f.now)
        f.bank.tick(f.now);
    // Three-phase protocol: still open until the Unblock arrives.
    EXPECT_FALSE(f.bank.quiescent(f.now));
    auto u = noc::makePacket(PacketClass::CohCtrl, 3, 64, 0x100);
    setKind(*u, CohKind::Unblock, 3);
    f.bank.deliver(std::move(u), f.now);
    for (; f.now < 20; ++f.now)
        f.bank.tick(f.now);
    EXPECT_TRUE(f.bank.quiescent(f.now));

    // No-op property: extra ticks while quiescent change nothing.
    const std::string before = digestGroup(f.group);
    const std::size_t sent_before = f.sender.sent;
    for (; f.now < 40; ++f.now)
        f.bank.tick(f.now);
    EXPECT_EQ(digestGroup(f.group), before);
    EXPECT_EQ(f.sender.sent, sent_before);
    EXPECT_TRUE(f.bank.quiescent(f.now));
    f.bank.unbindWakeFlag(&flag);
}

// ---------------------------------------------------------------------
// Memory controller.
// ---------------------------------------------------------------------

TEST(Quiescence, MemoryControllerDeliverWakesAndIdleTickIsNoop)
{
    stats::Group net_stats("network"), mem_stats("mem");
    noc::NetworkInterface ni("ni64", 64, noc::NocParams{}, net_stats);
    mem::MemoryController mc("mc64", 64, ni, mem::DramParams{},
                             mem_stats);
    EXPECT_TRUE(mc.quiescent(0));

    std::uint8_t flag = 0;
    mc.bindWakeFlag(&flag);
    auto req = noc::makePacket(PacketClass::MemReq, 70, 64, 0x100);
    req->destBank = 6;
    req->ejectedAt = 0;
    mc.deliver(std::move(req), 0);
    EXPECT_EQ(flag, 1) << "deliver() must wake the controller";
    EXPECT_FALSE(mc.quiescent(0));

    Cycle t = 0;
    for (; t < 500 && !mc.quiescent(t); ++t)
        mc.tick(t);
    EXPECT_TRUE(mc.quiescent(t)) << "DRAM access never drained";

    const std::string before = digestGroup(mem_stats);
    const std::size_t injected = ni.injectQueueDepth();
    for (Cycle e = t; e < t + 50; ++e)
        mc.tick(e);
    EXPECT_EQ(digestGroup(mem_stats), before);
    EXPECT_EQ(ni.injectQueueDepth(), injected);
    mc.unbindWakeFlag(&flag);
}

// ---------------------------------------------------------------------
// L1 cache.
// ---------------------------------------------------------------------

TEST(Quiescence, L1AccessWakesAndQuiescentTickIsNoop)
{
    stats::Group group("cache");
    L2Fixture::RecordingSender sender;
    coherence::L1Config cfg;
    cfg.sets = 2;
    cfg.ways = 2;
    cfg.mshrs = 4;
    L1Cache l1("l1.0", 0, sender, HomeMap{}, cfg, group);
    EXPECT_TRUE(l1.quiescent(0));

    std::uint8_t flag = 0;
    l1.bindWakeFlag(&flag);
    int completions = 0;
    l1.bindCompletionSink([&](std::uint64_t, Cycle) { ++completions; });

    // A miss wakes (conservatively) but completes via deliver(), so the
    // L1 may stay quiescent: its tick only fires delayed hits.
    EXPECT_TRUE(l1.access(false, 0x40, true, 1, 10));
    EXPECT_EQ(flag, 1) << "access() must wake the L1";
    auto data = noc::makePacket(PacketClass::DataResp, 64, 0, 0x40);
    setKind(*data, CohKind::Data, 0);
    data->info.aux = static_cast<std::uint16_t>(Grant::S);
    l1.deliver(std::move(data), 30);
    EXPECT_EQ(completions, 1);

    // A hit schedules a delayed completion: not quiescent until the
    // tick that fires it.
    EXPECT_TRUE(l1.access(false, 0x40, true, 2, 40));
    EXPECT_FALSE(l1.quiescent(40));
    Cycle t = 40;
    for (; t < 60 && !l1.quiescent(t); ++t)
        l1.tick(t);
    EXPECT_TRUE(l1.quiescent(t));
    EXPECT_EQ(completions, 2);

    const std::string before = digestGroup(group);
    for (Cycle e = t; e < t + 20; ++e)
        l1.tick(e);
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(digestGroup(group), before);
    l1.unbindWakeFlag(&flag);
}

// ---------------------------------------------------------------------
// Whole-system schedule properties.
// ---------------------------------------------------------------------

system::SystemConfig
smallSystem()
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.apps = {"tpcc"};
    cfg.seed = 7;
    return cfg;
}

TEST(Quiescence, CoresNeverReportQuiescent)
{
    system::CmpSystem sys(smallSystem());
    sys.run(300);
    const Cycle now = sys.simulator().now();

    const engine::ShardPlan plan =
        engine::buildShardPlan(sys.simulator(), 1);
    std::size_t cores = 0;
    auto check = [&](const engine::ShardItem &item) {
        if (item.kind != TickKind::Core)
            return;
        ++cores;
        EXPECT_FALSE(item.component->quiescent(now))
            << "a core claimed quiescence (its workload stream and "
               "stall accounting run every cycle)";
    };
    for (const auto &shard : plan.shards)
        for (const auto &item : shard)
            check(item);
    for (const auto &item : plan.serial)
        check(item);
    EXPECT_EQ(cores, 16u);
}

TEST(Quiescence, ScheduleIsKindBatchedInOrdinalOrder)
{
    system::CmpSystem sys(smallSystem());
    const engine::ShardPlan plan =
        engine::buildShardPlan(sys.simulator(), 1);

    // One shard requested: walking shard 0 then the serial list must
    // visit strictly ascending ordinals with non-decreasing kinds —
    // the contiguous per-kind batches the engines rely on.
    std::vector<const engine::ShardItem *> walk;
    for (const auto &shard : plan.shards)
        for (const auto &item : shard)
            walk.push_back(&item);
    const std::size_t parallel = walk.size();
    for (const auto &item : plan.serial)
        walk.push_back(&item);

    for (std::size_t i = 0; i + 1 < parallel; ++i) {
        EXPECT_LT(walk[i]->ordinal, walk[i + 1]->ordinal);
        EXPECT_LE(static_cast<int>(walk[i]->kind),
                  static_cast<int>(walk[i + 1]->kind));
    }
    // Kind order is the historical registration order: routers first,
    // cores last among the batched kinds.
    ASSERT_FALSE(walk.empty());
    EXPECT_EQ(walk.front()->kind, TickKind::Router);
}

TEST(Quiescence, ShardedRunReturnsWithNothingStaged)
{
    // The checkpoint refuses a channel with staged values, so a save
    // right after run() proves every mailbox was drained, whichever
    // parity the last cycle had.
    auto cfg = smallSystem();
    cfg.threads = 4;
    system::CmpSystem sys(cfg);
    for (Cycle cycles : {301u, 1u}) {
        sys.run(cycles);
        std::ostringstream out(std::ios::binary);
        EXPECT_NO_THROW(snapshot::saveCheckpoint(sys, out, 0))
            << "after " << sys.simulator().now() << " cycles";
        EXPECT_FALSE(out.str().empty());
    }
}

} // namespace
} // namespace stacknoc
