/**
 * @file
 * Protocol unit tests: the L1 MESI requester FSM and the L2 blocking
 * home directory, driven message-by-message through a recording fake
 * packet sender (no network involved).
 */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/l1_cache.hh"
#include "coherence/l2_bank.hh"

namespace stacknoc {
namespace {

using coherence::CohKind;
using coherence::Grant;
using coherence::HomeMap;
using coherence::kindOf;
using coherence::L1Cache;
using coherence::L1State;
using coherence::L2Bank;
using coherence::L2Config;
using noc::PacketClass;
using noc::PacketPtr;

/** Records every injected packet. */
class FakeSender : public noc::PacketSender
{
  public:
    void
    send(PacketPtr pkt, Cycle now) override
    {
        pkt->createdAt = now;
        sent.push_back(std::move(pkt));
    }

    /** @return the most recent packet of kind @p kind, or nullptr. */
    PacketPtr
    findLast(CohKind kind) const
    {
        for (auto it = sent.rbegin(); it != sent.rend(); ++it)
            if (kindOf(**it) == kind)
                return *it;
        return nullptr;
    }

    std::size_t
    countOf(CohKind kind) const
    {
        std::size_t n = 0;
        for (const auto &p : sent)
            n += kindOf(*p) == kind;
        return n;
    }

    std::vector<PacketPtr> sent;
};

// ---------------------------------------------------------------------
// L1 tests.
// ---------------------------------------------------------------------

struct L1Fixture
{
    L1Fixture() : group("cache"), l1("l1.0", 0, sender, HomeMap{}, cfg(),
                                     group)
    {
        l1.bindCompletionSink([this](std::uint64_t, Cycle) {
            ++completions;
        });
    }

    static coherence::L1Config
    cfg()
    {
        coherence::L1Config c;
        c.sets = 2;
        c.ways = 2;
        c.mshrs = 4;
        return c;
    }

    /** Deliver a Data grant for @p addr. */
    void
    grant(BlockAddr addr, Grant g, Cycle now)
    {
        auto data = noc::makePacket(PacketClass::DataResp, 64, 0, addr);
        setKind(*data, CohKind::Data, 0);
        data->info.aux = static_cast<std::uint16_t>(g);
        l1.deliver(std::move(data), now);
    }

    stats::Group group;
    FakeSender sender;
    L1Cache l1;
    int completions = 0;
    std::uint64_t tokens = 0;

    /** A fresh access token. */
    std::uint64_t token() { return ++tokens; }
};

TEST(L1, ReadMissSendsGetSAndCompletesOnData)
{
    L1Fixture f;
    EXPECT_TRUE(f.l1.access(false, 0x40, true, f.token(), 10));
    EXPECT_EQ(f.l1.state(0x40), L1State::IS);
    auto gets = f.sender.findLast(CohKind::GetS);
    ASSERT_NE(gets, nullptr);
    EXPECT_EQ(gets->cls, PacketClass::ReadReq);
    EXPECT_EQ(gets->dest, HomeMap{}.homeNode(0x40));
    EXPECT_EQ(gets->destBank, HomeMap{}.bankOf(0x40));
    EXPECT_TRUE(gets->info.flags & coherence::kFlagL2Hit);

    f.grant(0x40, Grant::S, 30);
    EXPECT_EQ(f.completions, 1);
    EXPECT_EQ(f.l1.state(0x40), L1State::S);
    EXPECT_EQ(f.l1.mshrsInUse(), 0);
}

TEST(L1, ExclusiveGrantAllowsSilentWriteUpgrade)
{
    L1Fixture f;
    EXPECT_TRUE(f.l1.access(false, 0x40, true, f.token(), 0));
    f.grant(0x40, Grant::E, 20);
    EXPECT_EQ(f.l1.state(0x40), L1State::E);
    // Store hit on E: no network traffic, straight to M.
    const auto traffic_before = f.sender.sent.size();
    EXPECT_TRUE(f.l1.access(true, 0x40, true, f.token(), 25));
    f.l1.tick(27); // hit completes after hitLatency
    EXPECT_EQ(f.completions, 2);
    EXPECT_EQ(f.l1.state(0x40), L1State::M);
    EXPECT_EQ(f.sender.sent.size(), traffic_before);
}

TEST(L1, StoreHitOnSharedUpgrades)
{
    L1Fixture f;
    f.l1.access(false, 0x40, true, f.token(), 0);
    f.grant(0x40, Grant::S, 20);
    EXPECT_TRUE(f.l1.access(true, 0x40, true, f.token(), 25));
    EXPECT_EQ(f.l1.state(0x40), L1State::SM);
    auto getm = f.sender.findLast(CohKind::GetM);
    ASSERT_NE(getm, nullptr);
    // UpgradeAck completes the store with M.
    auto ack = noc::makePacket(PacketClass::Ack, 64, 0, 0x40);
    setKind(*ack, CohKind::UpgradeAck, 0);
    f.l1.deliver(std::move(ack), 40);
    EXPECT_EQ(f.completions, 2);
    EXPECT_EQ(f.l1.state(0x40), L1State::M);
}

TEST(L1, StoreMissIsFireAndForgetStoreWrite)
{
    L1Fixture f;
    EXPECT_TRUE(f.l1.access(true, 0x40, true, f.token(), 0));
    // Completes locally at hit latency without any MSHR.
    EXPECT_EQ(f.l1.mshrsInUse(), 0);
    f.l1.tick(2);
    EXPECT_EQ(f.completions, 1);
    auto st = f.sender.findLast(CohKind::WriteL2);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->cls, PacketClass::StoreWrite);
    EXPECT_EQ(st->numFlits, noc::kStoreWriteFlits);
    EXPECT_EQ(st->dest, HomeMap{}.homeNode(0x40));
    // No allocation: the block is still Invalid locally.
    EXPECT_EQ(f.l1.state(0x40), L1State::I);
}

/** Load a block, grant it Modified via a store hit on Exclusive. */
void
makeModified(L1Fixture &f, BlockAddr addr, Cycle t)
{
    ASSERT_TRUE(f.l1.access(false, addr, true, f.token(), t));
    f.grant(addr, Grant::E, t + 5);
    ASSERT_TRUE(f.l1.access(true, addr, true, f.token(), t + 6));
    f.l1.tick(t + 9);
    ASSERT_EQ(f.l1.state(addr), L1State::M);
}

TEST(L1, DirtyEvictionSendsPutMAndBlocksRefetchUntilWbAck)
{
    L1Fixture f;
    // Fill set 0 (2 ways) with Modified blocks 0x40 and 0x42 (set =
    // addr % 2 ... both even -> same set 0).
    makeModified(f, 0x40, 0);
    makeModified(f, 0x42, 20);
    // A third block in the same set evicts LRU 0x40 -> PutM.
    f.l1.access(false, 0x44, true, f.token(), 40);
    auto putm = f.sender.findLast(CohKind::PutM);
    ASSERT_NE(putm, nullptr);
    EXPECT_EQ(putm->addr, 0x40u);
    EXPECT_EQ(putm->cls, PacketClass::WritebackReq);
    EXPECT_EQ(putm->numFlits, noc::kWritebackFlits);
    // Re-fetching 0x40 is refused while its PutM is unacknowledged.
    EXPECT_FALSE(f.l1.access(false, 0x40, true, f.token(), 45));
    auto wback = noc::makePacket(PacketClass::Ack, 64, 0, 0x40);
    setKind(*wback, CohKind::WbAck, 0);
    f.l1.deliver(std::move(wback), 50);
    f.grant(0x44, Grant::E, 55); // release the MSHR/way first
    EXPECT_TRUE(f.l1.access(false, 0x40, true, f.token(), 60));
}

TEST(L1, CleanEvictionIsSilent)
{
    L1Fixture f;
    f.l1.access(false, 0x40, true, f.token(), 0);
    f.grant(0x40, Grant::S, 10);
    f.l1.access(false, 0x42, true, f.token(), 20);
    f.grant(0x42, Grant::E, 30);
    const auto before = f.sender.countOf(CohKind::PutM);
    f.l1.access(false, 0x44, true, f.token(), 40); // evicts S or E block
    EXPECT_EQ(f.sender.countOf(CohKind::PutM), before);
}

TEST(L1, GrantTriggersUnblockToHome)
{
    L1Fixture f;
    f.l1.access(false, 0x40, true, f.token(), 0);
    EXPECT_EQ(f.sender.countOf(CohKind::Unblock), 0u);
    f.grant(0x40, Grant::E, 20);
    auto unblock = f.sender.findLast(CohKind::Unblock);
    ASSERT_NE(unblock, nullptr);
    EXPECT_EQ(unblock->dest, HomeMap{}.homeNode(0x40));
    EXPECT_EQ(unblock->addr, 0x40u);
    EXPECT_EQ(unblock->numFlits, 1);
}

TEST(L1, UpgradeAckAlsoUnblocks)
{
    L1Fixture f;
    f.l1.access(false, 0x40, true, f.token(), 0);
    f.grant(0x40, Grant::S, 10);
    f.l1.access(true, 0x40, true, f.token(), 20); // SM upgrade
    auto ack = noc::makePacket(PacketClass::Ack, 64, 0, 0x40);
    setKind(*ack, CohKind::UpgradeAck, 0);
    f.l1.deliver(std::move(ack), 40);
    EXPECT_EQ(f.sender.countOf(CohKind::Unblock), 2u); // fill + upgrade
}

TEST(L1, InvalidationOfSharedBlock)
{
    L1Fixture f;
    f.l1.access(false, 0x40, true, f.token(), 0);
    f.grant(0x40, Grant::S, 10);
    auto inv = noc::makePacket(PacketClass::CohCtrl, 64, 0, 0x40);
    setKind(*inv, CohKind::Inv, 0);
    f.l1.deliver(std::move(inv), 20);
    EXPECT_EQ(f.l1.state(0x40), L1State::I);
    EXPECT_EQ(f.sender.countOf(CohKind::InvAck), 1u);
}

TEST(L1, InvalidationDuringUpgradeFallsBackToIM)
{
    L1Fixture f;
    f.l1.access(false, 0x40, true, f.token(), 0);
    f.grant(0x40, Grant::S, 10);
    f.l1.access(true, 0x40, true, f.token(), 20); // SM
    auto inv = noc::makePacket(PacketClass::CohCtrl, 64, 0, 0x40);
    setKind(*inv, CohKind::Inv, 0);
    f.l1.deliver(std::move(inv), 25);
    EXPECT_EQ(f.l1.state(0x40), L1State::IM);
    // Full data later completes the store with M.
    f.grant(0x40, Grant::M, 60);
    EXPECT_EQ(f.completions, 2);
    EXPECT_EQ(f.l1.state(0x40), L1State::M);
}

TEST(L1, RecallOfModifiedReturnsDirtyData)
{
    L1Fixture f;
    makeModified(f, 0x40, 0);
    auto recall = noc::makePacket(PacketClass::CohCtrl, 64, 0, 0x40);
    setKind(*recall, CohKind::Recall, 0);
    f.l1.deliver(std::move(recall), 20);
    auto data = f.sender.findLast(CohKind::RecallData);
    ASSERT_NE(data, nullptr);
    EXPECT_TRUE(data->info.flags & coherence::kFlagDirty);
    EXPECT_EQ(data->numFlits, 9);
    EXPECT_EQ(f.l1.state(0x40), L1State::I);
}

TEST(L1, RecallOfExclusiveAcksClean)
{
    L1Fixture f;
    f.l1.access(false, 0x40, true, f.token(), 0);
    f.grant(0x40, Grant::E, 10);
    auto recall = noc::makePacket(PacketClass::CohCtrl, 64, 0, 0x40);
    setKind(*recall, CohKind::Recall, 0);
    f.l1.deliver(std::move(recall), 20);
    auto ack = f.sender.findLast(CohKind::RecallAck);
    ASSERT_NE(ack, nullptr);
    EXPECT_FALSE(ack->info.flags & coherence::kFlagPutMInFlight);
    EXPECT_EQ(f.l1.state(0x40), L1State::I);
}

TEST(L1, RecallAfterEvictionFlagsPutMInFlight)
{
    L1Fixture f;
    makeModified(f, 0x40, 0);
    makeModified(f, 0x42, 20);
    f.l1.access(false, 0x44, true, f.token(), 40); // PutM(0x40) in flight
    auto recall = noc::makePacket(PacketClass::CohCtrl, 64, 0, 0x40);
    setKind(*recall, CohKind::Recall, 0);
    f.l1.deliver(std::move(recall), 45);
    auto ack = f.sender.findLast(CohKind::RecallAck);
    ASSERT_NE(ack, nullptr);
    EXPECT_TRUE(ack->info.flags & coherence::kFlagPutMInFlight);
}

TEST(L1, MshrLimitRejectsExcessMisses)
{
    L1Fixture f;
    // 4 MSHRs; issue 4 misses to different sets, the 5th is refused.
    EXPECT_TRUE(f.l1.access(false, 0x40, true, f.token(), 0));
    EXPECT_TRUE(f.l1.access(false, 0x41, true, f.token(), 0));
    EXPECT_TRUE(f.l1.access(false, 0x42, true, f.token(), 0));
    EXPECT_TRUE(f.l1.access(false, 0x43, true, f.token(), 0));
    EXPECT_FALSE(f.l1.access(false, 0x45, true, f.token(), 0));
    EXPECT_EQ(f.group.counter("l1_retries").value(), 1u);
}

TEST(L1, ConflictingOutstandingAccessRejected)
{
    L1Fixture f;
    EXPECT_TRUE(f.l1.access(false, 0x40, true, f.token(), 0));
    EXPECT_FALSE(f.l1.access(true, 0x40, true, f.token(), 1));
    EXPECT_FALSE(f.l1.access(false, 0x40, true, f.token(), 1));
}

/** A sender whose backlog is externally scripted. */
class BackloggedSender : public FakeSender
{
  public:
    std::size_t backlog() const override { return fakeBacklog; }
    std::size_t fakeBacklog = 0;
};

TEST(L1, StoreBufferBackpressureRejectsStores)
{
    stats::Group group("cache");
    BackloggedSender sender;
    L1Cache l1("l1.0", 0, sender, HomeMap{}, L1Fixture::cfg(), group);
    sender.fakeBacklog = coherence::kStoreBufferDepth;
    EXPECT_FALSE(l1.access(true, 0x40, true, 0, 0));
    // Loads are unaffected by store-buffer pressure.
    EXPECT_TRUE(l1.access(false, 0x41, true, 0, 0));
    sender.fakeBacklog = 0;
    EXPECT_TRUE(l1.access(true, 0x40, true, 0, 1));
}

// ---------------------------------------------------------------------
// L2 bank / directory tests.
// ---------------------------------------------------------------------

struct L2Fixture
{
    L2Fixture()
        : group("cache"),
          bank("l2bank0", 0, 64, sender, L2Config{}, group)
    {}

    /** Advance the bank to cycle @p until (exclusive). */
    void
    tickTo(Cycle until)
    {
        for (; now < until; ++now)
            bank.tick(now);
    }

    /** Complete the three-phase handshake for a granted request. */
    void
    unblock(CoreId core, BlockAddr addr)
    {
        auto u = noc::makePacket(PacketClass::CohCtrl, core, 64, addr);
        setKind(*u, CohKind::Unblock, core);
        bank.deliver(std::move(u), now);
    }

    PacketPtr
    request(CohKind kind, CoreId core, BlockAddr addr, bool l2hit = true)
    {
        const PacketClass cls = kind == CohKind::GetS
                                    ? PacketClass::ReadReq
                                    : kind == CohKind::GetM
                                          ? PacketClass::WriteReq
                                          : PacketClass::WritebackReq;
        auto pkt = noc::makePacket(cls, core, 64, addr);
        pkt->destBank = 0;
        setKind(*pkt, kind, core);
        if (l2hit)
            pkt->info.flags |= coherence::kFlagL2Hit;
        return pkt;
    }

    stats::Group group;
    FakeSender sender;
    L2Bank bank;
    Cycle now = 0;
};

TEST(L2, GetSOnIdleBlockGrantsExclusive)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x100), 0);
    f.tickTo(10); // 3-cycle bank read
    auto data = f.sender.findLast(CohKind::Data);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->dest, 3);
    EXPECT_EQ(static_cast<Grant>(data->info.aux), Grant::E);
    const auto *dir = f.bank.dirEntry(0x100);
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->state, coherence::DirEntry::State::E);
    EXPECT_EQ(dir->owner, 3);
    // Three-phase: the transaction stays open until the Unblock.
    EXPECT_FALSE(f.bank.idle(f.now));
    f.unblock(3, 0x100);
    f.tickTo(12);
    EXPECT_TRUE(f.bank.idle(f.now));
}

TEST(L2, SecondReaderTriggersRecallAndSharesData)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x100), 0);
    f.tickTo(10);
    f.unblock(3, 0x100);
    f.bank.deliver(f.request(CohKind::GetS, 5, 0x100), 10);
    f.tickTo(12);
    auto recall = f.sender.findLast(CohKind::Recall);
    ASSERT_NE(recall, nullptr);
    EXPECT_EQ(recall->dest, 3);
    // Owner answers clean (it never wrote).
    auto ack = noc::makePacket(PacketClass::CohCtrl, 3, 64, 0x100);
    setKind(*ack, CohKind::RecallAck, 3);
    f.bank.deliver(std::move(ack), 20);
    f.tickTo(30);
    auto data = f.sender.findLast(CohKind::Data);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->dest, 5);
    EXPECT_EQ(static_cast<Grant>(data->info.aux), Grant::S);
    f.unblock(5, 0x100);
    const auto *dir = f.bank.dirEntry(0x100);
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->state, coherence::DirEntry::State::S);
}

TEST(L2, GetMInvalidatesSharersThenGrantsM)
{
    L2Fixture f;
    // Build S state with sharers 3 and 5 (3 first gets E, recall makes
    // it S, then 5 shares).
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x100), 0);
    f.tickTo(10);
    f.unblock(3, 0x100);
    f.bank.deliver(f.request(CohKind::GetS, 5, 0x100), 10);
    f.tickTo(12);
    auto ack = noc::makePacket(PacketClass::CohCtrl, 3, 64, 0x100);
    setKind(*ack, CohKind::RecallAck, 3);
    f.bank.deliver(std::move(ack), 20);
    f.tickTo(30);
    f.unblock(5, 0x100);
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x100), 30);
    f.tickTo(40); // now sharers = {3, 5}
    f.unblock(3, 0x100);

    // Core 7 wants to write: both sharers get Inv.
    f.bank.deliver(f.request(CohKind::GetM, 7, 0x100), 40);
    f.tickTo(42);
    EXPECT_EQ(f.sender.countOf(CohKind::Inv), 2u);
    auto ack3 = noc::makePacket(PacketClass::CohCtrl, 3, 64, 0x100);
    setKind(*ack3, CohKind::InvAck, 3);
    f.bank.deliver(std::move(ack3), 50);
    f.tickTo(55);
    EXPECT_EQ(f.sender.countOf(CohKind::Data), 3u); // not yet
    auto ack5 = noc::makePacket(PacketClass::CohCtrl, 5, 64, 0x100);
    setKind(*ack5, CohKind::InvAck, 5);
    f.bank.deliver(std::move(ack5), 55);
    f.tickTo(70);
    auto data = f.sender.findLast(CohKind::Data);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->dest, 7);
    EXPECT_EQ(static_cast<Grant>(data->info.aux), Grant::M);
    f.unblock(7, 0x100);
    f.tickTo(72);
    EXPECT_TRUE(f.bank.idle(f.now));
}

TEST(L2, UpgradeFromSharerSkipsDataTransfer)
{
    L2Fixture f;
    // Make 3 a (sole) sharer in S state.
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x100), 0);
    f.tickTo(10);
    f.unblock(3, 0x100);
    f.bank.deliver(f.request(CohKind::GetS, 5, 0x100), 10);
    f.tickTo(12);
    auto rack = noc::makePacket(PacketClass::CohCtrl, 3, 64, 0x100);
    setKind(*rack, CohKind::RecallAck, 3);
    f.bank.deliver(std::move(rack), 20);
    f.tickTo(30); // sharers = {5}
    f.unblock(5, 0x100);

    f.bank.deliver(f.request(CohKind::GetM, 5, 0x100), 30);
    f.tickTo(40);
    auto up = f.sender.findLast(CohKind::UpgradeAck);
    ASSERT_NE(up, nullptr);
    EXPECT_EQ(up->dest, 5);
    EXPECT_EQ(up->numFlits, 1);
    const auto *dir = f.bank.dirEntry(0x100);
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->state, coherence::DirEntry::State::M);
    EXPECT_EQ(dir->owner, 5);
    f.unblock(5, 0x100);
    f.tickTo(42);
    EXPECT_TRUE(f.bank.idle(f.now));
}

TEST(L2, StoreWriteOccupiesBankAndSendsNoResponse)
{
    L2Fixture f;
    auto st = f.request(CohKind::WriteL2, 3, 0x100);
    f.bank.deliver(std::move(st), 0);
    f.tickTo(30);
    EXPECT_FALSE(f.bank.idle(f.now)); // the 33-cycle write is running
    f.tickTo(40);
    EXPECT_GE(f.group.counter("bank_writes").value(), 1u);
    // Fire-and-forget: nothing was sent back to core 3.
    EXPECT_TRUE(f.sender.sent.empty());
    EXPECT_TRUE(f.bank.idle(f.now));
    EXPECT_EQ(f.bank.dirEntry(0x100), nullptr);
    EXPECT_EQ(f.group.counter("l2_stores").value(), 1u);
}

TEST(L2, StoreWriteMissFetchesLineThenMergeWrites)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::WriteL2, 3, 0x300, false), 0);
    f.tickTo(5);
    ASSERT_FALSE(f.sender.sent.empty());
    auto memreq = f.sender.sent.back();
    ASSERT_EQ(memreq->cls, PacketClass::MemReq);
    f.tickTo(100);
    auto resp = noc::makePacket(PacketClass::MemResp, memreq->dest, 64,
                                0x300);
    f.bank.deliver(std::move(resp), 100);
    f.tickTo(140);
    EXPECT_GE(f.group.counter("bank_writes").value(), 1u);
    EXPECT_TRUE(f.bank.idle(f.now));
}

TEST(L2, StoreWriteInvalidatesSharersFirst)
{
    L2Fixture f;
    // Build S state with sharer 3.
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x100), 0);
    f.tickTo(10); // E to 3
    f.unblock(3, 0x100);
    f.bank.deliver(f.request(CohKind::GetS, 5, 0x100), 10);
    f.tickTo(12);
    auto rack = noc::makePacket(PacketClass::CohCtrl, 3, 64, 0x100);
    setKind(*rack, CohKind::RecallAck, 3);
    f.bank.deliver(std::move(rack), 20);
    f.tickTo(30); // sharers = {5}
    f.unblock(5, 0x100);

    // Core 9 store-writes the block: 5 must be invalidated first.
    f.bank.deliver(f.request(CohKind::WriteL2, 9, 0x100), 30);
    f.tickTo(32);
    auto inv = f.sender.findLast(CohKind::Inv);
    ASSERT_NE(inv, nullptr);
    EXPECT_EQ(inv->dest, 5);
    const auto writes_before = f.group.counter("bank_writes").value();
    auto ack = noc::makePacket(PacketClass::CohCtrl, 5, 64, 0x100);
    setKind(*ack, CohKind::InvAck, 5);
    f.bank.deliver(std::move(ack), 40);
    f.tickTo(90);
    EXPECT_GT(f.group.counter("bank_writes").value(), writes_before);
    EXPECT_EQ(f.bank.dirEntry(0x100), nullptr);
    EXPECT_TRUE(f.bank.idle(f.now));
}

TEST(L2, StoreWriteRecallsTheOwner)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::GetM, 3, 0x100), 0);
    f.tickTo(10); // 3 owns M
    f.unblock(3, 0x100);
    f.bank.deliver(f.request(CohKind::WriteL2, 9, 0x100), 10);
    f.tickTo(12);
    auto recall = f.sender.findLast(CohKind::Recall);
    ASSERT_NE(recall, nullptr);
    EXPECT_EQ(recall->dest, 3);
    auto data = noc::makePacket(PacketClass::CohData, 3, 64, 0x100);
    setKind(*data, CohKind::RecallData, 3);
    data->info.flags |= coherence::kFlagDirty;
    f.bank.deliver(std::move(data), 20);
    f.tickTo(70);
    EXPECT_TRUE(f.bank.idle(f.now));
    EXPECT_EQ(f.bank.dirEntry(0x100), nullptr);
}

TEST(L2, AdmissionCapBoundsDemandRequests)
{
    L2Fixture f;
    // Demand reads are capped...
    for (int i = 0; i < L2Config{}.requestCap; ++i) {
        auto pkt = f.request(CohKind::GetS, i, 0x1000 + i);
        EXPECT_TRUE(f.bank.tryAccept(*pkt));
    }
    auto extra = f.request(CohKind::GetS, 60, 0x2000);
    EXPECT_FALSE(f.bank.tryAccept(*extra));
    EXPECT_GT(f.group.counter("l2_admission_refusals").value(), 0u);
    // ...coherence responses always sink.
    auto ack = noc::makePacket(PacketClass::CohCtrl, 3, 64, 0x100);
    setKind(*ack, CohKind::InvAck, 3);
    EXPECT_TRUE(f.bank.tryAccept(*ack));
}

TEST(L2, AdmissionSlotsReturnAfterCompletion)
{
    L2Fixture f;
    auto pkt = f.request(CohKind::GetS, 3, 0x100);
    ASSERT_TRUE(f.bank.tryAccept(*pkt));
    EXPECT_EQ(f.bank.admittedRequests(), 1);
    f.bank.deliver(std::move(pkt), 0);
    f.tickTo(20);
    EXPECT_EQ(f.bank.admittedRequests(), 0);
    f.unblock(3, 0x100);
    f.tickTo(22);
    EXPECT_TRUE(f.bank.idle(f.now));
}

TEST(L2, PutMOccupiesBankForFullWriteLatency)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::GetM, 3, 0x100), 0);
    f.tickTo(10); // 3 owns in M
    f.unblock(3, 0x100);
    f.bank.deliver(f.request(CohKind::PutM, 3, 0x100), 10);
    f.tickTo(42); // 33-cycle write not quite done (starts ~cycle 10)
    EXPECT_EQ(f.sender.countOf(CohKind::WbAck), 0u);
    f.tickTo(50);
    auto wback = f.sender.findLast(CohKind::WbAck);
    ASSERT_NE(wback, nullptr);
    EXPECT_EQ(f.bank.dirEntry(0x100), nullptr); // back to I
    EXPECT_GE(f.group.counter("bank_writes").value(), 1u);
}

TEST(L2, StalePutMIsAckedAndDropped)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::PutM, 9, 0x200), 0);
    f.tickTo(5);
    EXPECT_EQ(f.sender.countOf(CohKind::WbAck), 1u);
    EXPECT_EQ(f.group.counter("l2_stale_putm").value(), 1u);
    EXPECT_EQ(f.group.counter("bank_writes").value(), 0u);
}

TEST(L2, MissFetchesFromMemoryAndFillsWithWrite)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x300, /*l2hit=*/false),
                   0);
    f.tickTo(5);
    ASSERT_FALSE(f.sender.sent.empty());
    auto memreq = f.sender.sent.back();
    EXPECT_EQ(memreq->cls, PacketClass::MemReq);
    EXPECT_EQ(f.group.counter("l2_misses").value(), 1u);

    f.tickTo(320);
    auto resp = noc::makePacket(PacketClass::MemResp, memreq->dest, 64,
                                0x300);
    f.bank.deliver(std::move(resp), 320);
    f.tickTo(330);
    EXPECT_EQ(f.sender.countOf(CohKind::Data), 0u); // fill write running
    f.tickTo(360);
    auto data = f.sender.findLast(CohKind::Data);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(static_cast<Grant>(data->info.aux), Grant::E);
}

TEST(L2, RequestsToBusyBlockAreSerialised)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::GetS, 3, 0x100), 0);
    f.bank.deliver(f.request(CohKind::GetS, 5, 0x100), 0);
    EXPECT_EQ(f.bank.tbeCount(), 1u);
    EXPECT_EQ(f.group.counter("l2_blocked_requests").value(), 1u);
    f.tickTo(10);
    // The grant to 3 is in flight; the blocked GetS waits for 3's
    // Unblock, after which it triggers a recall of the new owner.
    EXPECT_EQ(f.sender.countOf(CohKind::Recall), 0u);
    f.unblock(3, 0x100);
    f.tickTo(12);
    auto recall = f.sender.findLast(CohKind::Recall);
    ASSERT_NE(recall, nullptr);
    EXPECT_EQ(recall->dest, 3);
}

TEST(L2, PutMRacingRecallIsInterceptedAsPayload)
{
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::GetM, 3, 0x100), 0);
    f.tickTo(10); // 3 owns M
    f.unblock(3, 0x100);
    f.bank.deliver(f.request(CohKind::GetM, 5, 0x100), 10);
    f.tickTo(12); // recall sent to 3
    EXPECT_EQ(f.sender.countOf(CohKind::Recall), 1u);
    // 3's eviction PutM arrives instead of RecallData.
    f.bank.deliver(f.request(CohKind::PutM, 3, 0x100), 20);
    f.tickTo(60); // dirty data written (33 cycles), then requester served
    EXPECT_EQ(f.sender.countOf(CohKind::WbAck), 1u);
    auto data = f.sender.findLast(CohKind::Data);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->dest, 5);
    EXPECT_EQ(static_cast<Grant>(data->info.aux), Grant::M);
    f.unblock(5, 0x100);
    f.tickTo(62);
    EXPECT_TRUE(f.bank.idle(f.now));
}

TEST(L2, RecallAckWithPutMInFlightProceedsAndDropsStragglerPutM)
{
    // Waiting for the in-flight PutM could deadlock against bounded
    // write admission (the PutM may be parked behind refused writes),
    // so the directory serves the requester from the bank copy at once
    // and later drops the stale PutM.
    L2Fixture f;
    f.bank.deliver(f.request(CohKind::GetM, 3, 0x100), 0);
    f.tickTo(10);
    f.unblock(3, 0x100);
    f.bank.deliver(f.request(CohKind::GetM, 5, 0x100), 10);
    f.tickTo(12);
    auto rack = noc::makePacket(PacketClass::CohCtrl, 3, 64, 0x100);
    setKind(*rack, CohKind::RecallAck, 3);
    rack->info.flags |= coherence::kFlagPutMInFlight;
    f.bank.deliver(std::move(rack), 20);
    f.tickTo(40);
    EXPECT_EQ(f.sender.countOf(CohKind::Data), 2u); // served already
    f.unblock(5, 0x100);
    f.bank.deliver(f.request(CohKind::PutM, 3, 0x100), 40);
    f.tickTo(60);
    EXPECT_EQ(f.group.counter("l2_stale_putm").value(), 1u);
    EXPECT_EQ(f.sender.countOf(CohKind::WbAck), 1u);
    EXPECT_TRUE(f.bank.idle(f.now));
}

} // namespace
} // namespace stacknoc
