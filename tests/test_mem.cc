/**
 * @file
 * Unit tests for the memory substrate: Table 2 technology parameters,
 * the timed bank model, the plain FIFO controller, the Sun et al. write
 * buffer with read preemption, and the memory controllers.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/bank_controller.hh"
#include "mem/bank_model.hh"
#include "mem/memory_controller.hh"
#include "noc/network_interface.hh"
#include "mem/tech.hh"

namespace stacknoc {
namespace {

using mem::BankController;
using mem::BankControllerConfig;
using mem::BankModel;
using mem::BankRequest;
using mem::CacheTech;

TEST(Tech, Table2Values)
{
    const auto &sram = mem::bankTech(CacheTech::Sram);
    EXPECT_EQ(sram.readCycles, 3u);
    EXPECT_EQ(sram.writeCycles, 3u);
    EXPECT_DOUBLE_EQ(sram.leakagePowerMW, 444.6);
    EXPECT_DOUBLE_EQ(sram.capacityMB, 1.0);

    const auto &stt = mem::bankTech(CacheTech::SttRam);
    EXPECT_EQ(stt.readCycles, 3u);
    EXPECT_EQ(stt.writeCycles, 33u);
    EXPECT_DOUBLE_EQ(stt.leakagePowerMW, 190.5);
    EXPECT_DOUBLE_EQ(stt.writeEnergyNJ, 0.765);
    EXPECT_DOUBLE_EQ(stt.capacityMB, 4.0);
    // The paper's "11x larger than router hop latency" ratio.
    EXPECT_EQ(stt.writeCycles / 3, 11u);
}

TEST(BankModel, TimingAndOccupancy)
{
    stats::Group g("cache");
    BankModel bank(CacheTech::SttRam, g);
    EXPECT_FALSE(bank.busy(0));
    EXPECT_EQ(bank.startRead(10), 13u);
    EXPECT_TRUE(bank.busy(12));
    EXPECT_FALSE(bank.busy(13));
    EXPECT_EQ(bank.startWrite(13), 46u);
    EXPECT_TRUE(bank.writingNow(20));
    EXPECT_FALSE(bank.busy(46));
    EXPECT_EQ(g.counter("bank_reads").value(), 1u);
    EXPECT_EQ(g.counter("bank_writes").value(), 1u);
    EXPECT_EQ(g.counter("bank_busy_cycles").value(), 36u);
}

TEST(BankModel, AbortFreesBank)
{
    stats::Group g("cache");
    BankModel bank(CacheTech::SttRam, g);
    bank.startWrite(0);
    EXPECT_TRUE(bank.busy(5));
    bank.abort(5);
    EXPECT_FALSE(bank.busy(5));
    EXPECT_EQ(g.counter("bank_write_aborts").value(), 1u);
}

/** A test bank's owner callback: records every (address, cycle). */
struct DoneLog
{
    std::vector<std::pair<BlockAddr, Cycle>> done;

    BankController::DoneFn
    sink()
    {
        return [this](BlockAddr addr, Cycle t) {
            done.emplace_back(addr, t);
        };
    }

    /** Completion cycles of @p addr, oldest first. */
    std::vector<Cycle>
    at(BlockAddr addr) const
    {
        std::vector<Cycle> out;
        for (const auto &[a, t] : done) {
            if (a == addr)
                out.push_back(t);
        }
        return out;
    }
};

TEST(BankController, PlainFifoSerialisesRequests)
{
    stats::Group g("cache");
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, BankControllerConfig{}, g,
                        log.sink());

    ctrl.enqueue(BankRequest{true, 0x10}, 0);
    ctrl.enqueue(BankRequest{false, 0x20}, 0);
    ctrl.enqueue(BankRequest{false, 0x30}, 0);

    for (Cycle t = 0; t <= 100; ++t)
        ctrl.tick(t);
    // Write starts at 0 (done 33), read at 33 (done 36), read at 36
    // (done 39).
    const std::vector<std::pair<BlockAddr, Cycle>> expect{
        {0x10, 33}, {0x20, 36}, {0x30, 39}};
    EXPECT_EQ(log.done, expect);
    EXPECT_TRUE(ctrl.idle(101));
    EXPECT_EQ(g.counter("bank_requests_served").value(), 3u);
}

TEST(BankController, QueueLatencyMeasuresWaiting)
{
    stats::Group g("cache");
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, BankControllerConfig{}, g,
                        log.sink());
    ctrl.enqueue(BankRequest{true, 1}, 0);
    ctrl.enqueue(BankRequest{false, 2}, 0);
    for (Cycle t = 0; t <= 40; ++t)
        ctrl.tick(t);
    // The read waited 33 cycles behind the write.
    EXPECT_DOUBLE_EQ(g.average("bank_queue_latency").mean(), 33.0 / 2);
}

TEST(BankController, GapAfterWriteDistribution)
{
    stats::Group g("cache");
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, BankControllerConfig{}, g,
                        log.sink());
    ctrl.enqueue(BankRequest{true, 1}, 100);   // write
    ctrl.enqueue(BankRequest{false, 2}, 110);  // gap 10
    ctrl.enqueue(BankRequest{false, 3}, 120);  // after a read
    ctrl.enqueue(BankRequest{true, 4}, 200);   // write
    ctrl.enqueue(BankRequest{false, 5}, 240);  // gap 40
    const auto &d = g.distribution("gap_after_write",
                                   {16, 33, 66, 99, 132, 165});
    EXPECT_EQ(d.total(), 2u);   // only accesses following a write
    EXPECT_EQ(d.binCount(0), 1u); // gap 10 -> [0,16)
    EXPECT_EQ(d.binCount(2), 1u); // gap 40 -> [33,66)
}

BankControllerConfig
buffConfig()
{
    BankControllerConfig c;
    c.writeBuffer = true;
    c.writeBufferEntries = 20;
    return c;
}

TEST(WriteBuffer, WritesCompleteAtBufferSpeed)
{
    stats::Group g("cache");
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, buffConfig(), g, log.sink());
    ctrl.enqueue(BankRequest{true, 0x1}, 0);
    for (Cycle t = 0; t <= 10; ++t)
        ctrl.tick(t);
    // 1-cycle check + 3-cycle SRAM buffer write: far below 33 cycles.
    ASSERT_EQ(log.at(0x1).size(), 1u);
    EXPECT_LE(log.at(0x1)[0], 5u);
    EXPECT_EQ(ctrl.bufferDepth(), 1u); // still draining to STT-RAM
    for (Cycle t = 11; t <= 60; ++t)
        ctrl.tick(t);
    EXPECT_EQ(ctrl.bufferDepth(), 0u); // drained
    EXPECT_EQ(log.done.size(), 1u);    // the drain completes no request
}

TEST(WriteBuffer, ReadHitsInBuffer)
{
    stats::Group g("cache");
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, buffConfig(), g, log.sink());
    ctrl.enqueue(BankRequest{true, 0x1}, 0);
    ctrl.tick(0);
    ctrl.tick(1); // write admitted into buffer at cycle 1
    ctrl.enqueue(BankRequest{false, 0x1}, 2);
    for (Cycle t = 2; t <= 10; ++t)
        ctrl.tick(t);
    // The buffered write completes first, then the read it serves.
    const std::vector<Cycle> done = log.at(0x1);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_LE(done[1], 7u);
    EXPECT_EQ(g.counter("write_buffer_hits").value(), 1u);
}

TEST(WriteBuffer, ReadPreemptsDrainWrite)
{
    stats::Group g("cache");
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, buffConfig(), g, log.sink());
    ctrl.enqueue(BankRequest{true, 0x1}, 0);
    for (Cycle t = 0; t <= 6; ++t)
        ctrl.tick(t); // write buffered and drain started
    ctrl.enqueue(BankRequest{false, 0x2}, 7);
    for (Cycle t = 7; t <= 60; ++t)
        ctrl.tick(t);
    EXPECT_EQ(g.counter("write_buffer_preemptions").value(), 1u);
    ASSERT_EQ(log.at(0x2).size(), 1u);
    // The read did not wait for the 33-cycle drain to finish.
    EXPECT_LE(log.at(0x2)[0], 12u);
    EXPECT_EQ(ctrl.bufferDepth(), 0u); // drain restarted and finished
}

TEST(WriteBuffer, NoPreemptionWhenDisabled)
{
    stats::Group g("cache");
    auto cfg = buffConfig();
    cfg.readPreemption = false;
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, cfg, g, log.sink());
    ctrl.enqueue(BankRequest{true, 0x1}, 0);
    for (Cycle t = 0; t <= 6; ++t)
        ctrl.tick(t);
    ctrl.enqueue(BankRequest{false, 0x2}, 7);
    for (Cycle t = 7; t <= 80; ++t)
        ctrl.tick(t);
    EXPECT_EQ(g.counter("write_buffer_preemptions").value(), 0u);
    ASSERT_EQ(log.at(0x2).size(), 1u);
    EXPECT_GT(log.at(0x2)[0], 33u); // had to wait out the drain
}

TEST(WriteBuffer, FullBufferBackpressuresWrites)
{
    stats::Group g("cache");
    auto cfg = buffConfig();
    cfg.writeBufferEntries = 2;
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, cfg, g, log.sink());
    for (int i = 0; i < 4; ++i)
        ctrl.enqueue(BankRequest{true, static_cast<BlockAddr>(i)}, 0);
    for (Cycle t = 0; t <= 5; ++t)
        ctrl.tick(t);
    EXPECT_EQ(ctrl.bufferDepth(), 2u);
    EXPECT_EQ(ctrl.queueDepth(), 2u); // waiting for drains
    for (Cycle t = 6; t <= 200; ++t)
        ctrl.tick(t);
    EXPECT_TRUE(ctrl.idle(201)); // everything eventually drains
    EXPECT_EQ(log.done.size(), 4u);
}

TEST(ReadPriority, QueuedReadsOvertakeQueuedWrites)
{
    stats::Group g("cache");
    BankControllerConfig cfg;
    cfg.readPriority = true;
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, cfg, g, log.sink());
    // Bank starts write #1 at t=0; write #2 and a read queue behind it.
    ctrl.enqueue(BankRequest{true, 1}, 0);
    ctrl.tick(0);
    ctrl.enqueue(BankRequest{true, 2}, 1);
    ctrl.enqueue(BankRequest{false, 3}, 2);
    for (Cycle t = 1; t <= 120; ++t)
        ctrl.tick(t);
    ASSERT_EQ(log.at(3).size(), 1u);
    // FIFO would serve the read at 33+33+3 = 69; read priority brings
    // it right after the (possibly preempted) first write.
    EXPECT_LE(log.at(3)[0], 40u);
    EXPECT_TRUE(ctrl.idle(121));
}

TEST(ReadPriority, ReadPreemptsInServiceWrite)
{
    stats::Group g("cache");
    BankControllerConfig cfg;
    cfg.readPriority = true;
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, cfg, g, log.sink());
    ctrl.enqueue(BankRequest{true, 1}, 0);
    ctrl.tick(0); // 33-cycle write starts
    ctrl.enqueue(BankRequest{false, 2}, 10);
    for (Cycle t = 1; t <= 120; ++t)
        ctrl.tick(t);
    EXPECT_EQ(g.counter("write_buffer_preemptions").value(), 1u);
    ASSERT_EQ(log.at(2).size(), 1u);
    EXPECT_LE(log.at(2)[0], 16u); // did not wait the write out
    // The aborted write restarted and completed.
    EXPECT_EQ(g.counter("bank_writes").value(), 2u); // original + retry
    EXPECT_EQ(log.at(1).size(), 1u);
    EXPECT_TRUE(ctrl.idle(121));
}

TEST(ReadPriority, WritesStillCompleteUnderReadPressure)
{
    stats::Group g("cache");
    BankControllerConfig cfg;
    cfg.readPriority = true;
    DoneLog log;
    BankController ctrl(CacheTech::SttRam, cfg, g, log.sink());
    ctrl.enqueue(BankRequest{true, 1}, 0);
    for (int i = 0; i < 5; ++i)
        ctrl.enqueue(BankRequest{false, static_cast<BlockAddr>(10 + i)}, 0);
    for (Cycle t = 0; t <= 200; ++t)
        ctrl.tick(t);
    EXPECT_EQ(log.at(1).size(), 1u); // the write eventually lands
    EXPECT_TRUE(ctrl.idle(201));
}

TEST(WriteBuffer, SramBankGainsLittle)
{
    // With a 3-cycle SRAM bank the buffer cannot hide anything: final
    // completion times of a write+read pair are close either way —
    // matching the paper's observation that the techniques only matter
    // for long-latency writes.
    auto last_done = [](bool use_buffer) {
        stats::Group g("cache");
        BankControllerConfig cfg;
        cfg.writeBuffer = use_buffer;
        DoneLog log;
        BankController ctrl(CacheTech::Sram, cfg, g, log.sink());
        ctrl.enqueue(BankRequest{true, 1}, 0);
        ctrl.enqueue(BankRequest{false, 2}, 0);
        for (Cycle t = 0; t <= 50; ++t)
            ctrl.tick(t);
        return log.at(2).at(0);
    };
    const Cycle plain = last_done(false);
    const Cycle buffered = last_done(true);
    EXPECT_LE(buffered + 2, plain + 6); // within a few cycles
}

TEST(MemoryController, FixedLatencyAndBoundedInFlight)
{
    stats::Group net_stats("net"), mem_stats("mem");
    noc::NocParams params;
    // An unconnected NI still queues injected packets, which is all the
    // controller needs for this test.
    noc::NetworkInterface ni("ni64", 64, params, net_stats);
    mem::DramParams dram;
    dram.accessCycles = 320;
    dram.maxInFlight = 4;
    mem::MemoryController mc("mc64", 64, ni, dram, mem_stats);

    for (int i = 0; i < 10; ++i) {
        auto req = noc::makePacket(noc::PacketClass::MemReq, 70, 64,
                                   static_cast<BlockAddr>(0x100 + i));
        req->destBank = 6;
        req->ejectedAt = 0;
        mc.deliver(std::move(req), 0);
    }
    mc.tick(0);
    EXPECT_EQ(mc.inFlight(), 4u);   // bounded window
    EXPECT_EQ(mc.queueDepth(), 6u); // the rest wait

    for (Cycle t = 1; t < 320; ++t)
        mc.tick(t);
    EXPECT_EQ(ni.injectQueueDepth(), 0u); // nothing done before 320
    mc.tick(320);
    EXPECT_EQ(ni.injectQueueDepth(), 4u); // first batch responds
    EXPECT_EQ(mc.inFlight(), 4u);         // next batch started
    // Three waves of four/four/two accesses: 320, 640, 960.
    for (Cycle t = 321; t <= 960; ++t)
        mc.tick(t);
    EXPECT_EQ(ni.injectQueueDepth(), 10u); // all responses injected
    EXPECT_EQ(mem_stats.counter("dram_reads").value(), 10u);
}

TEST(MemoryController, WritesConsumeBandwidthWithoutResponses)
{
    stats::Group net_stats("net"), mem_stats("mem");
    noc::NocParams params;
    noc::NetworkInterface ni("ni64", 64, params, net_stats);
    mem::MemoryController mc("mc64", 64, ni, mem::DramParams{},
                             mem_stats);
    auto wr = noc::makePacket(noc::PacketClass::MemWrite, 70, 64, 0x5);
    wr->ejectedAt = 0;
    mc.deliver(std::move(wr), 0);
    for (Cycle t = 0; t <= 400; ++t)
        mc.tick(t);
    EXPECT_EQ(mem_stats.counter("dram_writes").value(), 1u);
    EXPECT_EQ(ni.injectQueueDepth(), 0u); // fire-and-forget
}

} // namespace
} // namespace stacknoc
