/**
 * @file
 * The fault-injection & resilience subsystem: spec parsing, per-site
 * stream determinism, write-retry accounting reconciling exactly,
 * recovery paths staying invariant-clean, thread-count bit-identity
 * with faults active, and the watchdog converting a wedged router into
 * a recorded diagnosis.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/fault_injector.hh"
#include "fault/fault_spec.hh"
#include "fault/watchdog.hh"
#include "system/cmp_system.hh"

namespace stacknoc {
namespace {

std::uint64_t
counterOf(const stats::Group &g, const char *name)
{
    const stats::Counter *c = g.findCounter(name);
    return c ? c->value() : 0;
}

// --------------------------------------------------------------- spec

TEST(FaultSpec, ParsesFullSpec)
{
    fault::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(fault::parseFaultSpec(
        "stt_write_ber=1e-3,stt_write_retries=5,tsb_flit_ber=1e-6,"
        "link_flit_ber=2e-5,flit_retries=3,flit_retry_penalty=64,"
        "router_stuck=4:2200-2400",
        spec, err))
        << err;
    EXPECT_DOUBLE_EQ(spec.sttWriteBer, 1e-3);
    EXPECT_EQ(spec.sttWriteRetries, 5);
    EXPECT_DOUBLE_EQ(spec.tsbFlitBer, 1e-6);
    EXPECT_DOUBLE_EQ(spec.linkFlitBer, 2e-5);
    EXPECT_EQ(spec.flitRetries, 3);
    EXPECT_EQ(spec.flitRetryPenalty, Cycle{64});
    EXPECT_EQ(spec.stuckRouter, NodeId{4});
    EXPECT_EQ(spec.stuckFrom, Cycle{2200});
    EXPECT_EQ(spec.stuckTo, Cycle{2400});
    EXPECT_TRUE(spec.any());
}

TEST(FaultSpec, EmptyAndZeroSpecsAreInactive)
{
    fault::FaultSpec spec;
    EXPECT_FALSE(spec.any());
    std::string err;
    ASSERT_TRUE(fault::parseFaultSpec("stt_write_ber=0", spec, err));
    EXPECT_FALSE(spec.any());
}

TEST(FaultSpec, RejectsMalformedInput)
{
    fault::FaultSpec spec;
    std::string err;
    EXPECT_FALSE(fault::parseFaultSpec("bogus=1", spec, err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_FALSE(fault::parseFaultSpec("stt_write_ber=2.0", spec, err));
    EXPECT_FALSE(fault::parseFaultSpec("stt_write_ber", spec, err));
    EXPECT_FALSE(fault::parseFaultSpec("router_stuck=4", spec, err));
    EXPECT_FALSE(
        fault::parseFaultSpec("router_stuck=4:300-200", spec, err));
    EXPECT_FALSE(fault::parseFaultSpec("stt_write_retries=99", spec,
                                       err));
}

TEST(FaultSpec, RoundTripsThroughToString)
{
    fault::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(fault::parseFaultSpec(
        "stt_write_ber=1e-3,router_stuck=4:10-20", spec, err));
    fault::FaultSpec again;
    ASSERT_TRUE(fault::parseFaultSpec(spec.toString(), again, err))
        << spec.toString() << ": " << err;
    EXPECT_DOUBLE_EQ(again.sttWriteBer, spec.sttWriteBer);
    EXPECT_EQ(again.stuckRouter, spec.stuckRouter);
    EXPECT_EQ(again.stuckTo, spec.stuckTo);
}

// ---------------------------------------------------------- injector

TEST(FaultInjector, DrawsAreDeterministicPerSite)
{
    fault::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(fault::parseFaultSpec("stt_write_ber=0.5", spec, err));
    const MeshShape shape(4, 4, 2);

    fault::FaultInjector a(spec, 42, shape, 16);
    fault::FaultInjector b(spec, 42, shape, 16);
    for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(a.drawWriteFailure(3), b.drawWriteFailure(3));
        EXPECT_EQ(a.drawWriteFailure(7), b.drawWriteFailure(7));
    }

    // A different seed diverges somewhere within a few hundred draws.
    fault::FaultInjector c(spec, 43, shape, 16);
    int diffs = 0;
    for (int i = 0; i < 256; ++i)
        diffs += a.drawWriteFailure(3) != c.drawWriteFailure(3);
    EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, ZeroRateDrawsNeverAdvanceState)
{
    // rate <= 0 must return false without consuming randomness, so a
    // zero-rate campaign is bit-identical to no campaign even for
    // sites that share a stream with an active fault class.
    fault::FaultSpec zero;
    const MeshShape shape(4, 4, 2);
    fault::FaultInjector inj(zero, 1, shape, 16);
    for (int i = 0; i < 64; ++i) {
        EXPECT_FALSE(inj.drawWriteFailure(0));
        EXPECT_FALSE(inj.drawPacketCorruption(0, 17, 5));
        EXPECT_FALSE(inj.routerStuckNow(0, static_cast<Cycle>(i)));
    }
    EXPECT_EQ(counterOf(inj.stats(), "router_stuck_cycles"), 0u);
}

// ------------------------------------------------- system-level runs

system::SystemConfig
faultConfig(const std::string &spec_text, int threads = 1,
            sttnoc::DelayMode mode = sttnoc::DelayMode::Priority)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.scenario.delayMode = mode;
    cfg.apps = {"tpcc"};
    cfg.seed = 11;
    cfg.threads = threads;
    cfg.validate = true;
    cfg.validation.failFast = false;
    if (!spec_text.empty()) {
        std::string err;
        EXPECT_TRUE(fault::parseFaultSpec(spec_text, cfg.faults, err))
            << err;
        cfg.faultsEnabled = cfg.faults.any();
    }
    return cfg;
}

TEST(FaultSystem, WriteRetryAccountingReconciles)
{
    system::CmpSystem sys(faultConfig("stt_write_ber=1e-2"));
    sys.run(8000);

    ASSERT_NE(sys.faults(), nullptr);
    const stats::Group &g = sys.faults()->stats();
    const std::uint64_t failures = counterOf(g, "stt_write_failures");
    const std::uint64_t rounds = counterOf(g, "stt_write_retry_rounds");
    const std::uint64_t abandoned =
        counterOf(g, "stt_writes_abandoned");
    ASSERT_GT(failures, 0u) << "ber=1e-2 over 8000 cycles must fail "
                               "at least one write";
    // Every draw failure either buys another retry round or abandons
    // the write; the three counters must reconcile exactly.
    EXPECT_EQ(rounds, failures - abandoned);
    EXPECT_EQ(sys.validation()->violations().size(), 0u);
}

TEST(FaultSystem, LowRateRunStaysInvariantClean)
{
    system::CmpSystem sys(
        faultConfig("stt_write_ber=1e-3,link_flit_ber=2e-4,"
                    "tsb_flit_ber=1e-4"));
    sys.warmup(1000);
    sys.run(8000);
    EXPECT_EQ(sys.validation()->violations().size(), 0u);

    const stats::Group &g = sys.faults()->stats();
    // Link accounting: every corrupted packet ends recovered or
    // dropped (none may be still pending at these budgets and rates).
    EXPECT_EQ(counterOf(g, "link_packets_corrupted"),
              counterOf(g, "link_packets_recovered") +
                  counterOf(g, "link_packets_dropped"));
}

TEST(FaultSystem, ExtremeRateAbandonsWrites)
{
    system::CmpSystem sys(
        faultConfig("stt_write_ber=0.9,stt_write_retries=1"));
    sys.run(6000);
    const stats::Group &g = sys.faults()->stats();
    EXPECT_GT(counterOf(g, "stt_writes_abandoned"), 0u);
    EXPECT_EQ(counterOf(g, "stt_write_retry_rounds"),
              counterOf(g, "stt_write_failures") -
                  counterOf(g, "stt_writes_abandoned"));
    // Even at 90% write failure the system must not wedge or leak.
    EXPECT_EQ(sys.validation()->violations().size(), 0u);
}

TEST(FaultSystem, HoldModeBusyNackConservesPackets)
{
    system::CmpSystem sys(faultConfig("stt_write_ber=5e-2", 1,
                                      sttnoc::DelayMode::Hold));
    sys.run(8000);
    EXPECT_EQ(sys.validation()->violations().size(), 0u);
    // The recovery path was actually exercised.
    EXPECT_GT(counterOf(sys.faults()->stats(), "busy_nacks_sent"), 0u);
    ASSERT_NE(sys.policy(), nullptr);
    EXPECT_GT(counterOf(sys.policy()->stats(), "busy_nacks"), 0u);
}

TEST(FaultSystem, ResultsBitIdenticalAcrossThreadCounts)
{
    const char *spec =
        "stt_write_ber=1e-2,link_flit_ber=2e-4,tsb_flit_ber=1e-4";
    auto digest = [&](int threads) {
        system::CmpSystem sys(faultConfig(spec, threads));
        sys.warmup(500);
        sys.run(4000);
        EXPECT_EQ(sys.validation()->violations().size(), 0u)
            << "threads=" << threads;
        std::ostringstream os;
        sys.dumpStats(os);
        return os.str();
    };
    const std::string t1 = digest(1);
    EXPECT_EQ(t1, digest(2));
    EXPECT_EQ(t1, digest(4));
}

TEST(FaultSystem, ZeroRateSpecMatchesNoSpec)
{
    // With every rate zero the injector must be a strict no-op: the
    // shared statistic groups (everything except the extra "faults"
    // group itself) are bit-identical to a run without an injector.
    auto shared_digest = [&](bool with_injector) {
        system::SystemConfig cfg = faultConfig("");
        if (with_injector) {
            cfg.faultsEnabled = true; // all-zero spec, forced on
        }
        system::CmpSystem sys(cfg);
        sys.warmup(500);
        sys.run(4000);
        std::ostringstream os;
        sys.cacheStats().dump(os);
        sys.coreStats().dump(os);
        sys.memStats().dump(os);
        sys.network().stats().dump(os);
        if (sys.policy())
            sys.policy()->stats().dump(os);
        return os.str();
    };
    EXPECT_EQ(shared_digest(false), shared_digest(true));
}

// ----------------------------------------------------------- watchdog

TEST(Watchdog, WedgedRouterTriggersDeadlockDiagnosis)
{
    // Wedge a cache-layer router forever; traffic through it stops
    // draining and the watchdog must fire (recorded, not fatal, so the
    // test can inspect the diagnosis).
    system::SystemConfig cfg =
        faultConfig("router_stuck=16:500-100000000");
    cfg.validate = false; // conservation legitimately stalls mid-wedge
    cfg.watchdogEnabled = true;
    cfg.watchdog.stallCycles = 2000;
    cfg.watchdog.failFast = false;
    system::CmpSystem sys(cfg);
    sys.run(20000);

    ASSERT_NE(sys.watchdogProbe(), nullptr);
    EXPECT_TRUE(sys.watchdogProbe()->fired());
    EXPECT_GT(sys.watchdogProbe()->firedAt(), Cycle{500});
    EXPECT_NE(sys.watchdogProbe()->diagnosis().find("deadlock"),
              std::string::npos);
}

TEST(Watchdog, StarvationBoundCatchesAgedPacket)
{
    system::SystemConfig cfg =
        faultConfig("router_stuck=16:500-100000000");
    cfg.validate = false;
    cfg.watchdogEnabled = true;
    cfg.watchdog.stallCycles = 1000000; // never: isolate the age bound
    cfg.watchdog.maxPacketAge = 3000;
    cfg.watchdog.failFast = false;
    system::CmpSystem sys(cfg);
    sys.run(20000);

    ASSERT_TRUE(sys.watchdogProbe()->fired());
    EXPECT_NE(sys.watchdogProbe()->diagnosis().find("starvation"),
              std::string::npos);
}

TEST(Watchdog, QuietOnHealthyRun)
{
    system::SystemConfig cfg = faultConfig("stt_write_ber=1e-3");
    cfg.watchdogEnabled = true;
    cfg.watchdog.stallCycles = 2000;
    cfg.watchdog.maxPacketAge = 5000;
    cfg.watchdog.failFast = false;
    system::CmpSystem sys(cfg);
    sys.warmup(1000);
    sys.run(10000);
    EXPECT_FALSE(sys.watchdogProbe()->fired());
    EXPECT_EQ(sys.validation()->violations().size(), 0u);
}

} // namespace
} // namespace stacknoc
