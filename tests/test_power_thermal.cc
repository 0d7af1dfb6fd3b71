/**
 * @file
 * Power & thermal observability: the streaming EnergyProbe must
 * reconcile with the end-of-run computeEnergy (the two paths can never
 * drift), fault-path work must cost energy, and the thermal RC solver
 * must hit its analytic steady state, respond monotonically to power,
 * and be bit-identical at any engine thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_spec.hh"
#include "system/cmp_system.hh"
#include "system/scenario.hh"
#include "telemetry/power.hh"
#include "telemetry/thermal.hh"

namespace stacknoc {
namespace {

// ------------------------------------------------- thermal solver

telemetry::ThermalParams
solverParams()
{
    telemetry::ThermalParams p;
    // Defaults, stated explicitly so the analytic expectations below
    // stay valid if the shipped defaults are ever retuned.
    p.ambientC = 45.0;
    p.cellCapacityJPerK = 5e-8;
    p.lateralWPerK = 0.010;
    p.verticalWPerK = 0.020;
    p.sinkWPerK = 0.002;
    return p;
}

std::vector<std::vector<double>>
uniformPower(int width, int height, int layers, double watts)
{
    return std::vector<std::vector<double>>(
        static_cast<std::size_t>(layers),
        std::vector<double>(static_cast<std::size_t>(width * height),
                            watts));
}

TEST(ThermalSolver, UniformPowerReachesAnalyticSteadyState)
{
    const telemetry::ThermalParams p = solverParams();
    telemetry::ThermalGrid grid(4, 4, 2, p);
    const double watts = 0.05;
    const auto power = uniformPower(4, 4, 2, watts);

    // tau = C / Gsink = 25 us; integrate for 3 ms >> tau.
    for (int i = 0; i < 3000; ++i)
        grid.step(power, 1e-6);

    // Uniform power: lateral and vertical flows cancel by symmetry,
    // every cell settles at ambient + P / Gsink.
    const double expected = p.ambientC + watts / p.sinkWPerK;
    for (int layer = 0; layer < 2; ++layer) {
        for (int y = 0; y < 4; ++y) {
            for (int x = 0; x < 4; ++x) {
                EXPECT_NEAR(grid.cellC(x, y, layer), expected, 1e-6)
                    << "cell (" << x << "," << y << "," << layer << ")";
            }
        }
    }
    EXPECT_NEAR(grid.layerMaxC(0), expected, 1e-6);
    EXPECT_NEAR(grid.layerMeanC(1), expected, 1e-6);
}

TEST(ThermalSolver, ZeroPowerStaysAtAmbient)
{
    const telemetry::ThermalParams p = solverParams();
    telemetry::ThermalGrid grid(4, 4, 2, p);
    const auto power = uniformPower(4, 4, 2, 0.0);
    for (int i = 0; i < 100; ++i)
        grid.step(power, 1e-6);
    for (int layer = 0; layer < 2; ++layer)
        EXPECT_DOUBLE_EQ(grid.layerMaxC(layer), p.ambientC);
}

TEST(ThermalSolver, MorePowerInACellMeansHigherTemperature)
{
    const telemetry::ThermalParams p = solverParams();
    telemetry::ThermalGrid base(4, 4, 2, p);
    telemetry::ThermalGrid hot(4, 4, 2, p);

    auto base_power = uniformPower(4, 4, 2, 0.02);
    auto hot_power = base_power;
    hot_power[1][2 * 4 + 1] += 0.05; // cell (1, 2) on the cache layer

    for (int i = 0; i < 500; ++i) {
        base.step(base_power, 1e-6);
        hot.step(hot_power, 1e-6);
    }

    EXPECT_GT(hot.cellC(1, 2, 1), base.cellC(1, 2, 1));
    // Every temperature sits at or above ambient under non-negative
    // power, and the heated cell is the hottest cell of the grid.
    EXPECT_GE(base.layerMaxC(0), p.ambientC);
    const auto hottest = hot.hottest();
    EXPECT_EQ(hottest.layer, 1);
    EXPECT_EQ(hottest.x, 1);
    EXPECT_EQ(hottest.y, 2);
    EXPECT_GT(hottest.tempC, hot.layerMeanC(1));
}

TEST(ThermalSolver, LargeStepsAreSubsteppedStably)
{
    const telemetry::ThermalParams p = solverParams();
    telemetry::ThermalGrid grid(4, 4, 2, p);
    const double watts = 0.05;
    const auto power = uniformPower(4, 4, 2, watts);

    // One giant step; explicit Euler would explode without the
    // internal substepping (dt >> C / Gmax).
    grid.step(power, 0.01);
    EXPECT_GT(grid.substepsTaken(), 100u);

    const double expected = p.ambientC + watts / p.sinkWPerK;
    for (int layer = 0; layer < 2; ++layer) {
        EXPECT_GE(grid.layerMaxC(layer), p.ambientC);
        EXPECT_LE(grid.layerMaxC(layer), expected * 1.001);
    }
}

// --------------------------------------------- streaming energy

system::SystemConfig
powerConfig(int threads = 1, const std::string &fault_spec = "")
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.apps = {"tpcc"};
    cfg.seed = 7;
    cfg.threads = threads;
    cfg.power = true;
    cfg.thermal = true;
    // A period that does not divide the run length, so the final
    // partial interval path is exercised on every run.
    cfg.heatmapPeriod = 192;
    if (!fault_spec.empty()) {
        std::string err;
        EXPECT_TRUE(fault::parseFaultSpec(fault_spec, cfg.faults, err))
            << err;
        cfg.faultsEnabled = cfg.faults.any();
    }
    return cfg;
}

TEST(EnergyProbe, StreamingSumReconcilesWithComputeEnergy)
{
    system::CmpSystem sys(powerConfig());
    sys.warmup(1000);
    sys.run(5000);
    sys.finalizeTelemetry();

    const telemetry::EnergyProbe &p = *sys.power();
    const system::EnergyBreakdown e = sys.metrics().energy;

    auto rel = [](double a, double b) {
        const double base = std::max(std::abs(a), std::abs(b));
        return base > 0.0 ? std::abs(a - b) / base : 0.0;
    };
    EXPECT_LT(rel(p.totals().cacheDynamicUJ, e.cacheDynamicUJ), 1e-6);
    EXPECT_LT(rel(p.totals().cacheLeakageUJ, e.cacheLeakageUJ), 1e-6);
    EXPECT_LT(rel(p.totals().netDynamicUJ, e.netDynamicUJ), 1e-6);
    EXPECT_LT(rel(p.totals().netLeakageUJ, e.netLeakageUJ), 1e-6);
    EXPECT_LT(rel(p.totalUJ(), e.totalUJ()), 1e-6);
    EXPECT_GT(p.totalUJ(), 0.0);

    // The retained frames tile the measured window: first frame
    // starts at warm-up end, spans are contiguous, and the per-frame
    // splits sum back to the streaming totals.
    ASSERT_FALSE(p.frames().empty());
    EXPECT_EQ(p.frames().front().start, Cycle{1000});
    double frame_sum = 0.0;
    Cycle expect_start = 1000;
    for (const telemetry::PowerFrame &f : p.frames()) {
        EXPECT_EQ(f.start, expect_start);
        expect_start = f.end + 1;
        frame_sum += f.energy.totalUJ();
        ASSERT_EQ(f.powerW.size(), 2u);
        ASSERT_EQ(f.powerW[0].size(), 16u);
    }
    EXPECT_EQ(expect_start, Cycle{6000});
    EXPECT_LT(rel(frame_sum, p.totalUJ()), 1e-9);

    // finalize() is idempotent.
    sys.finalizeTelemetry();
    EXPECT_LT(rel(p.totalUJ(), e.totalUJ()), 1e-6);
}

TEST(EnergyProbe, FaultyRunReportsStrictlyMoreEnergy)
{
    const char *spec =
        "stt_write_ber=0.3,stt_write_retries=4,link_flit_ber=2e-4";

    // A low-MPKI workload keeps the banks far from saturation, so the
    // retry rounds and retransmissions run in otherwise-idle slots and
    // the fault-free twin serves essentially the same demand. (Under a
    // bank-saturating workload the closed-loop throughput loss can
    // shed more dynamic energy than the recovery work adds — deferred
    // work, not an accounting gap.)
    auto twin = [](const std::string &fault_spec) {
        system::SystemConfig cfg = powerConfig(1, fault_spec);
        cfg.apps = {"swaptions"};
        return cfg;
    };
    system::CmpSystem clean(twin(""));
    clean.warmup(1000);
    clean.run(6000);
    clean.finalizeTelemetry();

    system::CmpSystem faulty(twin(spec));
    faulty.warmup(1000);
    faulty.run(6000);
    faulty.finalizeTelemetry();

    // The fault campaign actually produced recovery work...
    ASSERT_GT(faulty.power()->totals().retryWriteUJ, 0.0);
    ASSERT_GT(faulty.power()->totals().retransmitFlitUJ, 0.0);
    EXPECT_EQ(clean.power()->totals().retryWriteUJ, 0.0);
    EXPECT_EQ(clean.power()->totals().retransmitFlitUJ, 0.0);

    // ...and both accounting paths price it in.
    EXPECT_GT(faulty.power()->totalUJ(), clean.power()->totalUJ());
    const system::EnergyBreakdown ef = faulty.metrics().energy;
    const system::EnergyBreakdown ec = clean.metrics().energy;
    EXPECT_GT(ef.retryWriteUJ, 0.0);
    EXPECT_GT(ef.retransmitFlitUJ, 0.0);
    EXPECT_EQ(ec.retryWriteUJ, 0.0);
    EXPECT_GT(ef.totalUJ(), ec.totalUJ());

    // The faulty run's streaming sum reconciles too (retry rounds and
    // retransmitted flits flow through per-site deltas on one side and
    // the fault-injector counters on the other).
    const double base = std::max(ef.totalUJ(),
                                 faulty.power()->totalUJ());
    EXPECT_LT(std::abs(faulty.power()->totalUJ() - ef.totalUJ()) / base,
              1e-6);
}

// One canonical dump of everything downstream consumers read, at full
// precision, so thread counts can be compared for bit-identity.
std::string
telemetryDigest(const system::CmpSystem &sys)
{
    std::ostringstream os;
    os << std::hexfloat;
    const telemetry::EnergyProbe &p = *sys.power();
    const telemetry::EnergyBreakdown &e = p.totals();
    os << "totals " << e.cacheDynamicUJ << ' ' << e.cacheLeakageUJ
       << ' ' << e.netDynamicUJ << ' ' << e.netLeakageUJ << ' '
       << e.retryWriteUJ << ' ' << e.retransmitFlitUJ << '\n';
    for (const telemetry::PowerFrame &f : p.frames()) {
        os << "P " << f.start << ' ' << f.end;
        for (const auto &grid : f.powerW)
            for (const double v : grid)
                os << ' ' << v;
        os << '\n';
    }
    const telemetry::ThermalProbe &t = *sys.thermal();
    os << "peak " << t.peakC() << '\n';
    for (const telemetry::ThermalFrame &f : t.frames()) {
        os << "T " << f.start << ' ' << f.end << ' '
           << f.hottest.layer << ' ' << f.hottest.x << ' '
           << f.hottest.y << ' ' << f.hottest.tempC;
        for (const auto &grid : f.tempC)
            for (const double v : grid)
                os << ' ' << v;
        os << '\n';
    }
    for (const auto &hb : t.hotBanks(8))
        os << "H " << hb.bank << ' ' << hb.tempC << '\n';
    return os.str();
}

TEST(EnergyProbe, BitIdenticalAcrossEngineThreadCounts)
{
    auto digest = [](int threads) {
        system::CmpSystem sys(powerConfig(threads));
        sys.warmup(500);
        sys.run(4000);
        sys.finalizeTelemetry();
        return telemetryDigest(sys);
    };
    const std::string t1 = digest(1);
    EXPECT_EQ(t1, digest(2)) << "threads=2";
    EXPECT_EQ(t1, digest(4)) << "threads=4";
}

TEST(EnergyProbe, ObserverOnlyDigestIdentity)
{
    // Simulation results must be bit-identical with the probes on or
    // off: same committed instructions, same network counters. The off
    // leg turns the activity table off too, so its counter reads are
    // checked as observer-only as well.
    auto run = [](bool power_on) {
        system::SystemConfig cfg = powerConfig(2);
        cfg.power = power_on;
        cfg.thermal = power_on;
        cfg.heatmapPeriod = power_on ? 192 : 0;
        system::CmpSystem sys(cfg);
        sys.warmup(500);
        sys.run(4000);
        std::ostringstream os;
        sys.dumpStats(os);
        return os.str();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(ThermalProbe, RecordsFramesAndRanksHotBanks)
{
    system::CmpSystem sys(powerConfig(1));
    sys.warmup(1000);
    sys.run(5000);
    sys.finalizeTelemetry();

    const telemetry::ThermalProbe &t = *sys.thermal();
    ASSERT_FALSE(t.frames().empty());
    EXPECT_EQ(t.frames().size(), sys.power()->frames().size());

    const double ambient = t.grid().params().ambientC;
    EXPECT_GT(t.peakC(), ambient);
    for (const telemetry::ThermalFrame &f : t.frames()) {
        ASSERT_EQ(f.tempC.size(), 2u);
        ASSERT_EQ(f.layerMaxC.size(), 2u);
        for (int layer = 0; layer < 2; ++layer) {
            EXPECT_GE(f.layerMaxC[static_cast<std::size_t>(layer)],
                      ambient);
            EXPECT_GE(f.layerMaxC[static_cast<std::size_t>(layer)],
                      f.layerMeanC[static_cast<std::size_t>(layer)]);
        }
    }

    const auto ranked = t.hotBanks(8);
    ASSERT_EQ(ranked.size(), 8u);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1].tempC, ranked[i].tempC);
    // Banks live on the cache layer.
    for (const auto &hb : ranked)
        EXPECT_EQ(hb.layer, 1);
}

// ------------------------------------------ the one activity table

std::uint64_t
counterOf(const stats::Group *group, const char *name)
{
    const stats::Counter *c =
        group != nullptr ? group->findCounter(name) : nullptr;
    return c != nullptr ? c->value() : 0;
}

TEST(ActivityTable, FinalizeClosesThePartialIntervalForEveryView)
{
    system::CmpSystem sys(powerConfig());
    sys.warmup(1000);
    auto switched = [&sys] {
        std::uint64_t total = 0;
        for (NodeId n = 0; n < sys.shape().totalNodes(); ++n)
            total += sys.network().router(n).flitsSwitchedTotal();
        return total;
    };
    const std::uint64_t before = switched();
    sys.run(5000); // 5000 = 26 * 192 + 8: a partial tail stays open
    sys.finalizeTelemetry();

    // The heatmap's flits cover the whole window, tail included...
    const auto &heat = sys.heatmap()->frames();
    std::uint64_t flits = 0;
    for (const auto &f : heat)
        for (const auto &grid : f.flits)
            for (const std::uint64_t v : grid)
                flits += v;
    EXPECT_GT(flits, 0u);
    EXPECT_EQ(flits, switched() - before);

    // ...and the heatmap and power frames are the same windows.
    const auto &power = sys.power()->frames();
    ASSERT_EQ(heat.size(), power.size());
    for (std::size_t i = 0; i < heat.size(); ++i) {
        EXPECT_EQ(heat[i].start, power[i].start) << "frame " << i;
        EXPECT_EQ(heat[i].end, power[i].end) << "frame " << i;
    }
    EXPECT_EQ(heat.front().start, Cycle{1000});
    EXPECT_EQ(heat.back().end, Cycle{5999});
}

TEST(ActivityTable, WindowTotalsEqualTheStatsCounters)
{
    // Each plain counter the table reads is bumped next to the stats
    // counter computeEnergy reads, which is what lets one energy
    // formula serve both paths. Clean and faulty, 1 and 4 threads.
    const std::string faults =
        "stt_write_ber=0.3,stt_write_retries=4,link_flit_ber=2e-4";
    for (const std::string &spec : {std::string(), faults}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " faults='" + spec + "'");
            system::CmpSystem sys(powerConfig(threads, spec));
            sys.warmup(500);
            sys.run(3000);
            sys.finalizeTelemetry();

            const telemetry::EnergyEvents &t =
                sys.heatmap()->windowTotals();
            const stats::Group *cache = &sys.cacheStats();
            const stats::Group *net = &sys.network().stats();
            const stats::Group *fault =
                sys.faults() != nullptr ? &sys.faults()->stats() : nullptr;
            EXPECT_EQ(t.bankReads, counterOf(cache, "bank_reads"));
            EXPECT_EQ(t.bankWrites, counterOf(cache, "bank_writes"));
            EXPECT_EQ(t.flitsBuffered, counterOf(net, "flits_buffered"));
            EXPECT_EQ(t.flitsSwitched, counterOf(net, "flits_switched"));
            EXPECT_EQ(t.retryRounds,
                      counterOf(fault, "stt_write_retry_rounds"));
            EXPECT_EQ(t.flitsRetransmitted,
                      counterOf(fault, "link_flits_retransmitted"));
            EXPECT_GT(t.bankWrites, 0u);
            EXPECT_GT(t.flitsSwitched, 0u);
            if (!spec.empty()) {
                EXPECT_GT(t.retryRounds, 0u);
                EXPECT_GT(t.flitsRetransmitted, 0u);
            }
        }
    }
}

} // namespace
} // namespace stacknoc
