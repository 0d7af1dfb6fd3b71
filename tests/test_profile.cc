/**
 * @file
 * The cycle-accounting profiler: accumulation arithmetic, bounded span
 * retention, the disabled-profiler zero-retention fast path, the
 * phase-sum-tracks-wall-time contract on a real system (sequential and
 * sharded engines), and the observer-only guarantee (bit-identical
 * stats with the profiler on or off).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

#include "system/cmp_system.hh"
#include "telemetry/profile.hh"

using namespace stacknoc;
using telemetry::CycleProfiler;
using telemetry::EnginePhase;

namespace {

TEST(CycleProfiler, AccumulatesPhaseSeconds)
{
    CycleProfiler prof;
    prof.addPhase(EnginePhase::Compute, 0.0, 0.25);
    prof.addPhase(EnginePhase::Compute, 1.0, 1.25);
    prof.addPhase(EnginePhase::Barrier, 0.25, 1.0);
    EXPECT_DOUBLE_EQ(prof.phaseSeconds(EnginePhase::Compute), 0.5);
    EXPECT_DOUBLE_EQ(prof.phaseSeconds(EnginePhase::Barrier), 0.75);
    EXPECT_DOUBLE_EQ(prof.phaseSeconds(EnginePhase::Commit), 0.0);
    EXPECT_DOUBLE_EQ(prof.totalPhaseSeconds(), 1.25);
}

TEST(CycleProfiler, ZeroCapacityRetainsNoSpans)
{
    // The totals-only mode used by plain --profile: addPhase must not
    // grow any span storage, no matter how many cycles run.
    CycleProfiler prof(0);
    for (int i = 0; i < 10000; ++i)
        prof.addPhase(EnginePhase::Compute, i, i + 0.5);
    EXPECT_EQ(prof.spansRecorded(), 0u);
    EXPECT_EQ(prof.spansDropped(), 0u);
    int visited = 0;
    prof.forEachSpan([&](std::uint32_t, const telemetry::PhaseSpan &) {
        ++visited;
    });
    EXPECT_EQ(visited, 0);
    EXPECT_DOUBLE_EQ(prof.phaseSeconds(EnginePhase::Compute), 5000.0);
}

TEST(CycleProfiler, SpanCapacityBoundsRetention)
{
    CycleProfiler prof(4);
    for (int i = 0; i < 10; ++i)
        prof.addPhase(EnginePhase::Serial, i, i + 1.0);
    EXPECT_EQ(prof.spansRecorded(), 10u);
    EXPECT_EQ(prof.spansDropped(), 6u);
    int retained = 0;
    prof.forEachSpan([&](std::uint32_t tid,
                         const telemetry::PhaseSpan &span) {
        EXPECT_EQ(tid, 0u);
        EXPECT_EQ(span.phase, EnginePhase::Serial);
        ++retained;
    });
    EXPECT_EQ(retained, 4);
}

TEST(CycleProfiler, ShardSlotsAreIndependent)
{
    CycleProfiler prof(16);
    prof.setShardCount(3);
    prof.setShardCount(3); // idempotent
    prof.addShardPhase(0, EnginePhase::Compute, 0.0, 1.0);
    prof.addShardPhase(2, EnginePhase::Compute, 0.0, 0.5);
    EXPECT_DOUBLE_EQ(prof.shardSeconds(0, EnginePhase::Compute), 1.0);
    EXPECT_DOUBLE_EQ(prof.shardSeconds(1, EnginePhase::Compute), 0.0);
    EXPECT_DOUBLE_EQ(prof.shardSeconds(2, EnginePhase::Compute), 0.5);
    // Main-thread phases don't leak into shard slots or vice versa.
    EXPECT_DOUBLE_EQ(prof.phaseSeconds(EnginePhase::Compute), 0.0);
    int shard_spans = 0;
    prof.forEachSpan([&](std::uint32_t tid,
                         const telemetry::PhaseSpan &) {
        EXPECT_GE(tid, 1u);
        ++shard_spans;
    });
    EXPECT_EQ(shard_spans, 2);
}

TEST(CycleProfiler, KindAttribution)
{
    CycleProfiler prof;
    prof.setKinds({"router", "other"});
    prof.addKindSeconds(0, 0.125);
    prof.addKindSeconds(0, 0.125);
    prof.addKindSeconds(1, 1.0);
    ASSERT_EQ(prof.kindNames().size(), 2u);
    EXPECT_DOUBLE_EQ(prof.kindSeconds(0), 0.25);
    EXPECT_DOUBLE_EQ(prof.kindSeconds(1), 1.0);
}

TEST(CycleProfiler, PhaseNamesAreStable)
{
    EXPECT_STREQ(telemetry::enginePhaseName(EnginePhase::Compute),
                 "compute");
    EXPECT_STREQ(telemetry::enginePhaseName(EnginePhase::Barrier),
                 "barrier");
    EXPECT_STREQ(telemetry::enginePhaseName(EnginePhase::Commit),
                 "commit");
    EXPECT_STREQ(telemetry::enginePhaseName(EnginePhase::Serial),
                 "serial");
    EXPECT_STREQ(telemetry::enginePhaseName(EnginePhase::CycleEnd),
                 "cycle_end");
}

system::SystemConfig
smallConfig(int threads, bool profile)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.apps = {"tpcc"};
    cfg.seed = 7;
    cfg.threads = threads;
    cfg.profile = profile;
    return cfg;
}

/**
 * The chained-timestamp contract: with the profiler on, per-cycle
 * phase durations tile the engine loop, so their sum must track the
 * externally measured wall time of run()/warmup(). The CI smoke
 * asserts 5% on a long run; here a short run tolerates a little more
 * loop overhead and scheduler noise.
 */
void
expectPhaseSumTracksWall(int threads)
{
    system::CmpSystem sys(smallConfig(threads, true));
    sys.warmup(300);
    sys.run(2000);

    const auto *prof = sys.profiler();
    ASSERT_NE(prof, nullptr);
    EXPECT_EQ(prof->cycles(), 2300u);

    const double wall = sys.wallSeconds();
    const double phases = prof->totalPhaseSeconds();
    ASSERT_GT(wall, 0.0);
    ASSERT_GT(phases, 0.0);
    EXPECT_LE(phases, wall * 1.02);
    EXPECT_NEAR(phases, wall, wall * 0.10)
        << "phase sum " << phases << " vs wall " << wall;
}

TEST(ProfiledSystem, PhaseSumTracksWallSequential)
{
    expectPhaseSumTracksWall(1);
}

TEST(ProfiledSystem, PhaseSumTracksWallSharded)
{
    expectPhaseSumTracksWall(4);
}

TEST(ProfiledSystem, SequentialAttributesKinds)
{
    system::CmpSystem sys(smallConfig(1, true));
    sys.run(500);
    const auto *prof = sys.profiler();
    ASSERT_NE(prof, nullptr);
    ASSERT_FALSE(prof->kindNames().empty());
    double kinds = 0.0;
    for (std::size_t k = 0; k < prof->kindNames().size(); ++k)
        kinds += prof->kindSeconds(k);
    // Kind attribution covers the compute phase (same stamps).
    EXPECT_GT(kinds, 0.0);
    EXPECT_NEAR(kinds, prof->phaseSeconds(EnginePhase::Compute),
                1e-9 + 0.01 * kinds);
}

TEST(ProfiledSystem, ShardedFillsShardSlots)
{
    system::CmpSystem sys(smallConfig(4, true));
    sys.run(500);
    const auto *prof = sys.profiler();
    ASSERT_NE(prof, nullptr);
    ASSERT_EQ(prof->numShards(), 4u);
    // Every profiled cycle names exactly one shard that finished its
    // compute phase last.
    double critical = 0.0;
    for (std::size_t s = 0; s < prof->numShards(); ++s) {
        EXPECT_GT(prof->shardSeconds(s, EnginePhase::Compute), 0.0);
        EXPECT_GE(prof->criticalShardShare(s), 0.0);
        critical += prof->criticalShardShare(s);
    }
    EXPECT_NEAR(critical, 1.0, 1e-9);
}

TEST(CycleProfiler, CriticalShardIsTheLastComputeEnd)
{
    CycleProfiler prof;
    prof.setShardCount(3);
    EXPECT_EQ(prof.criticalShardShare(0), 0.0) << "no cycles counted";
    // Cycle 1: shard 2 ends last; cycles 2 and 3: shard 0 does.
    const double ends[3][3] = {{1.0, 2.0, 3.0},
                               {6.0, 5.0, 4.0},
                               {9.0, 8.0, 7.0}};
    for (const auto &cycle : ends) {
        for (std::size_t s = 0; s < 3; ++s)
            prof.addShardPhase(s, EnginePhase::Compute, 0.0, cycle[s]);
        prof.countCriticalShard();
    }
    EXPECT_DOUBLE_EQ(prof.criticalShardShare(0), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(prof.criticalShardShare(1), 0.0);
    EXPECT_DOUBLE_EQ(prof.criticalShardShare(2), 1.0 / 3.0);
}

/** Bit-exact digest of every stat in @p g. */
std::string
digest(const system::CmpSystem &sys)
{
    std::ostringstream os;
    for (const stats::Group *g :
         {&sys.cacheStats(), &sys.coreStats(), &sys.memStats(),
          &sys.network().stats()}) {
        for (const auto &[n, c] : g->allCounters())
            os << n << "=" << c.value() << "\n";
        for (const auto &[n, a] : g->allAverages()) {
            os << n << " " << a.sum() << " " << a.count() << "\n";
        }
    }
    return os.str();
}

TEST(ProfiledSystem, ProfilerIsObserverOnly)
{
    std::string with_profile;
    {
        system::CmpSystem sys(smallConfig(2, true));
        sys.warmup(200);
        sys.run(800);
        with_profile = digest(sys);
    }
    std::string without_profile;
    {
        system::CmpSystem sys(smallConfig(2, false));
        sys.warmup(200);
        sys.run(800);
        without_profile = digest(sys);
    }
    EXPECT_EQ(with_profile, without_profile);
}

TEST(ProfiledSystem, TableMentionsEveryPhase)
{
    system::CmpSystem sys(smallConfig(2, true));
    sys.run(200);
    std::ostringstream os;
    sys.profiler()->writeTable(os, sys.wallSeconds());
    const std::string table = os.str();
    for (const char *phase :
         {"compute", "barrier", "commit", "serial", "cycle_end"})
        EXPECT_NE(table.find(phase), std::string::npos) << phase;
}

} // namespace
