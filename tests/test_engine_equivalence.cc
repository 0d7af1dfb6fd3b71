/**
 * @file
 * The execution engines' determinism contract: running the same system
 * with --threads {2,3,4,8} must be bit-identical to --threads 1 — every
 * counter, every double-precision average sum, every telemetry trace
 * record, in the same order — and the idle-elision engine must be
 * bit-identical to the full --no-elide walk across the whole
 * {elide, no-elide} x {1,2,4,8} threads x seeds x {clean, faults}
 * cross product. Plus unit tests of the shard partition itself (every
 * component assigned exactly once, equal affinity keys co-sharded,
 * contiguous balanced key ranges, cross-layer TSB pairs never split,
 * and the cross-shard router-link count of the paper-size mesh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "engine/shard_plan.hh"
#include "fault/fault_spec.hh"
#include "system/cmp_system.hh"
#include "telemetry/trace.hh"

using namespace stacknoc;

namespace {

system::SystemConfig
baseConfig(std::uint64_t seed, int threads, bool elide = true,
           bool with_faults = false)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.apps = {"tpcc", "lbm", "mcf", "libquantum"};
    // Expand round-robin to one app per core.
    std::vector<std::string> apps;
    for (int c = 0; c < 16; ++c)
        apps.push_back(cfg.apps[static_cast<std::size_t>(c) % 4]);
    cfg.apps = apps;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.elide = elide;
    cfg.validate = true;
    cfg.validation.failFast = true;
    cfg.intervalPeriod = 128;
    if (with_faults) {
        // Write BER plus link/TSB BER so retry and recovery paths run
        // under elision (a fuzz staple, see docs/RESILIENCE.md).
        std::string err;
        const bool ok = fault::parseFaultSpec(
            "stt_write_ber=1e-3,link_flit_ber=2e-4,tsb_flit_ber=1e-4",
            cfg.faults, err);
        EXPECT_TRUE(ok) << err;
        cfg.faultsEnabled = true;
    }
    return cfg;
}

/** Bit-exact digest of every stat in @p g. */
void
digestGroup(std::ostringstream &os, const stats::Group &g)
{
    os << "[" << g.name() << "]\n";
    for (const auto &[n, c] : g.allCounters())
        os << n << "=" << c.value() << "\n";
    for (const auto &[n, a] : g.allAverages()) {
        os << n << " sum=" << a.sum() << " count=" << a.count() << "\n";
    }
    for (const auto &[n, d] : g.allDistributions()) {
        os << n << " total=" << d.total();
        for (std::size_t i = 0; i < d.numBins(); ++i)
            os << " " << d.binCount(i);
        os << "\n";
    }
    for (const auto &[n, h] : g.allHistograms()) {
        os << n << " count=" << h.count() << " sum=" << h.sum()
           << " min=" << h.minValue() << " max=" << h.maxValue();
        for (std::size_t i = 0; i < stats::Histogram::kNumBuckets; ++i)
            os << " " << h.bucketCount(i);
        os << "\n";
    }
}

struct RunDigest
{
    std::string stats;
    std::string trace;
    std::string metrics;
};

/** Build, warm up and run one system; digest everything observable. */
RunDigest
runOnce(std::uint64_t seed, int threads, bool elide = true,
        bool with_faults = false, Cycle warmup = 200, Cycle cycles = 1500)
{
    telemetry::MemoryTraceSink sink;
    telemetry::PacketTracer tracer(1 << 14, 1);
    tracer.setSink(&sink);
    telemetry::setTracer(&tracer);

    RunDigest out;
    {
        system::CmpSystem sys(
            baseConfig(seed, threads, elide, with_faults));
        sys.warmup(warmup);
        sys.run(cycles);
        tracer.flush();

        std::ostringstream stats;
        digestGroup(stats, sys.cacheStats());
        digestGroup(stats, sys.coreStats());
        digestGroup(stats, sys.memStats());
        digestGroup(stats, sys.network().stats());
        if (sys.policy())
            digestGroup(stats, sys.policy()->stats());
        out.stats = stats.str();

        std::ostringstream trace;
        trace << "records=" << sink.records().size() << "\n";
        for (const auto &r : sink.records()) {
            trace << r.cycle << " " << r.packetId << " "
                  << static_cast<int>(r.cls) << " "
                  << telemetry::traceEventName(r.event) << " " << r.node
                  << " " << r.aux << "\n";
        }
        out.trace = trace.str();

        const auto m = sys.metrics();
        std::ostringstream metrics;
        metrics << "cycles=" << m.cycles;
        for (const double ipc : m.ipc)
            metrics << " " << std::bit_cast<std::uint64_t>(ipc);
        metrics << " net=" << std::bit_cast<std::uint64_t>(
            m.avgNetworkLatency);
        out.metrics = metrics.str();

        EXPECT_NE(sys.validation(), nullptr);
        EXPECT_TRUE(sys.validation()->violations().empty());
    }
    telemetry::setTracer(nullptr);
    return out;
}

} // namespace

TEST(EngineEquivalence, TenSeedThreadSweepBitIdentical)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const RunDigest ref = runOnce(seed, 1);
        ASSERT_FALSE(ref.stats.empty());
        ASSERT_NE(ref.trace, "records=0\n")
            << "trace digest is vacuous; tracer not wired?";
        // 3 threads deal the 16 keys as uneven ranges (6, 5, 5).
        for (const int threads : {2, 3, 4, 8}) {
            const RunDigest got = runOnce(seed, threads);
            EXPECT_EQ(ref.stats, got.stats)
                << "stats diverged: seed " << seed << ", " << threads
                << " threads";
            EXPECT_EQ(ref.trace, got.trace)
                << "trace diverged: seed " << seed << ", " << threads
                << " threads";
            EXPECT_EQ(ref.metrics, got.metrics)
                << "metrics diverged: seed " << seed << ", " << threads
                << " threads";
        }
    }
}

TEST(EngineEquivalence, ElisionCrossProductBitIdentical)
{
    // {elide, no-elide} x {1,2,4,8} threads x 10 seeds x {clean,
    // faults}: every cell must match the elide/1-thread reference for
    // its (seed, faults) pair. Shorter runs than the ten-seed sweep
    // keep the 160-run cross product affordable; divergence, if any,
    // shows within a few hundred cycles because the first elided tick
    // that should have run skews every downstream stat.
    const Cycle kWarmup = 100, kCycles = 600;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        for (const bool faults : {false, true}) {
            const RunDigest ref =
                runOnce(seed, 1, true, faults, kWarmup, kCycles);
            ASSERT_FALSE(ref.stats.empty());
            for (const bool elide : {true, false}) {
                for (const int threads : {1, 2, 4, 8}) {
                    if (elide && threads == 1)
                        continue; // the reference itself
                    const RunDigest got = runOnce(
                        seed, threads, elide, faults, kWarmup, kCycles);
                    const auto ctx = [&] {
                        std::ostringstream os;
                        os << "seed " << seed << ", " << threads
                           << " threads, elide=" << elide
                           << ", faults=" << faults;
                        return os.str();
                    }();
                    EXPECT_EQ(ref.stats, got.stats)
                        << "stats diverged: " << ctx;
                    EXPECT_EQ(ref.trace, got.trace)
                        << "trace diverged: " << ctx;
                    EXPECT_EQ(ref.metrics, got.metrics)
                        << "metrics diverged: " << ctx;
                }
            }
        }
    }
}

TEST(EngineEquivalence, SequentialRunsAreReproducible)
{
    // Sanity: the digest machinery itself must be deterministic.
    const RunDigest a = runOnce(42, 1);
    const RunDigest b = runOnce(42, 1);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.trace, b.trace);
}

TEST(ShardPlan, EveryComponentAssignedExactlyOnce)
{
    system::CmpSystem sys(baseConfig(1, 1));
    Simulator &sim = sys.simulator();

    for (const int nshards : {2, 4, 8}) {
        const engine::ShardPlan plan =
            engine::buildShardPlan(sim, nshards);

        std::multiset<const Ticking *> seen;
        std::set<std::uint32_t> ordinals;
        for (const auto &shard : plan.shards) {
            for (const auto &item : shard) {
                seen.insert(item.component);
                ordinals.insert(item.ordinal);
            }
        }
        for (const auto &item : plan.serial) {
            seen.insert(item.component);
            ordinals.insert(item.ordinal);
        }

        EXPECT_EQ(seen.size(), sim.componentCount());
        EXPECT_EQ(ordinals.size(), sim.componentCount());
        for (const Ticking *c : sim.components())
            EXPECT_EQ(seen.count(c), 1u)
                << "component missing or duplicated at " << nshards
                << " shards";
    }
}

TEST(ShardPlan, EqualAffinityKeysAreCoSharded)
{
    system::CmpSystem sys(baseConfig(1, 1));
    Simulator &sim = sys.simulator();

    const engine::ShardPlan plan = engine::buildShardPlan(sim, 4);

    std::map<int, std::size_t> key_to_shard;
    for (std::size_t s = 0; s < plan.shards.size(); ++s) {
        for (const auto &item : plan.shards[s]) {
            EXPECT_NE(item.affinity, Simulator::kSerialAffinity);
            const auto [it, inserted] =
                key_to_shard.emplace(item.affinity, s);
            EXPECT_EQ(it->second, s)
                << "affinity key " << item.affinity
                << " split across shards";
            (void)inserted;
        }
    }
    for (const auto &item : plan.serial)
        EXPECT_EQ(item.affinity, Simulator::kSerialAffinity);
}

TEST(ShardPlan, CrossLayerTsbPairsAreCoSharded)
{
    system::CmpSystem sys(baseConfig(1, 1));
    Simulator &sim = sys.simulator();
    noc::Network &net = sys.network();
    const int npl = sys.shape().nodesPerLayer();

    const engine::ShardPlan plan = engine::buildShardPlan(sim, 4);

    std::map<const Ticking *, std::size_t> shard_of;
    for (std::size_t s = 0; s < plan.shards.size(); ++s)
        for (const auto &item : plan.shards[s])
            shard_of[item.component] = s;

    for (NodeId n = 0; n < npl; ++n) {
        // The core-layer and cache-layer router (and NI) at one (x, y)
        // coordinate — the endpoints of a potential TSB — must share a
        // shard, or a vertical hop would cross shards outside a
        // channel.
        ASSERT_TRUE(shard_of.count(&net.router(n)));
        EXPECT_EQ(shard_of[&net.router(n)],
                  shard_of[&net.router(n + npl)])
            << "routers of column " << n << " split across shards";
        EXPECT_EQ(shard_of[&net.ni(n)], shard_of[&net.ni(n + npl)])
            << "NIs of column " << n << " split across shards";
        EXPECT_EQ(shard_of[&net.router(n)], shard_of[&net.ni(n)]);
    }
}

TEST(ShardPlan, ShardsAreContiguousBalancedKeyRanges)
{
    system::CmpSystem sys(baseConfig(1, 1));
    Simulator &sim = sys.simulator();

    for (const int nshards : {2, 3, 4, 8}) {
        const engine::ShardPlan plan =
            engine::buildShardPlan(sim, nshards);
        ASSERT_EQ(plan.numShards(), static_cast<std::size_t>(nshards));

        // Each shard's distinct keys, in ascending order.
        std::vector<std::set<int>> keys(plan.numShards());
        for (std::size_t s = 0; s < plan.numShards(); ++s)
            for (const auto &item : plan.shards[s])
                keys[s].insert(item.affinity);

        std::vector<int> ranked; // every key, shard by shard
        std::size_t smallest = SIZE_MAX, largest = 0;
        for (const auto &k : keys) {
            ASSERT_FALSE(k.empty()) << nshards << " shards";
            ranked.insert(ranked.end(), k.begin(), k.end());
            smallest = std::min(smallest, k.size());
            largest = std::max(largest, k.size());
        }
        // Shard s holds ranks [lo_s, hi_s] and shard s + 1 starts
        // right after: the concatenation is the sorted key list.
        EXPECT_TRUE(std::is_sorted(ranked.begin(), ranked.end()) &&
                    std::adjacent_find(ranked.begin(), ranked.end()) ==
                        ranked.end())
            << "key ranges not contiguous at " << nshards << " shards";
        EXPECT_LE(largest - smallest, 1u)
            << "unbalanced ranges at " << nshards << " shards";
    }
}

TEST(ShardPlan, PaperMeshCrossShardRouterLinks)
{
    system::SystemConfig cfg;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    ASSERT_EQ(cfg.meshWidth, 8);
    ASSERT_EQ(cfg.meshHeight, 8);
    system::CmpSystem sys(cfg);
    noc::Network &net = sys.network();
    const engine::ShardPlan plan =
        engine::buildShardPlan(sys.simulator(), 4);

    std::map<const Ticking *, std::size_t> shard_of;
    std::map<const Ticking *, int> key_of;
    std::set<int> keys;
    for (std::size_t s = 0; s < plan.numShards(); ++s) {
        for (const auto &item : plan.shards[s]) {
            shard_of[item.component] = s;
            key_of[item.component] = item.affinity;
            keys.insert(item.affinity);
        }
    }
    const auto rank = [&](const Ticking *c) {
        return std::distance(keys.begin(), keys.find(key_of.at(c)));
    };

    int links = 0, cross = 0, cross_round_robin = 0;
    for (NodeId id = 0; id < sys.shape().totalNodes(); ++id) {
        for (int d = 1; d < noc::kNumDirs; ++d) {
            const auto dir = static_cast<noc::Dir>(d);
            if (net.topology().linkOut(id, dir) == nullptr)
                continue;
            const Ticking *a = &net.router(id);
            const Ticking *b =
                &net.router(net.topology().neighbor(id, dir));
            ++links;
            cross += shard_of.at(a) != shard_of.at(b);
            // What dealing key ranks modulo the shard count gives.
            cross_round_robin += rank(a) % 4 != rank(b) % 4;
        }
    }
    EXPECT_EQ(links, 576);
    // Whole mesh rows per shard: only the Y links between the four
    // two-row bands cross (3 boundaries x 8 columns x 2 directions x
    // 2 layers), where round-robin dealing split every X link.
    EXPECT_EQ(cross, 96);
    EXPECT_EQ(cross_round_robin, 224);
}
