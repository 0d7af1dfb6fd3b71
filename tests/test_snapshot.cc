/**
 * @file
 * The checkpoint/restore contract: a run restored from a warm-boundary
 * checkpoint must produce stats bit-identical to the uninterrupted run,
 * at any --threads and with elision on or off, for clean and faulty
 * configurations — across the {seeds} x {1,4 threads} x {elide,
 * no-elide} x {clean, faults} cross product, plus a scenario axis that
 * reaches every branch of the transfer. The payload bytes are pinned,
 * and a restored system re-saves byte-identically. Plus rejection
 * tests: corruption, truncation, version and warm-config mismatches and
 * crafted payloads that pass the checksum must fail with a one-line
 * reason, never a crash or a silently wrong run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_spec.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/state_io.hh"
#include "system/cmp_system.hh"

using namespace stacknoc;

namespace {

constexpr Cycle kWarmup = 1200;
constexpr Cycle kCycles = 2500;
/** Container header bytes before the StateIO payload (checkpoint.hh). */
constexpr std::size_t kHeaderBytes = 44;

system::SystemConfig
baseConfig(std::uint64_t seed, int threads, bool elide,
           bool with_faults)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    std::vector<std::string> apps;
    const std::vector<std::string> mix{"tpcc", "lbm", "mcf",
                                       "libquantum"};
    for (int c = 0; c < 16; ++c)
        apps.push_back(mix[static_cast<std::size_t>(c) % 4]);
    cfg.apps = apps;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.elide = elide;
    cfg.stream.numBanks = 16;
    if (with_faults) {
        std::string err;
        const bool ok = fault::parseFaultSpec(
            "stt_write_ber=1e-3,link_flit_ber=2e-4,tsb_flit_ber=1e-4",
            cfg.faults, err);
        EXPECT_TRUE(ok) << err;
        cfg.faultsEnabled = true;
    }
    return cfg;
}

/** Uninterrupted reference run: warmup + measure, one process. */
std::uint64_t
runUninterrupted(const system::SystemConfig &cfg)
{
    system::CmpSystem sys(cfg);
    sys.warmup(kWarmup);
    sys.run(kCycles);
    return snapshot::statsDigest(sys);
}

/** Capture a checkpoint at the warm boundary of a fresh run. */
std::string
captureCheckpoint(const system::SystemConfig &cfg)
{
    system::CmpSystem sys(cfg);
    sys.warmupBegin();
    sys.run(kWarmup);
    sys.warmupEnd();
    std::ostringstream out(std::ios::binary);
    snapshot::saveCheckpoint(sys, out,
                             snapshot::warmConfigDigest(cfg, kWarmup));
    return out.str();
}

/** Restore the checkpoint into a fresh system and run to completion. */
std::uint64_t
runRestored(const system::SystemConfig &cfg, const std::string &ckpt)
{
    system::CmpSystem sys(cfg);
    std::istringstream in(ckpt, std::ios::binary);
    const std::string err = snapshot::restoreCheckpoint(
        sys, in, snapshot::warmConfigDigest(cfg, kWarmup));
    EXPECT_EQ(err, "");
    sys.run(kCycles);
    return snapshot::statsDigest(sys);
}

} // namespace

TEST(Snapshot, RoundTripBitIdentityMatrix)
{
    for (const bool faults : {false, true}) {
        for (const std::uint64_t seed : {1ull, 23ull}) {
            // The reference digest and the checkpoint both come from
            // the canonical sequential elided configuration...
            const auto ref_cfg = baseConfig(seed, 1, true, faults);
            const std::uint64_t ref = runUninterrupted(ref_cfg);
            const std::string ckpt = captureCheckpoint(ref_cfg);
            ASSERT_FALSE(ckpt.empty());

            // ...and every restore target must reproduce it exactly,
            // whatever engine the restored run uses.
            for (const int threads : {1, 4}) {
                for (const bool elide : {true, false}) {
                    const auto cfg =
                        baseConfig(seed, threads, elide, faults);
                    EXPECT_EQ(runRestored(cfg, ckpt), ref)
                        << "seed=" << seed << " threads=" << threads
                        << " elide=" << elide << " faults=" << faults;
                }
            }
        }
    }

    // Scenario axis, one entry per branch of the transfer: MRAM-4TSB
    // has no bank-aware policy, SS an estimator without state, RCA the
    // fabric, SRAM-64TSB other banks, and real tags add the L2 arrays.
    namespace sc = system::scenarios;
    for (const auto &scenario : {sc::sttram4Tsb(), sc::sttram4TsbSS(),
                                 sc::sttram4TsbRca(), sc::sttram4TsbWb(),
                                 sc::sram64Tsb()}) {
        for (const bool realTags : {false, true}) {
            auto ref_cfg = baseConfig(1, 1, true, false);
            ref_cfg.scenario = scenario;
            ref_cfg.realTags = realTags;
            const std::uint64_t ref = runUninterrupted(ref_cfg);
            const std::string ckpt = captureCheckpoint(ref_cfg);
            for (const int threads : {1, 4}) {
                auto cfg = ref_cfg;
                cfg.threads = threads;
                EXPECT_EQ(runRestored(cfg, ckpt), ref)
                    << scenario.name << " realTags=" << realTags
                    << " threads=" << threads;
            }
        }
    }
}

TEST(Snapshot, WarmDigestIgnoresEngineKnobs)
{
    const auto a = baseConfig(1, 1, true, false);
    auto b = baseConfig(1, 4, false, false);
    b.intervalPeriod = 64; // observer-only
    EXPECT_EQ(snapshot::warmConfigDigest(a, kWarmup),
              snapshot::warmConfigDigest(b, kWarmup));

    auto c = baseConfig(1, 1, true, false);
    c.seed = 2;
    EXPECT_NE(snapshot::warmConfigDigest(a, kWarmup),
              snapshot::warmConfigDigest(c, kWarmup));
    EXPECT_NE(snapshot::warmConfigDigest(a, kWarmup),
              snapshot::warmConfigDigest(a, kWarmup + 1));
}

TEST(Snapshot, PayloadBytesArePinned)
{
    // The payload is an on-disk format: these bytes are what format
    // version 2 means. A change that moves them, for either leg, must
    // bump snapshot::kFormatVersion and re-record both pins.
    EXPECT_EQ(snapshot::kFormatVersion, 2u);
    struct Pin
    {
        bool faults;
        std::size_t size;
        std::uint64_t fnv;
    };
    for (const Pin &pin : {Pin{false, 179465, 0x135179d5f406d71eull},
                          Pin{true, 180263, 0xaa782b625864f275ull}}) {
        const std::string payload =
            captureCheckpoint(baseConfig(7, 1, true, pin.faults))
                .substr(kHeaderBytes);
        EXPECT_EQ(payload.size(), pin.size) << "faults=" << pin.faults;
        EXPECT_EQ(snapshot::fnv1a(payload), pin.fnv)
            << "faults=" << pin.faults << std::hex << " fnv=0x"
            << snapshot::fnv1a(payload);
    }
}

TEST(Snapshot, ResaveIsByteIdentical)
{
    // Restore, then save again at once: a field the load side drops, or
    // derived state rebuilt differently, shows up as a byte difference.
    for (const bool faults : {false, true}) {
        const auto cfg = baseConfig(7, 1, true, faults);
        const std::string ckpt = captureCheckpoint(cfg);
        system::CmpSystem sys(cfg);
        std::istringstream in(ckpt, std::ios::binary);
        ASSERT_EQ(snapshot::restoreCheckpoint(
                      sys, in, snapshot::warmConfigDigest(cfg, kWarmup)),
                  "");
        std::ostringstream out(std::ios::binary);
        snapshot::saveCheckpoint(sys, out,
                                 snapshot::warmConfigDigest(cfg, kWarmup));
        EXPECT_TRUE(out.str() == ckpt) << "faults=" << faults;
    }
}

TEST(Snapshot, RejectsCorruptionTruncationAndMismatch)
{
    const auto cfg = baseConfig(5, 1, true, false);
    const std::string ckpt = captureCheckpoint(cfg);
    const std::uint64_t digest =
        snapshot::warmConfigDigest(cfg, kWarmup);

    const auto restoreErr = [&](const std::string &bytes,
                                std::uint64_t expect) {
        system::CmpSystem sys(cfg);
        std::istringstream in(bytes, std::ios::binary);
        return snapshot::restoreCheckpoint(sys, in, expect);
    };

    // The pristine checkpoint restores.
    EXPECT_EQ(restoreErr(ckpt, digest), "");

    // Warm-config mismatch.
    EXPECT_NE(restoreErr(ckpt, digest ^ 1).find("different warm"),
              std::string::npos);

    // Bad magic.
    std::string bad = ckpt;
    bad[0] = 'X';
    EXPECT_NE(restoreErr(bad, digest).find("bad magic"),
              std::string::npos);

    // Unsupported format versions: the previous one and the next.
    for (const std::uint32_t v : {snapshot::kFormatVersion - 1,
                                  snapshot::kFormatVersion + 1}) {
        bad = ckpt;
        bad[8] = static_cast<char>(v);
        EXPECT_NE(restoreErr(bad, digest).find("version"),
                  std::string::npos)
            << v;
    }

    // Payload corruption is caught by the checksum.
    bad = ckpt;
    bad[bad.size() / 2] ^= char(0xff);
    EXPECT_NE(restoreErr(bad, digest).find("checksum"),
              std::string::npos);

    // Truncation.
    bad = ckpt.substr(0, ckpt.size() - 16);
    EXPECT_NE(restoreErr(bad, digest).find("truncated"),
              std::string::npos);
    bad = ckpt.substr(0, 10);
    EXPECT_NE(restoreErr(bad, digest).find("truncated"),
              std::string::npos);

    // Crafted payloads that pass the checksum: overwrite one u32 of the
    // payload and recompute the header's FNV-1a.
    const auto u32At = [&](std::size_t off) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(static_cast<unsigned char>(
                     ckpt[kHeaderBytes + off + i]))
                 << (8 * i);
        return v;
    };
    const auto crafted = [&](std::size_t off, std::uint32_t v) {
        std::string b = ckpt;
        for (int i = 0; i < 4; ++i)
            b[kHeaderBytes + off + i] = static_cast<char>(v >> (8 * i));
        const std::uint64_t fnv = snapshot::fnv1a(
            b.data() + kHeaderBytes, b.size() - kHeaderBytes);
        for (int i = 0; i < 8; ++i)
            b[36 + i] = static_cast<char>(fnv >> (8 * i));
        return b;
    };
    const auto expectOneLine = [&](const std::string &bytes,
                                   const std::string &reason) {
        const std::string err = restoreErr(bytes, digest);
        EXPECT_NE(err.find(reason), std::string::npos) << err;
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
    };

    // The payload opens with the packet-id streams (u32 count, then u32
    // index + u64 sequence each), the cycle, and the first workload
    // stream: rng (4 x u64), memOps, misses, three u32 fields, the
    // bank-cursor map (u32 count, i32 + u64 each) and the history rings
    // (u32 count, then each ring's u32 count).
    const std::uint32_t nIds = u32At(0);
    ASSERT_GT(nIds, 0u);
    const std::size_t cursors = 4 + 12 * std::size_t{nIds} + 8 + 60;
    const std::size_t rings = cursors + 4 + 12 * std::size_t{u32At(cursors)};
    ASSERT_GT(u32At(rings), 0u);
    const std::size_t firstRing = rings + 4;

    // Counts larger than the bytes left are rejected before allocating.
    expectOneLine(crafted(firstRing, 0xFFFFFFFFu), "count exceeds");
    expectOneLine(crafted(0, 0xFFFFFFFFu), "count exceeds");
    // An id-stream index that names no NI of the 32-node system is
    // rejected, not a panic: 0 has no source node, 33 is one past the
    // last, and 0xFFFF is far beyond it.
    for (const std::uint32_t index : {0u, 33u, 0xFFFFu})
        expectOneLine(crafted(4, index), "id stream index out of range");

    // Completion tokens past the ROB tail name instructions the core
    // has not fetched; the loader refuses them before any completion
    // could index past the ring. Walk the 16 workload streams (60 fixed
    // bytes, the bank cursors, the history rings, historyIdx) to the
    // cores. A core is its ROB (u32 count, 14 bytes each), then issue
    // cursor, head sequence, last-load sequence and committed count.
    // An L1 is its tag array (two u32 shape counts, i32, u64, 20 bytes
    // per frame), the MSHRs (u32 count; u64 addr, bool, u64 start, u64
    // token each), the pending PutMs (u32 count, u64 each) and the
    // delayed completions (u32 count; u64 due, u64 token each).
    std::size_t off = 4 + 12 * std::size_t{nIds} + 8;
    for (int st = 0; st < 16; ++st) {
        off += 60;
        off += 4 + 12 * std::size_t{u32At(off)};
        const std::uint32_t nRings = u32At(off);
        off += 4;
        for (std::uint32_t r = 0; r < nRings; ++r)
            off += 4 + 8 * std::size_t{u32At(off)};
        off += 8;
    }
    const std::size_t lastLoad = off + 4 + 14 * std::size_t{u32At(off)} + 16;
    for (int c = 0; c < 16; ++c)
        off += 4 + 14 * std::size_t{u32At(off)} + 32;
    std::size_t token = 0;
    for (int c = 0; c < 16 && token == 0; ++c) {
        off += 20 + 20 * std::size_t{u32At(off)} * u32At(off + 4);
        const std::uint32_t nMshrs = u32At(off);
        off += 4;
        if (nMshrs > 0)
            token = off + 17;
        off += 25 * std::size_t{nMshrs};
        off += 4 + 8 * std::size_t{u32At(off)};
        const std::uint32_t nDelayed = u32At(off);
        off += 4;
        if (token == 0 && nDelayed > 0)
            token = off + 8;
        off += 16 * std::size_t{nDelayed};
    }
    ASSERT_NE(token, 0u) << "no pending L1 completion at the boundary";
    expectOneLine(crafted(lastLoad, 0xFFFFFFFFu),
                  "last-load sequence names an instruction not yet "
                  "fetched");
    expectOneLine(crafted(token, 0xFFFFFFFFu),
                  "L1 completion token names an instruction not yet "
                  "fetched");
}

TEST(Snapshot, InterleavedSystemsMatchTheirSoloRuns)
{
    // Two systems advanced in turn, one cycle at a time, in one
    // process: each must save the bytes and reach the digest of its
    // solo run. Packet ids that leaked between systems would show up
    // in the id streams and the in-flight packets of the checkpoints.
    const auto cfgA = baseConfig(7, 1, true, false);
    const auto cfgB = baseConfig(8, 4, true, true);
    system::CmpSystem a(cfgA);
    system::CmpSystem b(cfgB);
    a.warmupBegin();
    b.warmupBegin();
    for (Cycle c = 0; c < kWarmup; ++c) {
        a.run(1);
        b.run(1);
    }
    a.warmupEnd();
    b.warmupEnd();
    const auto save = [](system::CmpSystem &sys,
                         const system::SystemConfig &cfg) {
        std::ostringstream out(std::ios::binary);
        snapshot::saveCheckpoint(sys, out,
                                 snapshot::warmConfigDigest(cfg, kWarmup));
        return out.str();
    };
    EXPECT_TRUE(save(a, cfgA) == captureCheckpoint(cfgA));
    EXPECT_TRUE(save(b, cfgB) == captureCheckpoint(cfgB));

    for (Cycle c = 0; c < kCycles; ++c) {
        a.run(1);
        b.run(1);
    }
    EXPECT_EQ(snapshot::statsDigest(a), runUninterrupted(cfgA));
    EXPECT_EQ(snapshot::statsDigest(b), runUninterrupted(cfgB));
}

TEST(Snapshot, RefusesValidationSystems)
{
    auto cfg = baseConfig(1, 1, true, false);
    cfg.validate = true;
    system::CmpSystem sys(cfg);
    sys.warmupBegin();
    sys.run(64);
    sys.warmupEnd();
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(snapshot::saveCheckpoint(
                     sys, out, snapshot::warmConfigDigest(cfg, 64)),
                 snapshot::SnapshotError);
}
