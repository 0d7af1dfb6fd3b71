/**
 * @file
 * The validation subsystem itself: the hub's sweep/fail-fast machinery,
 * checkers staying silent on healthy scenarios, intentionally injected
 * bugs (a busy counter, a second owner, a credit leaked on each kind of
 * link, a dropped and a duplicated flit) being caught at the next sweep
 * and re-reported while they persist, with the network bugs' full
 * report lists pinned on the 4x4 and the paper's 8x8 mesh, the
 * incremental MESI check agreeing with the full tag census, the sharded
 * engine's paper-size mesh staying clean with its 1-thread digest, and
 * the differential golden model of bank service order agreeing with the
 * full simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.hh"
#include "noc/packet.hh"
#include "sim/simulator.hh"
#include "snapshot/state_io.hh"
#include "telemetry/profile.hh"
#include "telemetry/trace.hh"
#include "system/cmp_system.hh"
#include "validate/golden.hh"
#include "validate/invariants.hh"

namespace stacknoc {
namespace {

system::SystemConfig
smallConfig(const system::Scenario &sc, bool fail_fast = true)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = sc;
    cfg.apps = {"tpcc"};
    cfg.seed = 7;
    cfg.validate = true;
    cfg.validation.failFast = fail_fast;
    return cfg;
}

// ---------------------------------------------------------------- hub

class RiggedChecker : public validate::Checker
{
  public:
    explicit RiggedChecker(Cycle fire_at) : fireAt_(fire_at) {}

    const char *name() const override { return "rigged"; }

    void
    check(Cycle now, std::vector<validate::Violation> &out) override
    {
        ++calls;
        if (now >= fireAt_)
            out.push_back({name(), now, "rigged violation"});
    }

    int calls = 0;

  private:
    Cycle fireAt_;
};

TEST(ValidationHub, PeriodGatesSweeps)
{
    validate::ValidationConfig cfg;
    cfg.period = 4;
    cfg.failFast = false;
    validate::ValidationHub hub(cfg);
    auto checker = std::make_unique<RiggedChecker>(Cycle{1000});
    RiggedChecker *raw = checker.get();
    hub.add(std::move(checker));

    for (Cycle c = 1; c <= 16; ++c)
        hub.onCycle(c);
    EXPECT_EQ(raw->calls, 4); // cycles 4, 8, 12, 16
    EXPECT_EQ(hub.sweeps(), 4u);
    EXPECT_TRUE(hub.violations().empty());
}

TEST(ValidationHub, CollectsCycleStampedViolations)
{
    validate::ValidationConfig cfg;
    cfg.failFast = false;
    validate::ValidationHub hub(cfg);
    hub.add(std::make_unique<RiggedChecker>(Cycle{3}));

    for (Cycle c = 1; c <= 5; ++c)
        hub.onCycle(c);
    ASSERT_EQ(hub.violations().size(), 3u);
    EXPECT_EQ(hub.violations().front().cycle, 3u);
    EXPECT_EQ(hub.violations().front().checker, "rigged");
}

// ----------------------------------------------------- healthy systems

TEST(Checkers, SilentOnHealthyScenarios)
{
    for (const auto &sc : {system::scenarios::sttram4TsbSS(),
                           system::scenarios::sttram4TsbWb(),
                           system::scenarios::sttramBuff20()}) {
        system::CmpSystem sys(smallConfig(sc));
        sys.warmup(500); // exercise the stats-reset re-baselining
        sys.run(3000);
        ASSERT_NE(sys.validation(), nullptr);
        EXPECT_TRUE(sys.validation()->violations().empty()) << sc.name;
        EXPECT_GT(sys.validation()->sweeps(), 0u);
        // Conservation, credits, bank accounting, MESI are always on;
        // parent-hold additionally when the scenario has a scheme.
        EXPECT_GE(sys.validation()->checkerCount(),
                  sc.scheme.has_value() ? 5u : 4u)
            << sc.name;
    }
}

TEST(Checkers, SilentOnShardedPaperMesh)
{
    // Between cycles the sharded engine still holds the last cycle's
    // cross-shard pushes in mailboxes; the census must count them as in
    // flight. 3 threads give uneven row bands.
    std::uint64_t reference = 0;
    for (const int threads : {1, 3, 4}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        auto cfg = smallConfig(system::scenarios::sttram4TsbWb(),
                               /*fail_fast=*/false);
        cfg.meshWidth = 8;
        cfg.meshHeight = 8;
        cfg.threads = threads;
        cfg.validation.period = 1;
        system::CmpSystem sys(cfg);
        sys.warmup(500);
        sys.run(1500);
        const auto &hub = *sys.validation();
        EXPECT_GT(hub.sweeps(), 0u);
        if (!hub.violations().empty()) {
            const auto &v = hub.violations().front();
            ADD_FAILURE() << hub.violations().size()
                          << " violations, first [cycle " << v.cycle
                          << "] " << v.checker << ": " << v.message;
        }
        const std::uint64_t digest = snapshot::statsDigest(sys);
        if (threads == 1)
            reference = digest;
        EXPECT_EQ(digest, reference);
    }
}

TEST(Checkers, ProfileChargesEachCheckerInsideCycleEnd)
{
    auto cfg = smallConfig(system::scenarios::sttram4TsbWb());
    cfg.profile = true;
    system::CmpSystem sys(cfg);
    sys.run(500);
    const telemetry::CycleProfiler &prof = *sys.profiler();
    std::vector<std::string> expected{"validate.census"};
    double sections = 0.0;
    for (std::size_t i = 0; i < prof.sectionNames().size(); ++i) {
        EXPECT_GT(prof.sectionSeconds(i), 0.0) << prof.sectionNames()[i];
        sections += prof.sectionSeconds(i);
    }
    for (const char *name :
         {"packet-conservation", "credit-conservation", "parent-hold",
          "bank-accounting", "mesi-legality"})
        expected.push_back(std::string("validate.") + name);
    EXPECT_EQ(prof.sectionNames(), expected);
    EXPECT_LE(sections,
              prof.phaseSeconds(telemetry::EnginePhase::CycleEnd));
}

// ------------------------------------------------------ injected bugs

TEST(Checkers, InjectedBusyCounterBugIsCaught)
{
    auto cfg = smallConfig(system::scenarios::sttram4TsbSS(),
                           /*fail_fast=*/false);
    system::CmpSystem sys(cfg);
    sys.run(200);
    ASSERT_TRUE(sys.validation()->violations().empty());

    // Emulate a lost admission-counter decrement on one bank.
    sys.bank(3).corruptAdmissionCountersForTest(+1, 0);
    const Cycle before = sys.simulator().now();
    sys.run(2);

    const auto &vs = sys.validation()->violations();
    ASSERT_FALSE(vs.empty());
    bool found = false;
    for (const auto &v : vs) {
        if (v.checker != "bank-accounting")
            continue;
        found = true;
        EXPECT_GE(v.cycle, before); // stamped with the detection cycle
        EXPECT_NE(v.message.find("bank 3"), std::string::npos)
            << v.message;
    }
    EXPECT_TRUE(found);
}

/** Cycles at which @p checker reported, in report order. */
std::vector<Cycle>
reportCycles(const validate::ValidationHub &hub, const std::string &checker)
{
    std::vector<Cycle> cycles;
    for (const auto &v : hub.violations()) {
        if (v.checker == checker)
            cycles.push_back(v.cycle);
    }
    return cycles;
}

/**
 * Run the two sweeps after a corruption planted at the current cycle:
 * @p checker must report in the first one (detection at the first
 * sweep after the bug) and again in the second (a persistent
 * violation is re-reported until fixed). @p needle must appear in the
 * first report.
 */
void
expectCaughtAndReReported(system::CmpSystem &sys, const char *checker,
                          const std::string &needle)
{
    const auto &hub = *sys.validation();
    ASSERT_TRUE(reportCycles(hub, checker).empty());
    const Cycle corrupted = sys.simulator().now();
    const std::size_t before = hub.violations().size();

    sys.run(1);
    const auto first = reportCycles(hub, checker);
    ASSERT_FALSE(first.empty()) << checker << " missed the bug";
    EXPECT_EQ(first.front(), corrupted);
    for (std::size_t i = before; i < hub.violations().size(); ++i) {
        const auto &v = hub.violations()[i];
        if (v.checker == checker) {
            EXPECT_NE(v.message.find(needle), std::string::npos)
                << v.message;
            break;
        }
    }

    sys.run(1);
    const auto second = reportCycles(hub, checker);
    ASSERT_GT(second.size(), first.size())
        << checker << " did not re-report a persistent violation";
    EXPECT_EQ(second.back(), corrupted + 1);
}

/** Give a block some core owns (E/M) a second owner (E) in the next
 *  core's L1. @return whether one was planted. */
bool
plantSecondOwner(system::CmpSystem &sys, int cores)
{
    for (int c = 0; c < cores; ++c) {
        bool planted = false;
        sys.l1(c).tags().forEachValid([&](const cache::TagEntry &e) {
            const auto st = static_cast<coherence::L1State>(e.state);
            if (planted || (st != coherence::L1State::E &&
                            st != coherence::L1State::M))
                return;
            planted = sys.l1((c + 1) % cores)
                          .corruptTagStateForTest(e.addr,
                                                  coherence::L1State::E);
        });
        if (planted)
            return true;
    }
    return false;
}

TEST(Checkers, InjectedSecondOwnerIsCaught)
{
    auto cfg = smallConfig(system::scenarios::sttram4TsbWb(),
                           /*fail_fast=*/false);
    system::CmpSystem sys(cfg);
    sys.run(500);
    ASSERT_TRUE(sys.validation()->violations().empty());

    ASSERT_TRUE(plantSecondOwner(sys, cfg.meshWidth * cfg.meshHeight));
    expectCaughtAndReReported(sys, "mesi-legality", "owners");
}

/**
 * A checked tpcc system on a @p mesh x @p mesh core layer with
 * fail-fast off. Packet ids belong to the system, so its reports name
 * the same packets whatever ran before it in the process.
 */
std::unique_ptr<system::CmpSystem>
pinnedSystem(int mesh)
{
    auto cfg = smallConfig(system::scenarios::sttram4TsbWb(),
                           /*fail_fast=*/false);
    cfg.meshWidth = mesh;
    cfg.meshHeight = mesh;
    return std::make_unique<system::CmpSystem>(cfg);
}

/**
 * Every report of the two sweeps after a corruption planted at the
 * current cycle, "[cycle N] checker: message" in report order. A bug
 * must be caught at the first sweep after it and re-reported while it
 * persists; pinning both sweeps' full output also pins each message's
 * text and the order the checkers emit them in.
 */
std::vector<std::string>
nextTwoSweeps(system::CmpSystem &sys)
{
    const auto &hub = *sys.validation();
    const std::size_t before = hub.violations().size();
    sys.run(2);
    std::vector<std::string> lines;
    for (std::size_t i = before; i < hub.violations().size(); ++i) {
        const auto &v = hub.violations()[i];
        lines.push_back("[cycle " + std::to_string(v.cycle) + "] " +
                        v.checker + ": " + v.message);
    }
    return lines;
}

/** One planted bug's pinned reports on one mesh (see nextTwoSweeps).
 *  Every network bug is pinned on the 4x4 system and the paper's 8x8
 *  mesh. */
struct Pinned
{
    int mesh;
    std::vector<std::string> reports;
};

/**
 * Plant a credit leak with @p plant after 500 cycles of each pinned
 * mesh and expect its pinned reports.
 */
template <typename Plant>
void
expectPinnedCreditLeak(const std::vector<Pinned> &pinned, Plant plant)
{
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(testing::Message() << p.mesh << "x" << p.mesh);
        auto sys = pinnedSystem(p.mesh);
        sys->run(500);
        ASSERT_TRUE(sys->validation()->violations().empty());
        plant(sys->network());
        EXPECT_EQ(nextTwoSweeps(*sys), p.reports);
    }
}

TEST(Checkers, InjectedCreditLeakIsCaught)
{
    // Router 5's East port leads to router 6 on both meshes.
    const std::vector<std::string> reports{
        "[cycle 500] credit-conservation: link 5->6 vc 0: credits 4 + "
        "data-in-flight 0 + buffer 0 + credits-in-flight 0 != depth 5",
        "[cycle 501] credit-conservation: link 5->6 vc 0: credits 4 + "
        "data-in-flight 0 + buffer 0 + credits-in-flight 0 != depth 5"};
    expectPinnedCreditLeak({{4, reports}, {8, reports}},
                           [](noc::Network &net) {
                               net.router(5).corruptOutCreditForTest(
                                   noc::Dir::East, 0, -1);
                           });
}

TEST(Checkers, InjectedNiToRouterCreditLeakIsCaught)
{
    const std::vector<std::string> reports{
        "[cycle 500] credit-conservation: ni-to-router 5->5 vc 0: "
        "credits 4 + data-in-flight 0 + buffer 0 + credits-in-flight 0 "
        "!= depth 5",
        "[cycle 501] credit-conservation: ni-to-router 5->5 vc 0: "
        "credits 4 + data-in-flight 0 + buffer 0 + credits-in-flight 0 "
        "!= depth 5"};
    expectPinnedCreditLeak({{4, reports}, {8, reports}},
                           [](noc::Network &net) {
                               net.ni(5).corruptInjCreditForTest(0, -1);
                           });
}

TEST(Checkers, InjectedRouterToNiCreditLeakIsCaught)
{
    const std::vector<std::string> reports{
        "[cycle 500] credit-conservation: router-to-ni 5->5 vc 0: "
        "credits 4 + data-in-flight 0 + buffer 0 + credits-in-flight 0 "
        "!= depth 5",
        "[cycle 501] credit-conservation: router-to-ni 5->5 vc 0: "
        "credits 4 + data-in-flight 0 + buffer 0 + credits-in-flight 0 "
        "!= depth 5"};
    expectPinnedCreditLeak({{4, reports}, {8, reports}},
                           [](noc::Network &net) {
                               net.router(5).corruptOutCreditForTest(
                                   noc::Dir::Local, 0, -1);
                           });
}

/**
 * A router input VC, on a planar port (one flit per cycle arrives),
 * whose front flits are consecutive body-or-head flits of one packet
 * routed onward (not ejected at this router): whatever happens to the
 * second of them stays in the fabric for the next few sweeps.
 */
struct BufferedRun
{
    NodeId router = kInvalidNode;
    noc::Dir dir = noc::Dir::Local;
    int vc = -1;
};

/** Find a BufferedRun of @p flits flits in a VC holding at most
 *  @p max_size flits, whose second flit has seq >= @p min_seq. */
BufferedRun
findBufferedRun(const noc::Network &net, std::size_t flits,
                std::size_t max_size, int min_seq = 1)
{
    const int vcs = net.params().totalVcs();
    const int nodes = net.shape().totalNodes();
    for (NodeId id = 0; id < nodes; ++id) {
        std::vector<std::vector<const noc::Flit *>> bufs(
            static_cast<std::size_t>(noc::kNumDirs * vcs));
        net.router(id).forEachBufferedFlit(
            [&](noc::Dir d, int vc, const noc::Flit &f) {
                bufs[static_cast<std::size_t>(static_cast<int>(d) * vcs +
                                              vc)]
                    .push_back(&f);
            });
        for (std::size_t i = 0; i < bufs.size(); ++i) {
            const auto &buf = bufs[i];
            const auto dir = static_cast<noc::Dir>(static_cast<int>(i) / vcs);
            if (buf.size() < flits || buf.size() > max_size ||
                dir == noc::Dir::Up || dir == noc::Dir::Down ||
                buf[0]->pkt->dest == id || buf[flits - 1]->tail() ||
                buf[1]->seq < min_seq)
                continue;
            bool consecutive = true;
            for (std::size_t k = 1; k < flits; ++k) {
                consecutive = consecutive && buf[k]->pkt == buf[0]->pkt &&
                              buf[k]->seq == buf[0]->seq + static_cast<int>(k);
            }
            if (consecutive)
                return {id, dir, static_cast<int>(i) % vcs};
        }
    }
    return {};
}

/** Run @p sys until findBufferedRun() succeeds (bounded). */
BufferedRun
runUntilBufferedRun(system::CmpSystem &sys, std::size_t flits,
                    std::size_t max_size)
{
    for (int i = 0; i < 5000; ++i) {
        const BufferedRun run =
            findBufferedRun(sys.network(), flits, max_size);
        if (run.router != kInvalidNode)
            return run;
        sys.run(1);
    }
    return {};
}

/**
 * After 500 cycles of each pinned mesh, run until a router VC holds
 * a run of @p flits flits in at most @p max_size, drop (or duplicate)
 * its second flit, and expect the pinned reports.
 */
void
expectPinnedFlitBug(const std::vector<Pinned> &pinned, std::size_t flits,
                    std::size_t max_size, bool duplicate)
{
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(testing::Message() << p.mesh << "x" << p.mesh);
        auto sys = pinnedSystem(p.mesh);
        sys->run(500);
        const BufferedRun run = runUntilBufferedRun(*sys, flits, max_size);
        ASSERT_NE(run.router, kInvalidNode);
        ASSERT_TRUE(sys->validation()->violations().empty());
        sys->network().router(run.router).corruptBufferedFlitForTest(
            run.dir, run.vc, 1, duplicate);
        EXPECT_EQ(nextTwoSweeps(*sys), p.reports);
    }
}

TEST(Checkers, InjectedDroppedFlitIsCaught)
{
    // Flits k-1, k, k+1 buffered: dropping k leaves a hole between
    // two flits that are still in the fabric.
    expectPinnedFlitBug(
        {{4,
          {"[cycle 503] packet-conservation: flit gap (mask 0x1d): "
           "pkt 18691697672217 cls=DataResp 16->11 bank=0 flits=9",
           "[cycle 503] credit-conservation: ni-to-router 16->16 vc 4: "
           "credits 0 + data-in-flight 1 + buffer 3 + credits-in-flight 0 "
           "!= depth 5",
           "[cycle 504] packet-conservation: flit gap (mask 0x1d): "
           "pkt 18691697672217 cls=DataResp 16->11 bank=0 flits=9",
           "[cycle 504] credit-conservation: ni-to-router 16->16 vc 4: "
           "credits 0 + data-in-flight 0 + buffer 3 + credits-in-flight 1 "
           "!= depth 5"}},
         {8,
          {"[cycle 500] packet-conservation: flit gap (mask 0x1df): "
           "pkt 71468255805464 cls=MemResp 64->117 bank=53 flits=9",
           "[cycle 500] credit-conservation: ni-to-router 64->64 vc 4: "
           "credits 0 + data-in-flight 1 + buffer 2 + credits-in-flight 1 "
           "!= depth 5",
           "[cycle 501] packet-conservation: flit gap (mask 0x1df): "
           "pkt 71468255805464 cls=MemResp 64->117 bank=53 flits=9",
           "[cycle 501] credit-conservation: ni-to-router 64->64 vc 4: "
           "credits 0 + data-in-flight 1 + buffer 2 + credits-in-flight 1 "
           "!= depth 5"}}},
        3, 5, /*duplicate=*/false);
}

TEST(Checkers, InjectedDuplicateFlitIsCaught)
{
    // Duplicate a non-tail flit of a VC with room for the copy plus
    // one arrival per sweep, so the router's own buffer-overflow panic
    // cannot pre-empt the checker. A report names the node of the copy
    // later in walk order, so it follows the copies as they move.
    const auto room =
        static_cast<std::size_t>(noc::NocParams{}.vcDepth) - 3;
    expectPinnedFlitBug(
        {{4,
          {"[cycle 568] packet-conservation: duplicate flit seq 1 at "
           "node 16: pkt 18691697672220 cls=DataResp 16->11 bank=0 "
           "flits=9",
           "[cycle 568] credit-conservation: ni-to-router 16->16 vc 4: "
           "credits 1 + data-in-flight 1 + buffer 3 + credits-in-flight 1 "
           "!= depth 5",
           "[cycle 569] packet-conservation: duplicate flit seq 1 at "
           "node 0: pkt 18691697672220 cls=DataResp 16->11 bank=0 "
           "flits=9",
           "[cycle 569] credit-conservation: ni-to-router 16->16 vc 4: "
           "credits 1 + data-in-flight 1 + buffer 3 + credits-in-flight 1 "
           "!= depth 5"}},
         {8,
          {"[cycle 503] packet-conservation: duplicate flit seq 7 at "
           "node 85: pkt 79164837199892 cls=MemResp 71->125 bank=61 "
           "flits=9",
           "[cycle 503] credit-conservation: link 77->85 vc 4: credits 0 "
           "+ data-in-flight 0 + buffer 3 + credits-in-flight 3 != "
           "depth 5",
           "[cycle 504] packet-conservation: duplicate flit seq 7 at "
           "node 93: pkt 79164837199892 cls=MemResp 71->125 bank=61 "
           "flits=9",
           "[cycle 504] credit-conservation: link 77->85 vc 4: credits 0 "
           "+ data-in-flight 0 + buffer 2 + credits-in-flight 4 != "
           "depth 5"}}},
        2, room, /*duplicate=*/true);
}

/** A bare 4x4x2 network with sinks and every network checker on. */
struct CheckedNetwork
{
    CheckedNetwork()
        : shape(4, 4, 2),
          net(sim, shape, noc::NocParams{},
              std::make_unique<noc::ZxyRouting>(shape), policy),
          hub(config())
    {
        sinks.resize(static_cast<std::size_t>(shape.totalNodes()));
        for (NodeId n = 0; n < shape.totalNodes(); ++n)
            net.ni(n).setClient(&sinks[static_cast<std::size_t>(n)]);
        validate::SystemView view;
        view.net = &net;
        validate::addStandardCheckers(hub, view, hub.config());
        sim.onCycleEnd([this](Cycle now) { hub.onCycle(now); });
    }

    static validate::ValidationConfig
    config()
    {
        validate::ValidationConfig cfg;
        cfg.failFast = false;
        return cfg;
    }

    struct Sink : noc::NetworkClient
    {
        void deliver(noc::PacketPtr, Cycle) override { ++delivered; }
        int delivered = 0;
    };

    Simulator sim;
    MeshShape shape;
    noc::ArbitrationPolicy policy;
    noc::Network net;
    validate::ValidationHub hub;
    std::vector<Sink> sinks;
};

TEST(Checkers, PacketsLongerThanSixteenFlitsAreCensused)
{
    // Line transfers of 24 flits: seqs 16..23 must neither alias onto
    // 0..7 (a false "tail flit missing") nor hide a dropped flit.
    constexpr int kFlits = 24;
    CheckedNetwork f;
    for (NodeId src = 0; src < 8; ++src) {
        f.net.ni(src).send(noc::makePacket(noc::PacketClass::DataResp, src,
                                           31 - src, 0, kFlits),
                           0);
    }
    f.sim.run(600);
    int delivered = 0;
    for (const auto &sink : f.sinks)
        delivered += sink.delivered;
    EXPECT_EQ(delivered, 8);
    for (const auto &v : f.hub.violations())
        ADD_FAILURE() << "[" << v.checker << "] " << v.message;

    // Four sources converge on node 15, so their packets queue up.
    for (NodeId src = 0; src < 4; ++src) {
        f.net.ni(src).send(noc::makePacket(noc::PacketClass::DataResp, src,
                                           15, 0, kFlits),
                           f.sim.now());
    }
    BufferedRun run;
    for (int i = 0; i < 500 && run.router == kInvalidNode; ++i) {
        f.sim.step();
        run = findBufferedRun(f.net, 3, 5, 17);
    }
    ASSERT_NE(run.router, kInvalidNode);
    ASSERT_TRUE(f.hub.violations().empty());
    f.net.router(run.router).corruptBufferedFlitForTest(
        run.dir, run.vc, 1, /*duplicate=*/false);
    const Cycle corrupted = f.sim.now();
    f.sim.step();
    const auto cycles = reportCycles(f.hub, "packet-conservation");
    ASSERT_FALSE(cycles.empty());
    EXPECT_EQ(cycles.front(), corrupted);
}

/** The MESI checker's violations reported at the sweep just run. */
std::vector<std::string>
mesiReportsSince(const validate::ValidationHub &hub, std::size_t from)
{
    std::vector<std::string> out;
    for (std::size_t i = from; i < hub.violations().size(); ++i) {
        if (hub.violations()[i].checker == "mesi-legality")
            out.push_back(hub.violations()[i].message);
    }
    return out;
}

TEST(Checkers, IncrementalMesiMatchesCensus)
{
    // The incremental MESI check (changed blocks plus blocks still in
    // violation) must report exactly what the full tag census reports,
    // every cycle: on clean runs, and after a planted second owner.
    for (const std::uint64_t seed : {1, 7, 4242}) {
        for (const int mesh : {4, 8}) {
            for (const int threads : {1, 4}) {
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << " mesh " << mesh
                             << " threads " << threads);
                auto cfg = smallConfig(system::scenarios::sttram4TsbWb(),
                                       /*fail_fast=*/false);
                cfg.seed = seed;
                cfg.meshWidth = mesh;
                cfg.meshHeight = mesh;
                cfg.threads = threads;
                cfg.validation.maxViolations = ~std::size_t{0};
                system::CmpSystem sys(cfg);
                const auto &hub = *sys.validation();
                const int cores = mesh * mesh;
                std::vector<const coherence::L1Cache *> l1s;
                for (int c = 0; c < cores; ++c)
                    l1s.push_back(&sys.l1(c));

                int violating_sweeps = 0;
                const auto compare = [&](int cycles) {
                    for (int i = 0; i < cycles; ++i) {
                        const std::size_t from = hub.violations().size();
                        const Cycle now = sys.simulator().now();
                        sys.run(1);
                        std::vector<validate::Violation> census;
                        validate::MesiChecker::census(l1s, now, census);
                        std::vector<std::string> expected;
                        for (const auto &v : census)
                            expected.push_back(v.message);
                        const auto got = mesiReportsSince(hub, from);
                        ASSERT_EQ(got, expected) << "cycle " << now;
                        violating_sweeps += got.empty() ? 0 : 1;
                    }
                };
                sys.run(300);
                compare(150);
                ASSERT_EQ(violating_sweeps, 0);

                ASSERT_TRUE(plantSecondOwner(sys, cores));
                compare(50);
                EXPECT_GT(violating_sweeps, 0);
            }
        }
    }
}

/** Every valid (block, state) of @p l1, sorted by block. */
std::vector<std::pair<BlockAddr, std::uint8_t>>
tagStates(const coherence::L1Cache &l1)
{
    std::vector<std::pair<BlockAddr, std::uint8_t>> out;
    l1.tags().forEachValid([&](const cache::TagEntry &e) {
        out.emplace_back(e.addr, e.state);
    });
    std::sort(out.begin(), out.end());
    return out;
}

TEST(L1TagChangeLog, CoversEveryStateChange)
{
    // The incremental MESI check is exact only if every tag change that
    // could create a violation is logged: compare the tag arrays before
    // and after each cycle, and require every block that appeared,
    // vanished or changed state to be in its L1's log.
    for (const std::uint64_t seed : {1, 7}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        auto cfg = smallConfig(system::scenarios::sttram4TsbWb());
        cfg.validate = false;
        cfg.seed = seed;
        system::CmpSystem sys(cfg);
        const int cores = cfg.meshWidth * cfg.meshHeight;
        for (int c = 0; c < cores; ++c)
            sys.l1(c).enableTagChangeLog();

        std::size_t changes = 0;
        for (int cycle = 0; cycle < 1500; ++cycle) {
            std::vector<std::vector<std::pair<BlockAddr, std::uint8_t>>>
                before;
            for (int c = 0; c < cores; ++c)
                before.push_back(tagStates(sys.l1(c)));
            sys.run(1);
            for (int c = 0; c < cores; ++c) {
                coherence::TagChangeLog &log = sys.l1(c).tagChangeLog();
                ASSERT_FALSE(log.overflowed);
                std::vector<std::pair<BlockAddr, std::uint8_t>> moved;
                const auto after = tagStates(sys.l1(c));
                std::set_symmetric_difference(
                    before[static_cast<std::size_t>(c)].begin(),
                    before[static_cast<std::size_t>(c)].end(),
                    after.begin(), after.end(), std::back_inserter(moved));
                for (const auto &[addr, state] : moved) {
                    ++changes;
                    EXPECT_NE(std::find(log.blocks.begin(), log.blocks.end(),
                                        addr),
                              log.blocks.end())
                        << "L1 " << c << " block " << addr << " (state "
                        << unsigned(state) << ") changed unlogged at cycle "
                        << cycle;
                }
                log.blocks.clear();
            }
        }
        EXPECT_GT(changes, 200u); // the run exercised the log
    }
}

using CheckersDeathTest = ::testing::Test;

TEST(CheckersDeathTest, FailFastDumpsCycleStampedDiagnostic)
{
    // With fail-fast on, the hub must abort with a diagnostic naming
    // the checker and the detection cycle.
    auto run = [] {
        auto cfg = smallConfig(system::scenarios::sttram4TsbSS());
        system::CmpSystem sys(cfg);
        sys.run(200);
        sys.bank(0).corruptAdmissionCountersForTest(0, +1);
        sys.run(2);
    };
    EXPECT_DEATH(run(), "\\[cycle [0-9]+\\] bank-accounting");
}

// --------------------------------------------------- differential test

TEST(GoldenModel, AgreesWithSimulatorOnBankServiceOrder)
{
    // Plain-mode SS on a small mesh: a bank is a single FIFO with
    // fixed read/write latencies, so the golden model must reproduce
    // every service start and the total busy cycles exactly.
    telemetry::PacketTracer tracer(std::size_t{1} << 20, 1);
    telemetry::setTracer(&tracer);

    auto cfg = smallConfig(system::scenarios::sttram4TsbSS());
    system::CmpSystem sys(cfg);
    sys.run(5000);

    const auto records = tracer.snapshot();
    telemetry::setTracer(nullptr);

    const auto report = validate::replayBankTrace(
        records, cfg.scenario.tech);
    for (const auto &m : report.mismatches)
        ADD_FAILURE() << m;
    EXPECT_GT(report.accesses.size(), 100u);
    EXPECT_EQ(report.busyCycles,
              sys.cacheStats().counter("bank_busy_cycles").value());
}

TEST(GoldenModel, DetectsReorderAndWrongStart)
{
    using telemetry::TraceEvent;
    using telemetry::TraceRecord;
    const auto rec = [](Cycle cycle, std::uint64_t pkt, TraceEvent ev,
                        NodeId node, std::int64_t aux) {
        TraceRecord r;
        r.cycle = cycle;
        r.packetId = pkt;
        r.event = ev;
        r.node = node;
        r.aux = aux;
        return r;
    };
    const auto t = mem::CacheTech::SttRam;
    const Cycle rd = mem::bankTech(t).readCycles;

    // Two reads enqueued in order 1, 2 but served 2, 1: a FIFO
    // violation the golden model must flag.
    const std::vector<TraceRecord> reordered{
        rec(10, 1, TraceEvent::BankQueueEnter, 20, 0),
        rec(11, 2, TraceEvent::BankQueueEnter, 20, 2),
        rec(12, 2, TraceEvent::BankServiceStart, 20, 1),
        rec(12 + rd, 1, TraceEvent::BankServiceStart, 20, 0),
    };
    EXPECT_FALSE(validate::replayBankTrace(reordered, t).ok());

    // In-order, but the second start disagrees with start = max(enq,
    // free): served while the golden bank is still busy.
    const std::vector<TraceRecord> early{
        rec(10, 1, TraceEvent::BankQueueEnter, 20, 0),
        rec(10, 1, TraceEvent::BankServiceStart, 20, 0),
        rec(11, 2, TraceEvent::BankQueueEnter, 20, 2),
        rec(12, 2, TraceEvent::BankServiceStart, 20, 1),
    };
    EXPECT_FALSE(validate::replayBankTrace(early, t).ok());

    // The same schedule with the correct second start is clean.
    const std::vector<TraceRecord> good{
        rec(10, 1, TraceEvent::BankQueueEnter, 20, 0),
        rec(10, 1, TraceEvent::BankServiceStart, 20, 0),
        rec(11, 2, TraceEvent::BankQueueEnter, 20, 2),
        rec(10 + rd, 2, TraceEvent::BankServiceStart, 20, 1),
    };
    const auto report = validate::replayBankTrace(good, t);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.busyCycles, 2 * rd);
}

} // namespace
} // namespace stacknoc
