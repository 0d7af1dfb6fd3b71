/**
 * @file
 * Smoke tests of the command-line tools: option handling, scenario
 * selection, output format stability, and the exit-2 contract for bad
 * input (one stderr line naming the field, never a crash).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace stacknoc {
namespace {

/** Run the CLI (relative to the test binary's build directory). */
int
runCli(const std::string &args, std::string *out)
{
    const std::string cmd = "../tools/stacknoc_run " + args + " 2>&1";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return -1;
    std::array<char, 512> buf;
    out->clear();
    while (std::fgets(buf.data(), buf.size(), p))
        *out += buf.data();
    return ::pclose(p);
}

/**
 * Run @p cmd with stdout discarded. @return its exit status; @p err
 * gets stderr.
 */
int
runStderr(const std::string &cmd, std::string *err)
{
    std::FILE *p = ::popen((cmd + " 2>&1 >/dev/null").c_str(), "r");
    if (!p)
        return -1;
    std::array<char, 512> buf;
    err->clear();
    while (std::fgets(buf.data(), buf.size(), p))
        *err += buf.data();
    return ::pclose(p);
}

int
lineCount(const std::string &s)
{
    int lines = 0;
    for (const char c : s)
        lines += c == '\n';
    return lines;
}

/** A bad input and the field its one-line rejection must name. */
struct BadInput
{
    const char *args;
    const char *field;
};

const BadInput kBadInputs[] = {
    {"--cycles abc", "cycles"},
    {"--cycles -1", "cycles"},
    {"--cycles 0", "cycles"},
    {"--seed 12x", "seed"},
    {"--threads 2x", "threads"},
    {"--threads 0", "threads"},
    {"--mesh 0x0", "mesh"},
    {"--mesh 3x3", "mesh"},
    {"--mesh 16x16", "mesh"},
    {"--regions 5", "regions"},
    {"--scenario MRAM-4TSB-WB --regions 0", "regions"},
    {"--hops 9", "hops"},
    {"--app nosuchapp", "app"},
    {"--scenario NOPE", "scenario"},
};

void
expectRejected(const std::string &cmd, const char *field)
{
    std::string err;
    const int rc = runStderr(cmd, &err);
    ASSERT_TRUE(WIFEXITED(rc)) << cmd << " crashed:\n" << err;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << cmd << ":\n" << err;
    EXPECT_EQ(lineCount(err), 1) << cmd << ":\n" << err;
    EXPECT_NE(err.find(field), std::string::npos) << cmd << ":\n" << err;
}

TEST(Cli, RunRejectsBadInputWithExit2)
{
    for (const BadInput &b : kBadInputs)
        expectRejected(std::string("../tools/stacknoc_run ") + b.args,
                       b.field);
}

TEST(Cli, ClientRejectsBadJobBeforeConnecting)
{
    // The socket does not exist: a rejection that reached connect()
    // would exit 1 with a connect error instead.
    for (const BadInput &b : kBadInputs)
        expectRejected(std::string("../tools/stacknoc_client --socket "
                                   "/nonexistent/stacknoc.sock run ") +
                           b.args,
                       b.field);
}

TEST(Cli, SweepRejectsNonNumericRegions)
{
    expectRejected("../tools/stacknoc_sweep --regions abc", "--regions");
}

TEST(Cli, FuzzReplayRejectsBadReproducer)
{
    const std::string path = "cli_bad_repro.txt";
    {
        std::ofstream out(path);
        out << "mesh=4x4\nregions=4\nhops=abc\n";
    }
    expectRejected("../tools/stacknoc_fuzz --replay " + path, "hops");
    std::remove(path.c_str());
}

/** Every "config_digest" (or other @p key) string in a JSON document. */
std::vector<std::string>
jsonStrings(const std::string &doc, const std::string &key)
{
    std::vector<std::string> out;
    const std::string pat = "\"" + key + "\":\"";
    for (std::size_t at = doc.find(pat); at != std::string::npos;
         at = doc.find(pat, at + 1)) {
        const std::size_t from = at + pat.size();
        out.push_back(doc.substr(from, doc.find('"', from) - from));
    }
    return out;
}

TEST(Cli, SweepKeepsEachScenariosOwnRegionCount)
{
    // Regression: the sweep used to force --regions 4, which turned
    // every MRAM-64TSB point into MRAM-4TSB.
    const std::string out = "cli_sweep_regions.json";
    std::string err;
    ASSERT_EQ(runStderr("../tools/stacknoc_sweep --schemes "
                        "MRAM-64TSB,MRAM-4TSB --mixes tpcc --cycles 300 "
                        "--warmup 0 --no-speedup --no-thermal "
                        "--no-profile --jobs 2 --out " + out,
                        &err),
              0)
        << err;
    std::ifstream in(out);
    const std::string doc((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    const auto configs = jsonStrings(doc, "config_digest");
    const auto stats = jsonStrings(doc, "stats_digest");
    ASSERT_EQ(configs.size(), 2u) << doc;
    ASSERT_EQ(stats.size(), 2u) << doc;
    EXPECT_NE(configs[0], configs[1]);
    EXPECT_NE(stats[0], stats[1]);
    EXPECT_NE(doc.find("\"regions\":0"), std::string::npos) << doc;
    std::remove(out.c_str());
}

TEST(Cli, ListAppsPrintsFortyTwo)
{
    std::string out;
    ASSERT_EQ(runCli("--list-apps", &out), 0);
    int lines = 0;
    for (const char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 42);
    EXPECT_NE(out.find("tpcc"), std::string::npos);
    EXPECT_NE(out.find("calculix"), std::string::npos);
}

TEST(Cli, SmallRunPrintsMetrics)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB --app lbm --mesh 4x4 "
                     "--cycles 3000 --warmup 500", &out), 0);
    EXPECT_NE(out.find("scenario=MRAM-4TSB-WB"), std::string::npos);
    EXPECT_NE(out.find("cores=16"), std::string::npos);
    EXPECT_NE(out.find("mean_ipc="), std::string::npos);
    EXPECT_NE(out.find("energy_uj="), std::string::npos);
}

TEST(Cli, AppsListReplicatesAcrossCores)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario SRAM-64TSB --apps tpcc,lbm --mesh 4x4 "
                     "--cycles 2000 --warmup 500", &out), 0);
    EXPECT_NE(out.find("mean_ipc="), std::string::npos);
}

TEST(Cli, BadScenarioFails)
{
    std::string out;
    EXPECT_NE(runCli("--scenario NOPE --cycles 100", &out), 0);
    EXPECT_NE(out.find("unknown scenario"), std::string::npos);
}

TEST(Cli, BadFlagShowsUsage)
{
    std::string out;
    EXPECT_NE(runCli("--frobnicate", &out), 0);
    EXPECT_NE(out.find("unknown option '--frobnicate'"),
              std::string::npos);
    EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST(Cli, TypoedFlagSuggestsCorrection)
{
    std::string out;
    EXPECT_NE(runCli("--cycels 100", &out), 0);
    EXPECT_NE(out.find("unknown option '--cycels'"), std::string::npos);
    EXPECT_NE(out.find("did you mean '--cycles'?"), std::string::npos);
}

TEST(Cli, ImplausibleTypoGetsNoSuggestion)
{
    std::string out;
    EXPECT_NE(runCli("--zzzzqqqqxxxx", &out), 0);
    EXPECT_NE(out.find("unknown option"), std::string::npos);
    EXPECT_EQ(out.find("did you mean"), std::string::npos);
}

TEST(Cli, ThreadsFlagRunsShardedEngine)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB --app tpcc --mesh 4x4 "
                     "--cycles 1500 --warmup 200 --threads 2", &out), 0);
    EXPECT_NE(out.find("engine=sharded threads=2"), std::string::npos);
    EXPECT_NE(out.find("mean_ipc="), std::string::npos);
}

TEST(Cli, RunAcceptsTheScenarioNameItPrints)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB+1VC --app lbm --mesh 4x4 "
                     "--cycles 500 --warmup 100", &out), 0) << out;
    EXPECT_NE(out.find("scenario=MRAM-4TSB-WB+1VC"), std::string::npos);
    ASSERT_EQ(runCli("--scenario +1VC --app lbm --mesh 4x4 "
                     "--cycles 500 --warmup 100", &out), 0) << out;
    EXPECT_NE(out.find("scenario=MRAM-4TSB-WB+1VC"), std::string::npos);
}

TEST(Cli, FuzzRejectsUnknownFlagWithHint)
{
    std::string out;
    const std::string cmd =
        "../tools/stacknoc_fuzz --rnus 3 2>&1";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::array<char, 512> buf;
    out.clear();
    while (std::fgets(buf.data(), buf.size(), p))
        out += buf.data();
    EXPECT_NE(::pclose(p), 0);
    EXPECT_NE(out.find("unknown option '--rnus'"), std::string::npos);
    EXPECT_NE(out.find("did you mean '--runs'?"), std::string::npos);
}

TEST(Cli, StatsFlagDumpsGroups)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-64TSB --app x264 --mesh 4x4 "
                     "--cycles 2000 --warmup 500 --stats", &out), 0);
    EXPECT_NE(out.find("cache.l1_hits"), std::string::npos);
    EXPECT_NE(out.find("net.packets_injected"), std::string::npos);
}

TEST(Cli, MalformedFaultSpecFailsWithOneLine)
{
    // A clean exit 2 with a one-line reason — not an assert or a stack
    // trace.
    expectRejected("../tools/stacknoc_run --fault-spec nonsense=9 "
                   "--cycles 100",
                   "unknown fault-spec key 'nonsense'");
}

TEST(Cli, OutOfRangeFaultRateRejected)
{
    expectRejected("../tools/stacknoc_run --fault-spec "
                   "stt_write_ber=1.5 --cycles 100",
                   "--fault-spec");
}

TEST(Cli, FaultSpecRunProducesFaultStats)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB --app tpcc --mesh 4x4 "
                     "--cycles 4000 --warmup 500 --validate --stats "
                     "--fault-spec stt_write_ber=1e-2", &out), 0);
    EXPECT_NE(out.find("faults.stt_write_failures"), std::string::npos);
    EXPECT_NE(out.find("faults.retries_per_write"), std::string::npos);
}

TEST(Cli, WatchdogFlagAccepted)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB --app tpcc --mesh 4x4 "
                     "--cycles 2000 --warmup 200 --watchdog 5000",
                     &out), 0);
    EXPECT_NE(out.find("mean_ipc="), std::string::npos);
}

TEST(Cli, TimeoutGuardExits124AndFlushesStats)
{
    std::string out;
    const std::string json = "cli_timeout_stats.json";
    const int rc = runCli("--scenario MRAM-4TSB-WB --app tpcc "
                          "--mesh 4x4 --cycles 2000000000 --warmup 100 "
                          "--timeout-sec 1 --json-stats " + json, &out);
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 124);
    EXPECT_NE(out.find("TIMEOUT"), std::string::npos);
    std::ifstream in(json);
    ASSERT_TRUE(in.good()) << "partial stats were not flushed";
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(doc.find("\"timed_out\":true"), std::string::npos);
    std::remove(json.c_str());
}

} // namespace
} // namespace stacknoc
