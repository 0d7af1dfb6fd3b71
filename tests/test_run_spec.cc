/**
 * @file
 * RunSpec: every bad input is rejected with a reason naming its field,
 * the argv / key=value / JSON forms round-trip, and the configs the
 * tools build keep the canonical warm specs (hence checkpoint and
 * cache keys) of the hand-rolled parsers RunSpec replaced.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "snapshot/checkpoint.hh"
#include "system/run_spec.hh"

namespace stacknoc::system {
namespace {

/** Parse @p args on @p surface and resolve; @return the first error. */
std::string
argvError(const std::vector<std::string> &args,
          unsigned surface = kRunArgs)
{
    RunSpec spec;
    std::vector<std::string> rest;
    std::string err = spec.parseArgs(args, surface, rest);
    if (err.empty() && !rest.empty())
        err = "unknown option '" + rest.front() + "'";
    SystemConfig cfg;
    if (err.empty())
        err = spec.toConfig(cfg);
    return err;
}

struct BadArgs
{
    std::vector<std::string> args;
    const char *reason; //!< substring the rejection must contain
};

TEST(RunSpec, RejectsEveryBadArgvWithItsReason)
{
    const BadArgs cases[] = {
        {{"--cycles", "abc"}, "--cycles: 'abc' is not an unsigned integer"},
        {{"--cycles", "-1"}, "--cycles: '-1' is not an unsigned integer"},
        {{"--cycles", "0"}, "--cycles must be in 1.."},
        {{"--cycles", "99999999999999999999"}, "--cycles: '9"},
        {{"--seed", "12x"}, "--seed: '12x' is not an unsigned integer"},
        {{"--seed", "+3"}, "--seed: '+3' is not an unsigned integer"},
        {{"--threads", "2x"}, "--threads: '2x' is not an unsigned integer"},
        {{"--threads", "0"}, "--threads must be in 1..1024 (got 0)"},
        {{"--mesh", "0x0"}, "--mesh must be in 1..64 (got 0)"},
        {{"--mesh", "4"}, "--mesh: '4' is not WxH"},
        {{"--mesh", "4x4x4"}, "--mesh: '4x4x4' is not WxH"},
        {{"--mesh", "3x3"}, "regions: mesh 3x3 cannot be tiled into 4"},
        {{"--mesh", "16x16"}, "mesh: 16x16 has 256 cores; at most 64"},
        {{"--mesh", "8x16"}, "mesh: 8x16 has 128 cores"},
        {{"--regions", "5"}, "regions: mesh 8x8 cannot be tiled into 5"},
        {{"--regions", "0"}, "regions: the STT-RAM-aware scheme requires "
                             "region TSBs"},
        {{"--regions", "-4"}, "--regions: '-4' is not an unsigned integer"},
        {{"--hops", "9"}, "--hops must be in 1..3 (got 9)"},
        {{"--hops", "0"}, "--hops must be in 1..3 (got 0)"},
        {{"--placement", "middle"},
         "--placement: 'middle' is not one of corner|stagger"},
        {{"--delay-mode", "wait"},
         "--delay-mode: 'wait' is not one of priority|hold"},
        {{"--app", "nosuchapp"},
         "--app: unknown application 'nosuchapp'"},
        {{"--apps", "tpcc,,lbm"}, "--apps: empty name in 'tpcc,,lbm'"},
        {{"--apps", "tpcc,"}, "--apps: empty name"},
        {{"--scenario", "NOPE"}, "--scenario: unknown scenario 'NOPE'"},
        {{"--fault-spec", "nonsense=9"},
         "--fault-spec: unknown fault-spec key 'nonsense'"},
        {{"--fault-spec", "router_stuck=999:1-2"},
         "fault_spec: router_stuck node 999 out of range"},
        {{"--cycles"}, "--cycles requires a value"},
    };
    for (const auto &c : cases) {
        const std::string err = argvError(c.args);
        EXPECT_NE(err.find(c.reason), std::string::npos)
            << c.args.front() << ": got '" << err << "', want '"
            << c.reason << "'";
    }
}

TEST(RunSpec, RejectsBadJsonAndKeyValues)
{
    const std::pair<const char *, const char *> json[] = {
        {R"({"cycles":0})", "cycles must be in 1.."},
        {R"({"cycles":-5})", "cycles must be a whole number in 0..2^53"},
        {R"({"cycles":1.5})", "cycles must be a whole number"},
        {R"({"seed":1e300})", "seed must be a whole number"},
        {R"({"mesh_width":0})", "mesh must be in 1..64"},
        {R"({"mesh_height":"x"})", "mesh: '8xx' is not WxH"},
        {R"({"regions":-1})", "regions must be a whole number"},
        {R"({"apps":[]})", "apps: empty list"},
        {R"({"apps":["tpcc",7]})", "apps must be an array of strings"},
        {R"({"apps":["bogus"]})", "apps: unknown application 'bogus'"},
        {R"({"scenario":null})", "scenario must not be null"},
        {R"({"elide":2})", "elide: '2' is not 0 or 1"},
        {R"({"fault_spec":"x=1"})", "fault_spec: unknown fault-spec key"},
        {R"({"fault_spec":""})", "fault_spec: empty fault spec"},
    };
    for (const auto &[text, reason] : json) {
        RunSpec spec;
        const auto doc = telemetry::JsonValue::parse(text);
        ASSERT_TRUE(doc.has_value()) << text;
        const std::string err = spec.parseJson(*doc, kWire);
        EXPECT_NE(err.find(reason), std::string::npos)
            << text << ": got '" << err << "'";
    }
    const std::pair<const char *, const char *> kv[] = {
        {"hops=abc", "hops: 'abc' is not an unsigned integer"},
        {"mesh=4", "mesh: '4' is not WxH"},
        {"scheme=fast", "scheme: 'fast' is not one of none|ss|rca|wb"},
        {"write_buffer=2", "write_buffer must be in 0..1 (got 2)"},
        {"scenario=MRAM-4TSB", "unknown key 'scenario'"},
        {"threads=2", "unknown key 'threads'"},
        {"cycles", "'cycles' is not key=value"},
    };
    for (const auto &[text, reason] : kv) {
        RunSpec spec;
        const std::string err = spec.parseKeyValues(text, kRepro);
        EXPECT_NE(err.find(reason), std::string::npos)
            << text << ": got '" << err << "'";
    }
}

TEST(RunSpec, SurfacesExposeOnlyTheirOwnFields)
{
    // The client never had --hops; the wire never had "hops".
    RunSpec spec;
    std::vector<std::string> rest;
    EXPECT_EQ(spec.parseArgs({"--hops", "1", "--seed", "5"}, kClientArgs,
                             rest),
              "");
    EXPECT_EQ(rest, (std::vector<std::string>{"--hops", "1"}));
    EXPECT_EQ(spec.seed, 5u);
    const auto doc = telemetry::JsonValue::parse(R"({"hops":1,"cmd":"run"})");
    EXPECT_EQ(spec.parseJson(*doc, kWire), "");
    EXPECT_FALSE(spec.hops.has_value());
}

TEST(RunSpec, CodeSetValuesAreCheckedToo)
{
    RunSpec spec;
    spec.hops = 9;
    SystemConfig cfg;
    EXPECT_EQ(spec.toConfig(cfg), "hops must be in 1..3 (got 9)");
    spec = RunSpec{};
    spec.apps.clear();
    EXPECT_EQ(spec.toConfig(cfg), "apps: empty list");
    spec = RunSpec{};
    spec.scenario.clear();
    EXPECT_NE(spec.toConfig(cfg).find("scenario: unknown scenario"),
              std::string::npos);
}

TEST(RunSpec, ArgvKeyValueJsonRoundTrip)
{
    const std::vector<std::vector<std::string>> argvs = {
        {},
        {"--scenario", "MRAM-64TSB", "--apps", "tpcc,lbm,mcf,libquantum",
         "--mesh", "4x4", "--seed", "4503599627370497"},
        {"--scenario", "+1VC", "--regions", "16", "--placement", "stagger",
         "--hops", "3", "--delay-mode", "hold", "--no-elide", "--real-tags",
         "--threads", "4", "--cycles", "123", "--warmup", "0",
         "--fault-spec", "stt_write_ber=0.001,link_flit_ber=1e-05"},
        {"--app", "x264", "--mesh", "8x4", "--regions", "8"},
    };
    for (const auto &argv : argvs) {
        RunSpec a;
        std::vector<std::string> rest;
        ASSERT_EQ(a.parseArgs(argv, kRunArgs, rest), "");
        ASSERT_TRUE(rest.empty());

        RunSpec b;
        ASSERT_EQ(b.parseKeyValues(a.toKeyValues(), kAllSurfaces), "");
        EXPECT_EQ(a, b) << a.toKeyValues(kAllSurfaces, ' ');

        std::ostringstream os;
        telemetry::JsonWriter w(os);
        w.beginObject();
        b.writeJson(w, kAllSurfaces);
        w.endObject();
        RunSpec c;
        const auto doc = telemetry::JsonValue::parse(os.str());
        ASSERT_TRUE(doc.has_value()) << os.str();
        ASSERT_EQ(c.parseJson(*doc, kAllSurfaces), "") << os.str();
        EXPECT_EQ(a, c) << os.str();

        RunSpec d;
        ASSERT_EQ(d.parseArgs(c.toArgv(kRunArgs), kRunArgs, rest), "");
        EXPECT_EQ(a, d);
    }
}

TEST(RunSpec, FuzzOnlyFieldsReachTheScenario)
{
    RunSpec spec;
    ASSERT_EQ(spec.parseKeyValues("tech=sram\nscheme=none\nregions=0\n"
                                  "write_buffer=1\nwrite_buffer_entries=4\n"
                                  "read_priority=1\nrequest_cap=4\n"
                                  "write_cap=16\n# comment\n",
                                  kRepro),
              "");
    SystemConfig cfg;
    ASSERT_EQ(spec.toConfig(cfg), "");
    EXPECT_EQ(cfg.scenario.tech, mem::CacheTech::Sram);
    EXPECT_FALSE(cfg.scenario.scheme.has_value());
    EXPECT_EQ(cfg.scenario.tsbRegions, 0);
    EXPECT_TRUE(cfg.scenario.writeBuffer);
    EXPECT_EQ(cfg.scenario.writeBufferEntries, 4);
    EXPECT_TRUE(cfg.scenario.readPriority);
    EXPECT_EQ(cfg.bankRequestCap, 4);
    EXPECT_EQ(cfg.bankWriteCap, 16);
}

TEST(RunSpec, ToConfigOwnsExpansionAndFaultDefaults)
{
    RunSpec spec;
    spec.mesh = {4, 4};
    spec.apps = {"tpcc", "lbm"};
    SystemConfig cfg;
    ASSERT_EQ(spec.toConfig(cfg), "");
    ASSERT_EQ(cfg.apps.size(), 16u);
    EXPECT_EQ(cfg.apps[3], "lbm");
    EXPECT_FALSE(cfg.faultsEnabled);
    EXPECT_FALSE(cfg.watchdogEnabled);

    spec.faultSpec = "stt_write_ber=0"; // all-zero: no injector
    ASSERT_EQ(spec.toConfig(cfg), "");
    EXPECT_FALSE(cfg.faultsEnabled);
    EXPECT_FALSE(cfg.watchdogEnabled);

    spec.faultSpec = "stt_write_ber=1e-3";
    ASSERT_EQ(spec.toConfig(cfg), "");
    EXPECT_TRUE(cfg.faultsEnabled);
    EXPECT_TRUE(cfg.watchdogEnabled);
}

TEST(Scenarios, OneTableServesEveryLookup)
{
    const std::string known = scenarios::knownNames();
    for (const char *name :
         {"SRAM-64TSB", "MRAM-64TSB", "MRAM-4TSB", "MRAM-4TSB-SS",
          "MRAM-4TSB-RCA", "MRAM-4TSB-WB", "BUFF-20", "MRAM-4TSB-WB+1VC",
          "MRAM-RP", "MRAM-4TSB-WB+RP"}) {
        Scenario s;
        ASSERT_TRUE(scenarios::byName(name, s)) << name;
        EXPECT_EQ(s.name, name);
        EXPECT_NE(known.find(name), std::string::npos) << name;
    }
    Scenario alias;
    ASSERT_TRUE(scenarios::byName("+1VC", alias));
    EXPECT_EQ(alias.name, "MRAM-4TSB-WB+1VC");
    const auto six = scenarios::figureSix();
    EXPECT_EQ(six.front().name, "SRAM-64TSB");
    EXPECT_EQ(six.back().name, "MRAM-4TSB-WB");
}

TEST(CheckConfig, HoldsEveryLegalityRule)
{
    SystemConfig ok;
    EXPECT_EQ(checkConfig(ok), "");
    auto with = [](auto mutate) {
        SystemConfig cfg;
        mutate(cfg);
        return checkConfig(cfg);
    };
    EXPECT_EQ(with([](SystemConfig &c) { c.meshWidth = 0; }),
              "mesh: 0x8 has no cores");
    EXPECT_EQ(with([](SystemConfig &c) { c.apps = {"a", "b"}; }),
              "apps must have 1 or 64 entries (got 2)");
    EXPECT_EQ(with([](SystemConfig &c) { c.scenario.parentHops = 4; }),
              "hops: parent distance H=4 is outside the modelled 1..3");
    EXPECT_NE(with([](SystemConfig &c) { c.scenario.tsbRegions = 0; })
                  .find("requires region TSBs"),
              std::string::npos);
    // Unrestricted scenarios still tile the default four regions.
    EXPECT_NE(with([](SystemConfig &c) {
                  c.scenario = scenarios::sttram64Tsb();
                  c.meshWidth = c.meshHeight = 3;
              }).find("cannot be tiled"),
              std::string::npos);
    EXPECT_NE(with([](SystemConfig &c) {
                  c.faultsEnabled = true;
                  c.faults.stuckRouter = 128;
              }).find("router_stuck node 128 out of range"),
              std::string::npos);
}

/** A config as a tool builds it, and its parent-commit warm spec. */
struct Recorded
{
    const char *scenario;
    const char *apps;
    int mesh;
    Cycle warmup;
    const char *warmSpec;
};

// Recorded before RunSpec existed: the golden corpus as stacknoc_run
// built it (4x4, 200 warm-up cycles) and the default sweep grid (8x8,
// 3000) — MRAM-64TSB without the --regions 4 the sweep used to force.
const Recorded kRecorded[] = {
    {"MRAM-64TSB", "tpcc", 4, 200,
     "v=1;mesh=4x4;scenario=MRAM-64TSB;tech=1;tsb=0;placement=0;scheme"
     "=-1;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority=0"
     ";vcs=2,2,1,1,;apps=tpcc,;seed=1;stream=0x3fd3333333333333,0x3ff0"
     "000000000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0x"
     "3feccccccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd3333"
     "333333333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags="
     "0;victim_dirty=0x3fd3333333333333;caps=8,32;warmup=200;faults=of"
     "f"},
    {"MRAM-64TSB", "tpcc,lbm,mcf,libquantum", 4, 200,
     "v=1;mesh=4x4;scenario=MRAM-64TSB;tech=1;tsb=0;placement=0;scheme"
     "=-1;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority=0"
     ";vcs=2,2,1,1,;apps=tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquant"
     "um,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,;seed=1;strea"
     "m=0x3fd3333333333333,0x3ff0000000000000,0x3fc999999999999a,4096,"
     "64,0x3febd70a3d70a3d7,24,0x3feccccccccccccd,0x3fe0000000000000,0"
     "x3fd999999999999a,0x3fd3333333333333,0x3fd6666666666666;l1=64,4,"
     "2,32;dram=320,64;real_tags=0;victim_dirty=0x3fd3333333333333;cap"
     "s=8,32;warmup=200;faults=off"},
    {"MRAM-4TSB", "tpcc", 4, 200,
     "v=1;mesh=4x4;scenario=MRAM-4TSB;tech=1;tsb=4;placement=0;scheme="
     "-1;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority=0;"
     "vcs=2,2,1,1,;apps=tpcc,;seed=1;stream=0x3fd3333333333333,0x3ff00"
     "00000000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0x3"
     "feccccccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd33333"
     "33333333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags=0"
     ";victim_dirty=0x3fd3333333333333;caps=8,32;warmup=200;faults=off"},
    {"MRAM-4TSB", "tpcc,lbm,mcf,libquantum", 4, 200,
     "v=1;mesh=4x4;scenario=MRAM-4TSB;tech=1;tsb=4;placement=0;scheme="
     "-1;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority=0;"
     "vcs=2,2,1,1,;apps=tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantu"
     "m,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,;seed=1;stream"
     "=0x3fd3333333333333,0x3ff0000000000000,0x3fc999999999999a,4096,6"
     "4,0x3febd70a3d70a3d7,24,0x3feccccccccccccd,0x3fe0000000000000,0x"
     "3fd999999999999a,0x3fd3333333333333,0x3fd6666666666666;l1=64,4,2"
     ",32;dram=320,64;real_tags=0;victim_dirty=0x3fd3333333333333;caps"
     "=8,32;warmup=200;faults=off"},
    {"MRAM-4TSB-WB", "tpcc", 4, 200,
     "v=1;mesh=4x4;scenario=MRAM-4TSB-WB;tech=1;tsb=4;placement=0;sche"
     "me=2;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority="
     "0;vcs=2,2,1,1,;apps=tpcc,;seed=1;stream=0x3fd3333333333333,0x3ff"
     "0000000000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0"
     "x3feccccccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd333"
     "3333333333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags"
     "=0;victim_dirty=0x3fd3333333333333;caps=8,32;warmup=200;faults=o"
     "ff"},
    {"MRAM-4TSB-WB", "tpcc,lbm,mcf,libquantum", 4, 200,
     "v=1;mesh=4x4;scenario=MRAM-4TSB-WB;tech=1;tsb=4;placement=0;sche"
     "me=2;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority="
     "0;vcs=2,2,1,1,;apps=tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquan"
     "tum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,;seed=1;stre"
     "am=0x3fd3333333333333,0x3ff0000000000000,0x3fc999999999999a,4096"
     ",64,0x3febd70a3d70a3d7,24,0x3feccccccccccccd,0x3fe0000000000000,"
     "0x3fd999999999999a,0x3fd3333333333333,0x3fd6666666666666;l1=64,4"
     ",2,32;dram=320,64;real_tags=0;victim_dirty=0x3fd3333333333333;ca"
     "ps=8,32;warmup=200;faults=off"},
    {"MRAM-64TSB", "tpcc", 8, 3000,
     "v=1;mesh=8x8;scenario=MRAM-64TSB;tech=1;tsb=0;placement=0;scheme"
     "=-1;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority=0"
     ";vcs=2,2,1,1,;apps=tpcc,;seed=1;stream=0x3fd3333333333333,0x3ff0"
     "000000000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0x"
     "3feccccccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd3333"
     "333333333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags="
     "0;victim_dirty=0x3fd3333333333333;caps=8,32;warmup=3000;faults=o"
     "ff"},
    {"MRAM-64TSB", "tpcc,lbm,mcf,libquantum", 8, 3000,
     "v=1;mesh=8x8;scenario=MRAM-64TSB;tech=1;tsb=0;placement=0;scheme"
     "=-1;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority=0"
     ";vcs=2,2,1,1,;apps=tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquant"
     "um,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,"
     "libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,"
     "lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquant"
     "um,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,"
     "libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,"
     "lbm,mcf,libquantum,;seed=1;stream=0x3fd3333333333333,0x3ff000000"
     "0000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0x3fecc"
     "ccccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd333333333"
     "3333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags=0;vic"
     "tim_dirty=0x3fd3333333333333;caps=8,32;warmup=3000;faults=off"},
    {"MRAM-4TSB", "tpcc", 8, 3000,
     "v=1;mesh=8x8;scenario=MRAM-4TSB;tech=1;tsb=4;placement=0;scheme="
     "-1;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority=0;"
     "vcs=2,2,1,1,;apps=tpcc,;seed=1;stream=0x3fd3333333333333,0x3ff00"
     "00000000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0x3"
     "feccccccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd33333"
     "33333333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags=0"
     ";victim_dirty=0x3fd3333333333333;caps=8,32;warmup=3000;faults=of"
     "f"},
    {"MRAM-4TSB", "tpcc,lbm,mcf,libquantum", 8, 3000,
     "v=1;mesh=8x8;scenario=MRAM-4TSB;tech=1;tsb=4;placement=0;scheme="
     "-1;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority=0;"
     "vcs=2,2,1,1,;apps=tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantu"
     "m,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,l"
     "ibquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,l"
     "bm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantu"
     "m,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,l"
     "ibquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,l"
     "bm,mcf,libquantum,;seed=1;stream=0x3fd3333333333333,0x3ff0000000"
     "000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0x3feccc"
     "cccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd3333333333"
     "333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags=0;vict"
     "im_dirty=0x3fd3333333333333;caps=8,32;warmup=3000;faults=off"},
    {"MRAM-4TSB-WB", "tpcc", 8, 3000,
     "v=1;mesh=8x8;scenario=MRAM-4TSB-WB;tech=1;tsb=4;placement=0;sche"
     "me=2;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority="
     "0;vcs=2,2,1,1,;apps=tpcc,;seed=1;stream=0x3fd3333333333333,0x3ff"
     "0000000000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0"
     "x3feccccccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd333"
     "3333333333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags"
     "=0;victim_dirty=0x3fd3333333333333;caps=8,32;warmup=3000;faults="
     "off"},
    {"MRAM-4TSB-WB", "tpcc,lbm,mcf,libquantum", 8, 3000,
     "v=1;mesh=8x8;scenario=MRAM-4TSB-WB;tech=1;tsb=4;placement=0;sche"
     "me=2;parent_hops=2;delay_mode=0;write_buffer=0:20;read_priority="
     "0;vcs=2,2,1,1,;apps=tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquan"
     "tum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf"
     ",libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc"
     ",lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquan"
     "tum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf"
     ",libquantum,tpcc,lbm,mcf,libquantum,tpcc,lbm,mcf,libquantum,tpcc"
     ",lbm,mcf,libquantum,;seed=1;stream=0x3fd3333333333333,0x3ff00000"
     "00000000,0x3fc999999999999a,4096,64,0x3febd70a3d70a3d7,24,0x3fec"
     "cccccccccccd,0x3fe0000000000000,0x3fd999999999999a,0x3fd33333333"
     "33333,0x3fd6666666666666;l1=64,4,2,32;dram=320,64;real_tags=0;vi"
     "ctim_dirty=0x3fd3333333333333;caps=8,32;warmup=3000;faults=off"},
};

TEST(RunSpec, KeepsTheRecordedCanonicalWarmSpecs)
{
    for (const Recorded &r : kRecorded) {
        RunSpec spec;
        std::vector<std::string> rest;
        const std::string mesh =
            std::to_string(r.mesh) + "x" + std::to_string(r.mesh);
        ASSERT_EQ(spec.parseArgs({"--scenario", r.scenario, "--apps",
                                  r.apps, "--mesh", mesh, "--warmup",
                                  std::to_string(r.warmup)},
                                 kRunArgs, rest),
                  "");
        SystemConfig cfg;
        ASSERT_EQ(spec.toConfig(cfg), "");
        EXPECT_EQ(snapshot::canonicalWarmSpec(cfg, spec.warmup),
                  r.warmSpec)
            << r.scenario << " " << r.apps << " " << mesh;
    }
}

} // namespace
} // namespace stacknoc::system
