/**
 * @file
 * Idle-elision throughput micro-benchmark and CI perf smoke: runs the
 * same tpcc system twice — elision on and off (--no-elide semantics) —
 * and reports ticks/sec for both plus the active-set occupancy. With
 * --check, exits nonzero when the elision build is slower than the
 * full walk beyond a tolerance, so a regression that makes the skip
 * machinery cost more than the skipped ticks fails CI.
 *
 * Usage: bench_ticks [--cycles N] [--warmup N] [--scenario NAME]
 *                    [--threads N] [--check] [--tolerance F]
 */

#include <cstdio>
#include <limits>
#include <string>

#include "common/cli.hh"
#include "noc/packet.hh"
#include "system/cmp_system.hh"
#include "system/run_spec.hh"

using namespace stacknoc;

namespace {

struct Result
{
    double ticksPerSec = 0.0;
    double activeFraction = 1.0;
    double wallSeconds = 0.0;
};

Result
measure(system::SystemConfig cfg, Cycle warmup, Cycle cycles, bool elide)
{
    noc::resetPacketIds();
    cfg.elide = elide;
    system::CmpSystem sys(cfg);
    sys.warmup(warmup);
    sys.run(cycles);
    Result r;
    r.ticksPerSec = sys.ticksPerSecond();
    r.activeFraction = sys.engineActiveFraction();
    r.wallSeconds = sys.wallSeconds();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr auto kAny = std::numeric_limits<std::uint64_t>::max();
    system::RunSpec spec; // tpcc, seed 1, MRAM-4TSB-WB by default
    spec.mesh = {4, 4};
    spec.cycles = 20000;
    spec.warmup = 2000;
    bool check = false;
    double tolerance = 0.05;

    cli::Args args("bench_ticks", {argv + 1, argv + argc});
    while (!args.done()) {
        const std::string arg = args.next();
        if (arg == "--cycles") {
            spec.cycles = args.number(arg, 1, kAny);
        } else if (arg == "--warmup") {
            spec.warmup = args.number(arg, 0, kAny);
        } else if (arg == "--scenario") {
            spec.scenario = args.value(arg);
        } else if (arg == "--threads") {
            spec.threads = args.number(arg, 1, 1024);
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--tolerance") {
            tolerance = args.real(arg, 0.0, 1.0);
        } else {
            args.reject("unknown option '" + arg + "'");
        }
    }
    system::SystemConfig cfg;
    if (const std::string err = spec.toConfig(cfg); !err.empty())
        args.reject(err);

    // Full walk first so caches are equally warm for the elision leg.
    const Result off = measure(cfg, spec.warmup, spec.cycles, false);
    const Result on = measure(cfg, spec.warmup, spec.cycles, true);

    const double speedup =
        off.ticksPerSec > 0.0 ? on.ticksPerSec / off.ticksPerSec : 0.0;
    std::printf("bench_ticks scenario=%s threads=%d cycles=%llu\n",
                cfg.scenario.name.c_str(), cfg.threads,
                static_cast<unsigned long long>(spec.cycles));
    std::printf("  no-elide: %.0f ticks/s (wall %.3fs)\n",
                off.ticksPerSec, off.wallSeconds);
    std::printf("  elide:    %.0f ticks/s (wall %.3fs, "
                "active_fraction %.3f)\n",
                on.ticksPerSec, on.wallSeconds, on.activeFraction);
    std::printf("  speedup:  %.2fx\n", speedup);

    if (check && speedup < 1.0 - tolerance) {
        std::fprintf(stderr,
                     "bench_ticks: FAIL — elision build is %.1f%% "
                     "slower than --no-elide (tolerance %.1f%%)\n",
                     (1.0 - speedup) * 100.0, tolerance * 100.0);
        return 1;
    }
    return 0;
}
