/**
 * @file
 * stacknoc_fuzz — randomized scenario fuzzing under the runtime
 * invariant checkers.
 *
 * Each run draws a random design point (regions, scheme, delay mode,
 * parent hops, technology, write buffer and depth, read priority, TSB
 * placement, admission caps, workload, duration, seed) from a master
 * seed, builds the system with every checker enabled, and simulates.
 * Any invariant violation fails the run; the fuzzer then bisects the
 * duration down to the shortest failing prefix and writes a replayable
 * reproducer file: the case's RunSpec key=value rendering.
 *
 *   stacknoc_fuzz                         # 50 runs from seed 1
 *   stacknoc_fuzz --runs 200 --seed 7
 *   stacknoc_fuzz --replay fuzz-fail-3.txt   # re-run a reproducer
 *   stacknoc_fuzz --faults --jobs 8       # fault campaign, 8 processes
 *
 * With --jobs N the case list is drawn up front (so it is identical
 * for any N) and dealt to N worker processes, each re-invoking this
 * binary on one case file; reproducer names are keyed by case index,
 * so the artifacts are deterministic too.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "noc/packet.hh"
#include "system/cmp_system.hh"
#include "system/run_spec.hh"

using namespace stacknoc;

namespace {

/** Engine threads for every fuzz run (--threads). */
std::uint64_t g_threads = 1;

constexpr const char *kTool = "stacknoc_fuzz";

/** Bounded fault campaign: write BER and link/TSB BER compositions
 *  high enough to exercise every recovery path in a ~4000-cycle run.
 *  Never router_stuck — a wedged router is a watchdog test, not a
 *  recovery one. */
std::string
drawFaultSpec(std::mt19937_64 &rng)
{
    static const char *const write_part[] = {
        "",
        "stt_write_ber=1e-3",
        "stt_write_ber=1e-2",
        "stt_write_ber=5e-2,stt_write_retries=2",
    };
    static const char *const link_part[] = {
        "",
        "link_flit_ber=2e-4",
        "tsb_flit_ber=2e-4",
        "link_flit_ber=5e-4,tsb_flit_ber=1e-4,flit_retries=2",
    };
    // Always two draws, so the master stream stays aligned whatever
    // the composition.
    const std::string w = write_part[rng() % 4];
    const std::string l = link_part[rng() % 4];
    std::string spec = w;
    if (!l.empty())
        spec += (spec.empty() ? "" : ",") + l;
    if (spec.empty())
        spec = "stt_write_ber=1e-3"; // a campaign always injects
    return spec;
}

/** Draw one case. The draw order is fixed: case lists stay identical
 *  for a given master seed. */
system::RunSpec
drawCase(std::mt19937_64 &rng, bool with_faults)
{
    auto pick = [&](auto... vals) {
        using T = std::common_type_t<decltype(vals)...>;
        const T arr[] = {vals...};
        return arr[rng() % (sizeof...(vals))];
    };

    system::RunSpec fc;
    fc.mesh = {4, 4};
    fc.regions = pick(0, 4, 8, 16);
    fc.scheme = *fc.regions == 0 ? "none"
                                 : pick("none", "ss", "rca", "wb");
    fc.delayMode = pick("priority", "hold");
    fc.hops = pick(1, 2, 3);
    fc.tech = pick("sttram", "sttram", "sram"); // bias toward STT-RAM
    fc.placement = pick("corner", "stagger");
    fc.writeBuffer = pick(0, 0, 1);
    fc.writeBufferEntries = pick(4, 20);
    fc.readPriority = pick(0, 0, 1);
    fc.requestCap = pick(4, 8);
    fc.writeCap = pick(16, 32);
    fc.parseKeyValues(std::string("apps=") +
                          pick("tpcc", "sjbb", "lbm", "mcf", "libquantum",
                               "tpcc,lbm,mcf,libquantum",
                               "sap,sjbb,tpcc,milc"),
                      system::kRepro);
    fc.seed = rng();
    fc.warmup = pick(Cycle{0}, Cycle{500});
    fc.cycles = 2000 + rng() % 6000;
    // Bias toward the elision engine (the shipping default) while still
    // fuzzing the full-walk path; the mode is pinned in reproducers.
    fc.elide = pick(1, 1, 1, 0) != 0;
    if (with_faults)
        fc.faultSpec = drawFaultSpec(rng);
    return fc;
}

/** One-line description for progress output. */
std::string
describe(const system::RunSpec &fc)
{
    return fc.toKeyValues(system::kRepro, ' ');
}

/** @return violations seen when running @p fc for @p cycles cycles. */
std::size_t
runCase(system::RunSpec fc, Cycle cycles, bool fail_fast = false)
{
    // Fresh id streams per run, so bisection replays the exact packets
    // of the original failure and consecutive runs can't overflow a
    // stream.
    noc::resetPacketIds();
    fc.threads = g_threads;
    system::SystemConfig cfg;
    if (const std::string err = fc.toConfig(cfg); !err.empty())
        cli::reject(kTool, err);
    cfg.validate = true;
    cfg.validation.failFast = fail_fast; // else collect, then minimize
    system::CmpSystem sys(cfg);
    if (fc.warmup > 0)
        sys.warmup(fc.warmup);
    sys.run(cycles);
    return sys.validation()->violations().size();
}

/** Write @p fc as a reproducer: its RunSpec key=value rendering. */
void
writeCase(const system::RunSpec &fc, const std::string &path)
{
    std::ofstream out(path);
    out << fc.toKeyValues(system::kRepro) << "\n";
    fatal_if(!out, "cannot write reproducer '%s'", path.c_str());
}

/** Read a reproducer; a bad file exits 2 with a one-line reason. */
system::RunSpec
readCase(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        cli::reject(kTool, "cannot read reproducer '" + path + "'");
    std::stringstream text;
    text << in.rdbuf();
    system::RunSpec fc;
    if (const std::string err =
            fc.parseKeyValues(text.str(), system::kRepro);
        !err.empty())
        cli::reject(kTool, path + ": " + err);
    return fc;
}

/**
 * Shrink a failing case to the shortest duration that still fails, by
 * bisecting on the cycle count (the checkers fire deterministically,
 * so a failure at N cycles implies the same violation at every
 * duration >= its detection cycle).
 */
system::RunSpec
minimizeCase(system::RunSpec fc)
{
    Cycle lo = 1;
    Cycle hi = fc.cycles;
    while (lo < hi) {
        const Cycle mid = lo + (hi - lo) / 2;
        std::fprintf(stderr, "  bisect: %llu cycles... ",
                     static_cast<unsigned long long>(mid));
        const std::size_t n = runCase(fc, mid);
        std::fprintf(stderr, "%zu violation(s)\n", n);
        if (n > 0)
            hi = mid;
        else
            lo = mid + 1;
    }
    fc.cycles = lo;
    return fc;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr, R"(usage: stacknoc_fuzz [options]
  --runs N        randomized runs (default 50)
  --seed N        master seed (default 1)
  --out PREFIX    reproducer file prefix (default fuzz-fail)
  --replay FILE   re-run one reproducer with fail-fast diagnostics
  --threads N     execution-engine threads per run (default 1)
  --jobs N        worker processes (default 1; 0 = hardware threads);
                  the case list and reproducer names are identical
                  for any N
  --faults        fault-campaign mode: every case also draws a bounded
                  --fault-spec (see docs/RESILIENCE.md)

Each case randomly draws the engine's idle-elision mode (biased toward
on, the shipping default); the drawn mode is pinned in reproducers via
the elide= key so replays execute the exact engine path.
)");
    std::exit(2);
}

const std::vector<std::string> kKnownOptions = {
    "--runs", "--seed", "--out", "--replay", "--threads", "--jobs",
    "--faults", "--one", "--repro",
};

/**
 * Run one case in this process: simulate, and on violations minimize
 * and write a reproducer to @p repro_path. @return violation count of
 * the full-length run.
 */
std::size_t
fuzzOne(const system::RunSpec &fc, const std::string &repro_path)
{
    const std::size_t n = runCase(fc, fc.cycles);
    if (n == 0)
        return 0;
    std::fprintf(stderr, "  FAILED: %zu violation(s); minimizing\n", n);
    const system::RunSpec min = minimizeCase(fc);
    writeCase(min, repro_path);
    std::fprintf(stderr,
                 "  reproducer written to %s (%llu cycles); replay "
                 "with --replay %s\n",
                 repro_path.c_str(),
                 static_cast<unsigned long long>(min.cycles),
                 repro_path.c_str());
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    int runs = 50;
    std::uint64_t master_seed = 1;
    std::string out_prefix = "fuzz-fail";
    std::string replay_path;
    int jobs = 1;
    bool with_faults = false;
    std::string one_path;     //!< internal: child worker case file
    std::string repro_prefix; //!< internal: child reproducer prefix

    cli::Args args(kTool, {argv + 1, argv + argc});
    while (!args.done()) {
        const std::string arg = args.next();
        if (arg == "--runs") {
            runs = static_cast<int>(args.number(arg, 0, 1000000));
        } else if (arg == "--seed") {
            master_seed = args.number(arg, 0, UINT64_MAX);
        } else if (arg == "--out") {
            out_prefix = args.value(arg);
        } else if (arg == "--replay") {
            replay_path = args.value(arg);
        } else if (arg == "--threads") {
            g_threads = args.number(arg, 1, 1024);
        } else if (arg == "--jobs") {
            jobs = static_cast<int>(args.number(arg, 0, 4096));
        } else if (arg == "--faults") {
            with_faults = true;
        } else if (arg == "--one") {
            one_path = args.value(arg);
        } else if (arg == "--repro") {
            repro_prefix = args.value(arg);
        } else {
            cli::reportUnknownOption(kTool, arg, kKnownOptions);
            usage();
        }
    }

    // Internal worker mode (spawned by --jobs): run one case file,
    // minimize on failure, exit 1 so the parent can count it.
    if (!one_path.empty()) {
        const system::RunSpec fc = readCase(one_path);
        std::fprintf(stderr, "[worker] %s\n", describe(fc).c_str());
        const std::string repro = (repro_prefix.empty()
                                       ? one_path + ".repro"
                                       : repro_prefix) + ".txt";
        return fuzzOne(fc, repro) == 0 ? 0 : 1;
    }

    if (!replay_path.empty()) {
        const system::RunSpec fc = readCase(replay_path);
        std::fprintf(stderr, "replaying: %s\n", describe(fc).c_str());
        // Fail fast: the hub dumps cycle-stamped diagnostics and
        // aborts at the first violating sweep.
        runCase(fc, fc.cycles, true);
        std::printf("replay clean: no violations in %llu cycles\n",
                    static_cast<unsigned long long>(fc.cycles));
        return 0;
    }

    // The whole case list is drawn up front from the master seed, so
    // it is identical whatever --jobs is; reproducer names are keyed
    // by case index for the same reason.
    std::mt19937_64 rng(master_seed);
    std::vector<system::RunSpec> cases;
    cases.reserve(static_cast<std::size_t>(runs));
    for (int r = 0; r < runs; ++r)
        cases.push_back(drawCase(rng, with_faults));

    int failures = 0;
    if (jobs == 1) {
        // Historical in-process path (also the debuggable one).
        for (int r = 0; r < runs; ++r) {
            const system::RunSpec &fc = cases[static_cast<std::size_t>(r)];
            std::fprintf(stderr, "[%3d/%d] %s\n", r + 1, runs,
                         describe(fc).c_str());
            if (fuzzOne(fc, detail::format("%s-%d.txt",
                                           out_prefix.c_str(), r)) > 0)
                ++failures;
        }
    } else {
        if (jobs <= 0) {
            jobs = static_cast<int>(std::thread::hardware_concurrency());
            if (jobs <= 0)
                jobs = 4;
        }
        std::fprintf(stderr, "fuzz: %d case(s) across %d process(es)\n",
                     runs, jobs);

        const auto tmp = std::filesystem::temp_directory_path();
        std::vector<std::string> case_paths(cases.size());
        for (std::size_t r = 0; r < cases.size(); ++r) {
            case_paths[r] =
                (tmp / detail::format("stacknoc_fuzz_%d_%zu.txt",
                                      static_cast<int>(::getpid()), r))
                    .string();
            writeCase(cases[r], case_paths[r]);
        }

        const std::string self = argv[0];
        std::vector<int> rcs(cases.size(), 0);
        std::mutex m;
        std::size_t next = 0;
        auto worker = [&] {
            for (;;) {
                std::size_t idx;
                {
                    std::lock_guard<std::mutex> lk(m);
                    if (next >= cases.size())
                        return;
                    idx = next++;
                }
                std::string cmd = self + " --one " + case_paths[idx] +
                    detail::format(" --repro %s-%zu --threads %llu",
                                   out_prefix.c_str(), idx,
                                   static_cast<unsigned long long>(
                                       g_threads)) +
                    " > /dev/null 2>&1";
                rcs[idx] = std::system(cmd.c_str());
                std::lock_guard<std::mutex> lk(m);
                std::fprintf(
                    stderr, "  [%zu/%zu] %s %s\n", idx + 1, cases.size(),
                    describe(cases[idx]).c_str(),
                    rcs[idx] == 0
                        ? "ok"
                        : detail::format("FAILED (reproducer %s-%zu.txt)",
                                         out_prefix.c_str(), idx)
                              .c_str());
            }
        };
        std::vector<std::thread> pool;
        for (int t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();

        for (std::size_t r = 0; r < cases.size(); ++r) {
            if (rcs[r] != 0)
                ++failures;
            std::filesystem::remove(case_paths[r]);
        }
    }

    std::printf("fuzz: %d/%d run(s) clean (master seed %llu)\n",
                runs - failures, runs,
                static_cast<unsigned long long>(master_seed));
    return failures == 0 ? 0 : 1;
}
