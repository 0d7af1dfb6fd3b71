/**
 * @file
 * stacknoc_sweep — campaign runner for throughput baselines.
 *
 * Fans a scenario grid (scheme x regions x app mix x seed) across
 * parallel stacknoc_run child processes, harvests each child's JSON
 * stats, and writes one merged benchmark artifact (fig6-style IPC and
 * latency per design point plus wall-clock sims/sec). It also measures
 * the sharded engine's speedup on one fig6 scenario (1 thread vs
 * --speedup-threads) and records it alongside the grid, seeding the
 * perf trajectory tracked in BENCH_throughput.json.
 *
 * Every run record carries a config_digest — the campaign-server cache
 * key for that design point — which makes campaigns resumable:
 * --resume reloads a partial artifact and re-runs only the grid points
 * it is missing. With --server SOCKET the sweep submits jobs to a
 * running stacknoc_serve instead of spawning child processes, so
 * repeated sweeps hit the server's result cache and sweep points
 * sharing a warm configuration reuse warm checkpoints.
 *
 *   stacknoc_sweep --out BENCH_throughput.json
 *   stacknoc_sweep --schemes MRAM-4TSB,MRAM-4TSB-WB --seeds 3 --jobs 8
 *   stacknoc_sweep --server /tmp/stacknoc.sock --resume
 */

#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "server/client.hh"
#include "server/protocol.hh"
#include "system/run_spec.hh"
#include "telemetry/json.hh"

using namespace stacknoc;

namespace {

struct SweepJob
{
    system::RunSpec spec;
    std::string mix;  //!< spec.apps as the comma list given
    int regions = 0;  //!< effective region count (for the record)
    std::string tag;  //!< "grid" or "speedup"
};

struct SweepResult
{
    SweepJob job;
    bool ok = false;
    /** Child's specific exit code (128+signal if killed); 0 when ok. */
    int exitCode = 0;
    std::string configDigest; //!< campaign cache key for this point
    std::string statsDigest;  //!< child's full-stats digest ("0x...")
    double meanIpc = 0.0;
    double instrThroughput = 0.0;
    double avgNetLatency = 0.0;
    double p95NetLatency = 0.0;
    double wallSeconds = 0.0;
    double ticksPerSec = 0.0;
    double activeFraction = 0.0; //!< child's perf.active_fraction
    double totalEnergyUJ = 0.0; //!< child's metrics.energy_uj.total
    double peakTempC = 0.0;     //!< child's thermal.peak_c (0 if off)
    /** Engine-phase wall-time breakdown (child's profile.phases). */
    std::vector<std::pair<std::string, double>> phases;
};

struct SweepOptions
{
    std::vector<std::string> schemes{"MRAM-64TSB", "MRAM-4TSB",
                                     "MRAM-4TSB-WB"};
    /** Region overrides; empty keeps each scenario's own count. */
    std::vector<std::uint64_t> regions;
    std::vector<std::string> mixes{"tpcc", "tpcc,lbm,mcf,libquantum"};
    int seeds = 1;
    system::RunSpec base; //!< --cycles/--warmup/--threads for every point
    int jobs = 0; //!< 0 = hardware concurrency
    std::string runner;
    std::string out = "BENCH_throughput.json";
    std::string speedupScenario = "MRAM-4TSB-WB";
    int speedupThreads = 4;
    bool speedup = true;
    bool profile = true;
    bool thermal = true;
    bool resume = false;
    std::string server; //!< stacknoc_serve socket; empty = children
    int connectRetries = 0;    //!< --server connect re-attempts
    int connectBackoffMs = 100; //!< base backoff, doubled per retry
};

std::vector<std::string>
splitList(const std::string &list, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    for (std::string item; std::getline(ss, item, sep);)
        if (!item.empty())
            out.push_back(item);
    return out;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr, R"(usage: stacknoc_sweep [options]
  --schemes A,B,..   scenario names (default MRAM-64TSB,MRAM-4TSB,MRAM-4TSB-WB)
  --regions N,..     region counts (default: each scenario's own)
  --mixes M1:M2:..   app mixes, ':'-separated, each a comma list
                     (default tpcc:tpcc,lbm,mcf,libquantum)
  --seeds N          seeds 1..N per design point (default 1)
%s  --jobs N           parallel child processes (default: hw threads)
  --runner PATH      stacknoc_run binary (default: next to this binary)
  --out FILE         merged artifact (default BENCH_throughput.json)
  --speedup-scenario NAME  fig6 scenario for the 1-vs-N thread speedup
                     measurement (default MRAM-4TSB-WB)
  --speedup-threads N  parallel-engine thread count to measure (default 4)
  --no-speedup       skip the speedup measurement
  --no-profile       don't fold the engine-phase profile into run records
  --no-thermal       don't run children with --thermal (run records then
                     carry zero total_energy_uj / peak_temp_c)
  --resume           reload an existing --out artifact and skip grid
                     points whose config_digest is already present with
                     ok:true (interrupted campaigns pick up where they
                     stopped)
  --server SOCKET    submit jobs to a running stacknoc_serve on this
                     Unix socket instead of spawning child processes
                     (run records then carry no thermal/profile data)
  --connect-retries N    with --server: re-attempt a refused/missing
                     socket up to N times (default 0)
  --connect-backoff-ms N base connect retry backoff, doubled per retry
                     (default 100)
)",
                 system::RunSpec::usage(system::kSweepArgs).c_str());
    std::exit(2);
}

const std::vector<std::string> kKnownOptions = {
    "--schemes", "--regions", "--mixes", "--seeds", "--cycles",
    "--warmup", "--jobs", "--threads", "--runner", "--out",
    "--speedup-scenario", "--speedup-threads", "--no-speedup",
    "--no-profile", "--no-thermal", "--resume", "--server",
    "--connect-retries", "--connect-backoff-ms",
};

/** The campaign-server cache key of @p job, as the artifact records it. */
std::string
configDigest(const SweepJob &job)
{
    return server::hexKey(server::cacheKeyDigest({job.spec, 0}));
}

/**
 * fork/exec @p args (argv[0] is the binary), stdout/stderr to
 * /dev/null. @return the child's specific exit code, 128+signal if it
 * was killed, or -1 if the spawn itself failed.
 */
int
runChild(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            ::dup2(devnull, STDERR_FILENO);
            ::close(devnull);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0)
        return -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

/** Run one child via fork/exec, parse its --json-stats output. */
SweepResult
runJob(const SweepOptions &opt, const SweepJob &job, int idx)
{
    SweepResult res;
    res.job = job;
    res.configDigest = configDigest(job);

    const std::string json_path =
        (std::filesystem::temp_directory_path() /
         detail::format("stacknoc_sweep_%d_%d.json",
                        static_cast<int>(::getpid()), idx))
            .string();

    std::vector<std::string> args{opt.runner};
    for (std::string &a : job.spec.toArgv(system::kRunArgs))
        args.push_back(std::move(a));
    args.insert(args.end(), {"--digest", "--json-stats", json_path});
    if (opt.profile)
        args.push_back("--profile");
    if (opt.thermal)
        args.push_back("--thermal"); // implies --power

    const int rc = runChild(args);
    res.exitCode = rc;
    if (rc != 0) {
        warn("sweep: child failed (exit=%d): %s %s r%d %s seed=%llu",
             rc, opt.runner.c_str(), job.spec.scenario.c_str(),
             job.regions, job.mix.c_str(),
             static_cast<unsigned long long>(job.spec.seed));
        return res;
    }

    std::ifstream in(json_path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::filesystem::remove(json_path);

    std::string err;
    const auto doc = telemetry::JsonValue::parse(buf.str(), &err);
    if (!doc) {
        warn("sweep: bad child json (%s) for %s seed=%llu", err.c_str(),
             job.spec.scenario.c_str(),
             static_cast<unsigned long long>(job.spec.seed));
        return res;
    }

    const auto *metrics = doc->find("metrics");
    const auto *perf = doc->find("perf");
    if (!metrics || !perf) {
        warn("sweep: child json missing metrics/perf for %s",
             job.spec.scenario.c_str());
        return res;
    }
    auto num = [](const telemetry::JsonValue *obj, const char *key) {
        const auto *v = obj->find(key);
        return v && v->isNumber() ? v->asDouble() : 0.0;
    };
    res.meanIpc = num(metrics, "mean_ipc");
    res.instrThroughput = num(metrics, "instruction_throughput");
    res.avgNetLatency = num(metrics, "avg_network_latency");
    res.p95NetLatency = num(metrics, "p95_network_latency");
    res.wallSeconds = num(perf, "wall_seconds");
    res.ticksPerSec = num(perf, "ticks_per_sec");
    res.activeFraction = num(perf, "active_fraction");
    if (const auto *energy = metrics->find("energy_uj");
        energy && energy->isObject())
        res.totalEnergyUJ = num(energy, "total");
    if (const auto *thermal = doc->find("thermal");
        thermal && thermal->isObject())
        res.peakTempC = num(thermal, "peak_c");
    if (const auto *profile = doc->find("profile");
        profile && profile->isObject()) {
        if (const auto *phases = profile->find("phases");
            phases && phases->isObject()) {
            for (const auto &[name, v] : phases->members())
                if (v.isNumber())
                    res.phases.emplace_back(name, v.asDouble());
        }
    }
    if (const auto *run = doc->find("run"); run && run->isObject())
        if (const auto *d = run->find("stats_digest");
            d && d->isString())
            res.statsDigest = d->asString();
    res.ok = true;
    return res;
}

/**
 * Run all @p jobs through a stacknoc_serve campaign server: submit
 * every request up-front (the server parallelises across its worker
 * pool and serves repeats from its result cache), then harvest events.
 * @return false if the connection fails before every job completes.
 */
bool
runJobsViaServer(const SweepOptions &opt,
                 const std::vector<SweepJob> &jobs,
                 std::vector<SweepResult> &results)
{
    server::Connection conn;
    std::string err;
    if (!conn.connectWithRetry(opt.server, opt.connectRetries,
                               opt.connectBackoffMs, err)) {
        warn("sweep: %s", err.c_str());
        return false;
    }

    // accepted events arrive in submission order, which maps the
    // server-assigned job ids onto our indices.
    std::deque<std::size_t> awaitingAccept;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        results[i].job = jobs[i];
        results[i].configDigest = configDigest(jobs[i]);
        std::ostringstream os;
        telemetry::JsonWriter w(os);
        w.beginObject();
        w.kv("cmd", "run");
        server::JobRequest{jobs[i].spec, 0}.write(w);
        w.endObject();
        if (!conn.sendLine(os.str(), err)) {
            warn("sweep: %s", err.c_str());
            return false;
        }
        awaitingAccept.push_back(i);
    }

    std::map<std::uint64_t, std::size_t> byId;
    std::size_t outstanding = jobs.size();
    std::string line;
    while (outstanding > 0 && conn.readLine(line, err)) {
        std::string perr;
        const auto doc = telemetry::JsonValue::parse(line, &perr);
        if (!doc || !doc->isObject())
            continue;
        const auto *ev = doc->find("event");
        const std::string kind =
            ev && ev->isString() ? ev->asString() : "";
        std::uint64_t id = 0;
        if (const auto *m = doc->find("id"); m && m->isNumber())
            id = static_cast<std::uint64_t>(m->asDouble());

        if (kind == "accepted") {
            if (!awaitingAccept.empty()) {
                byId[id] = awaitingAccept.front();
                awaitingAccept.pop_front();
            }
            continue;
        }
        const auto owner = byId.find(id);
        if (owner == byId.end())
            continue;
        SweepResult &res = results[owner->second];
        if (kind == "error") {
            const auto *reason = doc->find("reason");
            warn("sweep: server error on %s: %s",
                 res.job.spec.scenario.c_str(),
                 reason && reason->isString()
                     ? reason->asString().c_str()
                     : "?");
            res.exitCode = 1;
            --outstanding;
            continue;
        }
        if (kind != "result")
            continue;
        const auto *data = doc->find("data");
        if (data && data->isObject()) {
            const auto num = [&](const char *key) {
                const auto *v = data->find(key);
                return v && v->isNumber() ? v->asDouble() : 0.0;
            };
            res.meanIpc = num("mean_ipc");
            res.instrThroughput = num("instruction_throughput");
            res.avgNetLatency = num("avg_network_latency");
            res.p95NetLatency = num("p95_network_latency");
            res.wallSeconds = num("wall_seconds");
            res.ticksPerSec = num("ticks_per_sec");
            res.activeFraction = num("active_fraction");
            res.totalEnergyUJ = num("total_energy_uj");
            if (const auto *d = data->find("stats_digest");
                d && d->isString())
                res.statsDigest = d->asString();
            res.ok = true;
        } else {
            res.exitCode = 1;
        }
        --outstanding;
    }
    if (outstanding > 0) {
        warn("sweep: server connection lost with %zu job(s) pending%s%s",
             outstanding, err.empty() ? "" : ": ", err.c_str());
        return false;
    }
    return true;
}

/**
 * Load ok:true grid records from a previous artifact, keyed by
 * config_digest, so --resume can skip and re-emit them verbatim.
 */
std::map<std::string, std::string>
loadResume(const std::string &path)
{
    std::map<std::string, std::string> records;
    std::ifstream in(path);
    if (!in)
        return records;
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto doc = telemetry::JsonValue::parse(buf.str(), &err);
    if (!doc || !doc->isObject()) {
        warn("sweep: cannot resume from '%s': %s", path.c_str(),
             err.empty() ? "not a JSON object" : err.c_str());
        return records;
    }
    const auto *runs = doc->find("runs");
    if (!runs || !runs->isArray())
        return records;
    for (const telemetry::JsonValue &r : runs->elements()) {
        if (!r.isObject())
            continue;
        const auto *ok = r.find("ok");
        const auto *digest = r.find("config_digest");
        if (ok && ok->type() == telemetry::JsonValue::Type::Bool &&
            ok->asBool() && digest && digest->isString())
            records[digest->asString()] =
                server::jsonValueToString(r);
    }
    return records;
}

void
writeRun(telemetry::JsonWriter &w, const SweepResult &r)
{
    w.beginObject();
    w.kv("scenario", r.job.spec.scenario);
    w.kv("regions", r.job.regions);
    w.kv("mix", r.job.mix);
    w.kv("seed", r.job.spec.seed);
    w.kv("threads", r.job.spec.threads);
    w.kv("ok", r.ok);
    w.kv("exit_code", r.exitCode);
    w.kv("config_digest", r.configDigest);
    w.kv("stats_digest", r.statsDigest);
    w.kv("mean_ipc", r.meanIpc);
    w.kv("instruction_throughput", r.instrThroughput);
    w.kv("avg_network_latency", r.avgNetLatency);
    w.kv("p95_network_latency", r.p95NetLatency);
    w.kv("wall_seconds", r.wallSeconds);
    w.kv("ticks_per_sec", r.ticksPerSec);
    w.kv("active_fraction", r.activeFraction);
    w.kv("total_energy_uj", r.totalEnergyUJ);
    w.kv("peak_temp_c", r.peakTempC);
    w.key("profile_phases");
    if (r.phases.empty()) {
        w.null();
    } else {
        w.beginObject();
        for (const auto &[name, seconds] : r.phases)
            w.kv(name, seconds);
        w.endObject();
    }
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    constexpr const char *kTool = "stacknoc_sweep";
    SweepOptions opt;

    std::vector<std::string> rest;
    if (const std::string err = opt.base.parseArgs(
            {argv + 1, argv + argc}, system::kSweepArgs, rest);
        !err.empty())
        cli::reject(kTool, err);
    cli::Args args(kTool, rest);
    while (!args.done()) {
        const std::string arg = args.next();
        if (arg == "--schemes") {
            opt.schemes = splitList(args.value(arg), ',');
        } else if (arg == "--regions") {
            opt.regions.clear();
            for (const auto &r : splitList(args.value(arg), ',')) {
                std::uint64_t n = 0;
                if (const std::string err =
                        cli::parseUint(arg, r, 0, system::kMaxCores, n);
                    !err.empty())
                    cli::reject(kTool, err);
                opt.regions.push_back(n);
            }
        } else if (arg == "--mixes") {
            opt.mixes = splitList(args.value(arg), ':');
        } else if (arg == "--seeds") {
            opt.seeds = static_cast<int>(args.number(arg, 1, 1000000));
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<int>(args.number(arg, 0, 4096));
        } else if (arg == "--runner") {
            opt.runner = args.value(arg);
        } else if (arg == "--out") {
            opt.out = args.value(arg);
        } else if (arg == "--speedup-scenario") {
            opt.speedupScenario = args.value(arg);
        } else if (arg == "--speedup-threads") {
            opt.speedupThreads = static_cast<int>(args.number(arg, 2, 1024));
        } else if (arg == "--no-speedup") {
            opt.speedup = false;
        } else if (arg == "--no-profile") {
            opt.profile = false;
        } else if (arg == "--no-thermal") {
            opt.thermal = false;
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--server") {
            opt.server = args.value(arg);
        } else if (arg == "--connect-retries") {
            opt.connectRetries =
                static_cast<int>(args.number(arg, 0, 1000000));
        } else if (arg == "--connect-backoff-ms") {
            opt.connectBackoffMs =
                static_cast<int>(args.number(arg, 0, 3600000));
        } else {
            cli::reportUnknownOption(kTool, arg, kKnownOptions);
            usage();
        }
    }

    if (opt.runner.empty()) {
        // Default: the stacknoc_run built next to this binary.
        opt.runner = (std::filesystem::path(argv[0]).parent_path() /
                      "stacknoc_run")
                         .string();
    }
    fatal_if(opt.server.empty() &&
                 !std::filesystem::exists(opt.runner),
             "runner '%s' not found (use --runner)", opt.runner.c_str());
    if (opt.jobs <= 0) {
        opt.jobs = static_cast<int>(std::thread::hardware_concurrency());
        if (opt.jobs <= 0)
            opt.jobs = 4;
    }

    // Build the job list: the full grid, then the speedup pair. A
    // point without --regions keeps its scenario's own region count.
    std::vector<SweepJob> jobs;
    auto add = [&](const std::string &scenario,
                   std::optional<std::uint64_t> regions,
                   const std::string &mix, std::uint64_t seed,
                   std::uint64_t threads, const char *tag) {
        SweepJob j;
        j.spec = opt.base;
        j.spec.scenario = scenario;
        j.spec.regions = regions;
        j.spec.apps = splitList(mix, ',');
        j.spec.seed = seed;
        j.spec.threads = threads;
        j.mix = mix;
        j.tag = tag;
        system::SystemConfig cfg;
        if (const std::string err = j.spec.toConfig(cfg); !err.empty())
            cli::reject(kTool, err);
        j.regions = cfg.scenario.tsbRegions;
        jobs.push_back(std::move(j));
    };
    std::vector<std::optional<std::uint64_t>> regionAxis(
        opt.regions.begin(), opt.regions.end());
    if (regionAxis.empty())
        regionAxis.emplace_back();
    for (const auto &scheme : opt.schemes)
        for (const auto &regions : regionAxis)
            for (const auto &mix : opt.mixes)
                for (int s = 1; s <= opt.seeds; ++s)
                    add(scheme, regions, mix, static_cast<std::uint64_t>(s),
                        opt.base.threads, "grid");
    if (opt.speedup)
        for (const std::uint64_t t :
             {std::uint64_t{1}, std::uint64_t(opt.speedupThreads)})
            add(opt.speedupScenario, regionAxis.front(), opt.mixes.front(),
                1, t, "speedup");

    // --resume: skip grid points an earlier (interrupted) campaign
    // already completed; their records are re-emitted verbatim.
    std::vector<std::string> resumedRecords;
    if (opt.resume) {
        const auto prior = loadResume(opt.out);
        if (!prior.empty()) {
            std::vector<SweepJob> pending;
            for (const auto &j : jobs) {
                if (j.tag == "grid") {
                    if (const auto it = prior.find(configDigest(j));
                        it != prior.end()) {
                        resumedRecords.push_back(it->second);
                        continue;
                    }
                }
                pending.push_back(j);
            }
            std::fprintf(stderr,
                         "sweep: resume skips %zu completed grid "
                         "point(s) from %s\n",
                         resumedRecords.size(), opt.out.c_str());
            jobs = std::move(pending);
        }
    }

    std::vector<SweepResult> results(jobs.size());
    if (!opt.server.empty()) {
        std::fprintf(stderr, "sweep: %zu job(s) via server %s\n",
                     jobs.size(), opt.server.c_str());
        if (!runJobsViaServer(opt, jobs, results))
            return 1;
        for (std::size_t i = 0; i < results.size(); ++i)
            std::fprintf(stderr, "  [%zu/%zu] %s r%d %s seed=%llu "
                         "t%d %s\n",
                         i + 1, results.size(),
                         jobs[i].spec.scenario.c_str(), jobs[i].regions,
                         jobs[i].mix.c_str(),
                         static_cast<unsigned long long>(jobs[i].spec.seed),
                         static_cast<int>(jobs[i].spec.threads),
                         results[i].ok ? "ok" : "FAILED");
    } else {
        std::fprintf(stderr,
                     "sweep: %zu job(s) across %d process(es)\n",
                     jobs.size(), opt.jobs);
        std::mutex m;
        std::size_t next = 0;
        auto worker = [&] {
            for (;;) {
                std::size_t idx;
                {
                    std::lock_guard<std::mutex> lk(m);
                    if (next >= jobs.size())
                        return;
                    idx = next++;
                }
                results[idx] =
                    runJob(opt, jobs[idx], static_cast<int>(idx));
                std::lock_guard<std::mutex> lk(m);
                std::fprintf(stderr, "  [%zu/%zu] %s r%d %s seed=%llu "
                             "t%d %s\n",
                             idx + 1, jobs.size(),
                             jobs[idx].spec.scenario.c_str(),
                             jobs[idx].regions,
                             jobs[idx].mix.c_str(),
                             static_cast<unsigned long long>(
                                 jobs[idx].spec.seed),
                             static_cast<int>(jobs[idx].spec.threads),
                             results[idx].ok ? "ok" : "FAILED");
            }
        };
        std::vector<std::thread> pool;
        for (int t = 0; t < opt.jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    int failed = 0;
    int firstExit = 0;
    for (const auto &r : results) {
        if (r.ok)
            continue;
        ++failed;
        if (firstExit == 0)
            firstExit = r.exitCode > 0 ? r.exitCode : 1;
    }

    // Merge into the benchmark artifact.
    std::ofstream out(opt.out);
    fatal_if(!out, "cannot open '%s'", opt.out.c_str());
    telemetry::JsonWriter w(out);
    w.beginObject();
    w.kv("bench", "throughput");
    w.kv("tool", "stacknoc_sweep");
    // Version 5: run records gain exit_code, config_digest (the
    // campaign-server cache key, also the --resume identity) and
    // stats_digest. Version 4 added active_fraction; version 3 added
    // total_energy_uj and peak_temp_c; version 2 added profile_phases.
    // Readers should ignore unknown fields but may key behavior off
    // this stamp; older readers keep working, the new fields only add.
    w.kv("schema_version", 5);
    w.key("grid");
    w.beginObject();
    w.kv("cycles", opt.base.cycles);
    w.kv("warmup", opt.base.warmup);
    w.kv("seeds", opt.seeds);
    w.kv("threads", opt.base.threads);
    // Interprets the speedup number: a 4-thread engine on a 1-core host
    // cannot beat sequential no matter how good the sharding is.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    w.kv("hardware_threads", hw);
    if (opt.speedup && hw < opt.speedupThreads) {
        w.kv("limitation",
             detail::format(
                 "recorded on a %d-hardware-thread host: the %d-thread "
                 "speedup measurement is oversubscribed and expected "
                 "to be <= 1x; re-record on a multi-core host for a "
                 "meaningful parallel-engine number",
                 hw, opt.speedupThreads));
    }
    w.endObject();
    w.key("runs");
    w.beginArray();
    for (const auto &rec : resumedRecords) {
        std::string err;
        if (const auto v = telemetry::JsonValue::parse(rec, &err))
            server::writeJsonValue(w, *v);
    }
    for (const auto &r : results)
        if (r.job.tag == "grid")
            writeRun(w, r);
    w.endArray();

    w.key("speedup");
    const SweepResult *base = nullptr, *par = nullptr;
    for (const auto &r : results) {
        if (r.job.tag != "speedup")
            continue;
        (r.job.spec.threads == 1 ? base : par) = &r;
    }
    if (base && par && base->ok && par->ok) {
        w.beginObject();
        w.kv("scenario", base->job.spec.scenario);
        w.kv("mix", base->job.mix);
        w.kv("cycles", opt.base.cycles);
        w.kv("base_threads", 1);
        w.kv("base_ticks_per_sec", base->ticksPerSec);
        w.kv("par_threads", par->job.spec.threads);
        w.kv("par_ticks_per_sec", par->ticksPerSec);
        const double speedup = base->ticksPerSec > 0.0
                                   ? par->ticksPerSec / base->ticksPerSec
                                   : 0.0;
        w.kv("speedup", speedup);
        w.endObject();
        std::fprintf(stderr,
                     "sweep: speedup %dT vs 1T on %s = %.2fx "
                     "(%.0f vs %.0f ticks/s)\n",
                     static_cast<int>(par->job.spec.threads),
                     base->job.spec.scenario.c_str(),
                     speedup, par->ticksPerSec, base->ticksPerSec);
    } else {
        w.null();
    }
    w.endObject();
    out << "\n";

    std::printf("sweep: %zu job(s) (%zu resumed), %d failed, "
                "artifact %s\n",
                results.size() + resumedRecords.size(),
                resumedRecords.size(), failed, opt.out.c_str());
    // A failed campaign exits with the first child's specific code so
    // callers can tell a simulation abort from a bad checkpoint (2),
    // a missing binary (127) or a crash (128+signal).
    return failed == 0 ? 0 : firstExit;
}
