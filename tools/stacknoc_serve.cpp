/**
 * @file
 * stacknoc_serve — the simulation campaign server.
 *
 * Listens on a Unix-domain socket for NDJSON commands (see
 * docs/SERVER.md and src/server/protocol.hh), runs jobs on a pool of
 * worker processes with warm-checkpoint reuse, and caches results by
 * full-config digest. The same socket serves status and the
 * Prometheus metrics text (`stacknoc_client --socket S metrics`).
 *
 * Also hosts the worker entry point: `stacknoc_serve --worker` turns
 * this process into a job worker reading stdin / writing stdout; the
 * server spawns its pool that way, so there is exactly one binary.
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include <unistd.h>

#include "common/cli.hh"
#include "server/server.hh"
#include "server/worker.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--workers N] [--ckpt-dir D]\n"
        "          [--ckpt-cap-bytes N] [--log-json FILE]\n"
        "          [--log-rotate-bytes N] [--store-dir D] [--max-queue N]\n"
        "          [--job-retries N] [--job-backoff-ms N]\n"
        "          [--job-deadline-sec N] [--chaos SPEC] [--chaos-seed N]\n"
        "\n"
        "  --socket PATH        Unix socket to listen on (required); it\n"
        "                       takes run, status, metrics and shutdown\n"
        "  --workers N          worker-process pool size (default 1)\n"
        "  --ckpt-dir D         warm-checkpoint directory shared by\n"
        "                       workers (default: none, no warm reuse)\n"
        "  --ckpt-cap-bytes N   LRU byte cap on the checkpoint dir\n"
        "                       (default 0 = unbounded)\n"
        "  --log-json FILE      job-lifecycle NDJSON event log\n"
        "  --log-rotate-bytes N log rotation cap (default 16 MiB)\n"
        "  --store-dir D        durable result store: results persist\n"
        "                       here and reload on restart\n"
        "  --max-queue N        shed submissions beyond N queued jobs\n"
        "                       (default 0 = unbounded)\n"
        "  --job-retries N      re-dispatches after a worker death or\n"
        "                       deadline kill (default 2)\n"
        "  --job-backoff-ms N   base retry backoff, doubled per retry\n"
        "                       (default 200)\n"
        "  --job-deadline-sec N kill and retry a worker past this\n"
        "                       per-attempt deadline (default 0 = off)\n"
        "  --chaos SPEC         failure injection: %s\n"
        "  --chaos-seed N       chaos draw seed (default 1)\n"
        "  --worker             internal: run as a pool worker\n",
        argv0, stacknoc::server::chaosGrammar());
}

std::string
selfExe(const char *argv0)
{
    // /proc/self/exe survives PATH lookups and cwd changes; argv[0] is
    // the fallback on filesystems where /proc is absent.
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    std::string ckptDir;
    std::string logJsonPath;
    std::string storeDir;
    std::string chaosSpec;
    std::uint64_t ckptCapBytes = 0;
    std::uint64_t logRotateBytes = 0;
    std::uint64_t chaosSeed = 1;
    int workers = 1;
    int maxQueue = 0;
    int jobRetries = 2;
    int jobBackoffMs = 200;
    int jobDeadlineSec = 0;
    bool workerMode = false;

    constexpr auto kAny = std::numeric_limits<std::uint64_t>::max();
    stacknoc::cli::Args args("stacknoc_serve", {argv + 1, argv + argc});
    while (!args.done()) {
        const std::string arg = args.next();
        const auto intArg = [&](std::uint64_t lo, std::uint64_t hi) {
            return static_cast<int>(args.number(arg, lo, hi));
        };
        if (arg == "--socket") {
            socketPath = args.value(arg);
        } else if (arg == "--workers") {
            workers = intArg(1, 1024);
        } else if (arg == "--ckpt-dir") {
            ckptDir = args.value(arg);
        } else if (arg == "--ckpt-cap-bytes") {
            ckptCapBytes = args.number(arg, 0, kAny);
        } else if (arg == "--log-json") {
            logJsonPath = args.value(arg);
        } else if (arg == "--log-rotate-bytes") {
            logRotateBytes = args.number(arg, 0, kAny);
        } else if (arg == "--store-dir") {
            storeDir = args.value(arg);
        } else if (arg == "--max-queue") {
            maxQueue = intArg(0, 1000000);
        } else if (arg == "--job-retries") {
            jobRetries = intArg(0, 1000);
        } else if (arg == "--job-backoff-ms") {
            jobBackoffMs = intArg(0, 3600000);
        } else if (arg == "--job-deadline-sec") {
            jobDeadlineSec = intArg(0, 31536000);
        } else if (arg == "--chaos") {
            chaosSpec = args.value(arg);
        } else if (arg == "--chaos-seed") {
            chaosSeed = args.number(arg, 0, kAny);
        } else if (arg == "--worker") {
            workerMode = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    stacknoc::server::ChaosSpec chaos;
    chaos.seed = chaosSeed;
    if (!chaosSpec.empty()) {
        const std::string cerr =
            stacknoc::server::parseChaosSpec(chaosSpec, chaos);
        if (!cerr.empty()) {
            std::fprintf(stderr, "%s: bad --chaos spec: %s\n  grammar: %s\n",
                         argv[0], cerr.c_str(),
                         stacknoc::server::chaosGrammar());
            return 2;
        }
    }

    if (workerMode)
        return stacknoc::server::runWorkerLoop(std::cin, std::cout,
                                               ckptDir, chaos);

    if (socketPath.empty()) {
        usage(argv[0]);
        return 2;
    }

    stacknoc::server::CampaignServer::Options opt;
    opt.socketPath = socketPath;
    opt.workers = workers;
    opt.ckptDir = ckptDir;
    opt.ckptCapBytes = ckptCapBytes;
    opt.workerExe = selfExe(argv[0]);
    opt.logJsonPath = logJsonPath;
    opt.logRotateBytes = logRotateBytes;
    opt.storeDir = storeDir;
    opt.maxQueue = maxQueue;
    opt.jobRetries = jobRetries;
    opt.jobBackoffMs = jobBackoffMs;
    opt.jobDeadlineSec = jobDeadlineSec;
    opt.chaos = chaos;

    stacknoc::server::CampaignServer server(std::move(opt));
    std::string err;
    if (!server.start(err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 1;
    }
    std::fprintf(stderr, "stacknoc_serve: listening on %s (%d worker%s)\n",
                 socketPath.c_str(), workers, workers == 1 ? "" : "s");
    return server.run();
}
