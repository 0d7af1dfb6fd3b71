/**
 * @file
 * stacknoc_client — command-line client for stacknoc_serve.
 *
 *     stacknoc_client --socket PATH run [job flags...]
 *     stacknoc_client --socket PATH status [--watch SEC]
 *     stacknoc_client --socket PATH shutdown
 *
 * "run" submits one job and prints every server event for it (one JSON
 * object per line) until the result or an error arrives. Exit code: 0
 * on result, 1 on an error event or connection failure, 2 on usage or
 * a bad job (checked locally, before connecting).
 *
 * "status --watch SEC" polls the server every SEC seconds (fractional
 * ok) and prints a one-line human summary per poll until interrupted
 * or the server goes away.
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "server/client.hh"
#include "server/protocol.hh"
#include "telemetry/json.hh"

using stacknoc::server::Connection;
using stacknoc::server::JobRequest;
using stacknoc::telemetry::JsonValue;
using stacknoc::telemetry::JsonWriter;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --socket PATH run [job flags]\n"
                 "       %s --socket PATH status [--watch SEC]\n"
                 "       %s --socket PATH shutdown\n"
                 "\n"
                 "job flags (bad values exit 2 before connecting):\n%s"
                 "  --interval N      stream interval events every N "
                 "cycles (default 0 = off)\n"
                 "\n"
                 "status flags:\n"
                 "  --watch SEC         poll every SEC seconds (fractional "
                 "ok)\n"
                 "                      and print a one-line summary per "
                 "poll\n"
                 "\n"
                 "connection flags (any subcommand):\n"
                 "  --connect-retries N    re-attempt a refused/missing "
                 "socket\n"
                 "                         up to N times [0]\n"
                 "  --connect-backoff-ms N base retry backoff, doubled per\n"
                 "                         retry [100]\n",
                 argv0, argv0, argv0,
                 stacknoc::system::RunSpec::usage(
                     stacknoc::system::kClientArgs)
                     .c_str());
}

double
statusNum(const JsonValue &doc, const char *key)
{
    const JsonValue *m = doc.find(key);
    return m != nullptr && m->isNumber() ? m->asDouble() : 0.0;
}

/** One human line per poll for `status --watch`. */
std::string
statusSummary(const JsonValue &doc)
{
    const JsonValue *v = doc.find("version");
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "up %.1fs v%s | workers %d busy %d | queued %d | "
        "completed %d failed %d | cache %d entries, %d hits | "
        "respawns %d",
        statusNum(doc, "uptime_sec"),
        v != nullptr && v->isString() ? v->asString().c_str() : "?",
        static_cast<int>(statusNum(doc, "workers")),
        static_cast<int>(statusNum(doc, "busy")),
        static_cast<int>(statusNum(doc, "queued")),
        static_cast<int>(statusNum(doc, "completed")),
        static_cast<int>(statusNum(doc, "jobs_failed")),
        static_cast<int>(statusNum(doc, "cache_entries")),
        static_cast<int>(statusNum(doc, "cache_hits")),
        static_cast<int>(statusNum(doc, "worker_respawns")));
    return buf;
}

/**
 * Poll status once over a fresh connection. @return 0 on success, 1 on
 * failure (summary printed / error reported either way).
 */
int
pollStatusOnce(const char *argv0, const std::string &socketPath,
               int retries, int backoffMs)
{
    Connection conn;
    std::string err;
    if (!conn.connectWithRetry(socketPath, retries, backoffMs, err) ||
        !conn.sendLine("{\"cmd\":\"status\"}", err)) {
        std::fprintf(stderr, "%s: %s\n", argv0, err.c_str());
        return 1;
    }
    std::string line;
    while (conn.readLine(line, err)) {
        if (line.empty())
            continue;
        const auto doc = JsonValue::parse(line);
        if (!doc || !doc->isObject())
            continue;
        const JsonValue *ev = doc->find("event");
        const std::string kind =
            ev != nullptr && ev->isString() ? ev->asString() : "";
        if (kind == "error")
            return 1;
        if (kind == "status") {
            std::printf("%s\n", statusSummary(*doc).c_str());
            std::fflush(stdout);
            return 0;
        }
    }
    std::fprintf(stderr, "%s: %s\n", argv0,
                 err.empty() ? "server closed the connection"
                             : err.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr const char *kTool = "stacknoc_client";
    std::string socketPath;
    std::string subcommand;
    double watchSec = -1.0;
    int connectRetries = 0;
    int connectBackoffMs = 100;
    JobRequest req;

    std::vector<std::string> rest;
    if (const std::string err = req.spec.parseArgs(
            {argv + 1, argv + argc}, stacknoc::system::kClientArgs, rest);
        !err.empty())
        stacknoc::cli::reject(kTool, err);
    stacknoc::cli::Args args(kTool, rest);
    while (!args.done()) {
        const std::string arg = args.next();
        if (arg == "--socket") {
            socketPath = args.value(arg);
        } else if (arg == "--interval") {
            req.interval = args.number(arg, 0, 1'000'000'000'000);
        } else if (arg == "--connect-retries") {
            connectRetries = static_cast<int>(args.number(arg, 0, 1000000));
        } else if (arg == "--connect-backoff-ms") {
            connectBackoffMs =
                static_cast<int>(args.number(arg, 0, 3600000));
        } else if (arg == "--watch") {
            watchSec = args.real(arg, 1e-3, 1e6);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && subcommand.empty()) {
            subcommand = arg;
        } else {
            // One line, like every other rejection (--help has usage).
            std::vector<std::string> known = stacknoc::system::RunSpec::flags(
                stacknoc::system::kClientArgs);
            known.insert(known.end(), {"--socket", "--interval", "--watch",
                                       "--connect-retries",
                                       "--connect-backoff-ms", "--help"});
            stacknoc::cli::reportUnknownOption(kTool, arg, known);
            return 2;
        }
    }

    if (socketPath.empty() ||
        (subcommand != "run" && subcommand != "status" &&
         subcommand != "shutdown")) {
        usage(argv[0]);
        return 2;
    }
    if (watchSec > 0 && subcommand != "status")
        stacknoc::cli::reject(kTool, "--watch only applies to status");
    // Resolve the job locally, so a bad one fails before connecting.
    if (subcommand == "run") {
        stacknoc::system::SystemConfig cfg;
        if (const std::string err = req.spec.toConfig(cfg); !err.empty())
            stacknoc::cli::reject(kTool, err);
    }

    if (watchSec > 0) {
        // Live summary loop: one line per poll, fresh connection each
        // time so a restarted server picks back up. Ends (exit 1) when
        // the server goes away.
        for (;;) {
            if (const int rc =
                    pollStatusOnce(argv[0], socketPath, connectRetries,
                                   connectBackoffMs);
                rc != 0)
                return rc;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(watchSec));
        }
    }

    Connection conn;
    std::string err;
    if (!conn.connectWithRetry(socketPath, connectRetries,
                               connectBackoffMs, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 1;
    }

    std::string cmdLine;
    {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.kv("cmd", subcommand);
        if (subcommand == "run")
            req.write(w);
        w.endObject();
        cmdLine = os.str();
    }
    if (!conn.sendLine(cmdLine, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 1;
    }

    // Print events until the terminal one for this command.
    std::string line;
    while (conn.readLine(line, err)) {
        if (line.empty())
            continue;
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
        std::string perr;
        const auto doc = JsonValue::parse(line, &perr);
        if (!doc || !doc->isObject())
            continue;
        const JsonValue *ev = doc->find("event");
        const std::string kind =
            ev != nullptr && ev->isString() ? ev->asString() : "";
        if (kind == "error")
            return 1;
        if (subcommand == "run" && kind == "result")
            return 0;
        if (subcommand == "status" && kind == "status")
            return 0;
        if (subcommand == "shutdown" && kind == "bye")
            return 0;
    }
    if (!err.empty()) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 1;
    }
    std::fprintf(stderr, "%s: server closed the connection\n", argv[0]);
    return 1;
}
