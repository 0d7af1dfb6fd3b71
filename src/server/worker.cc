#include "server/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "server/protocol.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/state_io.hh"
#include "system/cmp_system.hh"

namespace stacknoc::server {

namespace {

using telemetry::JsonValue;
using telemetry::JsonWriter;

void
emit(std::ostream &out, const std::string &line)
{
    out << line << "\n";
    out.flush();
}

/** Wall microseconds between two steady-clock marks. */
std::uint64_t
usBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a)
            .count());
}

void
emitError(std::ostream &out, std::uint64_t id, const std::string &reason)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("event", "error");
    w.kv("id", id);
    w.kv("reason", reason);
    w.endObject();
    emit(out, os.str());
}

void
emitNote(std::ostream &out, std::uint64_t id, const std::string &kind,
         const std::string &reason)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("event", "note");
    w.kv("id", id);
    w.kv("kind", kind);
    w.kv("reason", reason);
    w.endObject();
    emit(out, os.str());
}

/**
 * corrupt-ckpt chaos: flip one payload byte of the checkpoint at
 * @p path. Offset 44 is the first payload byte (past the container
 * header), so the flip lands under the payload FNV and a later
 * restore fails the checksum — exercising the warm-fallback path, not
 * a container-format error.
 */
void
corruptCheckpointPayload(const std::filesystem::path &path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec || size <= 44)
        return;
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!f)
        return;
    const std::streamoff pos =
        44 + static_cast<std::streamoff>((size - 44) / 2);
    f.seekg(pos);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xff);
    f.seekp(pos);
    f.write(&b, 1);
}

/** Run one job; emits interval/note/result/error events itself. */
void
runJob(std::ostream &out, std::uint64_t id, const JobRequest &req,
       const std::string &ckptDir, const ChaosSpec &chaos, int attempt,
       bool forceCold)
{
    const system::RunSpec &spec = req.spec;
    system::SystemConfig cfg;
    if (const std::string err = spec.toConfig(cfg); !err.empty()) {
        emitError(out, id, err);
        return;
    }

    auto sysPtr = std::make_unique<system::CmpSystem>(cfg);

    const std::uint64_t warmKey =
        snapshot::warmConfigDigest(cfg, spec.warmup);
    const std::filesystem::path ckptPath =
        ckptDir.empty()
            ? std::filesystem::path{}
            : std::filesystem::path(ckptDir) /
                  ("ckpt_" + hexKey(warmKey) + ".bin");

    // Per-phase wall timings travel in a "timing" sibling of the result
    // "data" member: the data payload stays deterministic (and cacheable
    // byte-for-byte) while the server folds the timings into its phase
    // histograms and lifecycle log.
    using Clock = std::chrono::steady_clock;
    std::uint64_t restoreUs = 0, warmUs = 0, measureUs = 0,
                  publishUs = 0;

    bool warmRestored = false;
    bool warmSaved = false;
    Cycle restoredCycle = 0;
    std::string fallbackReason;
    if (!ckptPath.empty() && !forceCold) {
        // Open directly instead of probing with exists(): LRU eviction
        // can unlink the checkpoint at any moment, and a probe would
        // only widen that race. ENOENT is an ordinary miss.
        const auto t0 = Clock::now();
        errno = 0;
        std::ifstream in(ckptPath, std::ios::binary);
        if (in) {
            const std::string err = snapshot::restoreCheckpoint(
                *sysPtr, in, warmKey, &restoredCycle);
            if (err.empty()) {
                warmRestored = true;
                // Reuse counts as recency for the server's LRU cap.
                snapshot::touchCheckpoint(ckptPath.string());
            } else {
                // A stale, truncated, or corrupt warm cache entry must
                // never fail the job — rebuild and warm up from cold.
                fallbackReason = err;
                sysPtr.reset();
                sysPtr = std::make_unique<system::CmpSystem>(cfg);
            }
        } else if (errno != 0 && errno != ENOENT) {
            fallbackReason = std::string("checkpoint open failed: ") +
                             std::strerror(errno);
        }
        restoreUs = usBetween(t0, Clock::now());
    }
    if (!fallbackReason.empty())
        emitNote(out, id, "warm_fallback", fallbackReason);
    system::CmpSystem &sys = *sysPtr;
    if (!warmRestored) {
        const auto t0 = Clock::now();
        sys.warmupBegin();
        sys.run(spec.warmup);
        sys.warmupEnd();
        warmUs = usBetween(t0, Clock::now());
        const auto tPub = Clock::now();
        if (!ckptPath.empty()) {
            const std::filesystem::path tmp =
                ckptPath.string() + ".tmp." +
                std::to_string(static_cast<long>(::getpid()));
            std::ofstream o(tmp, std::ios::binary);
            if (o) {
                snapshot::saveCheckpoint(sys, o, warmKey);
                o.close();
                std::error_code ec;
                std::filesystem::rename(tmp, ckptPath, ec);
                warmSaved = !ec;
                if (ec)
                    std::filesystem::remove(tmp, ec);
            }
            if (warmSaved &&
                chaosDraw(chaos, ChaosSite::CorruptCkpt, id, attempt,
                          chaos.corruptCkpt))
                corruptCheckpointPayload(ckptPath);
        }
        publishUs = usBetween(tPub, Clock::now());
    }

    // Chaos draws are fixed before the measured phase so the kill/stall
    // site (halfway through) is deterministic for a given attempt.
    const bool chaosKill = chaosDraw(chaos, ChaosSite::KillWorker, id,
                                     attempt, chaos.killWorker);
    const bool chaosSlow =
        !chaosKill && chaosDraw(chaos, ChaosSite::SlowWorker, id,
                                attempt, chaos.slowWorker);
    bool chaosFired = false;

    // Measured phase, chunked at the interval period so progress
    // streams out while the run is in flight. Chunked run() calls are
    // equivalent to one call — the engine has no run()-boundary state.
    const auto tMeasure = Clock::now();
    Cycle done = 0;
    const Cycle step = req.interval > 0 ? req.interval : spec.cycles;
    while (done < spec.cycles) {
        const Cycle n = std::min<Cycle>(step, spec.cycles - done);
        sys.run(n);
        done += n;
        if (!chaosFired && done * 2 >= spec.cycles) {
            chaosFired = true;
            if (chaosKill) {
                out.flush();
                ::raise(SIGKILL); // a real mid-phase crash, no cleanup
            }
            if (chaosSlow)
                ::usleep(static_cast<useconds_t>(kSlowStallMs) * 1000);
        }
        if (req.interval > 0 && done < spec.cycles) {
            const auto m = sys.metrics();
            std::ostringstream os;
            JsonWriter w(os);
            w.beginObject();
            w.kv("event", "interval");
            w.kv("id", id);
            w.kv("cycle",
                 static_cast<std::uint64_t>(sys.simulator().now()));
            w.kv("measured",
                 static_cast<std::uint64_t>(done));
            w.kv("mean_ipc", m.meanIpc());
            w.kv("avg_network_latency", m.avgNetworkLatency);
            w.endObject();
            emit(out, os.str());
        }
    }
    sys.finalizeTelemetry();
    measureUs = usBetween(tMeasure, Clock::now());

    const auto m = sys.metrics();
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("event", "result");
    w.kv("id", id);
    w.key("timing");
    w.beginObject();
    w.kv("restore_us", restoreUs);
    w.kv("warm_us", warmUs);
    w.kv("measure_us", measureUs);
    w.kv("publish_us", publishUs);
    w.kv("end_cycle", static_cast<std::uint64_t>(sys.simulator().now()));
    w.endObject();
    w.key("data");
    w.beginObject();
    w.kv("scenario", cfg.scenario.name);
    {
        std::string joined;
        for (const auto &a : spec.apps)
            joined += (joined.empty() ? "" : ",") + a;
        w.kv("apps", joined);
    }
    w.kv("seed", spec.seed);
    w.kv("warmup", spec.warmup);
    w.kv("cycles", spec.cycles);
    w.kv("threads", spec.threads);
    w.kv("elide", spec.elide);
    w.kv("mean_ipc", m.meanIpc());
    w.kv("min_ipc", m.minIpc());
    w.kv("instruction_throughput", m.instructionThroughput());
    w.kv("avg_network_latency", m.avgNetworkLatency);
    w.kv("p50_network_latency", m.p50NetworkLatency);
    w.kv("p95_network_latency", m.p95NetworkLatency);
    w.kv("p99_network_latency", m.p99NetworkLatency);
    w.kv("avg_bank_queue_latency", m.avgBankQueueLatency);
    w.kv("avg_uncore_latency", m.avgUncoreLatency);
    w.kv("total_energy_uj", m.energy.totalUJ());
    w.kv("wall_seconds", sys.wallSeconds());
    w.kv("ticks_per_sec", sys.ticksPerSecond());
    w.kv("active_fraction", sys.engineActiveFraction());
    w.kv("stats_digest", hexKey(snapshot::statsDigest(sys)));
    w.kv("warm_restored", warmRestored);
    w.kv("warm_saved", warmSaved);
    if (warmRestored)
        w.kv("restored_from_cycle",
             static_cast<std::uint64_t>(restoredCycle));
    w.endObject();
    w.endObject();
    emit(out, os.str());
}

} // namespace

int
runWorkerLoop(std::istream &in, std::ostream &out,
              const std::string &ckptDir, const ChaosSpec &chaos)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string perr;
        const auto doc = JsonValue::parse(line, &perr);
        if (!doc) {
            emitError(out, 0, "bad job json: " + perr);
            continue;
        }
        std::uint64_t id = 0;
        if (const JsonValue *m = doc->find("id");
            m != nullptr && m->isNumber())
            id = static_cast<std::uint64_t>(m->asDouble());
        int attempt = 1;
        if (const JsonValue *m = doc->find("attempt");
            m != nullptr && m->isNumber())
            attempt = static_cast<int>(m->asDouble());
        bool forceCold = false;
        if (const JsonValue *m = doc->find("cold");
            m != nullptr && m->type() == JsonValue::Type::Bool)
            forceCold = m->asBool();
        JobRequest req;
        if (const std::string err = req.read(*doc); !err.empty()) {
            emitError(out, id, err);
            continue;
        }
        try {
            runJob(out, id, req, ckptDir, chaos, attempt, forceCold);
        } catch (const std::exception &e) {
            emitError(out, id, std::string("job failed: ") + e.what());
        }
    }
    return 0;
}

} // namespace stacknoc::server
