#include "server/server.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "server/protocol.hh"
#include "snapshot/checkpoint.hh"
#include "telemetry/json.hh"

namespace stacknoc::server {

using telemetry::JsonValue;
using telemetry::JsonWriter;

namespace {

std::string
eventLine(const std::function<void(JsonWriter &)> &body)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    body(w);
    w.endObject();
    return os.str();
}

/** A request-level error event (id 0: no job was created). */
std::string
errorLine(const std::string &reason)
{
    return eventLine([&](JsonWriter &w) {
        w.kv("event", "error");
        w.kv("id", std::uint64_t{0});
        w.kv("reason", reason);
    });
}

std::uint64_t
memberU64(const JsonValue &obj, const char *key)
{
    const JsonValue *m = obj.find(key);
    return m != nullptr && m->isNumber()
               ? static_cast<std::uint64_t>(m->asDouble())
               : 0;
}

bool
memberBool(const JsonValue &obj, const char *key)
{
    const JsonValue *m = obj.find(key);
    return m != nullptr && m->type() == JsonValue::Type::Bool &&
           m->asBool();
}

// Metric family names and help strings, in one place so the catalogue
// in docs/SERVER.md has a single source of truth to mirror.
constexpr const char *kJobsSubmitted = "stacknoc_jobs_submitted_total";
constexpr const char *kJobsCompleted = "stacknoc_jobs_completed_total";
constexpr const char *kJobsFailed = "stacknoc_jobs_failed_total";
constexpr const char *kJobsRejected = "stacknoc_jobs_rejected_total";
constexpr const char *kJobsShed = "stacknoc_jobs_shed_total";
constexpr const char *kJobRetries = "stacknoc_job_retries_total";
constexpr const char *kJobDeadlineKills =
    "stacknoc_job_deadline_kills_total";
constexpr const char *kCacheHits = "stacknoc_cache_hits_total";
constexpr const char *kCacheMisses = "stacknoc_cache_misses_total";
constexpr const char *kCacheEntries = "stacknoc_cache_entries";
constexpr const char *kCacheBytes = "stacknoc_cache_bytes";
constexpr const char *kQueueDepth = "stacknoc_queue_depth";
constexpr const char *kQueueWait = "stacknoc_queue_wait_us";
constexpr const char *kJobPhase = "stacknoc_job_phase_us";
constexpr const char *kSimCycles = "stacknoc_sim_cycles_total";
constexpr const char *kCkptRestores = "stacknoc_ckpt_restores_total";
constexpr const char *kCkptColdWarms =
    "stacknoc_ckpt_cold_warms_total";
constexpr const char *kCkptSaves = "stacknoc_ckpt_saves_total";
constexpr const char *kCkptEvictions = "stacknoc_ckpt_evictions_total";
constexpr const char *kCkptRestoreFallbacks =
    "stacknoc_ckpt_restore_fallbacks_total";
constexpr const char *kCkptBytes = "stacknoc_ckpt_bytes";
constexpr const char *kCkptFiles = "stacknoc_ckpt_files";
constexpr const char *kWorkers = "stacknoc_workers";
constexpr const char *kWorkersBusy = "stacknoc_workers_busy";
constexpr const char *kWorkerRespawns =
    "stacknoc_worker_respawns_total";
constexpr const char *kWorkerBusyFraction =
    "stacknoc_worker_busy_fraction";
constexpr const char *kWorkerJobs = "stacknoc_worker_jobs_total";
constexpr const char *kStoreRecovered =
    "stacknoc_store_recovered_records";
constexpr const char *kStoreSkipped = "stacknoc_store_skipped_records";
constexpr const char *kStoreAppends = "stacknoc_store_appends_total";
constexpr const char *kStoreAppendFailures =
    "stacknoc_store_append_failures_total";
constexpr const char *kStoreSegments = "stacknoc_store_segments";
constexpr const char *kStoreBytes = "stacknoc_store_bytes";
constexpr const char *kUptime = "stacknoc_uptime_seconds";
constexpr const char *kBuildInfo = "stacknoc_build_info";

const char *
helpOf(const char *name)
{
    // One catalogue entry per family; keep alphabetised with the
    // constants above.
    if (name == kJobsSubmitted)
        return "Run requests accepted (cache hits included)";
    if (name == kJobsCompleted)
        return "Jobs completed by a worker";
    if (name == kJobsFailed)
        return "Jobs that ended in a final error (after any retries)";
    if (name == kJobsRejected)
        return "Run requests rejected at submission";
    if (name == kJobsShed)
        return "Run requests shed by admission control (queue full)";
    if (name == kJobRetries)
        return "Job attempts re-dispatched after a worker death or "
               "deadline kill";
    if (name == kJobDeadlineKills)
        return "Workers killed for exceeding the job deadline";
    if (name == kCacheHits)
        return "Submissions served from the result cache";
    if (name == kCacheMisses)
        return "Submissions that required simulation";
    if (name == kCacheEntries)
        return "Entries in the result cache";
    if (name == kCacheBytes)
        return "Bytes of cached result payloads";
    if (name == kQueueDepth)
        return "Jobs waiting for a worker";
    if (name == kQueueWait)
        return "Microseconds jobs waited in queue before dispatch";
    if (name == kJobPhase)
        return "Per-phase job durations in microseconds";
    if (name == kSimCycles)
        return "Measured simulation cycles completed by workers";
    if (name == kCkptRestores)
        return "Jobs that restored a warm checkpoint";
    if (name == kCkptColdWarms)
        return "Jobs that warmed up from cold";
    if (name == kCkptSaves)
        return "Warm checkpoints published by workers";
    if (name == kCkptEvictions)
        return "Warm checkpoints evicted by the LRU byte cap";
    if (name == kCkptRestoreFallbacks)
        return "Warm restores that fell back to a cold warm-up "
               "(evicted or corrupt checkpoint)";
    if (name == kCkptBytes)
        return "Bytes of warm checkpoints on disk";
    if (name == kCkptFiles)
        return "Warm checkpoint files on disk";
    if (name == kWorkers)
        return "Worker pool size";
    if (name == kWorkersBusy)
        return "Workers currently running a job";
    if (name == kWorkerRespawns)
        return "Worker processes respawned after dying";
    if (name == kWorkerBusyFraction)
        return "Fraction of server uptime each worker spent busy";
    if (name == kWorkerJobs)
        return "Jobs dispatched to each worker";
    if (name == kStoreRecovered)
        return "Result-store records recovered at startup";
    if (name == kStoreSkipped)
        return "Result-store records skipped at startup (corrupt, "
               "truncated or unknown version)";
    if (name == kStoreAppends)
        return "Results appended to the durable store";
    if (name == kStoreAppendFailures)
        return "Result-store appends that failed (disk full or "
               "journal unwritable)";
    if (name == kStoreSegments)
        return "Sealed result-store segments on disk";
    if (name == kStoreBytes)
        return "Bytes in the result store (journal + segments)";
    if (name == kUptime)
        return "Seconds since the server started";
    if (name == kBuildInfo)
        return "Constant 1, labelled with version and protocol";
    return "";
}

/** Longest command line a client may send; JobRequest JSON is tiny. */
constexpr std::size_t kMaxLineBytes = 1024 * 1024;

// SIGTERM self-pipe: the handler only writes one byte; the poll loop
// reads it and starts the graceful drain on the main thread, so no
// server state is ever touched from signal context.
int gSigWriteFd = -1;

void
onSigTerm(int)
{
    if (gSigWriteFd >= 0) {
        const char b = 't';
        [[maybe_unused]] const ssize_t n = ::write(gSigWriteFd, &b, 1);
    }
}

} // namespace

CampaignServer::CampaignServer(Options opt) : opt_(std::move(opt)) {}

CampaignServer::~CampaignServer()
{
    killWorkers();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (sigFd_ >= 0) {
        ::close(sigFd_);
        if (gSigWriteFd >= 0) {
            ::close(gSigWriteFd);
            gSigWriteFd = -1;
        }
    }
    for (auto &[fd, c] : clients_)
        ::close(fd);
    if (!opt_.socketPath.empty())
        ::unlink(opt_.socketPath.c_str());
}

std::uint64_t
CampaignServer::monoUs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - startTp_)
            .count());
}

bool
CampaignServer::spawnWorker(Worker &w, std::string &err)
{
    int toPipe[2];   // server writes -> worker stdin
    int fromPipe[2]; // worker stdout -> server reads
    if (::pipe(toPipe) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    if (::pipe(fromPipe) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        ::close(toPipe[0]);
        ::close(toPipe[1]);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        err = std::string("fork: ") + std::strerror(errno);
        ::close(toPipe[0]);
        ::close(toPipe[1]);
        ::close(fromPipe[0]);
        ::close(fromPipe[1]);
        return false;
    }
    if (pid == 0) {
        // Worker child: stdin/stdout are the job pipes; stderr passes
        // through to the server's stderr for diagnostics.
        ::dup2(toPipe[0], STDIN_FILENO);
        ::dup2(fromPipe[1], STDOUT_FILENO);
        ::close(toPipe[0]);
        ::close(toPipe[1]);
        ::close(fromPipe[0]);
        ::close(fromPipe[1]);
        if (listenFd_ >= 0)
            ::close(listenFd_);
        if (sigFd_ >= 0)
            ::close(sigFd_);
        if (gSigWriteFd >= 0)
            ::close(gSigWriteFd);
        if (opt_.chaos.any()) {
            // Workers do the injecting; the spec rides the exec line.
            std::string spec;
            if (opt_.chaos.killWorker > 0.0)
                spec += "kill-worker=" +
                        std::to_string(opt_.chaos.killWorker);
            if (opt_.chaos.corruptCkpt > 0.0)
                spec += std::string(spec.empty() ? "" : ",") +
                        "corrupt-ckpt=" +
                        std::to_string(opt_.chaos.corruptCkpt);
            if (opt_.chaos.slowWorker > 0.0)
                spec += std::string(spec.empty() ? "" : ",") +
                        "slow-worker=" +
                        std::to_string(opt_.chaos.slowWorker);
            const std::string seed = std::to_string(opt_.chaos.seed);
            ::execl(opt_.workerExe.c_str(), opt_.workerExe.c_str(),
                    "--worker", "--ckpt-dir", opt_.ckptDir.c_str(),
                    "--chaos", spec.c_str(), "--chaos-seed",
                    seed.c_str(), static_cast<char *>(nullptr));
        } else {
            ::execl(opt_.workerExe.c_str(), opt_.workerExe.c_str(),
                    "--worker", "--ckpt-dir", opt_.ckptDir.c_str(),
                    static_cast<char *>(nullptr));
        }
        std::fprintf(stderr, "stacknoc_serve: exec '%s' failed: %s\n",
                     opt_.workerExe.c_str(), std::strerror(errno));
        ::_exit(127);
    }
    ::close(toPipe[0]);
    ::close(fromPipe[1]);
    w.pid = pid;
    w.toFd = toPipe[1];
    w.fromFd = fromPipe[0];
    w.outBuf.clear();
    w.busy = false;
    w.jobId = 0;
    w.busySinceUs = 0;
    w.deadlineKilled = false;
    const std::size_t idx = static_cast<std::size_t>(&w - workers_.data());
    log_.event("worker_spawned", [&](JsonWriter &jw) {
        jw.kv("worker", static_cast<std::uint64_t>(idx));
        jw.kv("pid", static_cast<std::int64_t>(pid));
    });
    return true;
}

bool
CampaignServer::start(std::string &err)
{
    ::signal(SIGPIPE, SIG_IGN);
    startTp_ = std::chrono::steady_clock::now();

    if (!opt_.ckptDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt_.ckptDir, ec);
        if (ec) {
            err = "cannot create checkpoint dir '" + opt_.ckptDir +
                  "': " + ec.message();
            return false;
        }
    }

    if (!opt_.logJsonPath.empty() &&
        !log_.open(opt_.logJsonPath, opt_.logRotateBytes, err))
        return false;

    if (!opt_.storeDir.empty()) {
        // Replay the durable store into the result cache before any
        // client connects: a restarted server serves prior results
        // byte-identically. emplace keeps the first payload per key,
        // matching the store's oldest-first replay order.
        if (!store_.open(
                opt_.storeDir,
                [&](std::uint64_t key, const std::string &payload) {
                    if (cache_.emplace(key, payload).second)
                        cacheBytes_ += payload.size();
                },
                err))
            return false;
        log_.event("store_opened", [&](JsonWriter &jw) {
            jw.kv("dir", opt_.storeDir);
            jw.kv("recovered", store_.stats().recoveredRecords);
            jw.kv("skipped", store_.stats().skippedRecords);
            jw.kv("segments", store_.stats().segments);
            jw.kv("bytes", store_.stats().bytes);
        });
    }

    // SIGTERM drains gracefully via a self-pipe in the poll set.
    {
        int sp[2];
        if (::pipe(sp) == 0) {
            sigFd_ = sp[0];
            gSigWriteFd = sp[1];
            ::signal(SIGTERM, onSigTerm);
        }
    }

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // Bind under a temporary name and rename it into place once
    // listening: a client that finds the socket file can connect
    // (connect() to a bound, not yet listening socket is refused).
    const std::string bindPath = opt_.socketPath + ".bind";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (bindPath.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: " + opt_.socketPath;
        return false;
    }
    std::strncpy(addr.sun_path, bindPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(bindPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        err = "bind '" + bindPath + "': " + std::strerror(errno);
        return false;
    }
    if (::listen(listenFd_, 64) != 0 ||
        ::rename(bindPath.c_str(), opt_.socketPath.c_str()) != 0) {
        err = "listen on '" + opt_.socketPath +
              "': " + std::strerror(errno);
        ::unlink(bindPath.c_str());
        return false;
    }

    // Pre-create every metric family so the first scrape already
    // exposes the full catalogue at zero.
    for (const char *name :
         {kJobsSubmitted, kJobsCompleted, kJobsFailed, kJobsRejected,
          kJobsShed, kJobRetries, kJobDeadlineKills, kCacheHits,
          kCacheMisses, kSimCycles, kCkptRestores, kCkptColdWarms,
          kCkptSaves, kCkptEvictions, kCkptRestoreFallbacks,
          kWorkerRespawns})
        counter(name);
    for (const char *name :
         {kCacheEntries, kCacheBytes, kQueueDepth, kCkptBytes,
          kCkptFiles, kWorkers, kWorkersBusy, kUptime})
        metrics_.gauge(name, helpOf(name));
    if (store_.enabled()) {
        for (const char *name : {kStoreAppends, kStoreAppendFailures})
            counter(name);
        for (const char *name : {kStoreRecovered, kStoreSkipped,
                                 kStoreSegments, kStoreBytes})
            metrics_.gauge(name, helpOf(name));
        metrics_.gauge(kStoreRecovered, helpOf(kStoreRecovered))
            .set(static_cast<double>(store_.stats().recoveredRecords));
        metrics_.gauge(kStoreSkipped, helpOf(kStoreSkipped))
            .set(static_cast<double>(store_.stats().skippedRecords));
    }
    metrics_.histogram(kQueueWait, helpOf(kQueueWait));
    for (const char *phase :
         {"restore", "warm", "measure", "publish", "total"})
        metrics_.histogram(kJobPhase, helpOf(kJobPhase),
                           std::string("phase=\"") + phase + "\"");
    metrics_
        .gauge(kBuildInfo, helpOf(kBuildInfo),
               std::string("version=\"") + kServerVersion +
                   "\",protocol=\"" +
                   std::to_string(kProtocolVersion) + "\"")
        .set(1.0);

    log_.event("server_start", [&](JsonWriter &jw) {
        jw.kv("version", kServerVersion);
        jw.kv("protocol", kProtocolVersion);
        jw.kv("socket", opt_.socketPath);
        jw.kv("workers", opt_.workers);
        jw.kv("ckpt_dir", opt_.ckptDir);
        jw.kv("ckpt_cap_bytes", opt_.ckptCapBytes);
        jw.kv("store_dir", opt_.storeDir);
        jw.kv("max_queue", opt_.maxQueue);
        jw.kv("job_retries", opt_.jobRetries);
        jw.kv("job_deadline_sec", opt_.jobDeadlineSec);
        jw.kv("chaos", opt_.chaos.any());
    });

    workers_.resize(static_cast<std::size_t>(opt_.workers));
    for (auto &w : workers_)
        if (!spawnWorker(w, err))
            return false;

    // A previous server's leftovers count against the cap immediately.
    enforceCkptCap();
    return true;
}

void
CampaignServer::sendToClient(int fd, const std::string &line)
{
    if (clients_.find(fd) == clients_.end())
        return; // submitter went away; drop the event
    std::string msg = line + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
        const ssize_t n =
            ::write(fd, msg.data() + off, msg.size() - off);
        if (n <= 0) {
            closeClient(fd);
            return;
        }
        off += static_cast<std::size_t>(n);
    }
}

void
CampaignServer::closeClient(int fd)
{
    const auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    ::close(fd);
    clients_.erase(it);
    // Orphan any queued/in-flight jobs: they still run (to fill the
    // cache) but their events have nowhere to go.
    for (auto &j : queue_)
        if (j.clientFd == fd)
            j.clientFd = -1;
    for (auto &[id, j] : inflight_)
        if (j.clientFd == fd)
            j.clientFd = -1;
}

std::string
CampaignServer::workerLineFor(const Job &job) const
{
    // Rebuilt per dispatch: the attempt number keys the worker's chaos
    // draws, and "cold" rides only the final retry.
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("id", job.id);
    w.kv("attempt", job.attempt);
    if (job.forceCold)
        w.kv("cold", true);
    job.req.write(w);
    w.endObject();
    return os.str();
}

void
CampaignServer::dispatchJobs()
{
    const std::uint64_t ready = monoUs();
    for (auto &w : workers_) {
        if (w.busy || w.pid < 0)
            continue;
        // First job past its backoff gate; retries keep queue order.
        auto jit = queue_.begin();
        for (; jit != queue_.end(); ++jit)
            if (jit->notBeforeUs <= ready)
                break;
        if (jit == queue_.end())
            return;
        Job job = std::move(*jit);
        queue_.erase(jit);
        const std::string line = workerLineFor(job) + "\n";
        std::size_t off = 0;
        bool failed = false;
        while (off < line.size()) {
            const ssize_t n =
                ::write(w.toFd, line.data() + off, line.size() - off);
            if (n <= 0) {
                failed = true;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
        if (failed) {
            failAttempt(std::move(job), "worker pipe write failed");
            continue;
        }
        const std::uint64_t now = monoUs();
        job.dispatchUs = now;
        if (opt_.jobDeadlineSec > 0)
            job.deadlineUs =
                now + static_cast<std::uint64_t>(opt_.jobDeadlineSec) *
                          1000000ull;
        const std::uint64_t wait = now - job.submitUs;
        metrics_.histogram(kQueueWait, helpOf(kQueueWait)).sample(wait);
        const std::size_t idx =
            static_cast<std::size_t>(&w - workers_.data());
        counter(kWorkerJobs, "worker=\"" + std::to_string(idx) + "\"")
            .inc();
        w.busy = true;
        w.jobId = job.id;
        w.busySinceUs = now;
        log_.event("job_dispatched", [&](JsonWriter &jw) {
            jw.kv("id", job.id);
            jw.kv("key", hexKey(job.key));
            jw.kv("worker", static_cast<std::uint64_t>(idx));
            jw.kv("worker_pid", static_cast<std::int64_t>(w.pid));
            jw.kv("queue_wait_us", wait);
            jw.kv("attempt", job.attempt);
            if (job.forceCold)
                jw.kv("cold", true);
        });
        inflight_.emplace(job.id, std::move(job));
    }
}

void
CampaignServer::finalFail(Job &&job, const std::string &reason)
{
    counter(kJobsFailed).inc();
    log_.event("job_failed", [&](JsonWriter &jw) {
        jw.kv("id", job.id);
        jw.kv("key", hexKey(job.key));
        jw.kv("reason", reason);
        jw.kv("attempts", job.attempt);
    });
    const std::string ev = eventLine([&](JsonWriter &jw) {
        jw.kv("event", "error");
        jw.kv("id", job.id);
        jw.kv("reason", reason);
        jw.kv("attempts", job.attempt);
        jw.key("attempt_history");
        jw.beginArray();
        for (const auto &h : job.history)
            jw.value(h);
        jw.endArray();
    });
    sendToClient(job.clientFd, ev);
}

void
CampaignServer::failAttempt(Job &&job, const std::string &reason)
{
    job.history.push_back("attempt " + std::to_string(job.attempt) +
                          ": " + reason);
    if (job.attempt > opt_.jobRetries) {
        finalFail(std::move(job), reason);
        return;
    }
    // Exponential backoff; the poll timeout wakes the loop when the
    // gate opens. The final attempt runs cold in case the warm
    // checkpoint itself is what kills the worker.
    const std::uint64_t backoffUs =
        (static_cast<std::uint64_t>(
             opt_.jobBackoffMs > 0 ? opt_.jobBackoffMs : 1)
         << (job.attempt - 1)) *
        1000ull;
    job.attempt += 1;
    job.forceCold = job.attempt > opt_.jobRetries;
    job.notBeforeUs = monoUs() + backoffUs;
    counter(kJobRetries).inc();
    log_.event("job_retried", [&](JsonWriter &jw) {
        jw.kv("id", job.id);
        jw.kv("key", hexKey(job.key));
        jw.kv("attempt", job.attempt);
        jw.kv("backoff_ms", backoffUs / 1000);
        jw.kv("cold", job.forceCold);
        jw.kv("reason", reason);
    });
    queue_.push_back(std::move(job));
}

void
CampaignServer::checkDeadlines()
{
    if (opt_.jobDeadlineSec <= 0)
        return;
    const std::uint64_t now = monoUs();
    for (auto &w : workers_) {
        if (!w.busy || w.pid <= 0 || w.deadlineKilled)
            continue;
        const auto it = inflight_.find(w.jobId);
        if (it == inflight_.end() || it->second.deadlineUs == 0 ||
            now < it->second.deadlineUs)
            continue;
        // The kill surfaces as pipe EOF; onWorkerDeath routes the job
        // through failAttempt with the deadline reason.
        w.deadlineKilled = true;
        counter(kJobDeadlineKills).inc();
        log_.event("job_deadline_kill", [&](JsonWriter &jw) {
            jw.kv("id", w.jobId);
            jw.kv("key", hexKey(it->second.key));
            jw.kv("worker_pid", static_cast<std::int64_t>(w.pid));
            jw.kv("deadline_sec", opt_.jobDeadlineSec);
        });
        ::kill(w.pid, SIGKILL);
    }
}

int
CampaignServer::pollTimeoutMs() const
{
    std::uint64_t next = UINT64_MAX;
    for (const auto &j : queue_)
        if (j.notBeforeUs > 0)
            next = std::min(next, j.notBeforeUs);
    if (opt_.jobDeadlineSec > 0)
        for (const auto &[id, j] : inflight_)
            if (j.deadlineUs > 0)
                next = std::min(next, j.deadlineUs);
    if (next == UINT64_MAX)
        return -1;
    const std::uint64_t now = monoUs();
    if (next <= now)
        return 0;
    return static_cast<int>(
        std::min<std::uint64_t>((next - now) / 1000 + 1, 60000));
}

void
CampaignServer::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    log_.event("server_draining", [&](JsonWriter &jw) {
        jw.kv("queued", static_cast<std::uint64_t>(queue_.size()));
        jw.kv("inflight",
              static_cast<std::uint64_t>(inflight_.size()));
    });
}

stats::Counter &
CampaignServer::counter(const char *name, const std::string &labels)
{
    return metrics_.counter(name, helpOf(name), labels);
}

void
CampaignServer::refreshGauges()
{
    metrics_.gauge(kQueueDepth, helpOf(kQueueDepth))
        .set(static_cast<double>(queue_.size()));
    metrics_.gauge(kCacheEntries, helpOf(kCacheEntries))
        .set(static_cast<double>(cache_.size()));
    metrics_.gauge(kCacheBytes, helpOf(kCacheBytes))
        .set(static_cast<double>(cacheBytes_));
    metrics_.gauge(kWorkers, helpOf(kWorkers))
        .set(static_cast<double>(workers_.size()));
    int busy = 0;
    for (const auto &w : workers_)
        busy += w.busy ? 1 : 0;
    metrics_.gauge(kWorkersBusy, helpOf(kWorkersBusy))
        .set(static_cast<double>(busy));
    const std::uint64_t up = monoUs();
    metrics_.gauge(kUptime, helpOf(kUptime))
        .set(static_cast<double>(up) / 1e6);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        const Worker &w = workers_[i];
        std::uint64_t busyUs = w.busyAccumUs;
        if (w.busy)
            busyUs += up - w.busySinceUs;
        metrics_
            .gauge(kWorkerBusyFraction, helpOf(kWorkerBusyFraction),
                   "worker=\"" + std::to_string(i) + "\"")
            .set(up > 0 ? static_cast<double>(busyUs) /
                              static_cast<double>(up)
                        : 0.0);
    }
    if (!opt_.ckptDir.empty()) {
        const auto usage = snapshot::ckptDirUsage(opt_.ckptDir);
        metrics_.gauge(kCkptBytes, helpOf(kCkptBytes))
            .set(static_cast<double>(usage.bytes));
        metrics_.gauge(kCkptFiles, helpOf(kCkptFiles))
            .set(static_cast<double>(usage.files));
    }
    if (store_.enabled()) {
        metrics_.gauge(kStoreSegments, helpOf(kStoreSegments))
            .set(static_cast<double>(store_.stats().segments));
        metrics_.gauge(kStoreBytes, helpOf(kStoreBytes))
            .set(static_cast<double>(store_.stats().bytes));
    }
}

std::string
CampaignServer::renderMetrics()
{
    refreshGauges();
    std::ostringstream os;
    metrics_.renderPrometheus(os);
    return os.str();
}

std::string
CampaignServer::statusJson()
{
    int busy = 0;
    for (const auto &w : workers_)
        busy += w.busy ? 1 : 0;
    return eventLine([&](JsonWriter &w) {
        w.kv("event", "status");
        w.kv("version", kServerVersion);
        w.kv("uptime_sec",
             static_cast<double>(monoUs()) / 1e6);
        w.kv("workers", static_cast<int>(workers_.size()));
        w.kv("busy", busy);
        w.kv("queued", static_cast<std::uint64_t>(queue_.size()));
        w.kv("cache_entries",
             static_cast<std::uint64_t>(cache_.size()));
        w.kv("cache_hits", count(kCacheHits));
        w.kv("completed", count(kJobsCompleted));
        w.kv("jobs_failed", count(kJobsFailed));
        w.kv("jobs_retried", count(kJobRetries));
        w.kv("jobs_shed", count(kJobsShed));
        w.kv("deadline_kills", count(kJobDeadlineKills));
        w.kv("worker_respawns", count(kWorkerRespawns));
        w.kv("draining", draining_);
        if (store_.enabled()) {
            w.kv("store_recovered", store_.stats().recoveredRecords);
            w.kv("store_skipped", store_.stats().skippedRecords);
            w.kv("store_appends", store_.stats().appends);
        }
    });
}

void
CampaignServer::enforceCkptCap()
{
    if (opt_.ckptDir.empty() || opt_.ckptCapBytes == 0)
        return;
    const auto evicted =
        snapshot::evictCheckpointsLru(opt_.ckptDir, opt_.ckptCapBytes);
    for (const auto &e : evicted) {
        counter(kCkptEvictions).inc();
        log_.event("ckpt_evicted", [&](JsonWriter &jw) {
            jw.kv("file", e.file);
            jw.kv("bytes", e.bytes);
        });
    }
}

void
CampaignServer::submitRun(const JsonValue &doc, int clientFd)
{
    // Resolve the config now so bad requests fail at submission, not
    // in a worker.
    JobRequest req;
    system::SystemConfig cfg;
    std::string err = req.read(doc);
    if (err.empty())
        err = req.spec.toConfig(cfg);
    if (!err.empty()) {
        counter(kJobsRejected).inc();
        sendToClient(clientFd, errorLine(err));
        return;
    }

    const std::uint64_t key = cacheKeyDigest(req);
    const auto cached = cache_.find(key);
    const bool hit = cached != cache_.end();

    // Admission control: cache hits always answer (no worker needed),
    // but new work is refused while draining and shed when the queue
    // is at its bound — with enough structure for the client to retry.
    if (!hit && draining_) {
        counter(kJobsRejected).inc();
        sendToClient(clientFd, eventLine([&](JsonWriter &w) {
                         w.kv("event", "error");
                         w.kv("id", std::uint64_t{0});
                         w.kv("reason",
                              "server draining; not accepting new jobs");
                         w.kv("draining", true);
                     }));
        return;
    }
    if (!hit && opt_.maxQueue > 0 &&
        queue_.size() >= static_cast<std::size_t>(opt_.maxQueue)) {
        counter(kJobsShed).inc();
        // Rough drain-time estimate: jobs ahead over pool width, at
        // a conservative 250 ms per job, capped so clients never park
        // for long on a transient spike.
        const std::uint64_t ahead = queue_.size() + inflight_.size();
        const std::uint64_t retryMs = std::min<std::uint64_t>(
            250 * (ahead / std::max<std::size_t>(workers_.size(), 1) +
                   1),
            10000);
        log_.event("job_shed", [&](JsonWriter &jw) {
            jw.kv("key", hexKey(key));
            jw.kv("queued", static_cast<std::uint64_t>(queue_.size()));
            jw.kv("retry_after_ms", retryMs);
        });
        sendToClient(clientFd, eventLine([&](JsonWriter &w) {
                         w.kv("event", "error");
                         w.kv("id", std::uint64_t{0});
                         w.kv("reason", "queue full (" +
                                            std::to_string(queue_.size()) +
                                            " jobs waiting); retry later");
                         w.kv("shed", true);
                         w.kv("retry_after_ms", retryMs);
                     }));
        return;
    }

    const std::uint64_t id = nextJobId_++;
    counter(kJobsSubmitted).inc();
    counter(hit ? kCacheHits : kCacheMisses).inc();
    log_.event("job_submitted", [&](JsonWriter &jw) {
        jw.kv("id", id);
        jw.kv("key", hexKey(key));
        jw.kv("cache", hit ? "hit" : "miss");
    });

    sendToClient(clientFd, eventLine([&](JsonWriter &w) {
                     w.kv("event", "accepted");
                     w.kv("id", id);
                     w.kv("cache", hit ? "hit" : "miss");
                     w.kv("key", hexKey(key));
                 }));

    if (hit) {
        std::ostringstream os;
        os << "{\"event\":\"result\",\"id\":" << id
           << ",\"cached\":true,\"key\":\"" << hexKey(key)
           << "\",\"data\":" << cached->second << "}";
        log_.event("job_served_cached", [&](JsonWriter &jw) {
            jw.kv("id", id);
            jw.kv("key", hexKey(key));
        });
        sendToClient(clientFd, os.str());
        return;
    }

    Job job;
    job.id = id;
    job.clientFd = clientFd;
    job.key = key;
    job.req = req;
    job.submitUs = monoUs();
    queue_.push_back(std::move(job));
    dispatchJobs();
}

void
CampaignServer::handleClientLine(Client &c, const std::string &line)
{
    std::string perr;
    const auto doc = JsonValue::parse(line, &perr);
    if (!doc || !doc->isObject()) {
        sendToClient(c.fd, errorLine("bad command json: " + perr));
        return;
    }
    const JsonValue *cmd = doc->find("cmd");
    const std::string cmdName =
        cmd != nullptr && cmd->isString() ? cmd->asString() : "";

    if (cmdName == "status") {
        sendToClient(c.fd, statusJson());
        return;
    }
    if (cmdName == "metrics") {
        const std::string text = renderMetrics();
        sendToClient(c.fd, eventLine([&](JsonWriter &w) {
                         w.kv("event", "metrics");
                         w.kv("text", text);
                     }));
        return;
    }
    if (cmdName == "shutdown") {
        sendToClient(c.fd, eventLine([&](JsonWriter &w) {
                         w.kv("event", "bye");
                     }));
        shutdown_ = true;
        return;
    }
    if (cmdName != "run") {
        sendToClient(c.fd, errorLine("unknown cmd '" + cmdName +
                                     "' (run|status|metrics|shutdown)"));
        return;
    }
    submitRun(*doc, c.fd);
}

void
CampaignServer::readClient(Client &c)
{
    const int fd = c.fd;
    char buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) {
        closeClient(fd);
        return;
    }
    // Only the appended bytes can hold a newline not yet seen, so a
    // long line costs one scan, not one per read.
    std::size_t scan = c.inBuf.size();
    c.inBuf.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = c.inBuf.find('\n', scan);
        const std::size_t len =
            (pos == std::string::npos ? c.inBuf.size() : pos) - start;
        if (len > kMaxLineBytes) {
            sendToClient(fd, errorLine("command line too long (over " +
                                       std::to_string(kMaxLineBytes) +
                                       " bytes)"));
            closeClient(fd);
            return;
        }
        if (pos == std::string::npos)
            break;
        const std::string line = c.inBuf.substr(start, len);
        start = scan = pos + 1;
        if (!line.empty())
            handleClientLine(c, line);
        if (shutdown_ || clients_.find(fd) == clients_.end())
            return;
    }
    c.inBuf.erase(0, start);
}

void
CampaignServer::handleWorkerLine(Worker &w, const std::string &line)
{
    std::string perr;
    const auto doc = JsonValue::parse(line, &perr);
    if (!doc || !doc->isObject()) {
        std::fprintf(stderr,
                     "stacknoc_serve: bad worker line (%s): %s\n",
                     perr.c_str(), line.c_str());
        return;
    }
    const JsonValue *ev = doc->find("event");
    const std::string kind =
        ev != nullptr && ev->isString() ? ev->asString() : "";
    std::uint64_t id = 0;
    if (const JsonValue *m = doc->find("id");
        m != nullptr && m->isNumber())
        id = static_cast<std::uint64_t>(m->asDouble());

    const auto jobIt = inflight_.find(id);
    const Job *job = jobIt != inflight_.end() ? &jobIt->second : nullptr;
    const int clientFd = job != nullptr ? job->clientFd : -1;
    const std::size_t widx =
        static_cast<std::size_t>(&w - workers_.data());

    const auto freeWorker = [&] {
        if (w.jobId == id && w.busy) {
            w.busyAccumUs += monoUs() - w.busySinceUs;
            w.busy = false;
            w.jobId = 0;
        }
    };

    if (kind == "interval") {
        sendToClient(clientFd, line);
        return;
    }
    if (kind == "note") {
        // Advisory worker events; never terminal for the job.
        const JsonValue *k = doc->find("kind");
        const std::string noteKind =
            k != nullptr && k->isString() ? k->asString() : "";
        const JsonValue *r = doc->find("reason");
        if (noteKind == "warm_fallback") {
            counter(kCkptRestoreFallbacks).inc();
            log_.event("ckpt_restore_fallback", [&](JsonWriter &jw) {
                jw.kv("id", id);
                if (job != nullptr)
                    jw.kv("key", hexKey(job->key));
                jw.kv("worker", static_cast<std::uint64_t>(widx));
                jw.kv("reason", r != nullptr && r->isString()
                                    ? r->asString()
                                    : std::string());
            });
        }
        return;
    }
    if (kind == "error") {
        const JsonValue *r = doc->find("reason");
        const std::string reason = r != nullptr && r->isString()
                                       ? r->asString()
                                       : "worker error";
        freeWorker();
        if (job != nullptr) {
            Job owned = std::move(jobIt->second);
            inflight_.erase(jobIt);
            // A worker-reported error is deterministic (bad request,
            // simulation failure): a retry would only repeat it, so it
            // is final regardless of the retry budget.
            finalFail(std::move(owned), reason);
        } else {
            counter(kJobsFailed).inc();
            log_.event("job_failed", [&](JsonWriter &jw) {
                jw.kv("id", id);
                jw.kv("worker", static_cast<std::uint64_t>(widx));
                jw.kv("reason", reason);
            });
        }
        dispatchJobs();
        return;
    }
    if (kind == "result") {
        const JsonValue *data = doc->find("data");
        const std::string dataStr =
            data != nullptr ? jsonValueToString(*data) : "null";
        const JsonValue *timing = doc->find("timing");
        const std::string timingStr =
            timing != nullptr && timing->isObject()
                ? jsonValueToString(*timing)
                : "";
        const std::uint64_t key = job != nullptr ? job->key : 0;
        if (cache_.emplace(key, dataStr).second) {
            cacheBytes_ += dataStr.size();
            // First result per key also becomes durable; append
            // failures are counted, never fatal (memory still serves).
            if (store_.enabled() && job != nullptr)
                counter(store_.append(key, dataStr) ? kStoreAppends
                                                    : kStoreAppendFailures)
                    .inc();
        }
        counter(kJobsCompleted).inc();

        // Fold the worker's phase timings and warm provenance into the
        // registry and the lifecycle log.
        std::uint64_t phaseTotal = 0;
        if (timing != nullptr && timing->isObject()) {
            for (const char *phase :
                 {"restore", "warm", "measure", "publish"}) {
                const std::uint64_t us = memberU64(
                    *timing, (std::string(phase) + "_us").c_str());
                phaseTotal += us;
                metrics_
                    .histogram(kJobPhase, helpOf(kJobPhase),
                               std::string("phase=\"") + phase + "\"")
                    .sample(us);
            }
            metrics_
                .histogram(kJobPhase, helpOf(kJobPhase),
                           "phase=\"total\"")
                .sample(phaseTotal);
        }
        if (data != nullptr && data->isObject()) {
            const bool restored = memberBool(*data, "warm_restored");
            counter(restored ? kCkptRestores : kCkptColdWarms).inc();
            if (memberBool(*data, "warm_saved"))
                counter(kCkptSaves).inc();
            counter(kSimCycles).inc(memberU64(*data, "cycles"));
        }
        log_.event("job_completed", [&](JsonWriter &jw) {
            jw.kv("id", id);
            jw.kv("key", hexKey(key));
            jw.kv("worker", static_cast<std::uint64_t>(widx));
            jw.kv("worker_pid", static_cast<std::int64_t>(w.pid));
            if (job != nullptr) {
                jw.kv("queue_wait_us",
                      job->dispatchUs - job->submitUs);
                jw.kv("attempt", job->attempt);
            }
            if (timing != nullptr && timing->isObject()) {
                jw.kv("restore_us", memberU64(*timing, "restore_us"));
                jw.kv("warm_us", memberU64(*timing, "warm_us"));
                jw.kv("measure_us", memberU64(*timing, "measure_us"));
                jw.kv("publish_us", memberU64(*timing, "publish_us"));
                jw.kv("total_us", phaseTotal);
                jw.kv("cycle", memberU64(*timing, "end_cycle"));
            }
            if (data != nullptr && data->isObject()) {
                jw.kv("warm", memberBool(*data, "warm_restored")
                                  ? "restored"
                                  : "cold");
                if (const JsonValue *d = data->find("stats_digest");
                    d != nullptr && d->isString())
                    jw.kv("stats_digest", d->asString());
            }
        });

        {
            std::ostringstream os;
            os << "{\"event\":\"result\",\"id\":" << id
               << ",\"cached\":false,\"key\":\"" << hexKey(key)
               << "\"";
            if (job != nullptr && job->attempt > 1)
                os << ",\"attempts\":" << job->attempt;
            if (!timingStr.empty())
                os << ",\"timing\":" << timingStr;
            os << ",\"data\":" << dataStr << "}";
            sendToClient(clientFd, os.str());
        }
        freeWorker();
        inflight_.erase(id);
        // The worker may have just published a checkpoint; keep the
        // directory under its cap before the next dispatch adds more.
        if (data != nullptr && data->isObject() &&
            memberBool(*data, "warm_saved"))
            enforceCkptCap();
        dispatchJobs();
        return;
    }
    std::fprintf(stderr, "stacknoc_serve: unknown worker event: %s\n",
                 line.c_str());
}

void
CampaignServer::onWorkerDeath(Worker &w)
{
    const std::size_t idx =
        static_cast<std::size_t>(&w - workers_.data());
    ::close(w.fromFd);
    ::close(w.toFd);
    w.fromFd = w.toFd = -1;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    log_.event("worker_died", [&](JsonWriter &jw) {
        jw.kv("worker", static_cast<std::uint64_t>(idx));
        jw.kv("pid", static_cast<std::int64_t>(w.pid));
        jw.kv("job", w.busy ? w.jobId : 0);
        jw.kv("deadline_kill", w.deadlineKilled);
        jw.kv("exit_status", status);
    });
    w.pid = -1;
    if (w.busy) {
        const std::string reason =
            w.deadlineKilled
                ? "job exceeded --job-deadline-sec " +
                      std::to_string(opt_.jobDeadlineSec) +
                      "; worker killed"
                : "worker process died mid-job";
        const auto it = inflight_.find(w.jobId);
        if (it != inflight_.end()) {
            Job job = std::move(it->second);
            inflight_.erase(it);
            failAttempt(std::move(job), reason);
        }
        w.busyAccumUs += monoUs() - w.busySinceUs;
        w.busy = false;
        w.jobId = 0;
    }
    w.deadlineKilled = false;
    std::string err;
    if (!spawnWorker(w, err)) {
        std::fprintf(stderr, "stacknoc_serve: respawn failed: %s\n",
                     err.c_str());
    } else {
        counter(kWorkerRespawns).inc();
        dispatchJobs();
    }
}

void
CampaignServer::killWorkers()
{
    for (auto &w : workers_) {
        if (w.toFd >= 0)
            ::close(w.toFd); // EOF ends the worker loop
        if (w.fromFd >= 0)
            ::close(w.fromFd);
        w.toFd = w.fromFd = -1;
    }
    for (auto &w : workers_) {
        if (w.pid > 0) {
            int status = 0;
            ::waitpid(w.pid, &status, 0);
            w.pid = -1;
        }
    }
}

int
CampaignServer::run()
{
    while (!shutdown_) {
        if (draining_ && queue_.empty() && inflight_.empty())
            break; // drained: every accepted job has resolved
        std::vector<pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        if (sigFd_ >= 0)
            fds.push_back({sigFd_, POLLIN, 0});
        for (const auto &w : workers_)
            if (w.fromFd >= 0)
                fds.push_back({w.fromFd, POLLIN, 0});
        for (const auto &[fd, c] : clients_)
            fds.push_back({fd, POLLIN, 0});

        // Finite timeout only when a retry backoff gate or a job
        // deadline needs the loop to wake without fd traffic.
        const int rc =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   pollTimeoutMs());
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "stacknoc_serve: poll: %s\n",
                         std::strerror(errno));
            return 1;
        }
        checkDeadlines();
        dispatchJobs();

        for (const auto &p : fds) {
            if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            if (sigFd_ >= 0 && p.fd == sigFd_) {
                char buf[16];
                [[maybe_unused]] const ssize_t n =
                    ::read(sigFd_, buf, sizeof buf);
                beginDrain();
                continue;
            }
            if (p.fd == listenFd_) {
                const int cfd = ::accept(listenFd_, nullptr, nullptr);
                if (cfd >= 0)
                    clients_[cfd] = Client{cfd, {}};
                continue;
            }
            // Worker pipe?
            bool isWorker = false;
            for (auto &w : workers_) {
                if (w.fromFd != p.fd)
                    continue;
                isWorker = true;
                char buf[65536];
                const ssize_t n = ::read(p.fd, buf, sizeof buf);
                if (n > 0) {
                    w.outBuf.append(buf, static_cast<std::size_t>(n));
                    std::size_t pos;
                    while ((pos = w.outBuf.find('\n')) !=
                           std::string::npos) {
                        const std::string line = w.outBuf.substr(0, pos);
                        w.outBuf.erase(0, pos + 1);
                        if (!line.empty())
                            handleWorkerLine(w, line);
                    }
                } else {
                    onWorkerDeath(w);
                }
                break;
            }
            if (isWorker)
                continue;
            // Client socket.
            if (const auto it = clients_.find(p.fd); it != clients_.end())
                readClient(it->second);
            if (shutdown_)
                break;
        }
    }
    store_.seal(); // publish the journal before the process can exit
    log_.event("server_stop", [&](JsonWriter &jw) {
        jw.kv("uptime_sec", static_cast<double>(monoUs()) / 1e6);
        jw.kv("completed", count(kJobsCompleted));
        jw.kv("failed", count(kJobsFailed));
        jw.kv("drained", draining_);
    });
    killWorkers();
    return 0;
}

} // namespace stacknoc::server
