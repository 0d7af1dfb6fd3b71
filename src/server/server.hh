/**
 * @file
 * The resident campaign server behind tools/stacknoc_serve.
 *
 * Accepts NDJSON commands on a Unix-domain stream socket (see
 * server/protocol.hh for the grammar), schedules "run" requests over a
 * persistent pool of worker processes, streams each job's interval
 * events back to the submitting client, and caches completed results
 * keyed by the full-config digest: resubmitting an identical request
 * is served from memory without re-simulation, which the determinism
 * contract makes exact, not approximate.
 *
 * Warm-state reuse happens inside the workers (see server/worker.hh):
 * requests that share a warm configuration — same scenario/seed/
 * warm-up, any engine knobs or measured length — skip warm-up via the
 * shared checkpoint directory. With --ckpt-cap-bytes the server keeps
 * that directory under an LRU byte cap.
 *
 * Self-healing (docs/RESILIENCE.md "Fleet tier"): with --store-dir the
 * result cache is backed by a durable on-disk store (ResultStore) and
 * reloaded on startup, so a restarted server serves prior results
 * byte-identically. A job whose worker dies — signal, nonzero exit,
 * pipe EOF — or exceeds --job-deadline-sec is re-dispatched up to
 * --job-retries times with exponential backoff, the final attempt
 * forced cold in case the warm checkpoint itself is the poison; the
 * client still sees exactly one result or one final error carrying the
 * attempt history. --max-queue bounds the queue, shedding load with a
 * structured retry_after_ms error, and SIGTERM drains gracefully:
 * finish accepted jobs, seal the store, reject new submissions.
 * --chaos injects worker-side failures to prove all of this (see
 * server/chaos.hh).
 *
 * Fleet observability (docs/SERVER.md "Observability"): a
 * MetricsRegistry counts jobs, queueing, cache, checkpoint, store,
 * retry and worker health and is served by the "metrics" command as
 * Prometheus text exposition; an EventLog (--log-json) records every
 * job's lifecycle as NDJSON. All of it is observer-only with respect
 * to simulation: the workers' result payloads and stats digests are
 * byte-identical with every observability feature on or off.
 *
 * Single-threaded: one poll() loop owns the listener, every client
 * connection, every worker pipe and the signal self-pipe. Workers are
 * separate processes, so the loop only shuttles lines; a worker crash
 * retries its job and the worker is respawned.
 */

#ifndef STACKNOC_SERVER_SERVER_HH
#define STACKNOC_SERVER_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "server/chaos.hh"
#include "server/metrics.hh"
#include "server/oblog.hh"
#include "server/protocol.hh"
#include "server/result_store.hh"

namespace stacknoc::server {

/** Human-facing server version, reported in status and metrics. */
constexpr const char *kServerVersion = "1.3";

class CampaignServer
{
  public:
    struct Options
    {
        std::string socketPath;
        int workers = 1;
        /** Warm-checkpoint directory ("" disables warm reuse). */
        std::string ckptDir;
        /** LRU byte cap on the checkpoint dir (0 = unbounded). */
        std::uint64_t ckptCapBytes = 0;
        /** Executable to spawn workers from (this binary). */
        std::string workerExe;
        /** Job-lifecycle NDJSON log path ("" disables). */
        std::string logJsonPath;
        /** Log rotation cap in bytes (0 = EventLog default). */
        std::uint64_t logRotateBytes = 0;
        /** Durable result store directory ("" disables). */
        std::string storeDir;
        /** Queue bound; submissions beyond it are shed (0 = none). */
        int maxQueue = 0;
        /** Re-dispatches after a worker death or deadline kill. */
        int jobRetries = 2;
        /** Base retry backoff, doubled per retry. */
        int jobBackoffMs = 200;
        /** Per-attempt wall deadline; 0 disables the watchdog. */
        int jobDeadlineSec = 0;
        /** Failure injection (off unless --chaos was given). */
        ChaosSpec chaos;
    };

    explicit CampaignServer(Options opt);
    ~CampaignServer();

    CampaignServer(const CampaignServer &) = delete;
    CampaignServer &operator=(const CampaignServer &) = delete;

    /** Bind the socket and spawn the worker pool. */
    bool start(std::string &err);

    /** Serve until a shutdown command. @return process exit code. */
    int run();

  private:
    struct Client
    {
        int fd = -1;
        std::string inBuf;
    };
    struct Worker
    {
        pid_t pid = -1;
        int toFd = -1;   //!< server -> worker stdin
        int fromFd = -1; //!< worker stdout -> server
        std::string outBuf;
        bool busy = false;
        std::uint64_t jobId = 0;
        std::uint64_t busySinceUs = 0; //!< monoUs() at dispatch
        std::uint64_t busyAccumUs = 0; //!< total busy time, past jobs
        bool deadlineKilled = false;   //!< killed by the job watchdog
    };
    struct Job
    {
        std::uint64_t id = 0;
        int clientFd = -1;
        std::uint64_t key = 0;
        JobRequest req;
        int attempt = 1;
        bool forceCold = false; //!< final attempt skips warm restore
        /** One failure reason per exhausted attempt. */
        std::vector<std::string> history;
        std::uint64_t submitUs = 0;    //!< monoUs() at submission
        std::uint64_t dispatchUs = 0;  //!< monoUs() at dispatch
        std::uint64_t notBeforeUs = 0; //!< retry backoff gate
        std::uint64_t deadlineUs = 0;  //!< watchdog kill time (0 none)
    };

    bool spawnWorker(Worker &w, std::string &err);
    void dispatchJobs();
    void handleClientLine(Client &c, const std::string &line);
    void handleWorkerLine(Worker &w, const std::string &line);
    /** Validate+enqueue one run request. */
    void submitRun(const telemetry::JsonValue &doc, int clientFd);
    /** Read what @p c sent and handle every complete line in it. */
    void readClient(Client &c);
    void sendToClient(int fd, const std::string &line);
    void closeClient(int fd);
    void killWorkers();
    void onWorkerDeath(Worker &w);

    /** The NDJSON line dispatched to a worker for @p job. */
    std::string workerLineFor(const Job &job) const;
    /** Retry @p job after @p reason, or fail it for good. */
    void failAttempt(Job &&job, const std::string &reason);
    /** Emit the final error (with attempt history) for @p job. */
    void finalFail(Job &&job, const std::string &reason);
    /** SIGKILL workers whose job passed its deadline. */
    void checkDeadlines();
    /** poll() timeout to the next backoff or deadline (-1 = none). */
    int pollTimeoutMs() const;
    /** Stop accepting jobs; run() exits once the queue drains. */
    void beginDrain();

    /** The @p labels series of counter family @p name. */
    stats::Counter &counter(const char *name,
                            const std::string &labels = "");
    /** Total of counter family @p name's unlabelled series. */
    std::uint64_t count(const char *name) { return counter(name).value(); }

    /** Refresh point-in-time gauges before a scrape or status. */
    void refreshGauges();
    std::string statusJson();
    std::string renderMetrics();
    void enforceCkptCap();

    /** Microseconds since start() on the steady clock. */
    std::uint64_t monoUs() const;

    Options opt_;
    int listenFd_ = -1;
    int sigFd_ = -1; //!< read end of the SIGTERM self-pipe
    std::vector<Worker> workers_;
    std::map<int, Client> clients_;
    std::deque<Job> queue_;
    /** In-flight jobs by id (owner lookup for worker events). */
    std::map<std::uint64_t, Job> inflight_;
    /** Completed results: cache key digest -> result "data" JSON. */
    std::map<std::uint64_t, std::string> cache_;
    std::uint64_t cacheBytes_ = 0;
    std::uint64_t nextJobId_ = 1;
    bool shutdown_ = false;
    bool draining_ = false;
    std::chrono::steady_clock::time_point startTp_{};

    ResultStore store_;
    MetricsRegistry metrics_;
    EventLog log_;
};

} // namespace stacknoc::server

#endif // STACKNOC_SERVER_SERVER_HH
