"""Chaos harness for the self-healing campaign server: every injected
failure must end with exactly one terminal event per job and byte-level
agreement with a clean run.

  * --chaos kill-worker: SIGKILL mid-measure; the job retries from the
    published warm checkpoint and the final stats digest matches a
    chaos-free run of the same configuration;
  * --chaos slow-worker + --job-deadline-sec: hung workers are killed
    and retried, exhausting into a single final error that carries the
    attempt history;
  * --chaos corrupt-ckpt: a bit-flipped checkpoint fails its restore
    checksum and falls back to a cold warm-up, never a failed job;
  * --store-dir: a kill -9'd server restarts and serves byte-identical
    cached payloads; torn journal tails are skipped with counters, and
    a full disk degrades to memory-only caching;
  * --max-queue backpressure sheds with a structured retry_after_ms;
  * SIGTERM drains: running jobs finish, new submissions are refused,
    the store seals, and the process exits 0.

Same conventions as test_server_smoke.py: pytest-style plain asserts,
no pytest dependency; ctest invokes ``python3 tests/test_server_chaos.py
SERVE CLIENT``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

SERVE = os.environ.get("STACKNOC_SERVE", "")
CLIENT = os.environ.get("STACKNOC_CLIENT", "")

BASE = ["--scenario", "MRAM-4TSB-WB", "--mesh", "8x8", "--apps", "tpcc",
        "--warmup", "300"]
SMALL = [*BASE, "--cycles", "1000"]
# ~18k simulated cycles/sec: long enough to lose races against on
# purpose (backpressure, drain), short enough for the ctest timeout.
LONG = [*BASE, "--cycles", "100000"]


class Server:
    """stacknoc_serve with the lifecycle log and extra chaos flags."""

    def __init__(self, extra=(), workers=1):
        self.dir = tempfile.mkdtemp(prefix="stacknoc_chaos_")
        self.socket = os.path.join(self.dir, "serve.sock")
        self.log_path = os.path.join(self.dir, "events.ndjson")
        argv = [SERVE, "--socket", self.socket,
                "--workers", str(workers),
                "--ckpt-dir", os.path.join(self.dir, "ckpt"),
                "--log-json", self.log_path, *extra]
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        for _ in range(200):
            if os.path.exists(self.socket):
                break
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"server died: {self.proc.stderr.read()}")
            time.sleep(0.05)
        else:
            raise AssertionError("server socket never appeared")

    def client(self, *args, expect_rc=0, timeout=240):
        proc = subprocess.run([CLIENT, "--socket", self.socket, *args],
                              capture_output=True, text=True,
                              timeout=timeout)
        if expect_rc is not None:
            assert proc.returncode == expect_rc, \
                (f"client {' '.join(args)} exited {proc.returncode} "
                 f"(want {expect_rc}):\n{proc.stdout}\n{proc.stderr}")
        return [json.loads(line) for line in
                proc.stdout.splitlines() if line.strip()]

    def client_bg(self, *args):
        return subprocess.Popen([CLIENT, "--socket", self.socket,
                                 *args], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)

    def status(self):
        return events_of(self.client("status"), "status")[0]

    def scrape(self):
        proc = subprocess.run([CLIENT, "--socket", self.socket, "metrics"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        series = {}
        for line in proc.stdout.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            key, value = line.rsplit(None, 1)
            series[key] = float(value)
        return series

    def wait_status(self, pred, timeout=60):
        deadline = time.time() + timeout
        while time.time() < deadline:
            st = self.status()
            if pred(st):
                return st
            time.sleep(0.05)
        raise AssertionError(f"status predicate never held: {st}")

    def shutdown(self, rm=True):
        try:
            if self.proc.poll() is None:
                self.client("shutdown")
                self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            if rm:
                shutil.rmtree(self.dir, ignore_errors=True)

    def kill9(self):
        self.proc.kill()
        self.proc.wait()


def events_of(events, kind):
    return [e for e in events if e.get("event") == kind]


def terminal_events(events):
    return [e for e in events
            if e.get("event") in ("result", "error")]


def bg_events(proc, timeout=240):
    out, _ = proc.communicate(timeout=timeout)
    return proc.returncode, [json.loads(line) for line in
                             out.splitlines() if line.strip()]


def clean_digests(jobs):
    """Digests of each job list from a chaos-free server."""
    srv = Server()
    try:
        digests = []
        for job in jobs:
            data = events_of(srv.client("run", *job), "result")[0]["data"]
            digests.append(data["stats_digest"])
        return digests
    finally:
        srv.shutdown()


def test_kill_worker_exhausts_into_one_final_error():
    """kill-worker=1 murders every attempt: retries burn down into a
    single error event carrying the full attempt history."""
    srv = Server(extra=["--chaos", "kill-worker=1", "--chaos-seed", "3",
                        "--job-retries", "2", "--job-backoff-ms", "50"])
    try:
        events = srv.client("run", *SMALL, "--interval", "250",
                            expect_rc=1)
        term = terminal_events(events)
        assert len(term) == 1 and term[0]["event"] == "error", events
        err = term[0]
        assert err["attempts"] == 3, err
        assert len(err["attempt_history"]) == 3, err
        for entry in err["attempt_history"]:
            assert "worker process died" in entry, err

        series = srv.scrape()
        assert series["stacknoc_job_retries_total"] == 2
        assert series["stacknoc_jobs_failed_total"] == 1
        assert series["stacknoc_jobs_completed_total"] == 0
        st = srv.status()
        assert st["jobs_retried"] == 2 and st["jobs_failed"] == 1
    finally:
        srv.shutdown()


def test_chaos_campaign_converges_with_digest_parity():
    """A mid-measure SIGKILL campaign: every job resolves exactly once,
    and survivors (retried from the warm checkpoint) produce the same
    stats digest as a chaos-free run."""
    jobs = [[*SMALL, "--seed", str(s)] for s in (1, 2, 3, 4)]
    want = clean_digests(jobs)

    srv = Server(extra=["--chaos", "kill-worker=0.45",
                        "--chaos-seed", "5", "--job-retries", "3",
                        "--job-backoff-ms", "50"])
    try:
        completed = failed = 0
        for job, digest in zip(jobs, want):
            events = srv.client("run", *job, "--interval", "250",
                                expect_rc=None)
            term = terminal_events(events)
            assert len(term) == 1, \
                f"want exactly one terminal event: {events}"
            if term[0]["event"] == "result":
                completed += 1
                assert term[0]["data"]["stats_digest"] == digest, \
                    f"digest diverged after retries: {term[0]}"
            else:
                failed += 1

        series = srv.scrape()
        assert series["stacknoc_jobs_submitted_total"] == len(jobs)
        assert series["stacknoc_jobs_completed_total"] == completed
        assert series["stacknoc_jobs_failed_total"] == failed
        assert completed + failed == len(jobs)
        # The seed is pinned so the campaign provably exercised both
        # paths: at least one kill->retry and at least one survivor.
        assert series["stacknoc_job_retries_total"] >= 1, series
        assert completed >= 1, "no job survived the chaos campaign"
    finally:
        srv.shutdown()


def test_slow_worker_hits_deadline_and_retries():
    """slow-worker=1 stalls every attempt past --job-deadline-sec; the
    server SIGKILLs each one and the final error says why."""
    srv = Server(extra=["--chaos", "slow-worker=1", "--chaos-seed", "3",
                        "--job-deadline-sec", "2", "--job-retries", "1",
                        "--job-backoff-ms", "50"])
    try:
        events = srv.client("run", *SMALL, expect_rc=1)
        term = terminal_events(events)
        assert len(term) == 1 and term[0]["event"] == "error", events
        err = term[0]
        assert err["attempts"] == 2, err
        assert "job-deadline-sec" in err["reason"], err
        series = srv.scrape()
        assert series["stacknoc_job_deadline_kills_total"] == 2
        assert series["stacknoc_job_retries_total"] == 1
        assert series["stacknoc_jobs_failed_total"] == 1
    finally:
        srv.shutdown()


def test_corrupt_ckpt_falls_back_to_cold_warm():
    """corrupt-ckpt=1 bit-flips every published checkpoint: the next
    warm-sharing job fails the restore checksum, falls back to a cold
    warm-up, and still matches the clean digest."""
    (want,) = clean_digests([[*BASE, "--cycles", "2000"]])
    srv = Server(extra=["--chaos", "corrupt-ckpt=1",
                        "--chaos-seed", "3"])
    try:
        srv.client("run", *SMALL)  # publishes, then corrupts, the ckpt
        events = srv.client("run", *BASE, "--cycles", "2000")
        data = events_of(events, "result")[0]["data"]
        assert data["warm_restored"] is False, data
        assert data["stats_digest"] == want
        series = srv.scrape()
        assert series["stacknoc_ckpt_restore_fallbacks_total"] >= 1
        assert series["stacknoc_jobs_failed_total"] == 0
        with open(srv.log_path, encoding="utf-8") as f:
            assert any('"ckpt_restore_fallback"' in line for line in f)
    finally:
        srv.shutdown()


def test_store_survives_kill9_and_clean_restart():
    """Results outlive the server process: after kill -9 the journal
    replays and identical submissions are cache hits with byte-identical
    payloads; a clean shutdown seals the journal into a segment."""
    store = tempfile.mkdtemp(prefix="stacknoc_store_")
    job1 = [*SMALL, "--seed", "1"]
    job2 = [*SMALL, "--seed", "2"]
    try:
        srv = Server(extra=["--store-dir", store])
        data1 = events_of(srv.client("run", *job1), "result")[0]["data"]
        srv.kill9()  # no seal, no graceful anything
        shutil.rmtree(srv.dir, ignore_errors=True)

        srv = Server(extra=["--store-dir", store])
        series = srv.scrape()
        assert series["stacknoc_store_recovered_records"] == 1, series
        assert series["stacknoc_store_skipped_records"] == 0
        events = srv.client("run", *job1)
        accepted = events_of(events, "accepted")
        assert accepted and accepted[0]["cache"] == "hit", events
        result = events_of(events, "result")[0]
        assert result["cached"] is True
        assert result["data"] == data1, \
            "restarted server served different bytes"
        srv.client("run", *job2)  # appends a second record
        srv.shutdown()  # clean: seals the journal into a segment

        segs = [f for f in os.listdir(store) if f.endswith(".seg")]
        assert segs, f"no sealed segment after drain: {os.listdir(store)}"
        srv = Server(extra=["--store-dir", store])
        series = srv.scrape()
        assert series["stacknoc_store_recovered_records"] == 2, series
        assert series["stacknoc_store_segments"] >= 1
        for job in (job1, job2):
            events = srv.client("run", *job)
            assert events_of(events, "accepted")[0]["cache"] == "hit"
        srv.shutdown()
    finally:
        shutil.rmtree(store, ignore_errors=True)


def test_store_truncated_tail_is_skipped_not_fatal():
    """A crash-torn journal tail loses only the torn record: the clean
    prefix replays and the loss is visible in the skip counter."""
    store = tempfile.mkdtemp(prefix="stacknoc_torn_")
    job1 = [*SMALL, "--seed", "1"]
    job2 = [*SMALL, "--seed", "2"]
    try:
        srv = Server(extra=["--store-dir", store])
        srv.client("run", *job1)
        srv.client("run", *job2)
        srv.kill9()
        shutil.rmtree(srv.dir, ignore_errors=True)

        wal = os.path.join(store, "results.wal")
        with open(wal, "r+b") as f:
            f.truncate(os.path.getsize(wal) - 5)

        srv = Server(extra=["--store-dir", store])
        series = srv.scrape()
        assert series["stacknoc_store_recovered_records"] == 1, series
        assert series["stacknoc_store_skipped_records"] == 1, series
        hit = srv.client("run", *job1)
        assert events_of(hit, "accepted")[0]["cache"] == "hit"
        miss = srv.client("run", *job2)  # torn record re-simulates
        assert events_of(miss, "accepted")[0]["cache"] == "miss"
        assert len(events_of(miss, "result")) == 1
        srv.shutdown()
    finally:
        shutil.rmtree(store, ignore_errors=True)


def test_store_disk_full_degrades_to_memory_only():
    """ENOSPC on publish (journal -> /dev/full) never fails the job:
    the append failure is counted and the result is still served."""
    if not os.path.exists("/dev/full"):
        print("SKIP (no /dev/full)")
        return
    store = tempfile.mkdtemp(prefix="stacknoc_full_")
    try:
        os.symlink("/dev/full", os.path.join(store, "results.wal"))
        srv = Server(extra=["--store-dir", store])
        events = srv.client("run", *SMALL)
        assert len(events_of(events, "result")) == 1, events
        series = srv.scrape()
        assert series["stacknoc_store_append_failures_total"] >= 1
        assert series["stacknoc_jobs_failed_total"] == 0
        # The result is still cached in memory.
        again = srv.client("run", *SMALL)
        assert events_of(again, "accepted")[0]["cache"] == "hit"
        srv.shutdown()
    finally:
        shutil.rmtree(store, ignore_errors=True)


def test_max_queue_sheds_with_retry_after():
    """One worker, queue bound 1: the third concurrent submission is
    shed with a structured retry_after_ms, and succeeds once the queue
    drains."""
    srv = Server(extra=["--max-queue", "1"])
    try:
        running = srv.client_bg("run", *LONG, "--seed", "1")
        srv.wait_status(lambda st: st["busy"] == 1)
        queued = srv.client_bg("run", *LONG, "--seed", "2")
        srv.wait_status(lambda st: st["queued"] == 1)

        shed = srv.client("run", *SMALL, "--seed", "3", expect_rc=1)
        err = events_of(shed, "error")[0]
        assert err.get("shed") is True, shed
        assert err["retry_after_ms"] > 0, shed
        assert "queue full" in err["reason"], shed

        for proc in (running, queued):
            rc, events = bg_events(proc)
            assert rc == 0 and len(events_of(events, "result")) == 1

        ok = srv.client("run", *SMALL, "--seed", "3")
        assert len(events_of(ok, "result")) == 1
        series = srv.scrape()
        assert series["stacknoc_jobs_shed_total"] == 1
        assert series["stacknoc_jobs_submitted_total"] == 3
    finally:
        srv.shutdown()


def test_sigterm_drains_gracefully():
    """SIGTERM mid-job: the running job finishes and gets its result,
    new submissions are refused with draining=true, the store seals,
    and the server exits 0 without being told twice."""
    store = tempfile.mkdtemp(prefix="stacknoc_drain_")
    try:
        srv = Server(extra=["--store-dir", store])
        running = srv.client_bg("run", *LONG, "--seed", "1")
        srv.wait_status(lambda st: st["busy"] == 1)
        srv.proc.send_signal(signal.SIGTERM)

        deadline = time.time() + 10
        rejected = None
        while time.time() < deadline:
            events = srv.client("run", *SMALL, "--seed", "9",
                                expect_rc=None)
            errs = events_of(events, "error")
            if errs and errs[0].get("draining") is True:
                rejected = errs[0]
                break
            time.sleep(0.1)
        assert rejected is not None, "drain rejection never observed"
        assert "draining" in rejected["reason"]

        rc, events = bg_events(running)
        assert rc == 0, "in-flight job lost during drain"
        assert len(events_of(events, "result")) == 1

        srv.proc.wait(timeout=30)
        assert srv.proc.returncode == 0
        segs = [f for f in os.listdir(store) if f.endswith(".seg")]
        assert segs, f"store not sealed on drain: {os.listdir(store)}"
        shutil.rmtree(srv.dir, ignore_errors=True)
    finally:
        shutil.rmtree(store, ignore_errors=True)


def test_client_connect_retry_rides_out_restart():
    """--connect-retries: a client launched before the server exists
    connects once the socket appears."""
    holder = tempfile.mkdtemp(prefix="stacknoc_retry_")
    sock = os.path.join(holder, "late.sock")
    try:
        proc = subprocess.Popen(
            [CLIENT, "--socket", sock, "--connect-retries", "100",
             "--connect-backoff-ms", "50", "status"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        time.sleep(1.0)
        assert proc.poll() is None, \
            f"client gave up early: {proc.communicate()}"
        serve = subprocess.Popen(
            [SERVE, "--socket", sock, "--workers", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, f"client failed: {err}"
            assert '"event":"status"' in out, out
            assert '"workers":1' in out, out
        finally:
            serve.terminate()
            serve.wait(timeout=30)
    finally:
        shutil.rmtree(holder, ignore_errors=True)


def main():
    global SERVE, CLIENT
    if len(sys.argv) > 2:
        SERVE, CLIENT = sys.argv[1], sys.argv[2]
    for binary in (SERVE, CLIENT):
        assert binary and os.path.exists(binary), \
            "pass the stacknoc_serve and stacknoc_client paths"
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {name}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
