"""Fleet-observability test: boots stacknoc_serve with the lifecycle
log and checkpoint cap enabled, drives a small campaign, and pins the
observability contracts end to end:

  * ``stacknoc_client metrics`` prints valid Prometheus text exposition
    with the full metric catalogue (>= 12 distinct series), counters
    that agree with the campaign just run, and a sane queue-wait
    histogram;
  * counters are monotonic across scrapes and cache accounting matches
    the ``status`` command's view;
  * the --log-json lifecycle log is schema-versioned NDJSON covering
    every job, and tools/serve_trace.py converts it to a Chrome trace;
  * observability is observer-only: result payloads and stats digests
    are identical with every feature on vs all off (modulo documented
    volatile wall-clock members);
  * --ckpt-cap-bytes evicts least-recently-used checkpoints, counted in
    ckpt_evictions_total;
  * tools/perf_sentinel.py validates the live scrape.

Same conventions as test_server_smoke.py: pytest-style, no pytest
dependency; ctest invokes ``python3 tests/test_server_metrics.py SERVE
CLIENT``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

SERVE = os.environ.get("STACKNOC_SERVE", "")
CLIENT = os.environ.get("STACKNOC_CLIENT", "")

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "tools")

BASE = ["--scenario", "MRAM-4TSB-WB", "--seed", "1",
        "--warmup", "500", "--mesh", "8x8", "--apps", "tpcc"]
JOB = [*BASE, "--cycles", "2000"]

# Wall-clock members of the result data payload, documented volatile in
# docs/SERVER.md: everything else must be identical run to run.
VOLATILE = {"wall_seconds", "ticks_per_sec", "active_fraction"}


class Server:
    """stacknoc_serve with observability on (unless flags say off)."""

    def __init__(self, log=True, ckpt_cap=0, workers=1):
        self.dir = tempfile.mkdtemp(prefix="stacknoc_obs_")
        self.socket = os.path.join(self.dir, "serve.sock")
        self.log_path = os.path.join(self.dir, "events.ndjson")
        argv = [SERVE, "--socket", self.socket,
                "--workers", str(workers),
                "--ckpt-dir", os.path.join(self.dir, "ckpt")]
        if log:
            argv += ["--log-json", self.log_path]
        if ckpt_cap:
            argv += ["--ckpt-cap-bytes", str(ckpt_cap)]
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

    def client(self, *args, expect_rc=0):
        proc = subprocess.run([CLIENT, "--socket", self.socket, *args],
                              capture_output=True, text=True,
                              timeout=240)
        assert proc.returncode == expect_rc, \
            (f"client {' '.join(args)} exited {proc.returncode} "
             f"(want {expect_rc}):\n{proc.stdout}\n{proc.stderr}")
        return [json.loads(line) for line in
                proc.stdout.splitlines() if line.strip()]

    def scrape(self):
        proc = subprocess.run([CLIENT, "--socket", self.socket, "metrics"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        text = proc.stdout
        series = {}
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            key, value = line.rsplit(None, 1)
            series[key] = float(value)
        return text, series

    def shutdown(self):
        try:
            if self.proc.poll() is None:
                self.client("shutdown")
                self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            shutil.rmtree(self.dir, ignore_errors=True)


def events_of(events, kind):
    return [e for e in events if e.get("event") == kind]


def result_data(events):
    results = events_of(events, "result")
    assert len(results) == 1, events
    return results[0]["data"]


def stable(data):
    return {k: v for k, v in data.items() if k not in VOLATILE}


def sentinel(*args):
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS, "perf_sentinel.py"),
         *args], capture_output=True, text=True, timeout=120)


def test_metrics_campaign():
    """3-job campaign: scrape validity, monotonicity, status parity."""
    srv = Server()
    try:
        _, series0 = srv.scrape()
        assert len(series0) >= 12, \
            f"only {len(series0)} series on the empty scrape"
        assert series0["stacknoc_jobs_submitted_total"] == 0

        srv.client("run", *JOB)                          # miss
        srv.client("run", *JOB)                          # hit
        srv.client("run", *BASE, "--cycles", "4000")     # miss + restore

        text, series = srv.scrape()
        assert series["stacknoc_jobs_submitted_total"] == 3
        assert series["stacknoc_jobs_completed_total"] == 2
        assert series["stacknoc_cache_hits_total"] == 1
        assert series["stacknoc_cache_misses_total"] == 2
        assert series["stacknoc_jobs_failed_total"] == 0
        assert series["stacknoc_ckpt_cold_warms_total"] == 1
        assert series["stacknoc_ckpt_restores_total"] == 1
        assert series["stacknoc_ckpt_saves_total"] == 1
        assert series["stacknoc_cache_entries"] == 2
        assert series["stacknoc_cache_bytes"] > 0
        assert series["stacknoc_ckpt_files"] == 1
        assert series["stacknoc_uptime_seconds"] > 0
        assert series['stacknoc_build_info{version="1.3",protocol="1"}'] \
            == 1

        # Queue-wait histogram sanity: one sample per dispatched job,
        # cumulative buckets, sum consistent with the +Inf count.
        assert series["stacknoc_queue_wait_us_count"] == 2
        inf = series['stacknoc_queue_wait_us_bucket{le="+Inf"}']
        assert inf == 2
        cum = [v for k, v in sorted(series.items())
               if k.startswith('stacknoc_queue_wait_us_bucket')]
        assert all(v <= inf for v in cum)
        # Per-phase histograms sampled once per completed job.
        assert series[
            'stacknoc_job_phase_us_count{phase="measure"}'] == 2
        assert series[
            'stacknoc_job_phase_us_count{phase="total"}'] == 2

        # Monotonicity vs the first scrape.
        for key, v0 in series0.items():
            if key.endswith("_total") or "_bucket" in key or \
                    key.endswith("_count") or key.endswith("_sum"):
                assert series.get(key, 0) >= v0, key

        # Cache parity with the status command.
        status = events_of(srv.client("status"), "status")[0]
        assert status["cache_hits"] == \
            series["stacknoc_cache_hits_total"]
        assert status["cache_entries"] == \
            series["stacknoc_cache_entries"]
        assert status["completed"] == \
            series["stacknoc_jobs_completed_total"]
        # Extended status members.
        assert status["version"] == "1.3"
        assert status["uptime_sec"] > 0
        assert status["jobs_failed"] == 0
        assert status["worker_respawns"] == 0

        # The sentinel validates the live scrape.
        scrape_path = os.path.join(srv.dir, "scrape.prom")
        with open(scrape_path, "w", encoding="utf-8") as f:
            f.write(text)
        proc = sentinel("--check-format", scrape_path,
                        "--min-series", "12", "--metrics", scrape_path,
                        "--max-queue-wait-p95-us", "60000000",
                        "--min-cache-hit-rate", "0.3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
    finally:
        srv.shutdown()


def test_event_log_and_trace():
    srv = Server()
    try:
        srv.client("run", *JOB)
        srv.client("run", *JOB)
        srv.client("run", "--scenario", "NOPE", expect_rc=2)

        kinds = []
        with open(srv.log_path, encoding="utf-8") as f:
            last_mono = -1
            for line in f:
                ev = json.loads(line)
                assert ev["v"] == 1, ev
                assert isinstance(ev["ts_ms"], int)
                assert ev["mono_us"] >= last_mono
                last_mono = ev["mono_us"]
                kinds.append(ev["event"])
        for want in ("server_start", "worker_spawned", "job_submitted",
                     "job_dispatched", "job_completed",
                     "job_served_cached"):
            assert want in kinds, f"no {want} event: {kinds}"

        completed = None
        with open(srv.log_path, encoding="utf-8") as f:
            for line in f:
                ev = json.loads(line)
                if ev["event"] == "job_completed":
                    completed = ev
        assert completed["worker_pid"] > 0
        assert completed["measure_us"] > 0
        assert completed["warm"] == "cold"
        assert re.fullmatch(r"0x[0-9a-f]{16}", completed["key"])
        assert re.fullmatch(r"0x[0-9a-f]{16}",
                            completed["stats_digest"])

        # The Chrome-trace exporter accepts the log and emits the
        # fleet pid rows.
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "serve_trace.py"),
             srv.log_path], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(proc.stdout)["traceEvents"]
        assert all(e["pid"] == 3 for e in trace)
        names = [e["name"] for e in trace if e["ph"] == "X"]
        assert "job 1" in names and "measure" in names, names
    finally:
        srv.shutdown()


def test_observability_is_observer_only():
    """Payloads and digests match with every feature on vs all off."""
    plain = Server(log=False)
    try:
        base = result_data(plain.client("run", *JOB))
    finally:
        plain.shutdown()

    full = Server(log=True, ckpt_cap=1 << 30)
    try:
        data = result_data(full.client("run", *JOB))
        assert stable(data) == stable(base), \
            "observability changed the result payload"
        assert data["stats_digest"] == base["stats_digest"]
    finally:
        full.shutdown()


def test_ckpt_eviction():
    # Measure one checkpoint's size, then cap below 2x so a second warm
    # key evicts the first (LRU) while the newest survives.
    srv = Server()
    try:
        srv.client("run", *JOB)
        _, series = srv.scrape()
        one = int(series["stacknoc_ckpt_bytes"])
        assert one > 0
    finally:
        srv.shutdown()

    srv = Server(ckpt_cap=int(one * 1.5))
    try:
        srv.client("run", *JOB)
        srv.client("run", *JOB, "--seed", "2")  # different warm key
        _, series = srv.scrape()
        assert series["stacknoc_ckpt_evictions_total"] == 1, series
        assert series["stacknoc_ckpt_files"] == 1
        assert series["stacknoc_ckpt_bytes"] <= one * 1.5
        evicted = [json.loads(line)
                   for line in open(srv.log_path, encoding="utf-8")
                   if '"ckpt_evicted"' in line]
        assert len(evicted) == 1 and evicted[0]["bytes"] > 0
    finally:
        srv.shutdown()


def test_client_watch_and_error_exit():
    srv = Server(log=False)
    try:
        # status --watch prints one summary line per poll.
        proc = subprocess.Popen(
            [CLIENT, "--socket", srv.socket, "status",
             "--watch", "0.1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.kill()
        proc.wait()
        for line in lines:
            assert re.search(r"up \d+\.\ds v1\.3 \| workers 1", line), \
                lines

        # Any error event exits non-zero (audited in
        # tools/stacknoc_client.cpp: the event loop returns 1 on
        # kind == "error" for every subcommand); a job the client can
        # reject itself exits 2 before connecting.
        bad = srv.client("run", "--fault-spec", "not-a-spec",
                         expect_rc=2)
        assert bad == [], bad
    finally:
        srv.shutdown()


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
