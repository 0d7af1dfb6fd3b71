"""Campaign-server smoke test: boots stacknoc_serve on a temp Unix
socket, drives it with stacknoc_client, and pins the subsystem's three
contracts end to end:

  * a "run" submission streams accepted -> interval* -> result events;
  * resubmitting the identical request is a cache hit served without
    re-simulation, with a byte-identical data payload;
  * the server-side stats digest matches a direct ``stacknoc_run
    --digest`` of the same configuration, and a second job sharing the
    warm configuration restores the warm checkpoint instead of warming
    up again.

It also pins the socket's error paths: malformed JSON, an unknown
command and an over-long command line each get one ``error`` event
with id 0, and the server keeps answering afterwards.

Written pytest-style (plain asserts, test_* functions) but with no
pytest dependency: ``python3 tests/test_server_smoke.py SERVE CLIENT
RUN`` runs every test function, which is how ctest invokes it.
"""

import json
import os
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import time

SERVE = os.environ.get("STACKNOC_SERVE", "")
CLIENT = os.environ.get("STACKNOC_CLIENT", "")
RUN = os.environ.get("STACKNOC_RUN", "")

BASE = ["--scenario", "MRAM-4TSB-WB", "--seed", "1",
        "--warmup", "500", "--mesh", "8x8"]
JOB = [*BASE, "--apps", "tpcc", "--cycles", "2000"]


class Server:
    """stacknoc_serve on a fresh socket + checkpoint dir."""

    def __init__(self):
        self.dir = tempfile.mkdtemp(prefix="stacknoc_smoke_")
        self.socket = os.path.join(self.dir, "serve.sock")
        self.proc = subprocess.Popen(
            [SERVE, "--socket", self.socket, "--workers", "1",
             "--ckpt-dir", os.path.join(self.dir, "ckpt")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        for _ in range(100):
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

    def raw(self, request):
        """Send one command straight to the socket, bypassing the
        client's own checks; return the first reply event."""
        return self.raw_lines((json.dumps(request) + "\n").encode(), 1)[0]

    def raw_lines(self, payload, count):
        """Send raw bytes on one connection; return ``count`` reply
        events read back from the same connection."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(60)
            s.connect(self.socket)
            s.sendall(payload)
            f = s.makefile()
            try:
                return [json.loads(f.readline()) for _ in range(count)]
            except socket.timeout:
                raise AssertionError(
                    f"no reply to {payload[:40]!r} within 60 s")

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


def direct_digest(cycles=2000):
    proc = subprocess.run([RUN, *BASE, "--app", "tpcc",
                           "--cycles", str(cycles), "--digest"],
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, f"stacknoc_run failed:\n{proc.stderr}"
    m = re.search(r"stats_digest (0x[0-9a-f]{16})", proc.stdout)
    assert m, f"no stats_digest in:\n{proc.stdout}"
    return m.group(1)


def test_server_end_to_end():
    srv = Server()
    try:
        # Cold submission: miss, streamed intervals, fresh result.
        first = srv.client("run", *JOB, "--interval", "500")
        accepted = events_of(first, "accepted")
        assert accepted and accepted[0]["cache"] == "miss", first
        assert len(events_of(first, "interval")) >= 1, \
            f"no interval events streamed: {first}"
        results = events_of(first, "result")
        assert len(results) == 1 and results[0]["cached"] is False
        data = results[0]["data"]
        assert data["warm_saved"] is True
        assert data["warm_restored"] is False

        # Identical resubmission: hit, served from cache, same payload.
        second = srv.client("run", *JOB, "--interval", "500")
        accepted = events_of(second, "accepted")
        assert accepted and accepted[0]["cache"] == "hit", second
        cached = events_of(second, "result")
        assert len(cached) == 1 and cached[0]["cached"] is True
        assert cached[0]["data"] == data, \
            "cached payload differs from the original result"
        assert cached[0]["key"] == results[0]["key"]

        # The cached digest equals a direct stacknoc_run of the same
        # configuration: the cache returns what a re-run would compute.
        assert data["stats_digest"] == direct_digest()

        # A different measured length shares the warm configuration, so
        # it restores the checkpoint saved by the first job — and still
        # matches the direct uninterrupted run bit for bit.
        third = srv.client("run", *BASE, "--apps", "tpcc",
                           "--cycles", "4000")
        warm = events_of(third, "result")[0]["data"]
        assert warm["warm_restored"] is True, warm
        assert warm["restored_from_cycle"] == 500
        assert warm["stats_digest"] == direct_digest(cycles=4000)

        # Bookkeeping made it into status.
        status = events_of(srv.client("status"), "status")[0]
        assert status["completed"] == 2
        assert status["cache_hits"] == 1
        assert status["cache_entries"] == 2

        # The client rejects a bad job before connecting (exit 2); the
        # server rejects one sent raw at submission, before any worker.
        srv.client("run", "--scenario", "NOPE", expect_rc=2)
        bad = srv.raw({"cmd": "run", "scenario": "NOPE"})
        assert bad["event"] == "error", bad
        assert "unknown scenario" in bad["reason"], bad
        bad = srv.raw({"cmd": "run", "mesh_width": 3, "mesh_height": 3})
        assert bad["event"] == "error" and "3x3" in bad["reason"], bad
    finally:
        srv.shutdown()


def test_socket_error_paths():
    """Malformed JSON and an unknown cmd each get one error event with
    id 0, and the same connection then answers status."""
    srv = Server()
    try:
        bad_json, unknown, status = srv.raw_lines(
            b'{"cmd": "run",\n{"cmd": "nope"}\n{"cmd": "status"}\n', 3)
        assert bad_json["event"] == "error" and bad_json["id"] == 0, \
            bad_json
        assert "bad command json" in bad_json["reason"], bad_json
        assert unknown["event"] == "error" and unknown["id"] == 0, \
            unknown
        assert "unknown cmd 'nope'" in unknown["reason"], unknown
        assert status["event"] == "status", status
    finally:
        srv.shutdown()


def test_over_long_line_is_refused():
    """A command line over 1 MiB gets one error event and the
    connection is closed, instead of the server buffering without
    bound; the server keeps answering other connections."""
    srv = Server()
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(srv.socket)
            try:
                s.sendall(b"x" * (2 << 20))  # 2 MiB, no newline
            except (BrokenPipeError, ConnectionResetError):
                pass  # closed by the server mid-send
            except socket.timeout:
                raise AssertionError("server stopped reading")
            received = b""
            try:
                while chunk := s.recv(4096):
                    received += chunk
            except ConnectionResetError:
                pass  # closed with our unread bytes still queued
            except socket.timeout:
                raise AssertionError(
                    f"connection still open after 30 s: {received!r}")
        lines = received.decode().splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["event"] == "error" and err["id"] == 0, err
        assert "command line too long" in err["reason"], err
        assert srv.raw({"cmd": "status"})["event"] == "status"
    finally:
        srv.shutdown()


def test_removed_http_option_exits_2():
    proc = subprocess.run([SERVE, "--http", "0"], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "unknown option '--http'" in proc.stderr, proc.stderr


def test_server_shutdown_is_clean():
    srv = Server()
    try:
        bye = srv.client("shutdown")
        assert events_of(bye, "bye"), bye
        srv.proc.wait(timeout=30)
        assert srv.proc.returncode == 0
    finally:
        srv.shutdown()


def main():
    global SERVE, CLIENT, RUN
    if len(sys.argv) > 3:
        SERVE, CLIENT, RUN = sys.argv[1], sys.argv[2], sys.argv[3]
    for binary in (SERVE, CLIENT, RUN):
        assert binary and os.path.exists(binary), \
            "pass the stacknoc_serve, stacknoc_client and stacknoc_run paths"
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
