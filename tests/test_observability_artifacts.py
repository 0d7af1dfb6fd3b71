"""End-to-end checks of the observability artifacts: runs stacknoc_run
with --profile --chrome-trace --heatmap --progress, then validates
that the Chrome trace is well-formed trace-event JSON with monotonic
timestamps, heatmap grids are exactly mesh-sized, the profile section
is consistent, and that the determinism digest matches a flags-off
run bit-for-bit.

Written pytest-style (plain asserts, test_* functions) but with no
pytest dependency: ``python3 tests/test_observability_artifacts.py
[path/to/stacknoc_run]`` runs every test function, which is how ctest
invokes it.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(REPO, "tools")
STACKNOC_RUN = os.environ.get("STACKNOC_RUN", "")

RUN_ARGS = ["--mesh", "4x4", "--cycles", "1200", "--warmup", "200",
            "--seed", "3"]
TOTAL_CYCLES = 1400

_cache = {}


def run_binary(*args):
    proc = subprocess.run([STACKNOC_RUN, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, \
        f"stacknoc_run {' '.join(args)} failed:\n{proc.stderr}"
    return proc


def artifacts():
    """Produce (and cache) one flags-on run and one flags-off run."""
    if "dir" in _cache:
        return _cache
    tmp = tempfile.mkdtemp(prefix="stacknoc_obs_")
    _cache["dir"] = tmp
    _cache["on"] = os.path.join(tmp, "on.json")
    _cache["off"] = os.path.join(tmp, "off.json")
    _cache["trace"] = os.path.join(tmp, "trace.json")
    _cache["heatmap"] = os.path.join(tmp, "hm")
    _cache["on_proc"] = run_binary(
        *RUN_ARGS, "--threads", "2", "--profile", "--power", "--thermal",
        "--chrome-trace", _cache["trace"],
        "--heatmap", _cache["heatmap"], "--heatmap-period", "128",
        "--progress", "--json-stats", _cache["on"])
    run_binary(*RUN_ARGS, "--threads", "2",
               "--json-stats", _cache["off"])
    return _cache


def test_validator_accepts_artifacts():
    a = artifacts()
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "validate_observability.py"),
         "--chrome-trace", a["trace"], "--json-stats", a["on"],
         "--heatmap-prefix", a["heatmap"], "--power-prefix", a["heatmap"],
         "--expect-power", "--tolerance", "0.15"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_determinism_digest_matches_flags_off_run():
    a = artifacts()
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "stats_diff.py"),
         a["off"], a["on"]],
        capture_output=True, text=True)
    assert proc.returncode == 0, \
        f"observability flags changed the digest:\n{proc.stdout}"
    assert "identical" in proc.stdout


def test_chrome_trace_is_valid_trace_event_json():
    a = artifacts()
    with open(a["trace"]) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert events

    last_ts = None
    async_depth = {}
    saw_packet_instant = saw_engine_span = False
    for ev in events:
        if ev["ph"] == "M":
            continue
        assert isinstance(ev["ts"], (int, float))
        if last_ts is not None:
            assert ev["ts"] >= last_ts, "timestamps must be monotonic"
        last_ts = ev["ts"]
        if ev["ph"] == "i":
            saw_packet_instant = True
            assert ev["pid"] == 1
            assert 0 <= ev["ts"] <= TOTAL_CYCLES
        elif ev["ph"] in ("b", "e"):
            delta = 1 if ev["ph"] == "b" else -1
            async_depth[ev["id"]] = async_depth.get(ev["id"], 0) + delta
            assert async_depth[ev["id"]] >= 0
        elif ev["ph"] == "X":
            saw_engine_span = True
            assert ev["pid"] == 2
            assert ev["dur"] >= 0
    assert saw_packet_instant, "no packet lifecycle events"
    assert saw_engine_span, "no engine phase spans"
    assert all(d == 0 for d in async_depth.values()), \
        "unbalanced async begin/end pairs"


def test_heatmap_grids_are_exactly_mesh_sized():
    a = artifacts()
    for metric in ("flits", "occupancy", "tsb", "holds"):
        with open(f"{a['heatmap']}.{metric}.json") as f:
            doc = json.load(f)
        assert doc["width"] == 4 and doc["height"] == 4
        assert doc["layers"] == 2
        assert doc["frames"], f"{metric}: no frames"
        for frame in doc["frames"]:
            assert len(frame["grids"]) == 2
            for grid in frame["grids"]:
                assert len(grid) == 16


def test_heatmap_flits_show_traffic():
    a = artifacts()
    with open(f"{a['heatmap']}.flits.json") as f:
        doc = json.load(f)
    total = sum(sum(g) for f_ in doc["frames"] for g in f_["grids"])
    assert total > 0, "no flit traversals recorded in any frame"


def test_heatmap_and_power_frames_tile_the_measured_window():
    # One activity table feeds every grid file: identical frame
    # boundaries, the closing partial interval included, and flits
    # summed over the frames is the run's whole flits_switched total.
    a = artifacts()
    bounds = {}
    for metric in ("flits", "holds", "power", "temperature"):
        with open(f"{a['heatmap']}.{metric}.json") as f:
            bounds[metric] = [(fr["start"], fr["end"])
                              for fr in json.load(f)["frames"]]
    assert all(b == bounds["flits"] for b in bounds.values()), bounds
    assert bounds["flits"][0][0] == 200
    assert bounds["flits"][-1][1] == TOTAL_CYCLES - 1
    with open(f"{a['heatmap']}.flits.json") as f:
        doc = json.load(f)
    total = sum(sum(g) for f_ in doc["frames"] for g in f_["grids"])
    with open(a["on"]) as f:
        on = json.load(f)
    assert total == on["groups"]["net"]["counters"]["flits_switched"]


def _validate_truncated_heatmap(frames_dropped):
    """Keep only the first two heatmap frames, as the table's retention
    cap would, and run the validator on them with the run's stats."""
    a = artifacts()
    prefix = os.path.join(a["dir"], f"cut{frames_dropped}")
    for metric in ("flits", "occupancy", "tsb", "holds"):
        with open(f"{a['heatmap']}.{metric}.json") as f:
            doc = json.load(f)
        doc["frames_dropped"] = frames_dropped
        doc["frames"] = doc["frames"][:2]
        with open(f"{prefix}.{metric}.json", "w") as f:
            json.dump(doc, f)
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS, "validate_observability.py"),
         "--json-stats", a["on"], "--heatmap-prefix", prefix,
         "--tolerance", "0.15"],
        capture_output=True, text=True)


def test_validator_skips_window_check_when_frames_were_dropped():
    proc = _validate_truncated_heatmap(frames_dropped=3)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The same files without the dropped count do not cover the window.
    proc = _validate_truncated_heatmap(frames_dropped=0)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "the measured window is" in proc.stdout, proc.stdout


def test_progress_reports_on_stderr():
    a = artifacts()
    err = a["on_proc"].stderr
    assert "[progress]" in err
    assert "ticks/s" in err


def test_profile_table_on_stdout():
    a = artifacts()
    out = a["on_proc"].stdout
    assert "profile:" in out
    for phase in ("compute", "barrier", "commit", "serial", "cycle_end"):
        assert phase in out, phase


def test_json_stats_profile_section():
    a = artifacts()
    with open(a["on"]) as f:
        on = json.load(f)
    prof = on["profile"]
    assert prof["cycles"] == TOTAL_CYCLES
    assert set(prof["phases"]) == \
        {"compute", "barrier", "commit", "serial", "cycle_end"}
    assert len(prof["shards"]) >= 2
    assert prof["spans_recorded"] > 0
    with open(a["off"]) as f:
        off = json.load(f)
    assert off["profile"] is None


def test_power_section_reconciles_with_compute_energy():
    a = artifacts()
    with open(a["on"]) as f:
        on = json.load(f)
    power = on["power"]
    assert power["reconciliation"]["rel_error"] <= 1e-6
    assert power["totals_uj"]["total"] > 0
    # The measured window is tiled by the intervals exactly.
    series = power["series"]
    assert series[0]["start"] == 200
    assert series[-1]["end"] == TOTAL_CYCLES - 1
    thermal = on["thermal"]
    assert thermal["peak_c"] >= thermal["ambient_c"]
    assert len(thermal["hot_banks"]) > 0
    with open(a["off"]) as f:
        off = json.load(f)
    assert off["power"] is None and off["thermal"] is None


def test_chrome_trace_has_power_counter_tracks():
    a = artifacts()
    with open(a["trace"]) as f:
        doc = json.load(f)
    names = {ev.get("name") for ev in doc["traceEvents"]
             if ev.get("ph") == "C"}
    assert "uncore_power" in names
    assert "hottest_cell" in names


def test_power_and_temperature_grids_render():
    a = artifacts()
    for metric, unit_hint in (("power", "power"),
                              ("temperature", "temperature")):
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "heatmap_render.py"),
             f"{a['heatmap']}.{metric}.json", "--frame", "-1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert unit_hint in proc.stdout


def test_heatmap_render_runs():
    a = artifacts()
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "heatmap_render.py"),
         f"{a['heatmap']}.flits.json", "--sum"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "flits" in proc.stdout


def main():
    global STACKNOC_RUN
    if len(sys.argv) > 1:
        STACKNOC_RUN = sys.argv[1]
    if not STACKNOC_RUN or not os.path.exists(STACKNOC_RUN):
        print(f"stacknoc_run binary not found ({STACKNOC_RUN!r}); "
              "pass its path as argv[1] or set STACKNOC_RUN")
        return 1
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError:
            failures += 1
            import traceback
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
