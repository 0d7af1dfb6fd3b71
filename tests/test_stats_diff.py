"""Tests for tools/stats_diff.py: threshold filtering, section
filtering, and missing-key reporting.

Written pytest-style (plain asserts, test_* functions) but with no
pytest dependency: ``python3 tests/test_stats_diff.py`` runs every
test function and reports a summary, which is how ctest invokes it.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATS_DIFF = os.path.join(REPO, "tools", "stats_diff.py")

BASE = {
    "run": {"scenario": "MRAM-4TSB-WB", "seed": 1},
    "groups": {
        "net": {"packets_injected": 1000, "packets_ejected": 1000},
        "cache": {"bank_writes": 400, "bank_reads": 800.0},
    },
}


def run_diff(doc_a, doc_b, *args):
    """Run stats_diff.py on two documents; return (exit, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        pa = os.path.join(tmp, "a.json")
        pb = os.path.join(tmp, "b.json")
        with open(pa, "w") as f:
            json.dump(doc_a, f)
        with open(pb, "w") as f:
            json.dump(doc_b, f)
        proc = subprocess.run(
            [sys.executable, STATS_DIFF, *args, pa, pb],
            capture_output=True, text=True)
    return proc.returncode, proc.stdout


def modified(**changes):
    """BASE with groups.net keys overridden / added."""
    doc = json.loads(json.dumps(BASE))
    doc["groups"]["net"].update(changes)
    return doc


def test_identical_documents_exit_zero():
    code, out = run_diff(BASE, BASE)
    assert code == 0
    assert "identical" in out


def test_changed_value_is_reported():
    code, out = run_diff(BASE, modified(packets_injected=1100))
    assert code == 1
    assert "groups.net.packets_injected" in out
    assert "1000" in out and "1100" in out


def test_threshold_hides_small_drift():
    # 1000 -> 1001 is a 0.1% delta: hidden at a 5% threshold.
    code, out = run_diff(BASE, modified(packets_injected=1001),
                         "--threshold", "0.05")
    assert code == 0
    assert "identical" in out


def test_threshold_keeps_large_drift():
    code, out = run_diff(BASE, modified(packets_injected=2000),
                         "--threshold", "0.05")
    assert code == 1
    assert "groups.net.packets_injected" in out


def test_threshold_does_not_hide_string_changes():
    changed = json.loads(json.dumps(BASE))
    changed["run"]["scenario"] = "MRAM-4TSB-SS"
    code, out = run_diff(BASE, changed, "--threshold", "0.99")
    assert code == 1
    assert "run.scenario" in out


def test_section_filter_limits_comparison():
    # Change both a net and a cache stat; restrict to groups.cache.
    changed = modified(packets_injected=9999)
    changed["groups"]["cache"]["bank_writes"] = 401
    code, out = run_diff(BASE, changed, "--section", "groups.cache")
    assert code == 1
    assert "groups.cache.bank_writes" in out
    assert "packets_injected" not in out


def test_section_filter_can_report_identical():
    code, out = run_diff(BASE, modified(packets_injected=9999),
                         "--section", "groups.cache")
    assert code == 0
    assert "identical" in out


def test_missing_key_is_reported():
    removed = json.loads(json.dumps(BASE))
    del removed["groups"]["net"]["packets_ejected"]
    code, out = run_diff(BASE, removed)
    assert code == 1
    assert "groups.net.packets_ejected" in out
    assert "missing" in out


def test_added_key_is_reported():
    code, out = run_diff(BASE, modified(flits_switched=5))
    assert code == 1
    assert "groups.net.flits_switched" in out
    assert "missing" in out


def test_perf_section_excluded_by_default():
    a = json.loads(json.dumps(BASE))
    a["perf"] = {"wall_seconds": 1.0, "ticks_per_sec": 100.0}
    b = json.loads(json.dumps(BASE))
    b["perf"] = {"wall_seconds": 2.0, "ticks_per_sec": 50.0}
    code, out = run_diff(a, b)
    assert code == 0
    assert "identical" in out


def test_profile_section_excluded_by_default():
    a = json.loads(json.dumps(BASE))
    a["profile"] = {"phases": {"compute": 0.5}, "total_seconds": 0.7}
    b = json.loads(json.dumps(BASE))
    b["profile"] = None
    code, out = run_diff(a, b)
    assert code == 0
    assert "identical" in out


def test_perf_exclusion_is_exact_prefix():
    # A group that merely starts with "perf" must still be compared.
    a = json.loads(json.dumps(BASE))
    a["perf_counters"] = {"x": 1}
    b = json.loads(json.dumps(BASE))
    b["perf_counters"] = {"x": 2}
    code, out = run_diff(a, b)
    assert code == 1
    assert "perf_counters.x" in out


def test_one_sided_optional_section_is_skipped():
    # --power on in one run and off in the other: a flag difference,
    # not a determinism failure, so the section must not be diffed.
    a = json.loads(json.dumps(BASE))
    a["power"] = {"totals_uj": {"total": 10.5}}
    b = json.loads(json.dumps(BASE))
    b["power"] = None
    code, out = run_diff(a, b)
    assert code == 0
    assert "identical" in out


def test_optional_section_present_in_both_is_compared():
    a = json.loads(json.dumps(BASE))
    a["power"] = {"totals_uj": {"total": 10.5}}
    b = json.loads(json.dumps(BASE))
    b["power"] = {"totals_uj": {"total": 11.5}}
    code, out = run_diff(a, b)
    assert code == 1
    assert "power.totals_uj.total" in out


def test_one_sided_thermal_section_is_skipped():
    a = json.loads(json.dumps(BASE))
    a["thermal"] = {"peak_c": 61.0}
    a["power"] = {"totals_uj": {"total": 10.5}}
    b = json.loads(json.dumps(BASE))
    b["thermal"] = None
    b["power"] = None
    code, out = run_diff(a, b)
    assert code == 0
    assert "identical" in out


def test_missing_keys_ignore_threshold():
    removed = json.loads(json.dumps(BASE))
    del removed["groups"]["net"]["packets_ejected"]
    code, out = run_diff(BASE, removed, "--threshold", "0.99")
    assert code == 1
    assert "missing" in out


def main():
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
