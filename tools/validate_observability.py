#!/usr/bin/env python3
"""Validate stacknoc observability artifacts.

Checks any combination of:

  --chrome-trace FILE    valid trace-event JSON: a traceEvents array
                         whose non-metadata events carry numeric,
                         monotonically non-decreasing timestamps.
  --json-stats FILE      the 'profile' section is present and its
                         per-phase seconds sum to total_seconds; when
                         a chrome trace is also given, the trace's
                         main-track engine-phase span durations must
                         sum to the profile total within --tolerance.
  --heatmap-prefix PFX   PFX.{flits,occupancy,tsb,holds}.json exist
                         and every frame grid is exactly
                         width*height long, one grid per layer.
  --power-prefix PFX     PFX.power.json and PFX.temperature.json exist
                         and pass the same grid-shape checks (values
                         are doubles: watts / Celsius).
  --expect-power         the --json-stats document must carry 'power'
                         and 'thermal' sections; the power section's
                         streaming total must reconcile with the
                         end-of-run computeEnergy scalar to 1e-6
                         relative, and the thermal peak must sit at or
                         above ambient.

Additionally, when --json-stats is given, profile.total_seconds must
match perf.wall_seconds within --tolerance (the phase measurements
tile the engine loop, so their sum tracks measured wall time).

Every grid file is a view of one activity table, so all the grid files
checked must share identical frame boundaries, and those frames must
tile their window without gaps; with --json-stats the window must be
exactly the run's measured window, unless a file reports
frames_dropped > 0 (the table's retention cap then keeps only the
frames from the start of the window).

Exit status: 0 when every requested check passes, 1 otherwise.
"""

import argparse
import json
import sys

HEATMAP_METRICS = ("flits", "occupancy", "tsb", "holds")

_failures = []


def check(ok, message):
    if ok:
        return True
    _failures.append(message)
    print(f"FAIL: {message}")
    return False


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        check(False, f"{path}: {e}")
        return None


def validate_chrome_trace(path):
    doc = load_json(path)
    if doc is None:
        return None
    if not check(isinstance(doc, dict) and
                 isinstance(doc.get("traceEvents"), list),
                 f"{path}: missing traceEvents array"):
        return None
    events = doc["traceEvents"]
    check(len(events) > 0, f"{path}: traceEvents is empty")

    last_ts = None
    phase_sum_us = 0.0
    names = set()
    for i, ev in enumerate(events):
        if not check(isinstance(ev, dict) and "ph" in ev and "pid" in ev,
                     f"{path}: event {i} lacks ph/pid"):
            return None
        if ev["ph"] == "M":
            continue
        ts = ev.get("ts")
        if not check(isinstance(ts, (int, float)),
                     f"{path}: event {i} has non-numeric ts"):
            return None
        if last_ts is not None:
            check(ts >= last_ts,
                  f"{path}: event {i} ts {ts} < previous {last_ts}")
        last_ts = ts
        if ev["ph"] == "X" and ev["pid"] == 2 and ev.get("tid") == 0:
            phase_sum_us += float(ev.get("dur", 0.0))
            names.add(ev.get("name"))
    return {"main_phase_seconds": phase_sum_us / 1e6,
            "phase_names": names}


def validate_profile(path, trace_summary, tolerance):
    doc = load_json(path)
    if doc is None:
        return
    prof = doc.get("profile")
    if not check(isinstance(prof, dict),
                 f"{path}: no 'profile' section (run with --profile)"):
        return
    phases = prof.get("phases", {})
    total = prof.get("total_seconds", 0.0)
    check(total > 0.0, f"{path}: profile.total_seconds is zero")
    phase_sum = sum(phases.values())
    check(abs(phase_sum - total) <= 1e-9 + 1e-6 * total,
          f"{path}: phase seconds sum {phase_sum} != "
          f"total_seconds {total}")

    wall = doc.get("perf", {}).get("wall_seconds", 0.0)
    if wall > 0.0:
        rel = abs(total - wall) / wall
        check(rel <= tolerance,
              f"{path}: profile total {total:.4f}s vs wall "
              f"{wall:.4f}s differs by {rel:.1%} (> {tolerance:.0%})")

    if trace_summary is not None:
        span_sum = trace_summary["main_phase_seconds"]
        check(span_sum > 0.0,
              "chrome trace has no main-track engine-phase spans")
        if total > 0.0:
            rel = abs(span_sum - total) / total
            check(rel <= tolerance,
                  f"chrome trace main-track span sum {span_sum:.4f}s "
                  f"vs profile total {total:.4f}s differs by "
                  f"{rel:.1%} (> {tolerance:.0%})")


def validate_grid_file(path, metric):
    """Shape-check one heatmap-schema grid file (counts or doubles);
    return (its frames' [start, end] pairs, its frames_dropped), or
    None when unusable."""
    doc = load_json(path)
    if doc is None:
        return None
    ok = check(doc.get("metric") == metric,
               f"{path}: metric field != {metric}")
    width = doc.get("width", 0)
    height = doc.get("height", 0)
    layers = doc.get("layers", 0)
    ok &= check(width > 0 and height > 0 and layers > 0,
                f"{path}: bad dimensions {width}x{height}x{layers}")
    frames = doc.get("frames")
    ok &= check(isinstance(frames, list) and frames,
                f"{path}: no frames recorded")
    if not ok:
        return None
    prev_end = -1
    for i, frame in enumerate(frames):
        check(frame["start"] <= frame["end"],
              f"{path}: frame {i} start > end")
        check(frame["start"] > prev_end,
              f"{path}: frame {i} overlaps the previous frame")
        prev_end = frame["end"]
        grids = frame.get("grids", [])
        check(len(grids) == layers,
              f"{path}: frame {i} has {len(grids)} grids, "
              f"expected {layers}")
        for layer, grid in enumerate(grids):
            check(len(grid) == width * height,
                  f"{path}: frame {i} layer {layer} grid has "
                  f"{len(grid)} cells, expected {width * height}")
            check(all(isinstance(v, (int, float)) and v >= 0
                      for v in grid),
                  f"{path}: frame {i} layer {layer} has a negative "
                  f"or non-numeric cell")
    return ([(f["start"], f["end"]) for f in frames],
            doc.get("frames_dropped", 0))


def validate_heatmaps(prefix):
    return {f"{prefix}.{metric}.json":
            validate_grid_file(f"{prefix}.{metric}.json", metric)
            for metric in HEATMAP_METRICS}


def validate_power_grids(prefix):
    return {f"{prefix}.{metric}.json":
            validate_grid_file(f"{prefix}.{metric}.json", metric)
            for metric in ("power", "temperature")}


def measured_window(path):
    """[first, last] measured cycle of a --json-stats run, or None."""
    doc = load_json(path)
    run = doc.get("run", {}) if isinstance(doc, dict) else {}
    if run.get("timed_out", False) or "measured_cycles" not in run:
        return None
    first = run.get("restored_from_cycle", run.get("warmup_cycles", 0))
    return first, first + run["measured_cycles"] - 1


def validate_frame_boundaries(boundaries, window):
    """All grid files share frame boundaries; the frames tile their
    window (the run's measured window, when known and no frame was
    dropped)."""
    usable = {p: b for p, b in boundaries.items() if b}
    if not usable:
        return
    ref_path, (ref, _) = next(iter(usable.items()))
    for path, (frames, _) in usable.items():
        check(frames == ref,
              f"{path}: frame boundaries differ from {ref_path}")
    if any(dropped > 0 for _, dropped in usable.values()):
        window = None
    for i in range(1, len(ref)):
        check(ref[i][0] == ref[i - 1][1] + 1,
              f"{ref_path}: gap between frames {i - 1} and {i}")
    if window is not None:
        check((ref[0][0], ref[-1][1]) == window,
              f"{ref_path}: frames cover {ref[0][0]}..{ref[-1][1]}, "
              f"the measured window is {window[0]}..{window[1]}")


def validate_power_sections(path):
    """The 'power' and 'thermal' stats sections of a --power --thermal
    run: totals reconcile with computeEnergy, the per-interval series
    sums back to the streaming totals, and temperatures are sane."""
    doc = load_json(path)
    if doc is None:
        return
    power = doc.get("power")
    if not check(isinstance(power, dict),
                 f"{path}: no 'power' section (run with --power)"):
        return
    totals = power.get("totals_uj", {})
    check(totals.get("total", 0.0) > 0.0,
          f"{path}: power.totals_uj.total is zero")
    cat_sum = sum(v for k, v in totals.items() if k != "total")
    check(abs(cat_sum - totals.get("total", 0.0)) <=
          1e-9 + 1e-9 * abs(cat_sum),
          f"{path}: power category sum {cat_sum} != total "
          f"{totals.get('total')}")

    rec = power.get("reconciliation", {})
    check(rec.get("rel_error", 1.0) <= 1e-6,
          f"{path}: streaming energy does not reconcile with "
          f"computeEnergy (rel_error {rec.get('rel_error')})")

    series = power.get("series", [])
    frames = power.get("frames", [])
    check(len(series) == len(frames) and series,
          f"{path}: power series/frames length mismatch "
          f"({len(series)} vs {len(frames)})")
    series_sum = sum(row.get("total_uj", 0.0) for row in series)
    total = totals.get("total", 0.0)
    check(abs(series_sum - total) <= 1e-9 + 1e-9 * abs(total),
          f"{path}: power series sum {series_sum} != streaming "
          f"total {total}")

    thermal = doc.get("thermal")
    if not check(isinstance(thermal, dict),
                 f"{path}: no 'thermal' section (run with --thermal)"):
        return
    ambient = thermal.get("ambient_c", 0.0)
    peak = thermal.get("peak_c", -1.0)
    check(peak >= ambient,
          f"{path}: thermal peak_c {peak} below ambient {ambient}")
    check(thermal.get("substeps", 0) > 0,
          f"{path}: thermal solver took no substeps")
    t_series = thermal.get("series", [])
    check(len(t_series) == len(series),
          f"{path}: thermal series has {len(t_series)} rows, power "
          f"has {len(series)}")
    for i, row in enumerate(t_series):
        for layer, (hi, mean) in enumerate(zip(row.get("max_c", []),
                                               row.get("mean_c", []))):
            check(ambient <= mean <= hi,
                  f"{path}: thermal series row {i} layer {layer} "
                  f"violates ambient <= mean <= max")
    ranked = thermal.get("hot_banks", [])
    check(bool(ranked), f"{path}: hot_banks is empty")
    temps = [hb.get("temp_c", 0.0) for hb in ranked]
    check(temps == sorted(temps, reverse=True),
          f"{path}: hot_banks not sorted hottest-first")


def main():
    ap = argparse.ArgumentParser(
        description="Validate stacknoc observability artifacts.")
    ap.add_argument("--chrome-trace")
    ap.add_argument("--json-stats")
    ap.add_argument("--heatmap-prefix")
    ap.add_argument("--power-prefix")
    ap.add_argument("--expect-power", action="store_true",
                    help="require power/thermal sections in the "
                         "--json-stats document")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="relative wall-time agreement bound")
    args = ap.parse_args()
    if not (args.chrome_trace or args.json_stats or args.heatmap_prefix
            or args.power_prefix):
        ap.error("nothing to validate")
    if args.expect_power and not args.json_stats:
        ap.error("--expect-power requires --json-stats")

    trace_summary = None
    if args.chrome_trace:
        trace_summary = validate_chrome_trace(args.chrome_trace)
    if args.json_stats:
        validate_profile(args.json_stats, trace_summary, args.tolerance)
    if args.expect_power:
        validate_power_sections(args.json_stats)
    boundaries = {}
    if args.heatmap_prefix:
        boundaries.update(validate_heatmaps(args.heatmap_prefix))
    if args.power_prefix:
        boundaries.update(validate_power_grids(args.power_prefix))
    validate_frame_boundaries(
        boundaries,
        measured_window(args.json_stats) if args.json_stats else None)

    if _failures:
        print(f"{len(_failures)} check(s) failed")
        return 1
    print("all observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
