#!/usr/bin/env python3
"""Performance-regression sentinel for the campaign fleet.

Two independent checks, either or both per invocation; the process
exits non-zero if any enabled check fails:

  Metrics snapshot  --metrics SCRAPE.prom
      Reads one Prometheus text-exposition scrape of stacknoc_serve and
      enforces fleet health bands:
        --max-queue-wait-p95-us N   p95 of stacknoc_queue_wait_us,
                                    computed from the cumulative log2
                                    buckets (upper bound of the p95
                                    bucket), must be <= N
        --min-cache-hit-rate R      hits / (hits + misses) >= R
                                    (skipped when there were no
                                    submissions)
        --max-metric NAME=V         the named series (bare name or full
                                    name{labels} key) must be <= V;
                                    repeatable. A missing series fails
                                    the check — the band exists to
                                    prove the fleet stayed healthy.
        --min-metric NAME=V         same, but the series must be >= V;
                                    repeatable. Used after a chaos run
                                    to prove injected failures actually
                                    happened (e.g. job_retries_total)
                                    while the failure budget held
                                    (e.g. jobs_failed_total).

  Format validation --check-format SCRAPE.prom [--min-series N]
      Validates text exposition format v0.0.4: every series line parses,
      every family has HELP and TYPE before its first series, histogram
      families carry le="+Inf" and consistent _count, and at least
      --min-series distinct series exist.

Exit codes: 0 all enabled checks pass, 1 regression/validation failure,
2 usage or unreadable input.
"""

import argparse
import re
import sys

SERIES_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+\-]+|NaN|'
    r'[+-]Inf)$')
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def fail(msg):
    print(f"perf_sentinel: FAIL: {msg}")
    return False


def parse_exposition(path):
    """Parse a text-exposition file.

    Returns (families, series, errors): families maps family name ->
    {"help": bool, "type": str}; series maps full series key
    (name + sorted label body) -> float value.
    """
    families = {}
    series = {}
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"perf_sentinel: cannot read {path}: {e}")
        sys.exit(2)

    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                errors.append(f"line {lineno}: malformed HELP")
                continue
            families.setdefault(parts[2], {"help": False,
                                           "type": None})["help"] = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 4)
            if len(parts) < 4:
                errors.append(f"line {lineno}: malformed TYPE")
                continue
            fam = families.setdefault(parts[2],
                                      {"help": False, "type": None})
            fam["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SERIES_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable series: {line!r}")
            continue
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            series[name + labels] = float(value)
        except ValueError:
            errors.append(f"line {lineno}: bad value {value!r}")
    return families, series, errors


def family_of(series_name):
    """Strip histogram suffixes back to the declared family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if series_name.endswith(suffix):
            return series_name[: -len(suffix)]
    return series_name


def labels_of(key):
    brace = key.find("{")
    if brace < 0:
        return {}
    return dict(LABEL_RE.findall(key[brace + 1:-1]))


def name_of(key):
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


def check_format(path, min_series):
    families, series, errors = parse_exposition(path)
    ok = True
    for e in errors:
        ok = fail(f"{path}: {e}")

    for key in series:
        fam = family_of(name_of(key))
        if fam not in families:
            ok = fail(f"{path}: series {key!r} has no TYPE line "
                      f"(family {fam!r})")
        elif not families[fam]["help"]:
            ok = fail(f"{path}: family {fam!r} has TYPE but no HELP")

    # Histogram invariants, per labelled series: an +Inf bucket exists,
    # equals _count, and cumulative counts never decrease.
    for fam, meta in families.items():
        if meta["type"] != "histogram":
            continue
        groups = {}
        for key, value in series.items():
            if name_of(key) != fam + "_bucket":
                continue
            labels = labels_of(key)
            le = labels.pop("le", None)
            ident = tuple(sorted(labels.items()))
            groups.setdefault(ident, []).append((le, value))
        for ident, buckets in groups.items():
            les = dict(buckets)
            if "+Inf" not in les:
                ok = fail(f"{path}: histogram {fam}{dict(ident)} "
                          f"missing le=\"+Inf\"")
                continue
            finite = sorted(
                (float(le), v) for le, v in buckets if le != "+Inf")
            cum = [v for _, v in finite] + [les["+Inf"]]
            if any(b < a for a, b in zip(cum, cum[1:])):
                ok = fail(f"{path}: histogram {fam}{dict(ident)} "
                          f"buckets not cumulative")
            body = ("{" + ",".join(f'{k}="{v}"' for k, v in ident) +
                    "}") if ident else ""
            count = series.get(fam + "_count" + body)
            if count is None or count != les["+Inf"]:
                ok = fail(f"{path}: histogram {fam}{dict(ident)} "
                          f"_count != +Inf bucket")

    if len(series) < min_series:
        ok = fail(f"{path}: {len(series)} series < required "
                  f"{min_series}")
    if ok:
        print(f"perf_sentinel: format ok: {len(series)} series, "
              f"{len(families)} families")
    return ok


def histogram_p95(series, fam, label_filter=None):
    """p95 from cumulative log2 buckets: the upper bound of the bucket
    where the cumulative count first reaches 95% of the total."""
    buckets = []
    total = None
    for key, value in series.items():
        if name_of(key) == fam + "_bucket":
            labels = labels_of(key)
            le = labels.pop("le")
            if label_filter is not None and labels != label_filter:
                continue
            buckets.append((float("inf") if le == "+Inf" else float(le),
                            value))
        elif name_of(key) == fam + "_count":
            total = value
    if not buckets or not total:
        return None
    buckets.sort()
    want = 0.95 * total
    for le, cum in buckets:
        if cum >= want:
            return le
    return buckets[-1][0]


def parse_metric_bound(spec):
    """Split a NAME=VALUE band spec; exits 2 on malformed input."""
    name, eq, value = spec.rpartition("=")
    if not name or not eq:
        print(f"perf_sentinel: bad metric bound {spec!r} "
              f"(want NAME=VALUE)")
        sys.exit(2)
    try:
        return name, float(value)
    except ValueError:
        print(f"perf_sentinel: bad metric bound value in {spec!r}")
        sys.exit(2)


def series_value(series, name):
    """Look up a series by full key or by bare family name.

    A bare name with exactly one labelled variant resolves to it, so
    bands don't need to spell out label bodies that may change.
    """
    if name in series:
        return series[name]
    matches = [v for k, v in series.items() if name_of(k) == name]
    return matches[0] if len(matches) == 1 else None


def check_metric_bounds(path, series, max_bounds, min_bounds):
    ok = True
    for spec in max_bounds:
        name, bound = parse_metric_bound(spec)
        value = series_value(series, name)
        if value is None:
            ok = fail(f"{path}: --max-metric {name}: series not found")
        elif value > bound:
            ok = fail(f"{path}: {name} = {value:g} > {bound:g}")
        else:
            print(f"perf_sentinel: {name} = {value:g} <= {bound:g}")
    for spec in min_bounds:
        name, bound = parse_metric_bound(spec)
        value = series_value(series, name)
        if value is None:
            ok = fail(f"{path}: --min-metric {name}: series not found")
        elif value < bound:
            ok = fail(f"{path}: {name} = {value:g} < {bound:g}")
        else:
            print(f"perf_sentinel: {name} = {value:g} >= {bound:g}")
    return ok


def check_metrics(path, max_qwait_p95, min_hit_rate, max_bounds=(),
                  min_bounds=()):
    _, series, _ = parse_exposition(path)
    ok = check_metric_bounds(path, series, max_bounds, min_bounds)
    if max_qwait_p95 is not None:
        p95 = histogram_p95(series, "stacknoc_queue_wait_us", {})
        if p95 is None:
            ok = fail(f"{path}: no stacknoc_queue_wait_us samples to "
                      f"check against --max-queue-wait-p95-us")
        elif p95 > max_qwait_p95:
            ok = fail(f"{path}: queue-wait p95 {p95:.0f}us > "
                      f"{max_qwait_p95:.0f}us")
        else:
            print(f"perf_sentinel: queue-wait p95 {p95:.0f}us <= "
                  f"{max_qwait_p95:.0f}us")
    if min_hit_rate is not None:
        hits = series.get("stacknoc_cache_hits_total", 0.0)
        misses = series.get("stacknoc_cache_misses_total", 0.0)
        if hits + misses == 0:
            print("perf_sentinel: no submissions; hit-rate check "
                  "skipped")
        else:
            rate = hits / (hits + misses)
            if rate < min_hit_rate:
                ok = fail(f"{path}: cache hit rate {rate:.3f} < "
                          f"{min_hit_rate:.3f}")
            else:
                print(f"perf_sentinel: cache hit rate {rate:.3f} >= "
                      f"{min_hit_rate:.3f}")
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--metrics", help="Prometheus scrape to health-check")
    ap.add_argument("--max-queue-wait-p95-us", type=float, default=None)
    ap.add_argument("--min-cache-hit-rate", type=float, default=None)
    ap.add_argument("--max-metric", action="append", default=[],
                    metavar="NAME=V",
                    help="named series must be <= V (repeatable)")
    ap.add_argument("--min-metric", action="append", default=[],
                    metavar="NAME=V",
                    help="named series must be >= V (repeatable)")
    ap.add_argument("--check-format",
                    help="Prometheus scrape to validate")
    ap.add_argument("--min-series", type=int, default=12,
                    help="series floor for --check-format (default 12)")
    args = ap.parse_args()

    if not (args.metrics or args.check_format):
        ap.error("nothing to do: pass --metrics or --check-format")

    ok = True
    if args.check_format:
        ok = check_format(args.check_format, args.min_series) and ok
    if args.metrics:
        ok = check_metrics(args.metrics, args.max_queue_wait_p95_us,
                           args.min_cache_hit_rate, args.max_metric,
                           args.min_metric) and ok
    if ok:
        print("perf_sentinel: all checks passed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
