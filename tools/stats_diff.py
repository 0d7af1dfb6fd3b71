#!/usr/bin/env python3
"""Compare two stacknoc --json-stats files.

Walks both documents and reports every leaf value that differs, with
relative deltas for numbers:

    stats_diff.py base.json new.json
    stats_diff.py --threshold 0.05 base.json new.json   # hide tiny drift
    stats_diff.py --section groups.net base.json new.json

The top-level "perf" and "profile" sections hold wall-clock
measurements that differ between any two runs by construction, so they
are never compared — which makes every invocation a determinism check.

Exit status: 0 when identical (under the threshold), 1 when any
difference was reported, 2 on usage/parse errors. Also works on JSONL
files produced by STTNOC_JSON (compares line N against line N).
"""

import argparse
import json
import sys


def flatten(value, prefix=""):
    """Yield (dotted-path, leaf) pairs for a parsed JSON document."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from flatten(value[k], f"{prefix}.{k}" if prefix else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def load_documents(path):
    """Load a JSON file, or each line of a JSONL file."""
    with open(path) as f:
        text = f.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        if len(lines) > 1:
            return [json.loads(ln) for ln in lines]
        return [json.loads(text)]
    except json.JSONDecodeError as e:
        sys.exit(f"stats_diff: {path}: {e}")


# Top-level sections that hold non-deterministic wall-clock data.
WALL_CLOCK_SECTIONS = ("perf", "profile")

# Observer sections that are null unless their flag was passed. When
# one document has the section and the other doesn't, that is a flag
# difference, not a determinism violation, so the section is skipped
# (with a note on stderr). When present in BOTH documents the sections
# are fully deterministic — simulated-time quantities only — and are
# compared by default like everything else.
OPTIONAL_SECTIONS = ("power", "thermal", "intervals", "probe", "faults")


def one_sided_sections(a, b):
    """Optional sections present (non-null) in only one document."""
    if not isinstance(a, dict) or not isinstance(b, dict):
        return []
    return [s for s in OPTIONAL_SECTIONS
            if (a.get(s) is None) != (b.get(s) is None)]


def diff_documents(a, b, threshold, section):
    """Print differing leaves; return the number reported."""
    skipped = one_sided_sections(a, b)
    for s in skipped:
        print(f"note: section '{s}' present in only one document; "
              f"skipped (flag difference, not a determinism failure)",
              file=sys.stderr)
    fa = dict(flatten(a))
    fb = dict(flatten(b))
    reported = 0
    for path in sorted(fa.keys() | fb.keys()):
        if section and not path.startswith(section):
            continue
        if any(path == s or path.startswith(s + ".")
               for s in WALL_CLOCK_SECTIONS):
            continue
        if any(path == s or path.startswith(s + ".")
               for s in skipped):
            continue
        va, vb = fa.get(path), fb.get(path)
        if va == vb:
            continue
        if va is None or vb is None:
            print(f"{path}: {'missing' if va is None else va!r} -> "
                  f"{'missing' if vb is None else vb!r}")
            reported += 1
            continue
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            base = max(abs(va), abs(vb))
            rel = abs(va - vb) / base if base else 0.0
            if rel < threshold:
                continue
            print(f"{path}: {va:g} -> {vb:g} ({rel:+.2%})")
        else:
            print(f"{path}: {va!r} -> {vb!r}")
        reported += 1
    return reported


def main():
    ap = argparse.ArgumentParser(
        description="Diff two stacknoc JSON stats files.")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=0.0,
                    help="hide numeric diffs below this relative delta")
    ap.add_argument("--section", default="",
                    help="only compare paths under this dotted prefix")
    args = ap.parse_args()

    docs_a = load_documents(args.base)
    docs_b = load_documents(args.new)
    if len(docs_a) != len(docs_b):
        print(f"stats_diff: document count differs: "
              f"{len(docs_a)} vs {len(docs_b)}")
        return 1

    reported = 0
    for i, (a, b) in enumerate(zip(docs_a, docs_b)):
        if len(docs_a) > 1:
            print(f"--- document {i} ---")
        reported += diff_documents(a, b, args.threshold, args.section)
    if reported == 0:
        print("identical")
    return 1 if reported else 0


if __name__ == "__main__":
    sys.exit(main())
