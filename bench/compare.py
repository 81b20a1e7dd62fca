"""Compare two result files of ``bench.run``: ``python -m bench.compare A.json B.json``.

A is the base of every ratio (the parent commit, or the first of two runs of
one commit).  For each workload and end-to-end metric the table shows both
medians with their min..max over repetitions, the ratio B/A, the bound from
``bench/config.py`` and a verdict:

``ok``          B is not worse than A by more than the bound;
``regressed``   it is;
``unresolved``  it is, but one run's own spread is wider than the bound and
                the two runs' ranges overlap, so these two runs cannot tell.

The per-layer section shows both values and requires every count to be
exactly equal.  Exits 1 on any ``regressed`` or unequal count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)

from bench import config  # noqa: E402


def verdict(metric: config.Metric, a: dict, b: dict) -> str:
    base, new = a["value"], b["value"]
    if metric.better == "lower":
        worse_by = new - base
    else:
        worse_by = base - new
    if worse_by <= metric.bound * abs(base):
        return "ok"
    overlap = b["min"] <= a["max"] and a["min"] <= b["max"]
    widest = max(
        (side["max"] - side["min"]) / abs(side["value"]) if side["value"] else 0.0
        for side in (a, b)
    )
    return "unresolved" if overlap and widest > metric.bound else "regressed"


def compare(a: dict, b: dict) -> int:
    bad = 0
    print(
        f"{'workload':<13} {'metric':<13} {'A median [min..max]':<34}"
        f" {'B median [min..max]':<34} {'B/A':>7} {'bound':>6}  verdict"
    )
    for name in config.WORKLOADS:
        left = a["workloads"].get(name, {}).get("end_to_end", {})
        right = b["workloads"].get(name, {}).get("end_to_end", {})
        for metric in config.END_TO_END:
            x, y = left.get(metric.name), right.get(metric.name)
            if x is None or y is None:
                continue
            outcome = verdict(metric, x, y)
            bad += outcome == "regressed"
            ratio = f"{y['value'] / x['value']:.3f}" if x["value"] else "-"
            print(
                f"{name:<13} {metric.name:<13} {_cell(x):<34} {_cell(y):<34}"
                f" {ratio:>7} {metric.bound:>6.0%}  {outcome}"
            )
    print(f"\n{'workload':<13} {'per-layer metric':<38} {'A':>16} {'B':>16} {'B/A':>8}")
    for name in config.WORKLOADS:
        left = a["workloads"].get(name, {}).get("per_layer", {})
        right = b["workloads"].get(name, {}).get("per_layer", {})
        for metric in config.PER_LAYER:
            if metric.name not in left or metric.name not in right:
                continue
            x, y = left[metric.name], right[metric.name]
            note = f"{y / x:.3f}" if x else "-"
            if metric.name in config.COUNT_METRICS:
                note = "equal" if x == y else "DIFFERS"
                bad += x != y
            print(f"{name:<13} {metric.name:<38} {x:>16.4f} {y:>16.4f} {note:>8}")
    return bad


def _cell(side: dict) -> str:
    return f"{side['value']:.4f} [{side['min']:.4f}..{side['max']:.4f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the base result file")
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = json.loads(args.a.read_text()), json.loads(args.b.read_text())
    if a["smoke"] != b["smoke"]:
        print("one file is a --smoke run: the two are not comparable", file=sys.stderr)
        return 2
    if a["smoke"]:
        print("both files are --smoke runs: the timings mean nothing")
    print(f"A = {args.a} (seed {a['seed']}), the base of every ratio; B = {args.b} (seed {b['seed']})")
    return 1 if compare(a, b) else 0


if __name__ == "__main__":
    sys.exit(main())
