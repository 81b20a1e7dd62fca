#!/usr/bin/env python3
"""Benchmark regression gate: compare two ``benchmarks/results`` dirs.

Usage::

    python tools/check_bench_regression.py BASELINE_DIR CURRENT_DIR

Two classes of comparison, mirroring what the simulator can promise:

* **Counters gate hard.**  Partition-elimination effectiveness (fig16),
  plan sizes (fig18a/b/c), cache hit rates (fig20) and overload-shedding
  counters (fig21) are fully deterministic — same code, same numbers.  Any difference from the baseline exits non-zero: either a
  genuine optimizer regression or an intentional change that must ship
  with refreshed baselines (``benchmarks/baselines/``).
* **Wall clocks report only.**  Timings (fig17/fig21 ``*seconds*`` /
  ``*elapsed*`` leaves) are noise on shared CI runners, so slowdowns past
  the warn threshold (default 25%) print a ``WARN`` line but never fail
  the gate.

A gated file missing from CURRENT_DIR fails (the benchmark stopped
emitting its counters); one missing from BASELINE_DIR is only a warning
(first run on a branch, or a newly added benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

#: benchmark JSON -> top-level keys whose values must match exactly
COUNTER_GATES: dict[str, list[str]] = {
    "fig16_partitions_scanned.json": ["tables", "segments_dispatched"],
    "fig18a_static_plan_size.json": [
        "fractions",
        "planner_bytes",
        "orca_bytes",
    ],
    "fig18b_join_plan_size.json": [
        "part_counts",
        "planner_bytes",
        "orca_bytes",
        "orca_dispatched_bytes",
    ],
    "fig18c_dml_plan_size.json": [
        "part_counts",
        "planner_bytes",
        "orca_bytes",
    ],
    # cache hit-rate counters are deterministic (fixed workload schedule);
    # the speedup wall clocks in the same file stay report-only
    "fig20_cache_speedup.json": ["workload"],
    # admission control under a synchronized burst: admitted/shed/typed
    # counts are exact; the throughput wall clocks stay report-only
    "fig21_concurrent_throughput.json": ["overload"],
    # fig22 (recovery time vs checkpoint size) is deliberately absent:
    # every interesting leaf is a wall clock (*_seconds) or scales with
    # the size matrix, so the whole file stays report-only via the
    # timing scan below
    # batch-vs-row counters (result rows, partitions/rows scanned, motion
    # traffic at each batch width) are deterministic and must agree
    # between widths; the throughput wall clocks stay report-only
    "fig23_batch_throughput.json": [
        "counters",
        "batch_sizes",
        "fact_rows",
    ],
}

#: substrings identifying wall-clock leaves (report-only, lower is
#: better); a name ending in ``_s`` is one too
TIMING_MARKERS = ("seconds", "elapsed", "latency")
#: substrings identifying throughput leaves (report-only, higher is
#: better): checked first, so ``rows_per_second`` is never a wall clock
THROUGHPUT_MARKERS = ("per_second", "per_s")


def _clock_kind(name: str) -> str | None:
    """``"throughput"``, ``"timing"`` or None (not a clock) for one leaf
    name."""
    name = name.lower()
    if any(name.endswith(m) or f"{m}_" in name for m in THROUGHPUT_MARKERS):
        return "throughput"
    if name.endswith("_s") or any(m in name for m in TIMING_MARKERS):
        return "timing"
    return None


def _load(path: pathlib.Path):
    with path.open() as handle:
        return json.load(handle)


def _timing_leaves(payload, prefix: str = "") -> dict[str, tuple[float, str]]:
    """Flatten every numeric leaf whose key smells like a wall clock or a
    throughput: dotted path -> (value, :func:`_clock_kind`)."""
    leaves: dict[str, tuple[float, str]] = {}
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, list):
        items = ((f"[{i}]", v) for i, v in enumerate(payload))
    else:
        return leaves
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, (dict, list)):
            leaves.update(_timing_leaves(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            kind = _clock_kind(str(key))
            if kind is not None:
                leaves[path] = (float(value), kind)
    return leaves


def _numeric_leaves(payload, prefix: str = "") -> dict[str, float]:
    """Flatten every numeric leaf (dotted path -> value)."""
    leaves: dict[str, float] = {}
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, list):
        items = ((f"[{i}]", v) for i, v in enumerate(payload))
    else:
        return leaves
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, (dict, list)):
            leaves.update(_numeric_leaves(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            leaves[path] = float(value)
    return leaves


def _summary_rows(
    baseline_dir: pathlib.Path, current_dir: pathlib.Path
) -> list[dict]:
    """Per-metric delta rows for the CI step summary: every gated counter
    leaf and every wall-clock leaf shared by both result dirs."""
    rows: list[dict] = []
    for current_path in sorted(current_dir.glob("*.json")):
        baseline_path = baseline_dir / current_path.name
        if not baseline_path.exists():
            continue
        current = _numeric_leaves(_load(current_path))
        baseline = _numeric_leaves(_load(baseline_path))
        gated_keys = COUNTER_GATES.get(current_path.name, [])
        for leaf, current_value in sorted(current.items()):
            baseline_value = baseline.get(leaf)
            if baseline_value is None:
                continue
            top = leaf.split(".", 1)[0]
            last = leaf.rsplit(".", 1)[-1].lower()
            if top in gated_keys:
                kind = "gated"
            elif _clock_kind(last) is not None:
                kind = "report-only"
            else:
                continue
            rows.append(
                {
                    "file": current_path.name,
                    "metric": leaf,
                    "kind": kind,
                    "baseline": baseline_value,
                    "current": current_value,
                }
            )
    return rows


def format_step_summary(
    rows: list[dict], failures: list[str], warnings: list[str]
) -> str:
    """The markdown delta table appended to ``$GITHUB_STEP_SUMMARY``."""

    def _num(value: float) -> str:
        return f"{value:g}"

    def _delta(baseline: float, current: float) -> str:
        if current == baseline:
            return "="
        if baseline == 0:
            return "n/a"
        pct = (current / baseline - 1.0) * 100
        return f"{pct:+.1f}%"

    if failures:
        verdict = f"**FAIL** — {len(failures)} counter regression(s)"
    else:
        verdict = "**OK**"
    lines = [
        "## Benchmark regression gate",
        "",
        f"{verdict}, {len(warnings)} warning(s)",
        "",
    ]
    if rows:
        lines += [
            "| file | metric | kind | baseline | current | delta |",
            "| --- | --- | --- | ---: | ---: | ---: |",
        ]
        for row in rows:
            lines.append(
                f"| {row['file']} | `{row['metric']}` | {row['kind']} "
                f"| {_num(row['baseline'])} | {_num(row['current'])} "
                f"| {_delta(row['baseline'], row['current'])} |"
            )
    else:
        lines.append("_no shared metrics to compare_")
    return "\n".join(lines) + "\n"


def _write_step_summary(
    rows: list[dict], failures: list[str], warnings: list[str]
) -> None:
    target = os.environ.get("GITHUB_STEP_SUMMARY")
    if not target:
        return
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(format_step_summary(rows, failures, warnings))


def compare(
    baseline_dir: pathlib.Path,
    current_dir: pathlib.Path,
    warn_pct: float = 25.0,
) -> int:
    failures: list[str] = []
    warnings: list[str] = []
    checked = 0

    for name, keys in sorted(COUNTER_GATES.items()):
        current_path = current_dir / name
        baseline_path = baseline_dir / name
        if not baseline_path.exists():
            warnings.append(f"{name}: no baseline to compare against")
            continue
        if not current_path.exists():
            # the baseline proves this benchmark used to emit counters
            failures.append(f"{name}: missing from current results")
            continue
        current = _load(current_path)
        baseline = _load(baseline_path)
        for key in keys:
            if key not in current:
                failures.append(f"{name}: counter {key!r} no longer emitted")
                continue
            if key not in baseline:
                warnings.append(f"{name}: baseline lacks counter {key!r}")
                continue
            checked += 1
            if current[key] != baseline[key]:
                failures.append(
                    f"{name}: counter {key!r} changed\n"
                    f"  baseline: {json.dumps(baseline[key], sort_keys=True)}\n"
                    f"  current:  {json.dumps(current[key], sort_keys=True)}"
                )

    # Wall clocks: every shared JSON, report-only.
    for current_path in sorted(current_dir.glob("*.json")):
        baseline_path = baseline_dir / current_path.name
        if not baseline_path.exists():
            continue
        current_times = _timing_leaves(_load(current_path))
        baseline_times = _timing_leaves(_load(baseline_path))
        for leaf, (current_value, kind) in sorted(current_times.items()):
            baseline_value = baseline_times.get(leaf, (0.0, kind))[0]
            if baseline_value <= 0:
                continue
            ratio = current_value / baseline_value
            # a wall clock slows when it rises, a throughput when it falls
            slowdown = ratio if kind == "timing" else 1.0 / max(ratio, 1e-12)
            slowdown_pct = (slowdown - 1.0) * 100
            if slowdown_pct > warn_pct:
                change = "rose" if kind == "timing" else "fell"
                warnings.append(
                    f"{current_path.name}: {leaf} slowed "
                    f"{slowdown_pct:.0f}% ({kind} {change} "
                    f"{baseline_value:.4f} -> {current_value:.4f}) "
                    "[report-only]"
                )

    _write_step_summary(
        _summary_rows(baseline_dir, current_dir), failures, warnings
    )

    for warning in warnings:
        print(f"WARN  {warning}")
    for failure in failures:
        print(f"FAIL  {failure}")
    if failures:
        print(
            f"\nbench gate: {len(failures)} counter regression(s) against "
            f"{baseline_dir}"
        )
        return 1
    print(
        f"bench gate: OK — {checked} counter(s) match baseline, "
        f"{len(warnings)} warning(s)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument(
        "--warn-slowdown-pct",
        type=float,
        default=25.0,
        help="report-only wall-clock slowdown threshold (default 25)",
    )
    args = parser.parse_args(argv)
    if not args.baseline.is_dir():
        print(f"FAIL  baseline dir {args.baseline} does not exist")
        return 1
    if not args.current.is_dir():
        print(f"FAIL  current results dir {args.current} does not exist")
        return 1
    return compare(args.baseline, args.current, args.warn_slowdown_pct)


if __name__ == "__main__":
    sys.exit(main())
