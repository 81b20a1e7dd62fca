"""Run-to-run spread of the end-to-end metrics.

``python -m bench.spread [--runs 10] [--first-seed 1]`` makes ``runs``
untraced runs of every workload, each with another seed, and prints for each
metric the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside the
metric's bound.  The bounds were set from this table: the spread of every
metric in ``BENCHMARK.json`` must stay under a third of its bound (exit 1
when one does not; ``setup_s`` is exempt, as in the contract).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)

from bench import config  # noqa: E402


def measure(workload: str, seeds: range, seconds: float) -> dict[str, list[float]]:
    """Every end-to-end metric the workload reports, one value per seed."""
    values: dict[str, list[float]] = {}
    for seed in seeds:
        subprocess.run(
            [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
        )
        detail = json.loads(
            (ROOT / "bench" / "out" / f"run_{workload}_trace0.json").read_text()
        )
        for name, metric in detail["end_to_end"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config.RUN_SECONDS)
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    report = {}
    too_wide = False
    for workload in config.WORKLOADS:
        values = measure(workload, seeds, args.seconds)
        report[workload] = {}
        for metric in config.END_TO_END:
            if metric.name not in values or metric.name == "fail_share":
                continue
            q1, median, q3 = statistics.quantiles(values[metric.name], n=4)
            spread = (q3 - q1) / median
            report[workload][metric.name] = {
                "median": median, "spread": spread, "values": values[metric.name],
            }
            gated = metric in config.CONTRACT_END_TO_END and metric.name != "setup_s"
            wide = gated and spread > metric.bound / 3
            too_wide = too_wide or wide
            print(
                f"{workload:<13} {metric.name:<12} median={median:>10.4f} {metric.unit:<4}"
                f" spread={spread:7.2%} bound={metric.bound:4.0%}"
                + ("  <- over a third of the bound" if wide else ""),
                flush=True,
            )
    out = ROOT / "bench" / "out" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
