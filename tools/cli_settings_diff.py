#!/usr/bin/env python3
"""Scripted-CLI equivalence across statement settings.

Runs the same scripted shell sessions through ``python -m repro`` under
different ``SET`` preambles and diffs every transcript against the run
with no preamble.  Batch width and result caching must be *invisible*
in what the shell prints: same rows, same partitions-scanned lines,
byte for byte.

* **batch width** — ``SET batch_size 1 | 7 | 1024``;
* **cache** — ``SET cache results`` over a script that repeats every
  statement (a repeat is a result hit) with a DML in between (the repeat
  after it is a post-invalidation miss).  A hit executes nothing, so it
  prints no ``partitions scanned`` footer: exactly as many footers as
  predicted hits go missing, and nothing else may differ.

The acknowledgement lines a preamble produces are predicted from the
settings table (``repro.settings.SET_FIELDS``), checked, and stripped.

Usage::

    PYTHONPATH=src python tools/cli_settings_diff.py

Exits non-zero (printing a unified diff) on any difference.
"""

from __future__ import annotations

import difflib
import subprocess
import sys

RANGE = (
    "SELECT count(*) FROM orders "
    "WHERE date BETWEEN '10-01-2013' AND '12-31-2013';"
)
JOIN = (
    "SELECT count(*), sum(orders_fk.amount) FROM orders_fk, date_dim "
    "WHERE orders_fk.date_id = date_dim.date_id AND date_dim.year = 2013;"
)
DIM = "SELECT count(*) FROM date_dim;"
POINT = "SELECT avg(amount) FROM orders WHERE date = '05-15-2013';"
INSERT = "INSERT INTO orders VALUES (99001, 10.0, '05-15-2013');"

FOOTER = "partitions scanned: "

#: (what must be invisible, the script, the SET preambles to run it under,
#: how many statements the preambles answer from the result cache)
CASES = [
    (
        "batch width",
        [RANGE, JOIN, DIM],
        [
            [("batch_size", "1")],
            [("batch_size", "7")],
            [("batch_size", "1024")],
        ],
        0,
    ),
    (
        "result cache",
        [RANGE, RANGE, POINT, INSERT, POINT],
        [[("cache", "results")]],
        1,  # the second RANGE; the INSERT lands in POINT's partition
    ),
]


def footers(lines: list[str]) -> int:
    return sum(line.startswith(FOOTER) for line in lines)


def transcript(script: list[str], preamble=()) -> list[str]:
    """What ``python -m repro`` prints for the demo plus ``script`` after
    the ``preamble``'s SET lines, minus their acknowledgements."""
    from repro.settings import SET_FIELDS

    lines = [f"SET {name} {text};" for name, text in preamble]
    lines += ["\\demo", *script, "\\q"]
    run = subprocess.run(
        [sys.executable, "-m", "repro"],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=300,
    )
    if run.returncode != 0:
        raise SystemExit(
            f"python -m repro exited {run.returncode}:\n{run.stdout}{run.stderr}"
        )
    output = run.stdout.splitlines()
    expected = [
        SET_FIELDS[name].acknowledge(SET_FIELDS[name].parse(text))
        for name, text in preamble
    ]
    if output[: len(expected)] != expected:
        raise SystemExit(
            f"expected acknowledgements {expected}, got "
            f"{output[: len(expected)]}"
        )
    return output[len(expected):]


def main() -> int:
    failures = 0
    for label, script, preambles, hits in CASES:
        reference = transcript(script)
        for preamble in preambles:
            name = "; ".join(f"SET {n} {v}" for n, v in preamble)
            expected, got = reference, transcript(script, preamble)
            if hits:
                if footers(expected) - footers(got) != hits:
                    failures += 1
                    print(f"{label}: expected {hits} cache hit(s) under {name}")
                expected, got = (
                    [line for line in lines if not line.startswith(FOOTER)]
                    for lines in (expected, got)
                )
            diff = list(
                difflib.unified_diff(
                    expected, got, "no preamble", name, lineterm=""
                )
            )
            if diff:
                failures += 1
                print(f"{label}: transcript differs under {name}")
                print("\n".join(diff))
            else:
                print(f"{label}: {name}: transcript identical")
    if failures:
        print(f"CLI settings diff: FAILED — {failures} transcript(s) differ")
        return 1
    print(
        "CLI settings diff: OK — batch width and result caching are "
        "invisible in the shell's output"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
