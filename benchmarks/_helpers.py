"""Shared infrastructure for the experiment benchmarks.

Each benchmark reproduces one table or figure from the paper's Section 4
and emits the regenerated rows/series both to stdout and to a text file
under ``benchmarks/results/`` so runs can be diffed against
``EXPERIMENTS.md``.
"""

from __future__ import annotations

import json
import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def measured_counters(result) -> dict:
    """The execution's measured counters, read through the stable JSON
    export (so the benchmarks exercise the same interface external tooling
    consumes) — see docs/architecture.md, "Observability"."""
    return json.loads(result.metrics.to_json())


def table_counters(result, table: str) -> dict:
    """Measured per-table scan counters: ``partitions_scanned``,
    ``partitions_total``, ``rows_scanned``."""
    tables = measured_counters(result)["tables"]
    return tables.get(
        table,
        {"partitions_scanned": 0, "partitions_total": None, "rows_scanned": 0},
    )


def emit(name: str, lines: list[str]) -> None:
    """Print an experiment's regenerated table and persist it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    banner = f"=== {name} ==="
    print(f"\n{banner}\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload) -> None:
    """Persist an experiment's machine-readable results alongside the text
    table (``benchmarks/results/<name>.json``; CI uploads these as a
    workflow artifact)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )


def format_table(headers: list[str], rows: list[list]) -> list[str]:
    """Plain-text aligned table."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rendered)
    return lines


def timed(func, repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds for a callable."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best
