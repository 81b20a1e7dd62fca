"""In-memory span recorder for the traced pass.

The benchmark wraps each call it makes into a layer's public function in a
span.  Spans stay in memory while statements run and are written as JSONL
when the pass ends: one machine-generated line per span, no interpretation.
Per-layer metrics are derived from that file in a second step
(``bench/derive.py``).

A span is ``{trace_id, span, parent, layer, start_ns, end_ns, counts}``.
``trace_id`` is shared by the spans of one statement; ``parent`` names the
span of the same trace that caused this one (``None`` for a root), so a
span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, trace_id: str, name: str, layer: str, parent: str | None = None):
        """Time the body; yields the span's ``counts`` dict to fill in."""
        counts: dict = {}
        start = perf_counter_ns()
        try:
            yield counts
        finally:
            end = perf_counter_ns()
            self.spans.append(
                {
                    "trace_id": trace_id,
                    "span": name,
                    "parent": parent,
                    "layer": layer,
                    "start_ns": start,
                    "end_ns": end,
                    "counts": counts,
                }
            )

    def add(
        self, trace_id: str, name: str, layer: str, start_ns: int, end_ns: int, **counts
    ) -> None:
        """A root span timed by the caller."""
        self.spans.append(
            {
                "trace_id": trace_id,
                "span": name,
                "parent": None,
                "layer": layer,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "counts": counts,
            }
        )

    def note(self, trace_id: str, name: str, layer: str, **counts) -> None:
        """A zero-length span carrying only counts (a snapshot of a stats
        export, or the reason a probe could not run)."""
        now = perf_counter_ns()
        self.add(trace_id, name, layer, now, now, **counts)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":"), default=str) + "\n")


def load(path: Path) -> list[dict]:
    with open(path) as lines:
        return [json.loads(line) for line in lines]
