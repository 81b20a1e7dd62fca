"""The Motion buffer: one Motion's rows, held until its consumer reads them.

Execution is slice-at-a-time, as the paper's executor contract has it
(Section 2.2): every producer instance of a Motion's sending slice runs
to completion and the buffer is closed before any consumer instance of
the receiving slice reads it.  So the buffer never streams and never
fills up: it is one **run** — a list of rows — per (target segment,
producer segment) pair, allocated when the buffer is made.

* **One thread per statement, so no lock.**  A run is written only by
  its producer's (slice, segment) instance: :meth:`MotionBuffer.send_batch`
  extends the instance's own runs, and that instance's retry drops them
  (:meth:`MotionBuffer.discard_producer`) before it re-runs.  Instances
  run one after another on the statement's thread, and readers run after
  the sending slice has finished.
* **Deterministic merge order.**  :meth:`MotionBuffer.rows` concatenates
  a target's runs in ascending producer-segment order, which is also the
  order the producers ran in.
* **The ChannelError contract.**  Sending after close, closing twice and
  reading before close all raise — the same misuse surface
  :class:`~repro.executor.channels.OidChannel` polices.
"""

from __future__ import annotations

from ..errors import ChannelError


class MotionBuffer:
    """One Motion's rows toward every target segment, one run per
    (target, producer) pair."""

    def __init__(self, num_segments: int):
        self.num_segments = num_segments
        #: target segment -> producer segment -> rows, in send order
        self._runs: list[list[list[tuple]]] = [
            [[] for _ in range(num_segments)] for _ in range(num_segments)
        ]
        self._closed = False

    def send_batch(
        self, target: int, rows: list[tuple], producer: int
    ) -> None:
        """Append ``rows`` to ``producer``'s run toward ``target``."""
        if self._closed:
            raise ChannelError("put to closed motion queue")
        self._runs[target][producer].extend(rows)

    def close(self) -> None:
        """Seal the buffer.  Closing twice raises — two owners of one
        Motion's lifecycle is a real coordination bug."""
        if self._closed:
            raise ChannelError("double close of motion queue")
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def discard_producer(self, producer: int) -> int:
        """Drop one producer instance's rows toward every target (its
        retry rebuilds them); returns the number of rows discarded."""
        dropped = 0
        for runs in self._runs:
            dropped += len(runs[producer])
            runs[producer] = []
        return dropped

    def rows(self, target: int) -> list[tuple]:
        """``target``'s rows, its runs concatenated in producer order.
        Non-destructive: a retried consumer instance reads them again."""
        if not self._closed:
            raise ChannelError(
                "motion queue drained before its producers closed"
            )
        merged: list[tuple] = []
        for run in self._runs[target]:
            merged += run
        return merged
