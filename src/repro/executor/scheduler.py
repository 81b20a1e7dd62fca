"""The parallel segment scheduler.

An MPP plan is shaped for concurrency: every slice runs one instance per
segment, and the instances of one slice share nothing but the Motion
buffers and the (segment-local) partition-OID channels.
:class:`SegmentScheduler` exploits exactly that — it maps the
(slice, segment) instances of each slice onto a
:class:`~concurrent.futures.ThreadPoolExecutor` worker pool, while the
executor keeps the slice-at-a-time barrier between slices so producers
always close their Motion buffer before consumers read it.

``workers=1`` (the default everywhere) bypasses the pool entirely and
runs instances inline in ascending segment order — byte-for-byte the
behavior of the historical serial executor, with zero thread overhead.

With ``workers>1`` the scheduler still guarantees determinism:

* results are collected **in segment order**, not completion order;
* when several instances fail, the failure raised is the lowest failed
  segment's (after every instance has settled, so no worker is left
  running against torn state);
* Motion rows are read per producer run from the
  :class:`~repro.executor.queues.MotionBuffer`, not by arrival.

In this simulator the workers are Python threads, so CPU-bound operator
work shares the GIL; what genuinely overlaps is everything that waits —
the simulated storage I/O latency (``StorageManager.io_latency_s``) and
retry backoff sleeps — which is also what dominates real MPP executors.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence


class SegmentScheduler:
    """Runs per-(slice, segment) instances, serially or on a worker pool.

    ``pool`` (optional) is an externally owned
    :class:`~concurrent.futures.ThreadPoolExecutor` to submit to instead
    of creating a private one — the serving layer's
    :class:`~repro.serving.QueryScheduler` hands every admitted query a
    scheduler view over one shared pool, so per-segment instances from
    different queries interleave on the same workers.  A scheduler over a
    borrowed pool never shuts it down; :meth:`close` is a no-op for it.
    """

    def __init__(
        self,
        workers: int = 1,
        pool: ThreadPoolExecutor | None = None,
        busy=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: optional occupancy counter with ``enter()``/``leave()`` —
        #: the serving pool's busy-fraction gauge; wrapped per instance,
        #: never per row
        self.busy = busy
        self._pool: ThreadPoolExecutor | None = None
        self._owns_pool = False
        if workers > 1:
            if pool is not None:
                self._pool = pool
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-segment"
                )
                self._owns_pool = True

    @property
    def parallel(self) -> bool:
        return self._pool is not None

    def run_slice(
        self, instances: Sequence[Callable[[], Any]]
    ) -> list[Any]:
        """Run one slice's segment instances; returns their results in
        segment order.

        Serial mode runs them inline (first failure propagates
        immediately, matching the historical executor).  Parallel mode
        submits all instances, waits for every one to settle, and then
        raises the lowest-segment failure if any instance failed —
        deterministic error attribution regardless of interleaving.
        """
        if self._pool is None:
            return [instance() for instance in instances]
        if self.busy is not None:
            instances = [self._occupied(i) for i in instances]
        futures = [self._pool.submit(instance) for instance in instances]
        results: list[Any] = []
        first_error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def _occupied(self, instance: Callable[[], Any]) -> Callable[[], Any]:
        busy = self.busy

        def run():
            busy.enter()
            try:
                return instance()
            finally:
                busy.leave()

        return run

    def close(self) -> None:
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=True)
        self._pool = None

    def __enter__(self) -> "SegmentScheduler":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        mode = f"{self.workers} workers" if self.parallel else "serial"
        return f"SegmentScheduler({mode})"
