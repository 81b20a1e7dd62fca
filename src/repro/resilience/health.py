"""Segment health tracking: the fault-tolerance service of the simulator.

Greenplum pairs every primary segment with a mirror and a fault-tolerance
service (FTS) that marks crashed primaries down and promotes their
mirrors.  :class:`SegmentHealth` is the minimal equivalent: one up/down
bit per primary and per mirror, plus counters for the failover events and
mirror reads the observability layer exports.

The storage layer consults health on every segment read: a down primary
is served from its mirror copy; a double fault (mirror also down) raises
an unrecoverable :class:`~repro.errors.SegmentFailure`.

Rejoining a downed copy is **not** instant: while a copy is down the
storage layer keeps writing the surviving copy and marks the skipped copy
*stale* here (:meth:`mark_stale`), one bit per (segment, copy).  At most
one copy of a segment is ever stale (``docs/durability.md``, "Resync"),
so the other copy holds every committed write.  :meth:`recover` routes
through a *resync* path — the copy is held in the ``resyncing`` state
(reads still served from the survivor) while a resync handler rebuilds
it from the survivor, and only then flips back ``up``.  Without a
handler, a stale copy refuses to rejoin with a typed
:class:`~repro.errors.ResyncRequired` instead of serving stale rows.
"""

from __future__ import annotations

import threading
from typing import Callable

from ..errors import ResyncRequired, SegmentFailure

UP = "up"
DOWN = "down"
RESYNCING = "resyncing"

#: the two copies of a segment, as ``mark_stale`` / handler arguments
PRIMARY = "primary"
MIRROR = "mirror"

#: handler(segment, copy) rebuilds the stale copy of ``segment`` from the
#: other one; installed by the storage layer
ResyncHandler = Callable[[int, str], None]


class SegmentHealth:
    """Up/resyncing/down state of every primary segment and its mirror."""

    def __init__(self, num_segments: int):
        if num_segments <= 0:
            raise ValueError("num_segments must be positive")
        self.num_segments = num_segments
        self._primary_up = [True] * num_segments
        self._mirror_up = [True] * num_segments
        #: segments whose stale copy is currently being rebuilt
        self._resyncing: set[int] = set()
        #: serializes state transitions and read counters — storage reads
        #: and failovers arrive concurrently from statements of different
        #: sessions
        self._lock = threading.Lock()
        #: chronological failover log: {"segment", "reason"[, "lsn"]}
        self.failover_events: list[dict] = []
        #: chronological resync log: {"segment", "copy"}
        self.resync_events: list[dict] = []
        #: reads served from a mirror while its primary was down, per segment
        self.mirror_reads = [0] * num_segments
        #: (segment, copy) pairs that skipped a published write while down
        self._stale: set[tuple[int, str]] = set()
        #: rebuilds a stale copy before it rejoins; when ``None``,
        #: :meth:`recover` refuses stale rejoins (ResyncRequired)
        self.resync_handler: ResyncHandler | None = None
        #: held across a resync so no writer can race the rebuild; the
        #: StorageManager shares its storage-wide write lock here (an
        #: RLock: the resync handler re-takes it)
        self.write_lock = threading.RLock()
        #: optional () -> int reporting the current WAL LSN, used to stamp
        #: failover events with the log position at promotion time
        self.lsn_provider: Callable[[], int] | None = None

    # -- queries ------------------------------------------------------------

    def is_up(self, segment: int) -> bool:
        return self._primary_up[segment] and segment not in self._resyncing

    def mirror_is_up(self, segment: int) -> bool:
        return self._mirror_up[segment]

    def is_resyncing(self, segment: int) -> bool:
        return segment in self._resyncing

    @property
    def down_segments(self) -> list[int]:
        return [s for s in range(self.num_segments) if not self.is_up(s)]

    @property
    def resyncing_segments(self) -> list[int]:
        return sorted(self._resyncing)

    @property
    def failover_count(self) -> int:
        return len(self.failover_events)

    @property
    def resync_count(self) -> int:
        return len(self.resync_events)

    def is_stale(self, segment: int, copy: str = PRIMARY) -> bool:
        """Whether ``copy`` of ``segment`` skipped a write while down."""
        self._check_segment(segment)
        return (segment, copy) in self._stale

    # -- transitions --------------------------------------------------------

    def failover(self, segment: int, reason: str = "") -> bool:
        """Mark ``segment``'s primary down, promoting its mirror.

        Returns ``True`` when the mirror can take over (reads keep
        working), ``False`` on a double fault.  Repeated failovers of an
        already-down segment are recorded once.
        """
        self._check_segment(segment)
        with self._lock:
            if self._primary_up[segment]:
                self._primary_up[segment] = False
                self._resyncing.discard(segment)
                event = {"segment": segment, "reason": reason}
                if self.lsn_provider is not None:
                    event["lsn"] = self.lsn_provider()
                self.failover_events.append(event)
            return self._mirror_up[segment]

    def mark_mirror_down(self, segment: int) -> None:
        self._check_segment(segment)
        with self._lock:
            self._mirror_up[segment] = False

    def mark_stale(self, segment: int, copy: str) -> None:
        """Record that ``copy`` of ``segment`` skipped a write because it
        was down — the storage write path calls this under the write lock
        as it publishes the write to the surviving copy."""
        self._check_segment(segment)
        with self._lock:
            self._stale.add((segment, copy))

    def recover(self, segment: int) -> None:
        """Rejoin a segment's primary (and mirror) via resync.

        A segment with no stale copy rejoins instantly.  A stale copy
        enters ``resyncing``: reads stay on the surviving copy while
        :attr:`resync_handler` rebuilds it, then the copy flips ``up``.
        Without a handler configured the rejoin refuses with
        :class:`~repro.errors.ResyncRequired` — never stale rows.
        """
        self._check_segment(segment)
        # the write lock first: no writer can mark a copy stale while the
        # rebuild runs, so clearing the bit afterwards loses nothing.  Lock
        # order everywhere is write_lock -> health lock (writers take the
        # write lock before consulting writable_copies).
        with self.write_lock:
            with self._lock:
                stale = [c for c in (MIRROR, PRIMARY) if (segment, c) in self._stale]
                if not stale:
                    self._primary_up[segment] = True
                    self._mirror_up[segment] = True
                    self._resyncing.discard(segment)
                    return
                if self.resync_handler is None:
                    raise ResyncRequired(
                        f"segment {segment}'s {stale[0]} missed writes while "
                        "down and no resync path is configured; rejoining "
                        "it would serve stale rows"
                    )
                # hold the copy in `resyncing` while the handler rebuilds;
                # reads keep hitting the surviving copy via require_readable
                self._resyncing.add(segment)
            try:
                # handler runs outside the health lock (it calls back into
                # health) but inside the write lock (no concurrent DML)
                for copy in stale:
                    self.resync_handler(segment, copy)
            except Exception:
                with self._lock:
                    self._resyncing.discard(segment)
                raise
            with self._lock:
                for copy in stale:
                    self._stale.discard((segment, copy))
                    self.resync_events.append({"segment": segment, "copy": copy})
                self._primary_up[segment] = True
                self._mirror_up[segment] = True
                self._resyncing.discard(segment)

    def recover_all(self) -> None:
        for segment in range(self.num_segments):
            self.recover(segment)

    # -- the storage write path ---------------------------------------------

    def writable_copies(self, segment: int) -> tuple[bool, bool]:
        """Which copies of ``segment`` must receive a write right now.

        Returns ``(primary, mirror)`` booleans; a down copy is skipped
        (the caller then marks it stale via :meth:`mark_stale`).  Raises
        :class:`SegmentFailure` when neither copy can take the write —
        the double-fault case.
        """
        self._check_segment(segment)
        with self._lock:
            primary = (
                self._primary_up[segment] and segment not in self._resyncing
            )
            mirror = self._mirror_up[segment]
        if not primary and not mirror:
            raise SegmentFailure(
                f"segment {segment}: primary and mirror are both down",
                segment=segment,
                point="storage_write",
                transient=False,
            )
        return primary, mirror

    # -- the storage read path ---------------------------------------------

    def record_mirror_read(self, segment: int) -> None:
        with self._lock:
            self.mirror_reads[segment] += 1

    def require_readable(self, segment: int) -> bool:
        """Whether reads for ``segment`` must be served from the mirror.

        A resyncing primary is not yet readable — its mirror serves until
        the replay completes.  Raises :class:`SegmentFailure` when
        neither copy is available — the unrecoverable double-fault case.
        """
        self._check_segment(segment)
        if self._primary_up[segment] and segment not in self._resyncing:
            return False
        if self._mirror_up[segment]:
            return True
        raise SegmentFailure(
            f"segment {segment}: primary and mirror are both down",
            segment=segment,
            point="storage_read",
            transient=False,
        )

    # -- export -------------------------------------------------------------

    def status(self) -> dict:
        def primary_state(segment: int) -> str:
            if segment in self._resyncing:
                return RESYNCING
            return UP if self._primary_up[segment] else DOWN

        return {
            "primaries": [
                primary_state(s) for s in range(self.num_segments)
            ],
            "mirrors": [UP if up else DOWN for up in self._mirror_up],
            "down_segments": self.down_segments,
            "resyncing_segments": self.resyncing_segments,
            "failover_count": self.failover_count,
            "resync_count": self.resync_count,
            "mirror_reads": list(self.mirror_reads),
        }

    def _check_segment(self, segment: int) -> None:
        if not 0 <= segment < self.num_segments:
            raise ValueError(f"segment {segment} out of range")

    def __repr__(self) -> str:
        down = self.down_segments
        state = f"{len(down)} down {down}" if down else "all up"
        if self._resyncing:
            state += f", resyncing {sorted(self._resyncing)}"
        return f"SegmentHealth({self.num_segments} segments, {state})"
