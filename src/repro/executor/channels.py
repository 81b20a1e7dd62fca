"""Partition channels: the producer/consumer shared memory of Section 2.2.

A PartitionSelector pushes the partitions that must be scanned into the
channel identified by its ``partScanId``; the DynamicScan with the same id
consumes them, as one **leaf mask** (:mod:`repro.catalog.catalog`) that
each push ORs into.  Channels are **segment-local** (keyed by
``(part_scan_id, segment)``) — in a real MPP system the pair communicates
through process-local shared memory, which is why no Motion may separate
them (Section 3.1).

The channel enforces the full producer/consumer protocol, raising
:class:`ChannelError` on every misuse:

* ``consume()`` before the producer has closed the channel;
* ``push()`` after close;
* ``close()`` twice — two producers racing to close the same channel is a
  real coordination bug, so the second close raises instead of being
  silently absorbed;
* ``consume()`` twice — the mask is handed over exactly once; guards
  that only need to *read* it (Planner's guarded LeafScans share one
  channel across many scans) use the non-destructive :meth:`peek`.

A statement runs on one thread — every (slice, segment) instance in
segment order — and the Figure 12 co-location invariant keeps each
channel's producer and consumer inside one instance.  So each channel and
the registry have one writer and take no lock: one thread owns them, as
one process owns its shared memory in the paper.

Instance retry after a segment failure discards the **failed segment's**
channels only (:meth:`ChannelRegistry.discard`) so the re-run rebuilds
them while other segments' channels stay untouched: the consumers of an
instance that already ran in this slice still read them.
"""

from __future__ import annotations

from ..errors import ChannelError


class OidChannel:
    """One (part_scan_id, segment) channel."""

    __slots__ = (
        "part_scan_id",
        "segment",
        "_mask",
        "_closed",
        "_consumed",
    )

    def __init__(self, part_scan_id: int, segment: int):
        self.part_scan_id = part_scan_id
        self.segment = segment
        self._mask = 0
        self._closed = False
        self._consumed = False

    def push(self, mask: int) -> None:
        """partition_propagation: add the leaves of ``mask``."""
        if self._closed:
            raise ChannelError(
                f"push to closed channel (scan {self.part_scan_id}, "
                f"segment {self.segment})"
            )
        self._mask |= mask

    def close(self) -> None:
        """Seal the channel.  Closing twice raises: it means two producers
        both believe they own the channel's lifecycle."""
        if self._closed:
            raise ChannelError(
                f"double close of channel (scan {self.part_scan_id}, "
                f"segment {self.segment})"
            )
        self._closed = True

    def consume(self) -> int:
        """The leaf mask for the DynamicScan — exactly once.

        Raises :class:`ChannelError` when the producer has not finished
        (the execution-order invariant the plan validator guarantees) and
        when the channel was already consumed.
        """
        if not self._closed:
            raise ChannelError(
                f"DynamicScan {self.part_scan_id} on segment "
                f"{self.segment} consumed before its PartitionSelector "
                f"finished"
            )
        if self._consumed:
            raise ChannelError(
                f"channel (scan {self.part_scan_id}, segment "
                f"{self.segment}) consumed twice"
            )
        self._consumed = True
        return self._mask

    def peek(self) -> int:
        """Non-destructive read for guard consumers (several LeafScans may
        share one guard channel).  Still requires the producer to have
        closed the channel first."""
        if not self._closed:
            raise ChannelError(
                f"guard on channel (scan {self.part_scan_id}, segment "
                f"{self.segment}) read before its producer finished"
            )
        return self._mask

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        if self._consumed:
            state = "consumed"
        return (
            f"OidChannel(scan={self.part_scan_id}, seg={self.segment}, "
            f"{self._mask.bit_count()} leaves, {state})"
        )


class ChannelRegistry:
    """All channels of one query execution."""

    def __init__(self) -> None:
        self._channels: dict[tuple[int, int], OidChannel] = {}

    def channel(self, part_scan_id: int, segment: int) -> OidChannel:
        key = (part_scan_id, segment)
        found = self._channels.get(key)
        if found is None:
            found = self._channels[key] = OidChannel(part_scan_id, segment)
        return found

    def channels(self) -> list[OidChannel]:
        return list(self._channels.values())

    def discard(self, part_scan_ids, segment: int) -> int:
        """Drop ``segment``'s channels for the given scan ids so its
        instance retry rebuilds them; other segments' channels are healthy
        and possibly mid-consumption.  Returns channels removed."""
        return sum(
            self._channels.pop((scan_id, segment), None) is not None
            for scan_id in part_scan_ids
        )
