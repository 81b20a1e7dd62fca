"""One append-only JSONL write-ahead-log file with CRC-checked records.

Each line is one JSON object carrying a ``crc`` field: the CRC-32 of the
canonical (key-sorted, compact) JSON serialization of the record *minus*
the crc itself.  Records must already be JSON-native — the manager
flattens dates before logging — so the canonical form is stable across a
round trip.

Reading is torn-tail tolerant, the crash contract a real WAL honours:

* a trailing region that does not parse (cut-off line, missing newline,
  half-written JSON, bad CRC) is a **torn tail** — the crash interrupted
  the last ``write()`` — and is silently dropped, *provided nothing
  valid follows it*;
* a bad record **followed by a valid one** cannot be produced by tearing
  an append-only file, so it raises :class:`~repro.errors.WalCorruption`
  instead of quietly losing committed history.

:meth:`WalFile.open` physically truncates the file back to the last
valid record before reopening it for append, so a recovered process
never interleaves new records with torn garbage.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from ..errors import WalCorruption

_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


def record_crc(record: dict) -> int:
    """CRC-32 of the canonical serialization of ``record`` (sans crc)."""
    body = json.dumps(
        {k: v for k, v in record.items() if k != "crc"}, **_CANONICAL
    )
    return zlib.crc32(body.encode())


def encode_record(record: dict) -> bytes:
    """One CRC-stamped JSONL line (newline included).  Every record key
    sorts after ``crc``, so the canonical stamped line is the canonical
    body with the crc spliced in first: the body is serialized once."""
    if min(record) <= "crc":
        raise ValueError(f"WAL record keys must sort after 'crc': {sorted(record)}")
    body = json.dumps(record, **_CANONICAL).encode()
    return b'{"crc":%d,%s\n' % (zlib.crc32(body), body[1:])


def _try_decode(line: bytes) -> dict | None:
    """The record on ``line``, or ``None`` when it is torn/invalid."""
    if not line.endswith(b"\n"):
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    if record_crc(record) != record["crc"]:
        return None
    return record


def scan(path: Path) -> tuple[list[dict], int]:
    """All valid records in ``path`` plus the byte offset of the valid
    prefix.  Tolerates a torn tail; raises :class:`WalCorruption` when a
    bad record is *followed* by a valid one (mid-file damage, not a
    crash)."""
    if not path.exists():
        return [], 0
    records: list[dict] = []
    good_offset = 0
    torn_at: int | None = None
    with open(path, "rb") as fh:
        offset = 0
        for line in fh:
            record = _try_decode(line)
            if record is None:
                if torn_at is None:
                    torn_at = offset
            else:
                if torn_at is not None:
                    raise WalCorruption(
                        f"{path}: valid record at byte {offset} after "
                        f"damaged record at byte {torn_at} — the log is "
                        "corrupt, not merely torn by a crash"
                    )
                records.append(record)
                good_offset = offset + len(line)
            offset += len(line)
    return records, good_offset


class WalFile:
    """Append handle over one JSONL WAL file."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh = None
        self.records_written = 0
        self.bytes_written = 0
        self.fsyncs = 0

    @classmethod
    def open(cls, path: Path) -> tuple["WalFile", list[dict]]:
        """Scan ``path``, truncate any torn tail, and open for append."""
        path = Path(path)
        records, good_offset = scan(path)
        if path.exists() and path.stat().st_size > good_offset:
            with open(path, "r+b") as fh:
                fh.truncate(good_offset)
        wal = cls(path)
        wal._ensure_open()
        return wal, records

    def _ensure_open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, record: dict) -> int:
        """Write one CRC-stamped record and flush to the OS (no fsync);
        returns the bytes written."""
        line = encode_record(record)
        fh = self._ensure_open()
        fh.write(line)
        fh.flush()
        self.records_written += 1
        self.bytes_written += len(line)
        return len(line)

    def sync(self) -> None:
        """fsync the file — the durability point for ``wal sync`` mode."""
        fh = self._ensure_open()
        os.fsync(fh.fileno())
        self.fsyncs += 1

    def size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def reset(self, size: int = 0) -> None:
        """Truncate to ``size`` bytes: empty for checkpoint log truncation,
        the size before a commit marker whose commit failed."""
        fh = self._ensure_open()
        fh.truncate(size)
        fh.seek(size)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
