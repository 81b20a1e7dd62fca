"""Unit tests for the WAL file format: CRC stamping, torn-tail
tolerance, corruption detection, physical truncation on reopen."""

import json

import pytest

from repro.durability.wal import (
    WalFile,
    encode_record,
    record_crc,
    scan,
)
from repro.errors import WalCorruption


def _lines(path):
    return path.read_bytes().split(b"\n")


def test_append_scan_round_trip(tmp_path):
    path = tmp_path / "seg.wal"
    wal, records = WalFile.open(path)
    assert records == []
    wal.append({"type": "insert", "lsn": 1, "rows": [[10, [1, "a"]]]})
    wal.append({"type": "delete", "lsn": 2, "rows": [[1, "a"]]})
    wal.close()
    records, offset = scan(path)
    assert [r["lsn"] for r in records] == [1, 2]
    assert records[0]["rows"] == [[10, [1, "a"]]]
    assert offset == path.stat().st_size


def test_crc_is_stable_under_key_order(tmp_path):
    a = record_crc({"type": "insert", "lsn": 3, "rows": []})
    b = record_crc({"rows": [], "lsn": 3, "type": "insert"})
    assert a == b


@pytest.mark.parametrize(
    "record",
    [
        {"type": "insert", "lsn": 3, "xid": 2, "table": 7, "segment": 1,
         "rows": [[10, (1, "a", 2.5, None, True)], [11, [2, "2013-05-15"]]]},
        {"type": "commit", "xid": 2, "lsns": [3, 4]},
        {"type": "drop_table", "segment": -1, "table": 7, "name": "é\"\n"},
    ],
)
def test_a_line_is_the_canonical_stamped_record(record):
    """The body is serialized once and the crc spliced in first; the line
    is the canonical serialization of the record with its crc."""
    stamped = dict(record, crc=record_crc(record))
    canonical = json.dumps(stamped, sort_keys=True, separators=(",", ":"))
    assert encode_record(record) == (canonical + "\n").encode()


def test_a_key_sorting_before_crc_is_refused():
    with pytest.raises(ValueError, match="sort after 'crc'"):
        encode_record({"copies": [True, True], "lsn": 1})


def test_torn_tail_is_dropped(tmp_path):
    path = tmp_path / "seg.wal"
    wal, _ = WalFile.open(path)
    wal.append({"type": "insert", "lsn": 1, "rows": []})
    wal.append({"type": "insert", "lsn": 2, "rows": []})
    wal.close()
    good_size = path.stat().st_size
    # simulate a crash mid-append: half of a third record
    tail = encode_record({"type": "insert", "lsn": 3, "rows": []})
    with open(path, "ab") as fh:
        fh.write(tail[: len(tail) // 2])
    records, offset = scan(path)
    assert [r["lsn"] for r in records] == [1, 2]
    assert offset == good_size


def test_flipped_bit_in_tail_is_dropped(tmp_path):
    path = tmp_path / "seg.wal"
    wal, _ = WalFile.open(path)
    wal.append({"type": "insert", "lsn": 1, "rows": []})
    wal.append({"type": "insert", "lsn": 2, "rows": [[5, [9]]]})
    wal.close()
    body = bytearray(path.read_bytes())
    body[-5] ^= 0x40  # corrupt the last record's payload
    path.write_bytes(bytes(body))
    records, _ = scan(path)
    assert [r["lsn"] for r in records] == [1]


def test_corruption_before_valid_records_raises(tmp_path):
    path = tmp_path / "seg.wal"
    wal, _ = WalFile.open(path)
    wal.append({"type": "insert", "lsn": 1, "rows": []})
    wal.append({"type": "insert", "lsn": 2, "rows": []})
    wal.close()
    lines = _lines(path)
    # corrupt the FIRST record: damage in the middle of the log is not a
    # torn tail and must refuse to load rather than skip silently
    lines[0] = lines[0][:-4] + b"XXXX"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(WalCorruption):
        scan(path)


def test_reopen_truncates_torn_tail_physically(tmp_path):
    path = tmp_path / "seg.wal"
    wal, _ = WalFile.open(path)
    wal.append({"type": "insert", "lsn": 1, "rows": []})
    wal.close()
    with open(path, "ab") as fh:
        fh.write(b'{"half a rec')
    wal, records = WalFile.open(path)
    assert [r["lsn"] for r in records] == [1]
    # the torn bytes are gone from disk; a new append lands cleanly
    wal.append({"type": "insert", "lsn": 2, "rows": []})
    wal.close()
    records, _ = scan(path)
    assert [r["lsn"] for r in records] == [1, 2]


def test_reset_empties_the_log(tmp_path):
    path = tmp_path / "seg.wal"
    wal, _ = WalFile.open(path)
    wal.append({"type": "insert", "lsn": 1, "rows": []})
    wal.reset()
    wal.append({"type": "insert", "lsn": 2, "rows": []})
    wal.close()
    records, _ = scan(path)
    assert [r["lsn"] for r in records] == [2]


def test_missing_file_scans_empty(tmp_path):
    records, offset = scan(tmp_path / "never-written.wal")
    assert records == []
    assert offset == 0


def test_counters(tmp_path):
    wal, _ = WalFile.open(tmp_path / "seg.wal")
    n = wal.append({"type": "insert", "lsn": 1, "rows": []})
    wal.sync()
    assert wal.records_written == 1
    assert wal.bytes_written == n > 0
    assert wal.fsyncs == 1
    assert wal.size() == n
    wal.close()
