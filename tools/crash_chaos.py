#!/usr/bin/env python3
"""Crash-recovery chaos over the real ``--serve`` process.

Boots ``python -m repro --serve 0 --data-dir DIR`` as a subprocess,
drives concurrent DML (multi-row INSERTs and DELETEs against
``date_dim``, and UPDATEs that move one ``order_id`` class of
``orders_fk`` to other ``date_id`` partitions) and read queries through
the network REPL protocol, then SIGKILLs the server at a random moment —
a random WAL offset — and restarts it with the same data directory.
After each kill/restart cycle it asserts the durability contract:

* **atomicity** — every multi-row INSERT survived whole or not at all,
  and every UPDATE moved all of its rows or none;
* **prefix** — the surviving statements form a contiguous prefix of the
  issue order (the WAL serializes commits);
* **no lost acks** — every statement the client saw acknowledged is in
  that prefix (``wal sync`` fsyncs before replying);
* **byte-identical state** — an aggregate query battery on the
  recovered server matches, byte for byte, an undisturbed reference
  server that replayed exactly the surviving statements.

Usage::

    PYTHONPATH=src python tools/crash_chaos.py [--cycles N] [--seed S]

Exits non-zero listing every failed expectation.
"""

from __future__ import annotations

import argparse
import random
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

#: single-table aggregate battery: deterministic under serial execution,
#: independent of optimizer statistics (the recovered server has no
#: ANALYZE state), so recovered and reference answers must match exactly
BATTERY = [
    "SELECT count(*), sum(amount), avg(amount) FROM orders "
    "WHERE date BETWEEN '03-01-2013' AND '09-30-2013';",
    "SELECT count(*) FROM date_dim;",
    "SELECT count(*), min(date_id), max(date_id) FROM date_dim "
    "WHERE year >= 10000;",
    "SELECT count(*), min(date_id) FROM date_dim WHERE year < 9000;",
    "SELECT count(*) FROM orders_fk WHERE date_id < 100;",
    "SELECT count(*), sum(amount) FROM orders_fk;",
]

#: inserted markers live far above the demo's date_id range (0..729)
ID_BASE = 100_000
#: per-cycle cap so the reference replay stays fast
MAX_STATEMENTS = 400
#: an UPDATE adds this to the amount of every row it moves, so a probe
#: can count them; the demo's amounts stay below 500
MOVED = 1_000_000
#: orders_fk's order_ids 0..4999 fall into this many classes of 5 rows
CLASSES = 1000


class Client:
    """Tiny framed client over the newline/EOT protocol."""

    EOT = b"\x04\n"

    def __init__(self, host: str, port: int):
        self._conn = socket.create_connection((host, port), timeout=30)
        self._stream = self._conn.makefile("rwb")

    def rpc(self, line: str) -> str:
        self._stream.write(line.encode() + b"\n")
        self._stream.flush()
        out = []
        while True:
            raw = self._stream.readline()
            if not raw or raw == self.EOT:
                break
            out.append(raw.decode().rstrip("\n"))
        return "\n".join(out)

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


def start_server(extra: list[str]) -> tuple[subprocess.Popen, str, int]:
    """Spawn ``--serve`` with ``extra`` args and parse its address."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "--serve", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines: list[str] = []

    def pump():
        for line in process.stdout:
            lines.append(line.rstrip("\n"))

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        for line in list(lines):
            match = re.search(r"repro serving on (\S+):(\d+)", line)
            if match:
                return process, match.group(1), int(match.group(2))
        if process.poll() is not None:
            break
        time.sleep(0.05)
    process.kill()
    raise RuntimeError(f"server never announced its port: {lines}")


def stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        process.kill()


class Statement:
    """One DML statement with its survival probe."""

    def __init__(self, sql: str, kind: str, marker: int):
        self.sql = sql
        self.kind = kind
        self.marker = marker


def make_statement(rng: random.Random, counter: int) -> Statement:
    if counter % 4 == 1:
        # move one order_id class half a cycle of date_id partitions on;
        # counter // 4 keeps classes unique across cycles
        target = counter // 4 % CLASSES
        return Statement(
            f"UPDATE orders_fk SET date_id = (date_id + 365) % 730, "
            f"amount = amount + {MOVED} "
            f"WHERE order_id % {CLASSES} = {target} AND amount < {MOVED};",
            "update",
            target,
        )
    if counter % 4 == 3:
        # delete one base demo row; counter // 4 keeps targets unique
        # across cycles and inside date_dim's base range (0..729)
        target = counter // 4
        return Statement(
            f"DELETE FROM date_dim WHERE date_id = {target} "
            "AND year < 9000;",
            "delete",
            target,
        )
    base = ID_BASE + counter * 3
    rows = ", ".join(
        f"({base + offset}, {ID_BASE + counter}, {offset})"
        for offset in range(3)
    )
    return Statement(
        f"INSERT INTO date_dim VALUES {rows};", "insert", ID_BASE + counter
    )


def count_rows(client: Client, sql: str) -> int:
    """Run one ``SELECT count(*) ...`` and parse the value."""
    response = client.rpc(sql)
    lines = response.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"unparseable count response: {response!r}")
    return int(lines[1].split("|")[0].strip())


def probe_applied(
    client: Client, statement: Statement, failures: list[str]
) -> bool:
    """Did ``statement`` survive the crash?  Also checks atomicity."""
    if statement.kind == "insert":
        survived = count_rows(
            client,
            f"SELECT count(*) FROM date_dim WHERE year = {statement.marker};",
        )
        if survived not in (0, 3):
            failures.append(
                f"atomicity: INSERT marker {statement.marker} survived "
                f"{survived}/3 rows"
            )
        return survived == 3
    if statement.kind == "update":
        moved = count_rows(
            client,
            f"SELECT count(*) FROM orders_fk WHERE order_id % {CLASSES} = "
            f"{statement.marker} AND amount >= {MOVED};",
        )
        if moved not in (0, 5):
            failures.append(
                f"atomicity: UPDATE of order_id class {statement.marker} "
                f"moved {moved}/5 rows"
            )
        return moved == 5
    remaining = count_rows(
        client,
        f"SELECT count(*) FROM date_dim WHERE date_id = {statement.marker} "
        "AND year < 9000;",
    )
    return remaining == 0


def chaos_phase(host: str, port: int, rng: random.Random, counter_start: int):
    """Fire DML + queries at the server until the caller kills it;
    returns (sent, acked, stop event, threads)."""
    sent: list[Statement] = []
    acked: list[Statement] = []
    stop = threading.Event()

    def dml():
        try:
            client = Client(host, port)
            counter = counter_start
            while not stop.is_set() and len(sent) < MAX_STATEMENTS:
                statement = make_statement(rng, counter)
                counter += 1
                sent.append(statement)
                response = client.rpc(statement.sql)
                if not response:  # socket died mid-reply: not acked
                    break
                if response.startswith("ERROR"):
                    raise RuntimeError(
                        f"DML failed before the kill: {response}"
                    )
                acked.append(statement)
        except OSError:
            pass

    def reads():
        try:
            client = Client(host, port)
            while not stop.is_set():
                client.rpc(rng.choice(BATTERY))
        except OSError:
            pass

    threads = [
        threading.Thread(target=dml, daemon=True),
        threading.Thread(target=reads, daemon=True),
    ]
    for thread in threads:
        thread.start()
    time.sleep(rng.uniform(0.05, 0.5))
    return sent, acked, stop, threads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    failures: list[str] = []
    data_dir = tempfile.mkdtemp(prefix="repro-crash-chaos-")
    applied_history: list[str] = []
    counter = 0
    process = None
    try:
        process, host, port = start_server(["--data-dir", data_dir])
        setup = Client(host, port)
        setup.rpc("\\demo")
        setup.rpc("\\checkpoint")  # demo load is the durable baseline
        setup.close()

        for cycle in range(args.cycles):
            sent, acked, stop, threads = chaos_phase(
                host, port, rng, counter
            )
            process.kill()  # SIGKILL: no flush, no goodbye
            process.wait()
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            counter += len(sent)

            process, host, port = start_server(["--data-dir", data_dir])
            client = Client(host, port)
            flags = [
                probe_applied(client, statement, failures)
                for statement in sent
            ]
            survived = sum(flags)
            if flags[survived:].count(True):
                failures.append(
                    f"cycle {cycle}: surviving statements are not a "
                    f"prefix: {flags}"
                )
            lost = [
                statement.marker
                for statement, flag in zip(sent, flags)
                if statement in acked and not flag
            ]
            if lost:
                failures.append(
                    f"cycle {cycle}: acknowledged statements lost: {lost}"
                )
            applied_history.extend(
                statement.sql
                for statement, flag in zip(sent, flags)
                if flag
            )
            recovered_answers = [client.rpc(sql) for sql in BATTERY]

            reference_proc, ref_host, ref_port = start_server([])
            reference = Client(ref_host, ref_port)
            reference.rpc("\\demo")
            for sql in applied_history:
                reference.rpc(sql)
            reference_answers = [reference.rpc(sql) for sql in BATTERY]
            reference.close()
            stop_server(reference_proc)

            for sql, got, want in zip(
                BATTERY, recovered_answers, reference_answers
            ):
                if got != want:
                    failures.append(
                        f"cycle {cycle}: recovered answer diverged for "
                        f"{sql!r}:\n  recovered: {got!r}\n  "
                        f"reference: {want!r}"
                    )
            print(
                f"cycle {cycle}: killed after {len(sent)} statements "
                f"({len(acked)} acked), {survived} survived, "
                f"battery {'ok' if not failures else 'FAILED'}",
                flush=True,
            )
            if rng.random() < 0.5:
                client.rpc("\\checkpoint")  # next cycle recovers a mix
            client.close()
    finally:
        if process is not None:
            stop_server(process)
        shutil.rmtree(data_dir, ignore_errors=True)

    for line in failures:
        print(f"FAIL: {line}")
    if failures:
        return 1
    print(
        f"crash chaos: OK — {args.cycles} SIGKILL/restart cycles, "
        f"{counter} statements issued, recovered state byte-identical "
        "to the undisturbed reference"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
