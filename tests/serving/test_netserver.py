"""NetServer smoke: framed line protocol, concurrent isolated clients."""

from __future__ import annotations

import socket
import threading

from repro.serving import EOT, NetServer


class Client:
    """Tiny framed client over the newline/EOT protocol."""

    def __init__(self, host: str, port: int):
        self._conn = socket.create_connection((host, port), timeout=10)
        self._stream = self._conn.makefile("rwb")

    def rpc(self, line: str) -> str:
        self._stream.write(line.encode() + b"\n")
        self._stream.flush()
        out = []
        while True:
            raw = self._stream.readline()
            if not raw or raw == EOT:
                break
            out.append(raw.decode().rstrip("\n"))
        return "\n".join(out)

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


def test_netserver_single_client_roundtrip(fresh_db):
    with NetServer(fresh_db) as net:
        client = Client(net.host, net.port)
        assert "count" in client.rpc("SELECT count(order_id) FROM orders;")
        out = client.rpc("\\sessions")
        assert "serving:" in out
        assert client.rpc("\\q") == "bye"
        client.close()
    net.server.close()


def test_netserver_concurrent_clients_are_isolated(fresh_db):
    reference = fresh_db.sql("SELECT avg(amount) FROM orders").rows[0][0]
    expected = f"{reference:.4f}".rstrip("0").rstrip(".")
    with NetServer(fresh_db) as net:
        clients = [Client(net.host, net.port) for _ in range(3)]
        # distinct per-connection settings must not bleed across clients
        clients[0].rpc("SET batch_size 2;")
        clients[1].rpc("SET timeout_seconds 30;")
        outputs: dict[int, str] = {}

        def drive(index: int):
            outputs[index] = clients[index].rpc(
                "SELECT avg(amount) FROM orders;"
            )

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        for index in range(3):
            assert expected in outputs[index], outputs[index]
        # each connection holds its own serving session
        listing = clients[0].rpc("\\sessions")
        assert listing.count("session-") >= 3
        for client in clients:
            client.close()
    net.server.close()


def test_bad_set_answers_an_error_and_the_connection_survives(fresh_db):
    """``SET max_rows -5`` was acknowledged and the next statement's
    ``ValueError`` was swallowed by the client thread: the connection
    dropped with no reply."""
    with NetServer(fresh_db) as net:
        client = Client(net.host, net.port)
        assert client.rpc("SET max_rows -5;") == (
            "ERROR (sql): max_rows must be >= 0"
        )
        assert client.rpc("SET timeout_seconds -1;") == (
            "ERROR (sql): timeout_seconds must be >= 0"
        )
        # the same connection answers the following statement
        assert "(1 rows)" in client.rpc("SELECT count(order_id) FROM orders;")
        assert client.rpc("\\q") == "bye"
        client.close()
    net.server.close()


def test_close_wakes_the_blocked_accept_promptly(fresh_db):
    """``close()`` with no client connected: the accept thread sits in
    ``accept()``, which a bare socket close does not wake on Linux, so the
    join used to wait out its whole timeout."""
    import time

    net = NetServer(fresh_db).start()
    time.sleep(0.05)  # let the accept thread block in accept()
    started = time.perf_counter()
    net.close()
    assert time.perf_counter() - started < 0.5
    assert not net._accept_thread.is_alive()
    net.server.close()
