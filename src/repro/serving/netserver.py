"""A minimal multi-client network front end over the serving tier.

:class:`NetServer` listens on a TCP port and gives every connection its
own :class:`~repro.cli.ReplSession` bound to its own serving
:class:`~repro.serving.Session` — so N concurrent clients get isolated
settings, isolated fault scopes and per-session cancel, all sharing one
:class:`~repro.engine.Database` through the admission-controlled
:class:`~repro.serving.QueryServer`.

Wire protocol (deliberately trivial, for tests and ``python -m repro
--serve PORT``): newline-delimited UTF-8 input lines, exactly as typed
into the REPL; each processed line's output is written back followed by
a line containing only an EOT byte (``\\x04``) so clients can frame
responses without parsing them.  ``\\q`` closes the connection.
"""

from __future__ import annotations

import socket
import threading

__all__ = ["NetServer", "EOT"]

#: response terminator: one line holding a single End-of-Transmission byte
EOT = b"\x04\n"


class NetServer:
    """Threaded line-based TCP server; one REPL + serving session per
    connection."""

    def __init__(self, db, host: str = "127.0.0.1", port: int = 0, **config):
        self.db = db
        self.server = db.serve(**config) if config else db.serve()
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None
        self._closed = False

    def start(self) -> "NetServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-netserver", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # socket closed
            thread = threading.Thread(
                target=self._client, args=(conn,), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _client(self, conn: socket.socket) -> None:
        from ..cli import ReplSession

        serving_session = self.server.session()
        repl = ReplSession(self.db, serving_session=serving_session)
        try:
            stream = conn.makefile("rwb")
            for raw in stream:
                line = raw.decode("utf-8", "replace").rstrip("\r\n")
                output = repl.handle_line(line)
                if output:
                    stream.write(output.encode("utf-8") + b"\n")
                # Only completed statements get a frame terminator;
                # continuation lines (open multi-line statement) do not.
                if not repl._buffer:
                    stream.write(EOT)
                stream.flush()
                if repl.done:
                    break
        except (OSError, ValueError):
            pass  # client went away mid-statement
        finally:
            serving_session.close()
            try:
                conn.close()
            except OSError:
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop accepting; running client threads finish their line."""
        if self._closed:
            return
        self._closed = True
        try:
            # close() alone leaves a blocked accept() asleep; shutdown
            # wakes it, so the accept thread exits before the join below
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not connected, or already shut down
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
