"""HTTP load generator for the serving workload, run as its own process.

The generator must not share an interpreter (and so a GIL) with the
server or with the benchmark's own bookkeeping, so ``run.py`` starts it
as a separate ``python3`` process and drives it over stdin/stdout with
one JSON command per line and one JSON reply per line.

It holds at most ``conns`` keep-alive connections, one thread each.
Plain threads with blocking sockets are used instead of asyncio because
``time.sleep`` wakes within tens of microseconds, where the event loop's
timers round up to whole milliseconds, and that lateness would be
charged to the server.

Commands (``paths`` are set once by ``target``; ``seq`` is a list of
indices into them)::

    {"op": "target", "host": H, "port": P, "paths": [...]}
    {"op": "closed", "seq": [...], "conns": k}      # next request on reply
    {"op": "open", "seq": [...], "rate": r, "conns": k}   # r requests/s
    {"op": "get", "path": "/metrics.json"}
    {"op": "quit"}

``closed`` and ``open`` reply with per-request times in seconds from the
start of the command: ``due`` (when the schedule wanted it sent),
``free`` (when a connection became free to take it), ``sent``, ``done``,
plus the HTTP ``status`` (0 when the connection failed) and the
``digest`` of each response body, which the caller compares with the
digest of the bytes it expects.
"""

from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
import time
from typing import Any


def read_response(rfile: Any) -> tuple[int, bytes]:
    """Read one HTTP/1.1 response with a Content-Length body."""
    status_line = rfile.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(None, 2)[1])
    length = 0
    while True:
        line = rfile.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = rfile.read(length) if length else b""
    if len(body) != length:
        raise ConnectionError("response body truncated")
    return status, body


def body_digest(body: bytes) -> str:
    """The digest both sides use to compare response bodies."""
    return hashlib.blake2b(body, digest_size=16).hexdigest()


class _Conn:
    """One keep-alive connection that reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.sock: socket.socket | None = None
        self.rfile: Any = None

    def _connect(self) -> None:
        self.sock = socket.create_connection((self.host, self.port),
                                             timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def request(self, raw: bytes) -> tuple[int, bytes]:
        try:
            if self.sock is None:
                self._connect()
            self.sock.sendall(raw)  # type: ignore[union-attr]
            return read_response(self.rfile)
        except (OSError, ValueError, IndexError):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
        self.sock = self.rfile = None


class Generator:
    """Replays request sequences against one server."""

    def __init__(self) -> None:
        self.conns: list[_Conn] = []
        self.raws: list[bytes] = []
        self.host, self.port = "127.0.0.1", 0

    def target(self, host: str, port: int,
               paths: list[str]) -> dict[str, Any]:
        self.close()
        self.host, self.port = host, int(port)
        self.raws = [f"GET {p} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
                     for p in paths]
        return {"paths": len(self.raws)}

    def _ensure(self, conns: int) -> list[_Conn]:
        while len(self.conns) < conns:
            self.conns.append(_Conn(self.host, self.port))
        return self.conns[:conns]

    def replay(self, seq: list[int], conns: int,
               rate: float | None) -> dict[str, Any]:
        """Send ``seq``; open loop at ``rate`` req/s, closed when None."""
        n = len(seq)
        due = [0.0] * n
        free = [0.0] * n
        sent = [0.0] * n
        done = [0.0] * n
        status = [0] * n
        digest = [""] * n
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter() + 0.005

        def work(conn: _Conn) -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] = i + 1
                if i >= n:
                    return
                now = time.perf_counter()
                free[i] = now - start
                if rate is None:
                    due[i] = free[i]
                else:
                    due[i] = i / rate
                    wait = start + due[i] - now
                    if wait > 0:
                        time.sleep(wait)
                sent[i] = time.perf_counter() - start
                code, body = conn.request(self.raws[seq[i]])
                done[i] = time.perf_counter() - start
                status[i] = code
                digest[i] = body_digest(body)

        threads = [threading.Thread(target=work, args=(c,), daemon=True)
                   for c in self._ensure(conns)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return {"due": due, "free": free, "sent": sent, "done": done,
                "status": status, "digest": digest}

    def get(self, path: str) -> dict[str, Any]:
        conn = _Conn(self.host, self.port)
        try:
            code, body = conn.request(
                f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Connection: close\r\n\r\n".encode())
        finally:
            conn.close()
        return {"status": code, "body": body.decode("utf-8", "replace")}

    def close(self) -> None:
        for c in self.conns:
            c.close()
        self.conns = []


def main() -> int:
    # Hand the GIL over quickly when a reply arrives on the other
    # connection's thread.
    sys.setswitchinterval(0.0005)
    gen = Generator()
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "quit":
            break
        if op == "target":
            reply = gen.target(cmd["host"], cmd["port"], cmd["paths"])
        elif op == "closed":
            reply = gen.replay(cmd["seq"], int(cmd["conns"]), None)
        elif op == "open":
            reply = gen.replay(cmd["seq"], int(cmd["conns"]),
                               float(cmd["rate"]))
        elif op == "get":
            reply = gen.get(cmd["path"])
        else:
            reply = {"error": f"unknown op {op!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    gen.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
