"""The processes the serving workload runs beside the benchmark.

:class:`Server` is ``dpz serve`` started the way a user starts it;
:class:`Generator` is ``loadgen.py``.  Both are separate interpreters,
so neither competes with the benchmark (or with each other) for a GIL.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from worker import peak_rss_mb

_READY = re.compile(r" on http://([^:\s]+):(\d+) ")


class Server:
    """``python3 -m repro serve SPEC --port 0 --workers N``."""

    def __init__(self, root: Path, spec: str, workers: int) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", spec, "--port", "0",
             "--workers", str(workers)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.host = ""
        self.port = 0
        self.log: list[str] = []

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the server prints its address."""
        assert self.proc.stderr is not None
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            ready, _, _ = select.select([self.proc.stderr], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stderr.readline()
            if not line:
                break
            self.log.append(line)
            m = _READY.search(line)
            if m:
                self.host, self.port = m.group(1), int(m.group(2))
                # Keep draining stderr so the server never blocks on it.
                threading.Thread(target=self._drain, daemon=True).start()
                return
        raise RuntimeError("dpz serve did not start: " + "".join(self.log))

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.log.append(line)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Generator:
    """``loadgen.py`` driven over its stdin/stdout command protocol."""

    def __init__(self) -> None:
        script = Path(__file__).with_name("loadgen.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(script)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._pending = False

    def send(self, cmd: dict[str, Any]) -> None:
        """Start a command; collect its reply with :meth:`reply`."""
        assert self.proc.stdin is not None and not self._pending
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        self._pending = True

    def ready(self, timeout: float) -> bool:
        """Whether the reply to the pending command has arrived,
        waiting up to ``timeout`` seconds for it."""
        assert self.proc.stdout is not None and self._pending
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return bool(ready)

    def reply(self) -> dict[str, Any]:
        assert self.proc.stdout is not None and self._pending
        line = self.proc.stdout.readline()
        self._pending = False
        if not line:
            raise RuntimeError("load generator exited")
        out: dict[str, Any] = json.loads(line)
        return out

    def call(self, cmd: dict[str, Any]) -> dict[str, Any]:
        self.send(cmd)
        return self.reply()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                assert self.proc.stdin is not None
                self.proc.stdin.write('{"op": "quit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
