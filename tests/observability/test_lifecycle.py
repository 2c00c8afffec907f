"""Listener plumbing: bind helpers, one-line errors, drain."""

from __future__ import annotations

import socket

import pytest

from repro.errors import ConfigError
from repro.observability.lifecycle import (
    bind_failure,
    bind_tcp_socket,
    bind_unix_socket,
    validate_port,
)


class TestValidatePort:
    def test_accepts_range(self):
        assert validate_port(0) == 0
        assert validate_port(65535) == 65535

    @pytest.mark.parametrize("bad", [-1, 65536, 99999])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigError):
            validate_port(bad)


class TestBindTcp:
    def test_binds_and_listens(self):
        sock = bind_tcp_socket("127.0.0.1", 0)
        try:
            host, port = sock.getsockname()
            assert port > 0
            probe = socket.create_connection((host, port), timeout=5)
            probe.close()
        finally:
            sock.close()

    def test_conflict_is_one_line_config_error(self):
        sock = bind_tcp_socket("127.0.0.1", 0)
        try:
            port = sock.getsockname()[1]
            with pytest.raises(ConfigError,
                               match="cannot bind serve listener"):
                bind_tcp_socket("127.0.0.1", port)
        finally:
            sock.close()

    def test_bind_failure_message_shape(self):
        err = bind_failure("127.0.0.1:9412",
                           OSError(98, "Address already in use"))
        assert str(err) == ("cannot bind serve listener on "
                            "127.0.0.1:9412: Address already in use")


class TestBindUnix:
    def test_binds_fresh_path(self, tmp_path):
        path = str(tmp_path / "fresh.sock")
        sock = bind_unix_socket(path)
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.connect(path)
            probe.close()
        finally:
            sock.close()

    def test_stale_socket_is_reclaimed(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(path)
        dead.close()  # socket file remains, nobody listening
        sock = bind_unix_socket(path)
        sock.close()

    def test_live_socket_is_refused(self, tmp_path):
        path = str(tmp_path / "live.sock")
        live = bind_unix_socket(path)
        try:
            with pytest.raises(ConfigError, match="live process"):
                bind_unix_socket(path)
        finally:
            live.close()

    def test_regular_file_never_deleted(self, tmp_path):
        path = tmp_path / "notasocket"
        path.write_text("precious")
        with pytest.raises(ConfigError, match="not a socket"):
            bind_unix_socket(str(path))
        assert path.read_text() == "precious"


class TestTelemetryServerDrain:
    """The store-less telemetry host drains like any ``ServeApp``."""

    @staticmethod
    def _start():
        from repro.serve import BackgroundServer, ServeApp, StoreRegistry

        app = ServeApp(StoreRegistry([], cache_bytes=0), port=0, workers=1)
        return BackgroundServer(app).start()

    def test_close_waits_for_in_flight_request(self):
        import urllib.request

        srv = self._start()
        try:
            with urllib.request.urlopen(srv.app.url + "/metrics",
                                        timeout=5) as resp:
                assert resp.status == 200
        finally:
            srv.close()
        assert srv.app.draining

    def test_draining_server_returns_503(self):
        import asyncio
        import http.client
        import json

        srv = self._start()
        conn = http.client.HTTPConnection(srv.app.host, srv.app.port,
                                          timeout=5)

        async def begin_drain():  # shutdown has begun, listener still up
            srv.app._draining = True

        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            # The next request on the kept-alive connection arrives
            # while draining.
            asyncio.run_coroutine_threadsafe(
                begin_drain(), srv._loop).result(timeout=5)
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            assert resp.status == 503
            assert resp.getheader("Connection") == "close"
            assert json.loads(resp.read())["error"] == "server is draining"
        finally:
            conn.close()
            srv.close()
