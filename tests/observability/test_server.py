"""Endpoint contract for live telemetry: a ``ServeApp`` with no stores."""

from __future__ import annotations

import json
import re
import socket
import urllib.error
import urllib.request

import pytest

from repro import cli
from repro.errors import ConfigError
from repro.observability import get_registry
from repro.serve import BackgroundServer, ServeApp, StoreRegistry


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().clear()
    yield
    get_registry().clear()


def _telemetry_app(port: int = 0) -> ServeApp:
    return ServeApp(StoreRegistry([], cache_bytes=0), port=port, workers=1)


@pytest.fixture
def server():
    with BackgroundServer(_telemetry_app()) as srv:  # ephemeral port
        yield srv.app


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def _get(url: str) -> tuple[int, str, bytes]:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read()


#: One Prometheus sample line: name, optional {labels}, numeric value.
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"[-+]?(\d+\.?\d*([eE][-+]?\d+)?|Inf|NaN)$")


def _parse_prometheus(text: str) -> dict[str, float]:
    """Minimal exposition-format parser: every non-comment line must be
    a well-formed sample; returns bare-name -> value for scalar lines."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_SAMPLE.match(line), f"bad sample line: {line!r}"
        name, _, value = line.partition(" ")
        if "{" not in name:
            samples[name] = float(value)
    return samples


class TestRoutes:
    def test_metrics_parses_as_prometheus_text(self, server):
        reg = get_registry()
        reg.counter("store.chunks.compressed").add(7)
        reg.gauge("store.cache.bytes").set(4096.0)
        reg.histogram("store.region.seconds").observe(0.01)
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain") and "version=0.0.4" in ctype
        samples = _parse_prometheus(body.decode())
        assert samples["repro_store_chunks_compressed_total"] == 7.0
        assert samples["repro_store_cache_bytes"] == 4096.0
        assert samples["repro_store_region_seconds_count"] == 1.0
        # The scrape itself was counted.
        assert samples["repro_serve_requests_total"] >= 1.0

    def test_metrics_json_mirrors_snapshot(self, server):
        get_registry().counter("store.chunks.compressed").add(3)
        status, ctype, body = _get(server.url + "/metrics.json")
        assert status == 200 and ctype == "application/json"
        snap = json.loads(body)
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["store.chunks.compressed"] == 3

    def test_healthz_contract(self, server):
        status, ctype, body = _get(server.url + "/healthz")
        assert status == 200 and ctype == "application/json"
        health = json.loads(body)
        for key in ("status", "pid", "uptime_s", "started_utc",
                    "tracing", "pool", "stores", "serving", "requests"):
            assert key in health, key
        assert health["status"] == "ok"
        assert health["serving"] == []
        assert health["requests"] >= 1
        assert health["uptime_s"] >= 0.0
        assert isinstance(health["tracing"], bool)
        assert {"created", "workers", "alive", "blas"} <= set(health["pool"])
        blas = health["pool"]["blas"]
        assert set(blas) == {"libs", "threads"}
        assert len(blas["libs"]) == len(blas["threads"])
        assert {"open_stores", "cache_bytes"} <= set(health["stores"])

    def test_runs_round_trips_registry(self, server, tmp_path,
                                       monkeypatch):
        from repro.observability import append_record, build_record

        runlog = tmp_path / "runs.ndjson"
        monkeypatch.setenv("DPZ_RUNLOG", str(runlog))
        record = build_record(
            dataset="t", shape=(4, 4), dtype="float32",
            config={"p": 1e-3}, cr=5.0, compressed_nbytes=100,
            original_nbytes=500, wall_s=0.1)
        append_record(record, str(runlog))
        status, ctype, body = _get(server.url + "/runs")
        assert status == 200 and ctype == "application/json"
        runs = json.loads(body)
        assert len(runs) == 1
        assert runs[0]["run_id"] == record["run_id"]
        assert runs[0]["cr"] == record["cr"]

    def test_runs_missing_registry_is_empty_list(self, server, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("DPZ_RUNLOG", str(tmp_path / "absent.ndjson"))
        status, _, body = _get(server.url + "/runs")
        assert status == 200 and json.loads(body) == []

    def test_unknown_path_is_json_404_and_counted(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server.url + "/nope")
        err = exc_info.value
        assert err.code == 404
        payload = json.loads(err.read())
        for route in ("/metrics", "/metrics.json", "/healthz", "/runs"):
            assert route in payload["routes"]
        assert get_registry().counter("serve.errors").value == 1

    def test_root_serves_metrics(self, server):
        status, ctype, _ = _get(server.url + "/")
        assert status == 200 and ctype.startswith("text/plain")


class TestLifecycle:
    def test_second_bind_refused_with_one_line_error(self, server):
        with pytest.raises(ConfigError) as exc_info:
            _telemetry_app(server.port)
        message = str(exc_info.value)
        assert "\n" not in message
        assert str(server.port) in message

    def test_close_releases_port(self):
        srv = BackgroundServer(_telemetry_app()).start()
        port = srv.app.port
        srv.close()
        # Rebinding proves the close was clean.
        BackgroundServer(_telemetry_app(port)).start().close()

    def test_double_start_refused(self):
        srv = BackgroundServer(_telemetry_app()).start()
        try:
            with pytest.raises(ConfigError, match="already started"):
                srv.start()
        finally:
            srv.close()

    def test_invalid_port_rejected(self):
        with pytest.raises(ConfigError, match="port"):
            _telemetry_app(70000)

    def test_context_manager_closes(self):
        with BackgroundServer(_telemetry_app()) as srv:
            status, _, _ = _get(srv.app.url + "/healthz")
            assert status == 200
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(srv.app.url + "/healthz", timeout=0.5)


class TestEnvOptIn:
    """``$DPZ_METRICS_PORT`` on any CLI command (``datasets`` here)."""

    def test_absent_env_means_no_server(self, monkeypatch, capsys):
        monkeypatch.delenv("DPZ_METRICS_PORT", raising=False)
        assert cli.main(["datasets"]) == 0
        assert "serving telemetry" not in capsys.readouterr().err

    def test_env_starts_server(self, monkeypatch, capsys):
        from repro.observability import get_tracer, span

        port = _free_port()
        seen = {}

        def probe(args) -> int:
            # Runs while the command would: the host is up and the
            # CLI's full tracer, which keeps spans, is the active one.
            with span("probe"):
                pass
            seen["spans"] = [s.name for s in get_tracer().spans]
            seen["health"] = json.loads(
                _get(f"http://127.0.0.1:{port}/healthz")[2])
            return 0

        monkeypatch.setitem(cli._COMMANDS, "datasets", probe)
        monkeypatch.setenv("DPZ_METRICS_PORT", str(port))
        assert cli.main(["datasets"]) == 0
        assert f"serving telemetry on http://127.0.0.1:{port}" in \
            capsys.readouterr().err
        assert seen["health"]["status"] == "ok"
        assert seen["health"]["tracing"] is True
        assert seen["spans"] == ["probe"]
        assert get_tracer() is None

    def test_malformed_env_is_one_line_error(self, monkeypatch, capsys):
        monkeypatch.setenv("DPZ_METRICS_PORT", "not-a-port")
        assert cli.main(["datasets"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "DPZ_METRICS_PORT" in err
