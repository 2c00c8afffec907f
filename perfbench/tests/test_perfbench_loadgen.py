"""The load generator against a stub HTTP server: due times follow the
schedule, sends never run early, bodies come back as digests."""

import http.server
import threading

import pytest

import stats
from loadgen import Generator, body_digest


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        body = self.path.encode()
        status = 404 if self.path == "/missing" else 200
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def gen():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    g = Generator()
    g.target("127.0.0.1", server.server_address[1], ["/a", "/b", "/missing"])
    try:
        yield g
    finally:
        g.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_open_loop_sends_on_schedule(gen):
    rate = 200.0
    seq = [0, 1] * 20
    res = gen.replay(seq, conns=2, rate=rate)
    assert res["due"] == pytest.approx([i / rate for i in range(len(seq))])
    for due, free, sent, done in zip(res["due"], res["free"], res["sent"],
                                     res["done"]):
        assert sent >= due and sent >= free and done >= sent
    assert res["status"] == [200] * len(seq)
    assert res["digest"] == [body_digest(b"/a"), body_digest(b"/b")] * 20
    lag = stats.generator_lag(res["due"], res["free"], res["sent"])
    assert min(lag) >= 0.0


def test_closed_loop_is_due_when_a_connection_frees(gen):
    res = gen.replay([0] * 10, conns=1, rate=None)
    assert res["due"] == res["free"]
    # One connection: each request waits for the previous reply.
    for prev_done, sent in zip(res["done"], res["sent"][1:]):
        assert sent >= prev_done


def test_other_statuses_are_reported(gen):
    res = gen.replay([2, 0], conns=1, rate=None)
    assert res["status"] == [404, 200]
