"""Pure-function contract for the serve wire protocol."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.errors import ConfigError, FormatError
from repro.serve.protocol import (
    FRAME_MAGIC,
    RequestFailed,
    decode_region_frame,
    encode_region_frame,
    error_body,
    format_slices,
    parse_slices,
    parse_target,
)


class TestParseTarget:
    def test_fixed_routes(self):
        assert parse_target("/healthz").kind == "healthz"
        assert parse_target("/metrics").kind == "metrics"
        assert parse_target("/").kind == "metrics"
        assert parse_target("/metrics.json").kind == "metrics_json"
        assert parse_target("/runs").kind == "runs"
        assert parse_target("/v1/stores").kind == "stores"

    def test_manifest_route(self):
        r = parse_target("/v1/stores/snap/manifest")
        assert (r.kind, r.alias) == ("manifest", "snap")

    def test_region_route_with_query(self):
        r = parse_target(
            "/v1/stores/snap/fields/vx/region?slices=0:16,8:24,3")
        assert (r.kind, r.alias, r.field) == ("region", "snap", "vx")
        assert r.query["slices"] == "0:16,8:24,3"

    def test_percent_decoding(self):
        r = parse_target("/v1/stores/my%20run/fields/v%2Fx/region")
        assert r.alias == "my run"
        assert r.field == "v/x"

    def test_trailing_slash_tolerated(self):
        assert parse_target("/v1/stores/").kind == "stores"

    @pytest.mark.parametrize("target", [
        "/nope", "/v1", "/v1/stores/a/b", "/v1/stores//manifest",
        "/v1/stores/a/fields/b/nope", "/v1/stores/a/fields//region",
    ])
    def test_unknown_paths_404(self, target):
        with pytest.raises(RequestFailed) as ei:
            parse_target(target)
        assert ei.value.status == 404


class TestSlices:
    def test_roundtrip(self):
        spec = "0:16,8:24,3,:"
        region = parse_slices(spec)
        assert region == (slice(0, 16), slice(8, 24), 3,
                          slice(None, None))
        assert format_slices(region) == spec

    def test_open_bounds(self):
        assert parse_slices("4:") == (slice(4, None),)
        assert parse_slices(":9") == (slice(None, 9),)

    @pytest.mark.parametrize("bad", ["a:b", "1:2:3x", "", "1,,2"])
    def test_malformed_raises_config(self, bad):
        with pytest.raises(ConfigError):
            parse_slices(bad)

    def test_format_rejects_steps(self):
        with pytest.raises(ConfigError):
            format_slices((slice(0, 8, 2),))

    def test_format_rejects_empty(self):
        with pytest.raises(ConfigError):
            format_slices(())


class TestRegionFrame:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip(self, rng, dtype):
        arr = rng.standard_normal((5, 7)).astype(dtype)
        buf = encode_region_frame("snap", "vx", arr)
        header, out = decode_region_frame(buf)
        assert header["store"] == "snap"
        assert header["field"] == "vx"
        assert out.dtype == np.dtype(dtype).newbyteorder("<")
        np.testing.assert_array_equal(out, arr)

    def test_scalar_region(self):
        arr = np.array(3.5, dtype=np.float32)
        _, out = decode_region_frame(
            encode_region_frame("s", "f", arr))
        assert out.shape == ()
        assert float(out) == 3.5

    def test_magic_first(self):
        buf = encode_region_frame(
            "s", "f", np.zeros(3, dtype=np.float32))
        assert buf[:4] == FRAME_MAGIC

    def test_rejects_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            decode_region_frame(b"NOPE" + b"\x00" * 16)

    def test_rejects_truncated_payload(self):
        buf = encode_region_frame(
            "s", "f", np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(FormatError):
            decode_region_frame(buf[:-8])

    def test_rejects_truncated_head(self):
        with pytest.raises(FormatError, match="truncated"):
            decode_region_frame(b"DP")

    def test_rejects_header_payload_mismatch(self):
        header = json.dumps({
            "store": "s", "field": "f", "shape": [2],
            "dtype": "<f4", "nbytes": 8}).encode()
        buf = (struct.pack("<4sI", FRAME_MAGIC, len(header))
               + header + b"\x00" * 4)
        with pytest.raises(FormatError, match="payload"):
            decode_region_frame(buf)

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ConfigError):
            encode_region_frame("s", "f", np.zeros(3, dtype=np.int32))

    def test_rejects_giant_header_length(self):
        buf = struct.pack("<4sI", FRAME_MAGIC, 1 << 30) + b"x" * 64
        with pytest.raises(FormatError, match="cap"):
            decode_region_frame(buf)


def test_error_body_shape():
    body = json.loads(error_body(503, "busy", retry_after=0.25))
    assert body == {"error": "busy", "status": 503,
                    "retry_after": 0.25}
