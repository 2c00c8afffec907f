"""Per-rule fixtures for the dpzlint rule set.

Each rule gets (at least) one bad fixture that must produce a finding
and one clean twin that must not.  Fixtures are written to tmp_path and
opt into layer-scoped rules with a ``# dpzlint: module=...`` directive,
so the tests exercise exactly the code paths real repo files hit.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.lint import PARSE_ERROR_ID, lint_file, resolve_selection


def run_rule(tmp_path, rule_id, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    findings, suppressed = lint_file(path, resolve_selection(rule_id))
    return findings, suppressed


# -- DPZ101: serialization endianness ----------------------------------------

BAD_101 = """\
    # dpzlint: module=repro.codecs.fake
    import numpy as np

    def decode(buf):
        return np.frombuffer(buf, dtype=np.float32)
"""

CLEAN_101 = """\
    # dpzlint: module=repro.codecs.fake
    import numpy as np

    def decode(buf):
        return np.frombuffer(buf, dtype="<f4")
"""


def test_dpz101_flags_native_dtype(tmp_path):
    findings, _ = run_rule(tmp_path, "DPZ101", BAD_101)
    assert [f.rule for f in findings] == ["DPZ101"]
    assert "np.float32" in findings[0].message


def test_dpz101_accepts_little_endian_string(tmp_path):
    findings, _ = run_rule(tmp_path, "DPZ101", CLEAN_101)
    assert findings == []


def test_dpz101_flags_missing_dtype_on_zlib_compress(tmp_path):
    src = """\
        # dpzlint: module=repro.core.fake
        import numpy as np
        from repro.codecs.zlibc import zlib_compress

        def pack(arr):
            return zlib_compress(np.ascontiguousarray(arr))
    """
    findings, _ = run_rule(tmp_path, "DPZ101", src)
    assert len(findings) == 1
    assert "zlib_compress" in findings[0].message


def test_dpz101_flags_tobytes_on_native_astype(tmp_path):
    src = """\
        # dpzlint: module=repro.core.fake
        import numpy as np

        def pack(arr):
            return arr.astype(np.float64).tobytes()
    """
    findings, _ = run_rule(tmp_path, "DPZ101", src)
    assert len(findings) == 1


def test_dpz101_ignores_single_byte_dtypes(tmp_path):
    src = """\
        # dpzlint: module=repro.codecs.fake
        import numpy as np

        def decode(buf):
            return np.frombuffer(buf, dtype=np.uint8)
    """
    findings, _ = run_rule(tmp_path, "DPZ101", src)
    assert findings == []


def test_dpz101_scoped_to_boundary_layers(tmp_path):
    # Same bad code, but in a module outside the serialization layers.
    src = BAD_101.replace("repro.codecs.fake", "repro.analysis.fake")
    findings, _ = run_rule(tmp_path, "DPZ101", src)
    assert findings == []


# -- DPZ201: seeded randomness -----------------------------------------------


def test_dpz201_flags_unseeded_default_rng(tmp_path):
    src = """\
        import numpy as np

        def sample():
            return np.random.default_rng().normal()
    """
    findings, _ = run_rule(tmp_path, "DPZ201", src)
    assert [f.rule for f in findings] == ["DPZ201"]


def test_dpz201_accepts_seeded_rng(tmp_path):
    src = """\
        import numpy as np

        def sample(seed=0):
            return np.random.default_rng(seed).normal()
    """
    findings, _ = run_rule(tmp_path, "DPZ201", src)
    assert findings == []


def test_dpz201_flags_wall_clock_seed(tmp_path):
    src = """\
        import time
        import numpy as np

        def sample():
            return np.random.default_rng(int(time.time()))
    """
    findings, _ = run_rule(tmp_path, "DPZ201", src)
    assert len(findings) == 1


def test_dpz201_flags_legacy_global_state(tmp_path):
    src = """\
        import numpy as np

        def sample():
            np.random.seed(42)
            return np.random.rand()
    """
    findings, _ = run_rule(tmp_path, "DPZ201", src)
    assert findings


# -- DPZ301/302: exception taxonomy ------------------------------------------


def test_dpz301_flags_foreign_raise_in_codec_layer(tmp_path):
    src = """\
        # dpzlint: module=repro.codecs.fake

        def decode(buf):
            raise ValueError("boom")
    """
    findings, _ = run_rule(tmp_path, "DPZ301", src)
    assert [f.rule for f in findings] == ["DPZ301"]


def test_dpz301_accepts_taxonomy_raise(tmp_path):
    src = """\
        # dpzlint: module=repro.codecs.fake
        from repro.errors import CodecError

        def decode(buf):
            raise CodecError("boom")
    """
    findings, _ = run_rule(tmp_path, "DPZ301", src)
    assert findings == []


def test_dpz301_allows_bare_reraise(tmp_path):
    src = """\
        # dpzlint: module=repro.codecs.fake
        from repro.errors import CodecError

        def decode(buf):
            try:
                return buf[0]
            except IndexError:
                raise
    """
    findings, _ = run_rule(tmp_path, "DPZ301", src)
    assert findings == []


def test_dpz302_flags_bare_and_broad_except(tmp_path):
    src = """\
        # dpzlint: module=repro.core.fake

        def load(path):
            try:
                return open(path)
            except Exception:
                return None

        def load2(path):
            try:
                return open(path)
            except:
                return None
    """
    findings, _ = run_rule(tmp_path, "DPZ302", src)
    assert [f.rule for f in findings] == ["DPZ302", "DPZ302"]


def test_dpz302_allows_cli_top_level_handler(tmp_path):
    src = """\
        # dpzlint: module=repro.cli

        def main(argv=None):
            try:
                return 0
            except Exception:
                return 2
    """
    findings, _ = run_rule(tmp_path, "DPZ302", src)
    assert findings == []


# -- DPZ401: metric catalog ---------------------------------------------------


def test_dpz401_flags_uncataloged_metric_name(tmp_path):
    src = """\
        # dpzlint: module=repro.core.fake
        from repro.observability import counter_inc

        def work():
            counter_inc("dpz.compress.rnus")
    """
    findings, _ = run_rule(tmp_path, "DPZ401", src)
    assert [f.rule for f in findings] == ["DPZ401"]
    assert "dpz.compress.rnus" in findings[0].message


def test_dpz401_accepts_cataloged_name_and_prefix(tmp_path):
    src = """\
        # dpzlint: module=repro.core.fake
        from repro.observability import counter_inc, gauge_set

        def work(key):
            counter_inc("dpz.compress.runs")
            gauge_set("quality." + key, 1.0)
    """
    findings, _ = run_rule(tmp_path, "DPZ401", src)
    assert findings == []


def test_dpz401_flags_unregistered_dynamic_prefix(tmp_path):
    src = """\
        # dpzlint: module=repro.core.fake
        from repro.observability import gauge_set

        def work(key):
            gauge_set("mystery." + key, 1.0)
    """
    findings, _ = run_rule(tmp_path, "DPZ401", src)
    assert len(findings) == 1
    assert "mystery." in findings[0].message


# -- DPZ501: span coverage ----------------------------------------------------


def test_dpz501_flags_untraced_entry_point(tmp_path):
    src = """\
        # dpzlint: module=repro.baselines.fake

        class FakeCompressor:
            def compress(self, data):
                return bytes(data)
    """
    findings, _ = run_rule(tmp_path, "DPZ501", src)
    assert [f.rule for f in findings] == ["DPZ501"]


def test_dpz501_accepts_span_and_delegation(tmp_path):
    src = """\
        # dpzlint: module=repro.baselines.fake
        from repro.observability import span

        class FakeCompressor:
            def compress(self, data):
                with span("fake.compress"):
                    return bytes(data)

        def fake_compress(data):
            return FakeCompressor().compress(data)
    """
    findings, _ = run_rule(tmp_path, "DPZ501", src)
    assert findings == []


def test_dpz501_covers_grouped_entry_points(tmp_path):
    # compress_many is an entry point in its own right: an untraced
    # one is flagged (method and module wrapper alike), and compress
    # may delegate into a traced one.
    src = """\
        # dpzlint: module=repro.baselines.fake
        from repro.observability import span

        class FakeCompressor:
            def compress(self, data):
                return self.compress_many([data])[0]

            def compress_many(self, arrays):
                return [bytes(a) for a in arrays]

        class Traced:
            def compress(self, data):
                return self.compress_many([data])[0]

            def compress_many(self, arrays):
                with span("fake.compress"):
                    return [bytes(a) for a in arrays]

        def fake_compress_many(arrays):
            return [bytes(a) for a in arrays]
    """
    findings, _ = run_rule(tmp_path, "DPZ501", src)
    assert sorted(f.line for f in findings) == [8, 19]


def test_dpz501_helper_call_is_not_delegation(tmp_path):
    # zlib_compress matches the `*_compress` naming pattern but is NOT
    # a traced entry point; calling it must not satisfy the rule.
    src = """\
        # dpzlint: module=repro.baselines.fake
        from repro.codecs.zlibc import zlib_compress

        class FakeCompressor:
            def compress(self, data):
                return zlib_compress(data)
    """
    findings, _ = run_rule(tmp_path, "DPZ501", src)
    assert [f.rule for f in findings] == ["DPZ501"]


# -- DPZ601: mutable defaults -------------------------------------------------


def test_dpz601_flags_mutable_defaults(tmp_path):
    src = """\
        def f(items=[]):
            return items

        def g(*, table={}):
            return table
    """
    findings, _ = run_rule(tmp_path, "DPZ601", src)
    assert [f.rule for f in findings] == ["DPZ601", "DPZ601"]


def test_dpz601_accepts_none_default(tmp_path):
    src = """\
        def f(items=None):
            return items or []
    """
    findings, _ = run_rule(tmp_path, "DPZ601", src)
    assert findings == []


# -- DPZ701: public API docstrings -------------------------------------------


def test_dpz701_flags_undocumented_public_def(tmp_path):
    src = """\
        # dpzlint: module=repro.api

        def dpz_probe(data):
            return data
    """
    findings, _ = run_rule(tmp_path, "DPZ701", src)
    assert [f.rule for f in findings] == ["DPZ701"]


def test_dpz701_ignores_private_and_documented(tmp_path):
    src = '''\
        # dpzlint: module=repro.api

        def dpz_probe(data):
            """Documented."""
            return data

        def _helper(data):
            return data
    '''
    findings, _ = run_rule(tmp_path, "DPZ701", src)
    assert findings == []


# -- engine behaviour ---------------------------------------------------------


def test_suppression_comment_silences_one_rule(tmp_path):
    src = """\
        # dpzlint: module=repro.codecs.fake
        import numpy as np

        def decode(buf):
            return np.frombuffer(buf, dtype=np.float32)  # dpzlint: ignore[DPZ101]
    """
    findings, suppressed = run_rule(tmp_path, "DPZ101", src)
    assert findings == []
    assert suppressed == 1


def test_blanket_ignore_silences_every_rule_on_line(tmp_path):
    src = """\
        # dpzlint: module=repro.codecs.fake
        import numpy as np

        def decode(buf):
            return np.frombuffer(buf, dtype=np.float32)  # dpzlint: ignore
    """
    findings, suppressed = run_rule(tmp_path, "DPZ101", src)
    assert findings == []
    assert suppressed == 1


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    src = """\
        # dpzlint: module=repro.codecs.fake
        import numpy as np

        def decode(buf):
            return np.frombuffer(buf, dtype=np.float32)  # dpzlint: ignore[DPZ999]
    """
    findings, suppressed = run_rule(tmp_path, "DPZ101", src)
    assert len(findings) == 1
    assert suppressed == 0


def test_skip_file_directive(tmp_path):
    src = """\
        # dpzlint: skip-file
        # dpzlint: module=repro.codecs.fake
        import numpy as np

        def decode(buf):
            return np.frombuffer(buf, dtype=np.float32)
    """
    findings, suppressed = run_rule(tmp_path, "DPZ101", src)
    assert findings == []
    assert suppressed == 0


def test_parse_error_becomes_dpz000_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    findings, _ = lint_file(path)
    assert [f.rule for f in findings] == [PARSE_ERROR_ID]


def test_unknown_rule_selection_raises(tmp_path):
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        resolve_selection("DPZ999")
