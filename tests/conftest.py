"""Shared fixtures for the test suite.

Conventions:

* every random test uses a seeded ``np.random.default_rng`` so failures
  reproduce;
* dataset-shaped fixtures are deliberately small (hundreds to a few
  thousand values) -- full-size behaviour is covered by the benchmark
  harness, not the unit tests;
* hypothesis settings are tightened globally (no deadline, bounded
  examples) so the property tests stay fast and deterministic in CI.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Seeded generator; reseeded per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def smooth_2d(rng) -> np.ndarray:
    """A small, smooth, compressible 2-D field (float32)."""
    x = np.linspace(0, 4 * np.pi, 96)
    y = np.linspace(0, 2 * np.pi, 64)
    base = np.outer(np.sin(y), np.cos(x)) + 2.0
    noise = 0.01 * rng.normal(size=base.shape)
    return (base + noise).astype(np.float32)


@pytest.fixture
def rough_1d(rng) -> np.ndarray:
    """A hard-to-compress 1-D array (white noise, float32)."""
    return rng.normal(size=4096).astype(np.float32)


@pytest.fixture
def tiny_3d(rng) -> np.ndarray:
    """A small 3-D field with smooth structure (float32)."""
    g = np.linspace(-1, 1, 16)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    field = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2) * 2.0)
    return (field + 0.005 * rng.normal(size=field.shape)).astype(np.float32)


@pytest.fixture
def blas_threads():
    """Every loaded OpenBLAS on at least two threads for the test.

    A one-thread pin then shows, whatever the environment set the
    count to.  Yields the per-library counts; restores the old ones.
    """
    from repro.parallel import blas

    libs = blas._libraries()
    before = [int(get()) for _, get, _ in libs]
    for (_, _, set_), n in zip(libs, before):
        set_(max(n, 2))
    yield [max(n, 2) for n in before]
    for (_, _, set_), n in zip(libs, before):
        set_(n)
