"""Lorenzo prediction on the error-bound integer lattice.

SZ's decorrelation step predicts each value from its already-decoded
neighbors; the classic predictor is the *Lorenzo* predictor, whose
residual in n dimensions is the alternating-sign sum over the corner
hypercube -- equivalently, the composition of first differences along
every axis.

This module uses the **integer-lattice formulation**, which is what
makes a pure-NumPy SZ practical: values are first snapped to the
lattice ``2 * eps * round(x / (2 * eps))`` (each value moves at most
``eps``, which *is* the error bound), and Lorenzo prediction is then
performed exactly on the lattice integers.  Because prediction is exact
integer arithmetic on already-quantized values, the encoder and decoder
see identical neighborhoods without any sequential decode-predict loop:
the forward transform is ``np.diff`` per axis and the inverse is
``np.cumsum`` per axis.

The error contract is therefore structural: the only lossy operation is
the initial snap, so ``max |x - x_hat| <= eps`` always.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "lattice_quantize",
    "lattice_dequantize",
    "lorenzo_forward",
    "lorenzo_inverse",
]


def lattice_quantize(data: np.ndarray,
                     eps: float | np.ndarray) -> np.ndarray:
    """Snap values to the lattice of spacing ``2*eps``; returns int64.

    Reconstruction via :func:`lattice_dequantize` satisfies
    ``|x - x_hat| <= eps`` elementwise.  ``eps`` may be an array that
    broadcasts against ``data`` (one bound per item of a batch).
    """
    if np.any(np.asarray(eps) <= 0):
        raise ConfigError(f"error bound must be positive, got {eps}")
    scaled = np.asarray(data, dtype=np.float64) / (2.0 * eps)
    if scaled.size and np.max(np.abs(scaled)) >= 2 ** 62:
        raise ConfigError(
            "error bound too small relative to data magnitude: lattice "
            "indices overflow int64"
        )
    return np.rint(scaled).astype(np.int64)


def lattice_dequantize(codes: np.ndarray, eps: float) -> np.ndarray:
    """Map lattice integers back to float values."""
    if eps <= 0:
        raise ConfigError(f"error bound must be positive, got {eps}")
    return np.asarray(codes, dtype=np.float64) * (2.0 * eps)


def lorenzo_forward(lattice: np.ndarray) -> np.ndarray:
    """n-D Lorenzo residuals of an integer lattice array.

    Separable: first difference along each axis in turn, with the
    leading element on each axis kept verbatim (predicted from an
    implicit zero boundary).  Exact inverse: :func:`lorenzo_inverse`.
    """
    out = np.asarray(lattice, dtype=np.int64).copy()
    for axis in range(out.ndim):
        out = np.concatenate(
            [np.take(out, [0], axis=axis),
             np.diff(out, axis=axis)],
            axis=axis,
        )
    return out


def lorenzo_inverse(residuals: np.ndarray) -> np.ndarray:
    """Invert :func:`lorenzo_forward` (cumulative sum per axis)."""
    out = np.asarray(residuals, dtype=np.int64).copy()
    for axis in range(out.ndim - 1, -1, -1):
        out = np.cumsum(out, axis=axis)
    return out
