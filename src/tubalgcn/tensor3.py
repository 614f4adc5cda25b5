"""Dense tensor algebra built on the M-product, time-major throughout.

Tensors are plain numpy arrays with time on the first axis: a third-order
tensor is (T, I, J) in C order, its frontal slice at time t is ``x[t]`` and
its tube at (i, j) is ``x[:, i, j]``.  Every transform is a product along
that first axis, so it is one GEMM on the (T, I * J) reshape.  Real
tensors use float64, complex ones complex128.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "as_tensor3",
    "m_transform",
    "facewise_product",
    "m_product",
    "demote_real",
]

# Imaginary residue allowed when demoting a complex result that should be
# real, such as the DFT-based M-product of real operands.
IMAG_RESIDUE_TOL = 1e-8


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _as_float(x) -> np.ndarray:
    """``x`` as a float64 or complex128 array."""
    a = np.asarray(x)
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def as_tensor3(x) -> np.ndarray:
    """Coerce ``x`` to a 3-d float64/complex128 array."""
    a = _as_float(x)
    if a.ndim != 3:
        raise DimensionMismatchError(f"expected a third-order tensor, got ndim={a.ndim}")
    return a


def m_transform(m, x) -> np.ndarray:
    """Product along time of a K x T transform matrix (K = T for a full
    transform) and a time-major x of shape (T, ...), any trailing shape.

    One GEMM, ``M @ x`` on the (T, -1) reshape of x, which copies nothing
    when x is C-contiguous; the result is the C-contiguous (K, ...) array.
    A complex matrix applied to a real tensor runs as one real GEMM with
    ``[Re M; Im M]`` stacked, instead of a complex GEMM on a complex copy
    of the tensor.
    """
    m, x = _as_float(m), _as_float(x)
    if m.ndim != 2 or x.ndim == 0 or m.shape[1] != len(x):
        raise DimensionMismatchError(f"m_transform: transform is {m.shape}, tensor is {x.shape}")
    (k, t), rest = m.shape, x.shape[1:]
    xt = x.reshape(t, math.prod(rest))
    if np.iscomplexobj(m) and not np.iscomplexobj(x):
        parts = np.concatenate([m.real, m.imag]) @ xt
        out = np.empty((k, xt.shape[1]), dtype=np.complex128)
        out.real = parts[:k]
        out.imag = parts[k:]
    else:
        out = m @ xt
    return out.reshape(k, *rest)


def facewise_product(x, y) -> np.ndarray:
    """Slice-by-slice matrix product of two tensors (T, I, J) x (T, J, K).

    One batched ``matmul`` over the time-stacked slices, which reaches BLAS
    where an einsum would not.
    """
    x = as_tensor3(x)
    y = as_tensor3(y)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(f"facewise product: T mismatch {x.shape[0]} vs {y.shape[0]}")
    if x.shape[2] != y.shape[1]:
        raise DimensionMismatchError(f"facewise product: inner dims {x.shape[2]} vs {y.shape[1]}")
    return np.matmul(x, y)


def demote_real(z: np.ndarray) -> np.ndarray:
    """The real part of an inverse-transform result that should be real.

    Raises ValueError when the imaginary residue exceeds ``IMAG_RESIDUE_TOL``.
    """
    if not np.iscomplexobj(z):
        return z
    residue = np.max(np.abs(z.imag))
    if residue > IMAG_RESIDUE_TOL:
        raise ValueError(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL:.0e} (stage: inverse transform)"
        )
    return np.ascontiguousarray(z.real)


def m_product(x, y, tm) -> np.ndarray:
    """M-product: transform both operands, multiply face-wise, transform back.

    For real operands the result is demoted to real (the imaginary residue
    is asserted small); complex operands yield a complex result.
    """
    x = as_tensor3(x)
    y = as_tensor3(y)
    z = m_transform(tm.m_inv, facewise_product(m_transform(tm.m, x), m_transform(tm.m, y)))
    if not np.iscomplexobj(x) and not np.iscomplexobj(y):
        return demote_real(z)
    return z
