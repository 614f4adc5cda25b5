"""The M-transform, the temporal product every M-product is built from.

Tensors are plain numpy arrays with time on the first axis: a third-order
tensor is (T, I, J) in C order, its frontal slice at time t is ``x[t]`` and
its tube at (i, j) is ``x[:, i, j]``.  ``m_transform`` multiplies a
transform matrix along that first axis, so it is one GEMM on the
(T, I * J) reshape.  The M-product X * Y itself is the layer chain of
``gtcn``: transform, multiply the kept slices face-wise, transform back.
Real tensors use float64, complex ones complex128.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DimensionMismatchError", "m_transform"]


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _as_float(x) -> np.ndarray:
    """``x`` as a float64 or complex128 array."""
    a = np.asarray(x)
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def m_transform(m, x) -> np.ndarray:
    """Product along time of a K x T transform matrix (K = T for a full
    transform) and a time-major x of shape (T, ...), any trailing shape.

    One GEMM, ``M @ x`` on the (T, -1) reshape of x, which copies nothing
    when x is C-contiguous; the result is the C-contiguous (K, ...) array.
    A complex matrix applied to a real tensor runs as two real GEMMs, by
    ``Re M`` and ``Im M``, instead of a complex GEMM on a complex copy of
    the tensor; each fills one real buffer in turn, which is copied into the
    complex result, so that no more than the result and one real part are
    held at once.
    """
    m, x = _as_float(m), _as_float(x)
    if m.ndim != 2 or x.ndim == 0 or m.shape[1] != len(x):
        raise DimensionMismatchError(f"m_transform: transform is {m.shape}, tensor is {x.shape}")
    (k, t), rest = m.shape, x.shape[1:]
    xt = x.reshape(t, math.prod(rest))
    if np.iscomplexobj(m) and not np.iscomplexobj(x):
        out = np.empty((k, xt.shape[1]), dtype=np.complex128)
        part = np.empty(out.shape)
        # Re M and Im M are strided views; the GEMM wants contiguous copies.
        out.real = np.matmul(np.ascontiguousarray(m.real), xt, out=part)
        out.imag = np.matmul(np.ascontiguousarray(m.imag), xt, out=part)
    else:
        out = m @ xt
    return out.reshape(k, *rest)
