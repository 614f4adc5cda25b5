"""The M-transform, the temporal product every M-product is built from.

Tensors are plain numpy arrays with time on the first axis: a third-order
tensor is (T, I, J) in C order, its frontal slice at time t is ``x[t]`` and
its tube at (i, j) is ``x[:, i, j]``, float64 or complex128, which
``m_transform`` does not convert.  It is the one product along time: it
multiplies a transform matrix along that first axis, one GEMM on the
(T, I * J) reshape, or none for M = I.  The M-product X * Y is the layer
chain of ``gtcn``: transform, multiply the kept slices face-wise, transform back.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DimensionMismatchError", "m_transform"]


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def m_transform(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product along time of a K x T transform matrix (K = T for a full
    transform) and a time-major x of shape (T, ...), any trailing shape.
    Both are float64 or complex128 ndarrays; nothing is converted.

    One GEMM, ``M @ x`` on the (T, -1) reshape of x, which copies nothing
    when x is C-contiguous; the result is the C-contiguous (K, ...) array.
    M = I on float64 operands runs none: x + 0.0 is returned, the GEMM's bits
    for finite x (each -0.0 made +0.0), in a new array that shares nothing
    with x.  Any other M pays one read first: M[0, 0] is 1/sqrt(T) or complex.
    A complex matrix applied to a real tensor runs as two real GEMMs, by
    ``Re M`` and ``Im M``, instead of a complex GEMM on a complex copy of
    the tensor; each fills one real buffer in turn, which is copied into the
    complex result, so that no more than the result and one real part are
    held at once.
    """
    if m.ndim != 2 or x.ndim == 0 or m.shape[1] != len(x):
        raise DimensionMismatchError(f"m_transform: transform is {m.shape}, tensor is {x.shape}")
    if m.size and m[0, 0] == 1.0 and m.dtype == x.dtype == np.float64 and np.array_equal(m, np.eye(len(m))):
        return np.add(x, 0.0, order="C")
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
