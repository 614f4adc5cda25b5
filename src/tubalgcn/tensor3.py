"""Dense third-order tensor algebra built on the M-product.

Tensors are plain numpy arrays of shape (I, J, T) in C order.  The third
axis is time: the tube at (i, j) is ``x[i, j, :]`` and the frontal slice
at time t is ``x[:, :, t]``.  Real tensors use float64, complex ones
complex128.
"""

from __future__ import annotations

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


def as_tensor3(x) -> np.ndarray:
    """Coerce ``x`` to a 3-d float64/complex128 array."""
    a = np.asarray(x)
    if a.ndim != 3:
        raise DimensionMismatchError(f"expected a third-order tensor, got ndim={a.ndim}")
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def _as_matrix(u) -> np.ndarray:
    a = np.asarray(u)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={a.ndim}")
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def m_transform(x, m) -> np.ndarray:
    """Mode-3 product with a K x T transform matrix (K = T for a full transform).

    One GEMM, ``M @ x`` on the (T, I*J) time-major view of x.  That view
    copies nothing when x is itself a view of a (T, I, J)-contiguous array,
    as the layer's time-major tensors are; the result is always an (I, J, K)
    view of a (K, I, J)-contiguous array.  A complex matrix applied to a
    real tensor runs as one real GEMM with ``[Re M; Im M]`` stacked, instead
    of a complex GEMM on a complex copy of the tensor.
    """
    x = as_tensor3(x)
    m = _as_matrix(m)
    i, j, t = x.shape
    if m.shape[1] != t:
        raise DimensionMismatchError(
            f"m_transform: transform is {m.shape}, tensor has T={t}"
        )
    k = m.shape[0]
    xt = x.transpose(2, 0, 1).reshape(t, i * j)
    if np.iscomplexobj(m) and not np.iscomplexobj(x):
        parts = np.concatenate([m.real, m.imag]) @ xt
        out = np.empty((k, i * j), dtype=np.complex128)
        out.real = parts[:k]
        out.imag = parts[k:]
    else:
        out = m @ xt
    return out.reshape(k, i, j).transpose(1, 2, 0)


def facewise_product(x, y) -> np.ndarray:
    """Slice-by-slice matrix product of two tensors (I,J,T) x (J,K,T).

    One batched ``matmul`` over the time-stacked slices, which reaches BLAS
    where an einsum would not.
    """
    x = as_tensor3(x)
    y = as_tensor3(y)
    if x.shape[2] != y.shape[2]:
        raise DimensionMismatchError(
            f"facewise product: T mismatch {x.shape[2]} vs {y.shape[2]}"
        )
    if x.shape[1] != y.shape[0]:
        raise DimensionMismatchError(
            f"facewise product: inner dims {x.shape[1]} vs {y.shape[0]}"
        )
    return np.matmul(x.transpose(2, 0, 1), y.transpose(2, 0, 1)).transpose(1, 2, 0)


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
    xh = m_transform(x, tm.m)
    yh = m_transform(y, tm.m)
    z = m_transform(facewise_product(xh, yh), tm.m_inv)
    if not np.iscomplexobj(x) and not np.iscomplexobj(y):
        return demote_real(z)
    return z
