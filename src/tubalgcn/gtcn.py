"""Graph tensor convolution layer and adjacency preprocessing.

The layer computes H = sigma(A * X * W) where * is the M-product.  The
chain is evaluated in the transform domain once: hat all three operands,
multiply slices, apply the inverse transform, take the real part, then
the activation; the backward pass runs its adjoint with plain transposes.
``layer_forward`` and ``layer_backward`` are the one implementation of
the layer; training and the oracle tests both run them.  The layer keeps
its activations, gradients and cache time-major, as (T, N, F) arrays, so
that every transform is one GEMM on a (T, N * F) view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .tensor3 import (
    DimensionMismatchError,
    as_tensor3,
    demote_real,
    m_transform,
)
from .transforms import TransformMatrix

__all__ = [
    "ACTIVATIONS",
    "ADJACENCY_MODES",
    "TubeAdjacency",
    "preprocess_tubes",
    "preprocess_adjacency",
    "transformed_blocks",
    "layer_forward",
    "layer_backward",
    "apply_activation",
    "activation_grad",
]

ACTIVATIONS = ("sigmoid", "relu", "identity")

ADJACENCY_MODES = ("sym_normalized", "raw_self_loops")


def apply_activation(s: np.ndarray, activation: str) -> np.ndarray:
    if activation == "sigmoid":
        with np.errstate(over="ignore"):  # below s = -709, exp(-s) is inf and 1 / (1 + inf) the exact 0.0
            return 1.0 / (1.0 + np.exp(-s))
    if activation == "relu":
        return np.maximum(s, 0.0)
    if activation == "identity":
        return s
    raise ValueError(f"unknown activation {activation!r}")


def activation_grad(h: np.ndarray, activation: str) -> np.ndarray:
    """Derivative of the activation at its output h: h (1 - h), [h > 0] or 1."""
    if activation == "sigmoid":
        return h * (1.0 - h)
    if activation == "relu":
        return (h > 0).astype(np.float64)
    if activation == "identity":
        return np.ones_like(h)
    raise ValueError(f"unknown activation {activation!r}")


@dataclass(frozen=True)
class TubeAdjacency:
    """An (N, N, T) adjacency stored over its tube support.

    The support is every (row, col) pair that is nonzero in some slot, plus
    every diagonal pair, in CSR order: row i owns tubes
    ``indptr[i]:indptr[i + 1]``, sorted by column, and tube k holds the slot
    values ``vals[k]`` of entry (i, ``cols[k]``).  A mode-3 transform mixes
    only along time, so Â and Â x_3 M share one support.
    """

    n: int
    indptr: np.ndarray  # (N + 1,) int64
    cols: np.ndarray  # (nnz_tubes,) int64
    vals: np.ndarray  # (nnz_tubes, T)

    @classmethod
    def from_entries(cls, n: int, n_slots: int, i, j, slot, y) -> "TubeAdjacency":
        """Entries (i[k], j[k], slot[k]) = y[k], zero-based and unique, over
        their tubes plus the N self-loop tubes."""
        key = np.concatenate([np.asarray(i, dtype=np.int64) * n + j, np.arange(n, dtype=np.int64) * (n + 1)])
        tubes, inverse = np.unique(key, return_inverse=True)
        vals = np.zeros((len(tubes), n_slots))
        vals[inverse[: len(y)], slot] = y
        rows, cols = np.divmod(tubes, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, cols, vals)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "TubeAdjacency":
        """The nonzero entries of an (N, N, T) array over their tubes."""
        nz = np.nonzero(a)
        return cls.from_entries(a.shape[0], a.shape[2], *nz, a[nz])

    @property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n, self.vals.shape[1]), dtype=self.vals.dtype)
        a[self.rows, self.cols] = self.vals
        return a

    def slot_blocks(self) -> sparse.csr_array:
        """Block-diagonal (T*N, T*N) CSR matrix whose block s is slot s."""
        n, (nnz, t) = self.n, self.vals.shape
        offsets = np.arange(t)[:, None]
        indptr = np.append((self.indptr[:-1] + nnz * offsets).ravel(), t * nnz)
        indices = (self.cols + n * offsets).ravel()
        return sparse.csr_array((self.vals.T.ravel(), indices, indptr), shape=(t * n, t * n))


def preprocess_tubes(raw: TubeAdjacency, mode: str = "sym_normalized") -> TubeAdjacency:
    """Add self-loops per slice, optionally symmetrically normalized.

    raw_self_loops: A^t + I.  sym_normalized: D^-1/2 (A^t + I) D^-1/2 with
    D the diagonal of row sums of A^t + I.  ``raw`` must be nonnegative.
    """
    if mode not in ADJACENCY_MODES:
        raise ValueError(f"unknown preprocessing mode {mode!r}")
    rows = raw.rows
    vals = raw.vals.copy()
    vals[rows == raw.cols] += 1.0
    if mode == "sym_normalized":
        # Row sums per slice, (N, T).  bincount adds each row's tubes in
        # column order, as a dense row sum does; the self-loop keeps every
        # degree >= 1.
        n, t = raw.n, vals.shape[1]
        slot_rows = (rows[:, None] * t + np.arange(t)).ravel()
        deg = np.bincount(slot_rows, weights=vals.ravel(), minlength=n * t).reshape(n, t)
        inv_sqrt = 1.0 / np.sqrt(deg)
        vals *= inv_sqrt[rows]
        vals *= inv_sqrt[raw.cols]
    return TubeAdjacency(raw.n, raw.indptr, raw.cols, vals)


def preprocess_adjacency(raw, mode: str = "sym_normalized") -> np.ndarray:
    """Dense form of ``preprocess_tubes``; ``raw`` is an (N, N, T) array."""
    a = as_tensor3(raw)
    n, n2, t = a.shape
    if n != n2:
        raise DimensionMismatchError(f"adjacency must be square per slice, got {a.shape}")
    if np.iscomplexobj(a) or np.any(a < 0):
        raise ValueError("adjacency weights must be real and nonnegative")
    return preprocess_tubes(TubeAdjacency.from_dense(a), mode).to_dense()


def transformed_blocks(a: TubeAdjacency, tm: TransformMatrix) -> sparse.csr_array:
    """The kept slices of Â x_3 M as one block-diagonal CSR matrix.

    Each tube's T slots are transformed by ``tm.m_kept[:, :T]``, which is
    ``tm.m_kept`` on the tube zero-padded to ``tm.size`` slots (the Haar
    branch runs at the next power of two); block s of the result is slice s
    of Â x_3 M, for s < K (K = T//2 + 1 for the DFT, T otherwise).  The
    backward runs on ``blocks.T``, a view.
    """
    # Transform the tubes as an (nnz_tubes, 1, T) tensor.
    vals = m_transform(a.vals[:, None, :], tm.m_kept[:, : a.vals.shape[1]])[:, 0, :]
    return replace(a, vals=vals).slot_blocks()


def _time_major(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m_transform`` of a time-major (T, N, F) tensor: one GEMM, time-major result."""
    return m_transform(x.transpose(1, 2, 0), m).transpose(2, 0, 1)


def _real_time_major(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Re(a @ z) along time for a time-major z, as one real GEMM.

    A complex z is stacked as [Re z; Im z] and multiplied by [Re a | -Im a],
    so the imaginary half of the product is never computed.
    """
    if np.iscomplexobj(z):
        a = np.hstack([a.real, -a.imag])
        z = np.concatenate([z.real, z.imag])
    return _time_major(a, z)


def layer_forward(blocks, x: np.ndarray, w: np.ndarray, tm: TransformMatrix, activation: str):
    """One layer, H = sigma(Re(Â * X * W)), on ``blocks`` from ``transformed_blocks``.

    ``x`` is time-major, (t, N, F_in) with t <= T = ``tm.size``; its missing
    slots count as zero, so the first t columns of ``tm.m_kept`` transform
    it.  H is (T, N, F_out) and ``w`` is (F_in, F_out, T).  Every transform
    is one GEMM on a (T, N * F) view and every slice stack is a free reshape.  The chain
    runs on the K kept slices (``tm.m_kept``/``tm.m_inv_kept``); the slices
    of P that must be real for real operands are checked with
    ``demote_real`` before the inverse.  Returns H and the time-major cache
    (Q̂, Ŵ, H) that ``layer_backward`` needs.
    """
    t, n, f_in = x.shape
    k = tm.kept
    if t > tm.size or w.shape[0] != f_in or w.shape[2] != tm.size or blocks.shape != (k * n, k * n):
        raise DimensionMismatchError(
            f"features {x.shape}, weights {w.shape} and adjacency blocks {blocks.shape} disagree"
        )
    xh = _time_major(tm.m_kept[:, :t], x)
    wh = m_transform(w, tm.m_kept).transpose(2, 0, 1)
    q = (blocks @ xh.reshape(k * n, f_in)).reshape(k, n, f_in)
    p = np.matmul(q, wh)
    if np.iscomplexobj(p):
        p[tm.real_slices, :, :] = demote_real(p[tm.real_slices, :, :])
    s = _real_time_major(tm.m_inv_kept, p)
    if not np.all(np.isfinite(s)):
        raise FloatingPointError(f"non-finite pre-activation in {tm.kind} branch (stage: convolution chain)")
    h = apply_activation(s, activation)
    return h, {"q": q, "wh": wh, "h": h}


def layer_backward(blocks, g_h: np.ndarray, cache: dict, tm: TransformMatrix, activation: str):
    """Gradients (dL/dX, dL/dW) of one layer from dL/dH, on the forward's ``blocks``.

    ``g_h`` is time-major, (t, N, F) with t <= T = ``tm.size``, the gradient
    of H's first t slots (the rest get none).  dL/dX is (T, N, F) and dL/dW
    has the weight's (F_in, F_out, T) shape.  Only real parts leave the
    complex-linear chain, so it runs on the conjugated gradients, with plain
    transposes:
    ḡ_P = m_inv_kept^T g_S, ḡ_Q = ḡ_P Ŵ^T, ḡ_Ŵ = Q̂^T ḡ_P,
    g_X = Re(m_kept^T Â^T ḡ_Q) and g_W = Re(m_kept^T ḡ_Ŵ).  Conjugation
    only flips signs, which is exact.
    """
    q, wh = cache["q"], cache["wh"]
    k, n, f_in = q.shape
    t = len(g_h)
    g_s = g_h * activation_grad(cache["h"][:t], activation)
    g_p = _time_major(tm.m_inv_kept[:t].T, g_s)
    g_q = np.matmul(g_p, wh.transpose(0, 2, 1))
    g_wh = np.matmul(q.transpose(0, 2, 1), g_p)
    g_w = _real_time_major(tm.m_kept.T, g_wh).transpose(1, 2, 0)
    g_x = _real_time_major(tm.m_kept.T, (blocks.T @ g_q.reshape(k * n, f_in)).reshape(k, n, f_in))
    return g_x, g_w
