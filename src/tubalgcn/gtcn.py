"""Graph tensor convolution layer and adjacency preprocessing.

The layer computes H = sigma(A * X * W) where * is the M-product.  The
chain is evaluated in the transform domain once: multiply the kept slices
of Â x_3 M X̂ and Ŵ, apply the inverse transform, take the real part, then
the activation; the backward pass runs its adjoint with plain transposes.
``layer_forward`` and ``layer_backward`` are the one implementation of
that chain; training and the oracle tests both run them.  They start from
the transformed operands, so that the first layer can form Â x_3 M X̂ from
one product with the untransformed Â shared by every branch (see
``training.forward_model``), and later layers from ``propagate`` on a
branch's transformed blocks.  The layer keeps its activations, gradients
and cache time-major, as (T, N, F) arrays, the layout of ``tensor3``, so
that every transform is one ``m_transform`` GEMM on a (T, N * F) view.
Only the (F_in, F_out, T) weights and the (nnz_tubes, T) tube values are
transposed on their way in and out of a transform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .tensor3 import DimensionMismatchError, as_tensor3, m_transform
from .transforms import TransformMatrix

__all__ = [
    "ACTIVATIONS",
    "ADJACENCY_MODES",
    "TubeAdjacency",
    "preprocess_tubes",
    "preprocess_adjacency",
    "transformed_blocks",
    "transform_weight",
    "weight_grad",
    "propagate",
    "propagate_grad",
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

    def _slot_rows(self, indices: np.ndarray, width: int) -> sparse.csr_array:
        """The (T*N, width) CSR matrix whose row s*N + i holds slot s of row
        i's tubes, at the column ``indices`` (tube-major within each slot)."""
        n, (nnz, t) = self.n, self.vals.shape
        indptr = np.append((self.indptr[:-1] + nnz * np.arange(t)[:, None]).ravel(), t * nnz)
        # A copy even at T = 1, where ravel returns a view: slot_stack drops zeros in place.
        return sparse.csr_array((self.vals.T.flatten(), indices, indptr), shape=(t * n, width))

    def slot_blocks(self) -> sparse.csr_array:
        """Block-diagonal (T*N, T*N) CSR matrix whose block s is slot s."""
        t = self.vals.shape[1]
        return self._slot_rows((self.cols + self.n * np.arange(t)[:, None]).ravel(), t * self.n)

    def slot_stack(self) -> sparse.csr_array:
        """The T slices stacked as one (T*N, N) CSR matrix with no stored
        zeros: row s*N + i is row i of slot s."""
        stack = self._slot_rows(np.tile(self.cols, self.vals.shape[1]), self.n)
        stack.eliminate_zeros()
        return stack


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
    of Â x_3 M, for s < K (K = T//2 + 1 for the DFT, T otherwise).  Only
    layers after the first run on it; the backward runs on ``blocks.T``, a
    view.
    """
    vals = m_transform(tm.m_kept[:, : a.vals.shape[1]], a.vals.T).T
    return replace(a, vals=vals).slot_blocks()


def transform_weight(w: np.ndarray, tm: TransformMatrix) -> np.ndarray:
    """Ŵ, the K kept slices of W x_3 M, time-major (K, F_in, F_out), of a
    real (F_in, F_out, T) weight with T = ``tm.size``."""
    if np.iscomplexobj(w):
        raise ValueError(f"layer input w must be real, got {w.dtype}")
    if w.ndim != 3 or w.shape[2] != tm.size:
        raise DimensionMismatchError(f"weights {w.shape} do not fit a {tm.size}-slot {tm.kind} transform")
    return m_transform(tm.m_kept, w.transpose(2, 0, 1))


def weight_grad(g_wh: np.ndarray, tm: TransformMatrix) -> np.ndarray:
    """dL/dW, (F_in, F_out, T), from the conjugated transform-domain ḡ_Ŵ: Re(m_kept^T ḡ_Ŵ)."""
    return m_transform(tm.m_kept.T, g_wh).real.transpose(1, 2, 0)


def propagate(blocks, x: np.ndarray, tm: TransformMatrix) -> np.ndarray:
    """Q̂ = (Â x_3 M)·X̂ slice by slice, time-major (K, N, F), on ``blocks``
    from ``transformed_blocks``.

    ``x`` is real and time-major, (t, N, F) with t <= T = ``tm.size``; its
    missing slots count as zero, so the first t columns of ``tm.m_kept``
    transform it.  Every slice stack is a free (K * N, F) reshape, so the
    face-wise products are one sparse x dense product.
    """
    if np.iscomplexobj(x):
        raise ValueError(f"layer input x must be real, got {x.dtype}")
    t, n, f = x.shape
    k = tm.kept
    if t > tm.size or blocks.shape != (k * n, k * n):
        raise DimensionMismatchError(f"features {x.shape} and adjacency blocks {blocks.shape} disagree")
    xh = m_transform(tm.m_kept[:, :t], x)
    return (blocks @ xh.reshape(k * n, f)).reshape(k, n, f)


def propagate_grad(blocks, g_q: np.ndarray, tm: TransformMatrix) -> np.ndarray:
    """dL/dX, (T, N, F), from the conjugated ḡ_Q̂ of ``propagate``: Re(m_kept^T Â^T ḡ_Q)."""
    k, n, f = g_q.shape
    return m_transform(tm.m_kept.T, (blocks.T @ g_q.reshape(k * n, f)).reshape(k, n, f)).real


def layer_forward(qh: np.ndarray, wh: np.ndarray, tm: TransformMatrix, activation: str):
    """One layer's transform-domain chain, H = sigma(Re(M^-1 (Q̂ Ŵ))).

    ``qh`` is the (K, N, F_in) product of Â's and the input's kept slices
    and ``wh`` the (K, F_in, F_out) transformed weight, both time-major.
    The first layer passes Ẑ and W̃ (see ``training.forward_model``), the
    others ``propagate`` and ``transform_weight``.  Every transform is one
    GEMM on a (K, N * F) view; the pre-activation is the real part of the
    inverse GEMM on the K kept slices (``tm.m_inv_kept``), kept as a
    C-contiguous float64 array.  H is (T, N, F_out), T = ``tm.size``.
    Returns H and the time-major cache (Q̂, Ŵ, H) that ``layer_backward``
    needs.
    """
    k, n, f_in = qh.shape
    if k != tm.kept or wh.shape[:2] != (k, f_in):
        raise DimensionMismatchError(
            f"{tm.kind} layer: transformed features {qh.shape} and weights {wh.shape} disagree"
        )
    # .real of a complex result is a strided view of twice its bytes; copy it out.
    s = np.ascontiguousarray(m_transform(tm.m_inv_kept, np.matmul(qh, wh)).real)
    if not np.all(np.isfinite(s)):
        raise FloatingPointError(f"non-finite pre-activation in {tm.kind} branch (stage: convolution chain)")
    h = apply_activation(s, activation)
    return h, {"q": qh, "wh": wh, "h": h}


def layer_backward(g_h: np.ndarray, cache: dict, tm: TransformMatrix, activation: str):
    """The conjugated transform-domain gradients (ḡ_Q̂, ḡ_Ŵ) of one layer from dL/dH.

    ``g_h`` is time-major, (t, N, F) with t <= T = ``tm.size``, the gradient
    of H's first t slots (the rest get none).  Only real parts leave the
    complex-linear chain, so it runs on the conjugated gradients, with plain
    transposes: ḡ_P = m_inv_kept^T g_S, ḡ_Q = ḡ_P Ŵ^T and ḡ_Ŵ = Q̂^T ḡ_P.
    ``propagate_grad`` and ``weight_grad`` take them on to dL/dX and dL/dW.
    Conjugation only flips signs, which is exact.
    """
    q, wh = cache["q"], cache["wh"]
    t = len(g_h)
    g_s = g_h * activation_grad(cache["h"][:t], activation)
    g_p = m_transform(tm.m_inv_kept[:t].T, g_s)
    return np.matmul(g_p, wh.transpose(0, 2, 1)), np.matmul(q.transpose(0, 2, 1), g_p)
