"""Graph tensor convolution layer, its message-passing oracle, adjacency
preprocessing, and the diversified-transform ensemble.

The layer computes H = sigma(A * X * W) where * is the M-product.  The
chain is evaluated in the transform domain once: hat all three operands,
multiply slices, apply the inverse transform, take the real part, then
the activation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .tensor3 import (
    DimensionMismatchError,
    as_tensor3,
    facewise_product,
    m_transform,
)
from .transforms import TransformMatrix

__all__ = [
    "ACTIVATIONS",
    "GtcnLayerParams",
    "AdjacencyTensor",
    "TubeAdjacency",
    "EnsembleWeights",
    "preprocess_tubes",
    "preprocess_adjacency",
    "gtcn_forward",
    "message_passing_oracle",
    "ensemble_combine",
    "apply_activation",
    "activation_grad",
]

ACTIVATIONS = ("sigmoid", "relu", "identity")

PRE_ACTIVATION_IMAG_TOL = 1e-8


def apply_activation(s: np.ndarray, activation: str) -> np.ndarray:
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-s))
    if activation == "relu":
        return np.maximum(s, 0.0)
    if activation == "identity":
        return s
    raise ValueError(f"unknown activation {activation!r}")


def activation_grad(s: np.ndarray, activation: str) -> np.ndarray:
    """Derivative of the activation evaluated at pre-activation s."""
    if activation == "sigmoid":
        sig = 1.0 / (1.0 + np.exp(-s))
        return sig * (1.0 - sig)
    if activation == "relu":
        return (s > 0).astype(np.float64)
    if activation == "identity":
        return np.ones_like(s)
    raise ValueError(f"unknown activation {activation!r}")


@dataclass(frozen=True)
class GtcnLayerParams:
    """Learnable weight tensor W of shape (F_in, F_out, T) plus activation."""

    w: np.ndarray
    activation: str = "sigmoid"

    def __post_init__(self):
        w = as_tensor3(self.w)
        if not np.all(np.isfinite(w)):
            raise ValueError("weight tensor contains non-finite entries")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class AdjacencyTensor:
    """Preprocessed adjacency tensor of shape (N, N, T)."""

    a: np.ndarray
    preprocessing: str


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
    if mode not in ("raw_self_loops", "sym_normalized"):
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


def preprocess_adjacency(raw, mode: str = "sym_normalized") -> AdjacencyTensor:
    """Dense form of ``preprocess_tubes``; ``raw`` is an (N, N, T) array."""
    a = as_tensor3(raw)
    n, n2, t = a.shape
    if n != n2:
        raise DimensionMismatchError(f"adjacency must be square per slice, got {a.shape}")
    if np.iscomplexobj(a) or np.any(a < 0):
        raise ValueError("adjacency weights must be real and nonnegative")
    return AdjacencyTensor(preprocess_tubes(TubeAdjacency.from_dense(a), mode).to_dense(), mode)


def _check_forward_dims(a: np.ndarray, x: np.ndarray, w: np.ndarray, m: TransformMatrix):
    n, n2, t = a.shape
    if x.shape[0] != n or x.shape[2] != t:
        raise DimensionMismatchError(f"features {x.shape} incompatible with adjacency {a.shape}")
    if w.shape[0] != x.shape[1] or w.shape[2] != t:
        raise DimensionMismatchError(f"weights {w.shape} incompatible with features {x.shape}")
    if m.size != t:
        raise DimensionMismatchError(f"transform size {m.size} != T={t}")


def gtcn_forward(
    a: AdjacencyTensor, x, p: GtcnLayerParams, m: TransformMatrix
) -> np.ndarray:
    """One convolution layer: sigma(A * X * W) with * the M-product."""
    x = as_tensor3(x)
    _check_forward_dims(a.a, x, p.w, m)
    ah = m_transform(a.a, m.m)
    xh = m_transform(x, m.m)
    wh = m_transform(p.w, m.m)
    ph = facewise_product(facewise_product(ah, xh), wh)
    z = m_transform(ph, m.m_inv)
    if np.iscomplexobj(z):
        residue = np.max(np.abs(z.imag))
        if residue > PRE_ACTIVATION_IMAG_TOL:
            raise ValueError(
                f"pre-activation imaginary residue {residue:.3e} exceeds "
                f"{PRE_ACTIVATION_IMAG_TOL:.0e} (stage: inverse transform)"
            )
        z = np.ascontiguousarray(z.real)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite pre-activation values (stage: convolution chain)")
    return apply_activation(z, p.activation)


def message_passing_oracle(
    a: AdjacencyTensor, x, p: GtcnLayerParams, m: TransformMatrix
) -> np.ndarray:
    """Entrywise nested-loop evaluation of the layer, for testing only.

    Expands the M-product chain node by node: temporal mixing of every
    adjacency entry and feature vector through the transform matrix,
    per-slice aggregation over the (self-loop augmented) neighborhood,
    feature mixing by the transformed weight slices, then the inverse
    transform and the activation.  Quadratic loops; small instances only.
    """
    x = as_tensor3(x)
    _check_forward_dims(a.a, x, p.w, m)
    n = a.a.shape[0]
    f_in, f_out, t = p.w.shape
    mm = m.m
    mi = m.m_inv
    dtype = np.complex128 if np.iscomplexobj(mm) else np.float64

    # Temporal mixing of adjacency entries and feature vectors.
    ah = np.zeros((n, n, t), dtype=dtype)
    xh = np.zeros((n, f_in, t), dtype=dtype)
    wh = np.zeros((f_in, f_out, t), dtype=dtype)
    for s in range(t):
        for k in range(t):
            ah[:, :, s] += mm[s, k] * a.a[:, :, k]
            xh[:, :, s] += mm[s, k] * x[:, :, k]
            wh[:, :, s] += mm[s, k] * p.w[:, :, k]

    h = np.zeros((n, f_out, t), dtype=dtype)
    for i in range(n):
        for s in range(t):
            # Aggregate messages over neighbors plus the self-loop.
            c = np.zeros(f_in, dtype=dtype)
            for j in range(n):
                c += ah[i, j, s] * xh[j, :, s]
            h[i, :, s] = c @ wh[:, :, s]
    # Inverse temporal transform.
    out = np.zeros((n, f_out, t), dtype=dtype)
    for s in range(t):
        for k in range(t):
            out[:, :, s] += mi[s, k] * h[:, :, k]
    if np.iscomplexobj(out):
        out = out.real.copy()
    return apply_activation(out, p.activation)


@dataclass(frozen=True)
class EnsembleWeights:
    """Convex weights for the three transform branches."""

    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    chi: float = 1.0 / 3.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.chi < 0:
            raise ValueError("ensemble weights must be nonnegative")
        total = self.alpha + self.beta + self.chi
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights must sum to 1, got {total}")


def ensemble_combine(h_dft, h_dct, h_haar, w: EnsembleWeights) -> np.ndarray:
    """Weighted sum of the three branch representation tensors."""
    h_dft = as_tensor3(h_dft)
    h_dct = as_tensor3(h_dct)
    h_haar = as_tensor3(h_haar)
    if not (h_dft.shape == h_dct.shape == h_haar.shape):
        raise DimensionMismatchError(
            f"branch shapes differ: {h_dft.shape}, {h_dct.shape}, {h_haar.shape}"
        )
    return w.alpha * h_dft + w.beta * h_dct + w.chi * h_haar
