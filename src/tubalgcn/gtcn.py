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
    "EnsembleWeights",
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


def preprocess_adjacency(raw, mode: str = "sym_normalized") -> AdjacencyTensor:
    """Add self-loops per slice, optionally symmetrically normalized.

    raw_self_loops: A^t + I.  sym_normalized: D^-1/2 (A^t + I) D^-1/2 with
    D the diagonal of row sums of A^t + I.
    """
    a = as_tensor3(raw)
    n, n2, t = a.shape
    if n != n2:
        raise DimensionMismatchError(f"adjacency must be square per slice, got {a.shape}")
    if np.iscomplexobj(a) or np.any(a < 0):
        raise ValueError("adjacency weights must be real and nonnegative")
    if mode not in ("raw_self_loops", "sym_normalized"):
        raise ValueError(f"unknown preprocessing mode {mode!r}")
    a_hat = a + np.eye(n)[:, :, None]  # a new array, scaled in place below; raw is untouched
    if mode == "sym_normalized":
        deg = a_hat.sum(axis=1)  # (N, T) row sums per slice
        inv_sqrt = 1.0 / np.sqrt(deg)
        a_hat *= inv_sqrt[:, None, :]
        a_hat *= inv_sqrt[None, :, :]
    return AdjacencyTensor(a_hat, mode)


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
