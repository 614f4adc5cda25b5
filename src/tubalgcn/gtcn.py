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
that every transform is one ``m_transform`` call on a (T, N * F) view: a GEMM,
or none on the identity branch, whose M is I.  Only the (F_in, F_out, T) weights
and the (nnz_tubes, T) tube values are transposed on their way in and out of a
transform.  Training's two small (T, F) products, Û and g_U, are ``np.matmul``.

Â has one format, the (T * N, N) CSR slot stack: row s * N + i is row i
of slot s, the slot-major order of the time-major activations.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .tensor3 import DimensionMismatchError, m_transform
from .transforms import TransformMatrix

__all__ = [
    "ACTIVATIONS",
    "ADJACENCY_MODES",
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


def apply_activation(s: np.ndarray, activation: str, out: np.ndarray | None = None) -> np.ndarray:
    """sigma(s): sigmoid, ReLU or the identity.

    With ``out`` the result is written into that buffer and returned;
    ``out=s`` overwrites the pre-activation, so the layer holds one array
    where it would hold two.  The bits are those of the out-of-place result
    either way.  Without ``out`` the identity returns ``s`` itself.
    """
    if activation == "sigmoid":
        # 1 / (1 + exp(-s)) one step at a time in one buffer.  Below s = -709,
        # exp(-s) is inf and 1 / (1 + inf) the exact 0.0.
        with np.errstate(over="ignore"):
            h = np.negative(s, out=out)
            np.exp(h, out=h)
        h += 1.0
        return np.divide(1.0, h, out=h)
    if activation == "relu":
        return np.maximum(s, 0.0, out=out)
    if activation == "identity":
        if out is None:
            return s
        np.copyto(out, s)
        return out
    raise ValueError(f"unknown activation {activation!r}")


def activation_grad(h: np.ndarray, activation: str) -> np.ndarray:
    """Derivative of the activation at its output h, as a new array: h (1 - h), [h > 0] or 1."""
    if activation == "sigmoid":
        g = 1.0 - h
        g *= h
        return g
    if activation == "relu":
        return (h > 0).astype(np.float64)
    if activation == "identity":
        return np.ones_like(h)
    raise ValueError(f"unknown activation {activation!r}")


def preprocess_adjacency(raw: sparse.csr_array, mode: str = "sym_normalized") -> sparse.csr_array:
    """Â from the raw (T * N, N) CSR slot stack of ``data.build_adjacency``.

    raw_self_loops: A_t + I per slot.  sym_normalized: D^-1/2 (A_t + I) D^-1/2
    with D the diagonal of row sums of A_t + I.  ``raw`` must be real and
    nonnegative and is left as it is; the result is a new stack of the same
    layout, row s * N + i holding row i of slot s, with no stored zeros.
    """
    if mode not in ADJACENCY_MODES:
        raise ValueError(f"unknown preprocessing mode {mode!r}")
    t_n, n = raw.shape
    if n < 1 or t_n < n or t_n % n:
        raise DimensionMismatchError(f"adjacency must be a (T * N, N) slot stack, got shape {raw.shape}")
    if np.iscomplexobj(raw.data) or np.any(raw.data < 0):
        raise ValueError("adjacency weights must be real and nonnegative")
    eye = sparse.csr_array((np.ones(t_n), np.tile(np.arange(n), t_n // n), np.arange(t_n + 1)), shape=raw.shape)
    # The sum stores no entry that adds up to zero, such as a pair observed
    # only with weight 0; eliminate_zeros below drops a weight that the
    # normalization underflows to zero.
    a = raw + eye
    if mode == "sym_normalized":
        # Row sums per slot.  bincount adds each row's entries in column
        # order, as a dense row sum does; the self-loop keeps every degree >= 1.
        rows = np.repeat(np.arange(t_n), np.diff(a.indptr))
        inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, weights=a.data, minlength=t_n))
        a.data *= inv_sqrt[rows]
        a.data *= inv_sqrt[rows - rows % n + a.indices]
    a.eliminate_zeros()
    return a


def transformed_blocks(a_hat: sparse.csr_array, tms: list[TransformMatrix]) -> list[sparse.csr_array]:
    """The kept slices of Â x_3 M for each M in ``tms``, as one
    block-diagonal CSR matrix per transform.

    A mode-3 transform mixes only along time, so Â x_3 M lives on Â's tube
    support: the (i, j) pairs stored in some slot of the (T * N, N) stack
    ``a_hat``, found once for every transform.  Each tube's T slots are
    transformed by ``tm.m_kept[:, :T]``, which is ``tm.m_kept`` on the tube
    zero-padded to ``tm.size`` slots (the Haar branch runs at the next power
    of two); block s of the result is slice s of Â x_3 M, for s < K
    (K = T//2 + 1 for the DFT, T otherwise), and holds every tube of the
    support.  Only layers after the first run on it; the backward runs on
    ``blocks.T``, a view.
    """
    t_n, n = a_hat.shape
    t = t_n // n
    slot, row = np.divmod(np.repeat(np.arange(t_n), np.diff(a_hat.indptr)), n)
    tubes, tube = np.unique(row * n + a_hat.indices, return_inverse=True)
    nnz = len(tubes)
    vals = np.zeros((nnz, t))
    vals[tube, slot] = a_hat.data
    # Row i of every block holds tubes indptr[i]:indptr[i + 1], sorted by column.
    indptr = np.searchsorted(tubes, n * np.arange(n + 1))
    cols = tubes % n
    out = []
    for tm in tms:
        k = tm.kept
        block_indptr = np.append((indptr[:-1] + nnz * np.arange(k)[:, None]).ravel(), k * nnz)
        block_cols = (cols + n * np.arange(k)[:, None]).ravel()
        block_vals = m_transform(tm.m_kept[:, :t], vals.T).ravel()
        out.append(sparse.csr_array((block_vals, block_cols, block_indptr), shape=(k * n, k * n)))
    return out


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
    """Q̂ = (Â x_3 M)·X̂ slice by slice, time-major (K, N, F), on a
    ``blocks`` matrix from ``transformed_blocks``.

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
    """dL/dX, (T, N, F), from the conjugated ḡ_Q̂ of ``propagate``: Re(m_kept^T Â^T ḡ_Q),
    copied out as a C-contiguous array so that no complex product outlives the call."""
    k, n, f = g_q.shape
    return np.ascontiguousarray(m_transform(tm.m_kept.T, (blocks.T @ g_q.reshape(k * n, f)).reshape(k, n, f)).real)


def layer_forward(qh: np.ndarray, wh: np.ndarray, tm: TransformMatrix, activation: str):
    """One layer's transform-domain chain, H = sigma(Re(M^-1 (Q̂ Ŵ))).

    ``qh`` is the (K, N, F_in) product of Â's and the input's kept slices
    and ``wh`` the (K, F_in, F_out) transformed weight, both time-major.
    The first layer passes Ẑ and W̃ (see ``training.forward_model``), the
    others ``propagate`` and ``transform_weight``.  Every transform is one
    GEMM on a (K, N * F) view; the pre-activation is the real part of the
    inverse GEMM on the K kept slices (``tm.m_inv_kept``), kept as a
    C-contiguous float64 array, and the activation overwrites it in place:
    H is that array, (T, N, F_out), T = ``tm.size``.  The product Q̂ Ŵ and
    a complex inverse live only while the pre-activation is formed.
    Returns H and the time-major cache (Q̂, Ŵ, H) that ``layer_backward``
    needs; the cache holds ``qh`` and ``wh`` themselves, not copies.
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
    h = apply_activation(s, activation, out=s)
    return h, {"q": qh, "wh": wh, "h": h}


def layer_backward(g_h: np.ndarray, cache: dict, tm: TransformMatrix, activation: str):
    """The conjugated transform-domain gradients (ḡ_Q̂, ḡ_Ŵ) of one layer from dL/dH.

    ``g_h`` is time-major, (t, N, F) with t <= T = ``tm.size``, the gradient
    of H's first t slots (the rest get none).  Only real parts leave the
    complex-linear chain, so it runs on the conjugated gradients, with plain
    transposes: ḡ_P = m_inv_kept^T g_S, ḡ_Q = ḡ_P Ŵ^T and ḡ_Ŵ = Q̂^T ḡ_P.
    ``propagate_grad`` and ``weight_grad`` take them on to dL/dX and dL/dW.
    Conjugation only flips signs, which is exact.

    The cache is read, never changed, so it can be run again.  A caller that
    hands over its last reference to the cache (``compute_gradients`` pops
    it from its list) frees H as soon as the activation's derivative is
    formed and Q̂ as soon as ḡ_Ŵ is; g_S, the derivative times ``g_h``, lives
    only until ḡ_P is formed.
    """
    q, wh, h = cache["q"], cache["wh"], cache["h"]
    del cache  # the dict was the caller's last hold on H and Q̂, if it let go
    t = len(g_h)
    g_s = activation_grad(h[:t], activation)
    del h
    g_s *= g_h
    g_p = m_transform(tm.m_inv_kept[:t].T, g_s)
    del g_s
    g_wh = np.matmul(q.transpose(0, 2, 1), g_p)
    del q
    return np.matmul(g_p, wh.transpose(0, 2, 1)), g_wh
