"""The message-passing oracle: an entrywise nested-loop reference for the
graph tensor convolution layer, in the (N, F, T) layout of the tensor
algebra.  The layer tests compare ``gtcn.layer_forward`` against it.

It runs on a dense (N, N, T) Â made here, from the train rows and the
textbook formula, independently of the package's sparse preprocessing;
``slot_stack`` and ``unstack`` convert between that layout and the
(T * N, N) CSR slot stack the package runs on.
"""

import numpy as np
from scipy import sparse

from tubalgcn.gtcn import apply_activation
from tubalgcn.tensor3 import DimensionMismatchError
from tubalgcn.transforms import TransformMatrix


def dense_adjacency(ds) -> np.ndarray:
    """The (N, N, T) adjacency of the train rows of ``ds``."""
    a = np.zeros((ds.n_nodes, ds.n_nodes, ds.n_slots))
    k = ds.train_idx
    a[ds.i[k], ds.j[k], ds.t[k] - 1] = ds.y[k]
    return a


def dense_a_hat(raw: np.ndarray, mode: str = "sym_normalized") -> np.ndarray:
    """A + I per slice; for sym_normalized then D^-1/2 (A + I) D^-1/2, D the row sums of A + I."""
    a = raw + np.eye(raw.shape[0])[:, :, None]
    if mode == "sym_normalized":
        inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        a = a * inv_sqrt[:, None, :] * inv_sqrt[None, :, :]
    return a


def slot_stack(a: np.ndarray) -> sparse.csr_array:
    """A dense (N, N, T) adjacency as a (T * N, N) CSR slot stack: row s * N + i is row i of slot s."""
    n, _, t = a.shape
    return sparse.csr_array(a.transpose(2, 0, 1).reshape(t * n, n))


def unstack(stack) -> np.ndarray:
    """The dense (N, N, T) adjacency of a (T * N, N) slot stack."""
    t_n, n = stack.shape
    return stack.toarray().reshape(t_n // n, n, n).transpose(1, 2, 0)


def message_passing_oracle(a, x, w, m: TransformMatrix, activation: str = "sigmoid") -> np.ndarray:
    """Entrywise nested-loop evaluation of the layer, for testing only.

    ``a`` is the dense (N, N, T) preprocessed adjacency.  Expands the
    M-product chain node by node: temporal mixing of every adjacency entry
    and feature vector through the transform matrix, per-slice aggregation
    over the (self-loop augmented) neighborhood, feature mixing by the
    transformed weight slices, then the inverse transform and the
    activation.  Quadratic loops; small instances only.
    """
    a, x, w = (np.asarray(v, dtype=np.float64) for v in (a, x, w))
    if a.ndim != 3 or x.ndim != 3 or w.ndim != 3:
        raise DimensionMismatchError(f"expected third-order a, x and w, got ndim {a.ndim}, {x.ndim}, {w.ndim}")
    n, n2, t = a.shape
    if n2 != n or x.shape[0] != n or x.shape[2] != t:
        raise DimensionMismatchError(f"features {x.shape} incompatible with adjacency {a.shape}")
    if w.shape[0] != x.shape[1] or w.shape[2] != t or m.size != t:
        raise DimensionMismatchError(f"weights {w.shape} or transform size {m.size} incompatible with {x.shape}")
    f_in, f_out, _ = w.shape
    mm = m.m
    mi = m.m_inv
    dtype = np.complex128 if np.iscomplexobj(mm) else np.float64

    # Temporal mixing of adjacency entries and feature vectors.
    ah = np.zeros((n, n, t), dtype=dtype)
    xh = np.zeros((n, f_in, t), dtype=dtype)
    wh = np.zeros((f_in, f_out, t), dtype=dtype)
    for s in range(t):
        for k in range(t):
            ah[:, :, s] += mm[s, k] * a[:, :, k]
            xh[:, :, s] += mm[s, k] * x[:, :, k]
            wh[:, :, s] += mm[s, k] * w[:, :, k]

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
    return apply_activation(out, activation)
