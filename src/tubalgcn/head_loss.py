"""Link-weight regression head, training objective, and error metrics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "head_scores",
    "link_rows",
    "predict",
    "head_backward",
    "loss",
    "params_l2_norm",
    "mae",
    "rmse",
]


def head_scores(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (2, T, N) scores ``[h_i^t . r[:F], h_j^t . r[F:]]`` of every (slot, node) row
    of the time-major (T, N, F) representation h: one (T * N, F) @ (F, 2) GEMM,
    from which ``predict`` gathers any set of links."""
    t, n, f = h.shape
    if r.shape != (2 * f,):
        raise ValueError(f"head length {r.shape} != 2*F_out = {2 * f}")
    return (r.reshape(2, f) @ h.reshape(t * n, f).T).reshape(2, t, n)


def link_rows(t_idx, i_idx, j_idx, n_slots: int, n_nodes: int) -> np.ndarray:
    """The (2, L) slot-major rows (t - 1) * N + i and (t - 1) * N + j of
    the L links' endpoints (t one-based) in a (T, N) score or
    representation; IndexError if a link falls outside T slots and N nodes.

    Made once per set of links, where its batch is built, for ``predict``
    and ``head_backward`` to read every epoch.
    """
    if len(t_idx) and (
        min(t_idx.min() - 1, i_idx.min(), j_idx.min()) < 0
        or t_idx.max() > n_slots
        or max(i_idx.max(), j_idx.max()) >= n_nodes
    ):
        raise IndexError(f"link indices out of range for {n_slots} slots and {n_nodes} nodes")
    base = (t_idx - 1) * n_nodes
    return np.stack([base + i_idx, base + j_idx])


def predict(scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """y_hat = [h_i^t || h_j^t] . r for every link, gathered from the
    ``head_scores`` of h and r at the links' ``link_rows``: two scalars per link."""
    s_i, s_j = scores.reshape(2, -1)
    return s_i[rows[0]] + s_j[rows[1]]


def head_backward(h: np.ndarray, r: np.ndarray, g_yhat: np.ndarray, rows: np.ndarray):
    """(dL/dh, dL/dr) from dL/dy_hat, the backward pass of ``predict`` on ``head_scores``.

    The residual gradient is summed onto each endpoint's (slot, node) row of
    the time-major (T, N, F) h, at the links' ``link_rows``, with one
    ``bincount`` per endpoint, giving the (T * N, 2) matrix c of (c_i, c_j);
    then g_h = c [r[:F]; r[F:]] and g_r = h^T c, as a (2, F) array.
    """
    t, n, f = h.shape
    c = np.stack([np.bincount(k, weights=g_yhat, minlength=t * n) for k in rows], axis=1)
    return (c @ r.reshape(2, f)).reshape(h.shape), (h.reshape(-1, f).T @ c).T


def params_l2_norm(param_arrays) -> float:
    """L2 norm of all learnable scalars flattened into one vector, summed array by array."""
    total = 0.0
    for a in param_arrays:
        total += float(np.sum(np.asarray(a) ** 2))
    return float(np.sqrt(total))


def loss(y, y_hat, norm: float = 0.0, kappa: float = 0.0) -> float:
    """Sum of squared residuals over the training entries plus kappa * norm.

    ``norm`` is the plain (not squared) L2 norm of the flattened parameter
    vector, as ``params_l2_norm`` gives it.
    """
    data_term = float(np.sum((np.asarray(y, dtype=np.float64) - np.asarray(y_hat, dtype=np.float64)) ** 2))
    return data_term + kappa * norm if kappa != 0.0 else data_term


def mae(y, y_hat) -> float:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.size == 0:
        raise ValueError("MAE requires at least one observation")
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y, y_hat) -> float:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.size == 0:
        raise ValueError("RMSE requires at least one observation")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))
