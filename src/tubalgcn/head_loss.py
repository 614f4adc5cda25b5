"""Link-weight regression head, training objective, and error metrics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "head_scores",
    "predict",
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


def predict(scores: np.ndarray, t_idx, i_idx, j_idx) -> np.ndarray:
    """y_hat = [h_i^t || h_j^t] . r for every link (t one-based), gathered
    from the ``head_scores`` of h and r: two scalars per link."""
    _, t, n = scores.shape
    if len(t_idx) and (
        min(t_idx.min() - 1, i_idx.min(), j_idx.min()) < 0
        or t_idx.max() > t
        or max(i_idx.max(), j_idx.max()) >= n
    ):
        raise IndexError(f"link indices out of range for {t} slots and {n} nodes")
    s_i, s_j = scores.reshape(2, t * n)
    return s_i[(t_idx - 1) * n + i_idx] + s_j[(t_idx - 1) * n + j_idx]


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
