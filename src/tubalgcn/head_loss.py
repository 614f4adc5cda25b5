"""Link-weight regression head, training objective, and error metrics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "predict",
    "loss",
    "params_l2_norm",
    "mae",
    "rmse",
]


def predict(h: np.ndarray, r: np.ndarray, t_idx, i_idx, j_idx):
    """y_hat = [h_i^t || h_j^t] . r for every link (t one-based).

    ``h`` is the time-major (T, N, F) representation tensor.  The head is
    linear, so every (slot, node) row of ``h`` is scored once per half of
    the head by one (T * N, F) @ (F, 2) GEMM, and a link adds two gathered
    scalars.  Rows are slot-major: node i at slot t is row
    ``(t - 1) * N + i``.  Returns y_hat and (rows_i, rows_j), the row
    numbers of the two endpoints, which the backward pass accumulates onto.
    """
    t, n, f = h.shape
    if r.shape != (2 * f,):
        raise ValueError(f"head length {r.shape} != 2*F_out = {2 * f}")
    if len(t_idx) and (
        min(t_idx.min() - 1, i_idx.min(), j_idx.min()) < 0
        or t_idx.max() > t
        or max(i_idx.max(), j_idx.max()) >= n
    ):
        raise IndexError(f"link indices out of range for representation {h.shape}")
    rows_i = (t_idx - 1) * n + i_idx
    rows_j = (t_idx - 1) * n + j_idx
    s_i, s_j = r.reshape(2, f) @ h.reshape(t * n, f).T
    return s_i[rows_i] + s_j[rows_j], (rows_i, rows_j)


def params_l2_norm(param_arrays) -> float:
    """L2 norm of all learnable scalars flattened into one vector."""
    total = 0.0
    for a in param_arrays:
        total += float(np.sum(np.asarray(a) ** 2))
    return float(np.sqrt(total))


def loss(y, y_hat, param_arrays=(), kappa: float = 0.0) -> float:
    """Sum of squared residuals over the training entries plus kappa * ||Theta||_2.

    The regularizer is the plain (not squared) L2 norm of the flattened
    parameter vector.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    data_term = float(np.sum((y - y_hat) ** 2))
    if kappa != 0.0:
        return data_term + kappa * params_l2_norm(param_arrays)
    return data_term


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
