"""Model assembly, analytic gradients, Adam, early stopping, grad check.

The model: node features are a learnable embedding matrix E broadcast
across time, pushed through a stack of graph tensor convolution layers
(one weight tensor per layer per transform branch), combined across
branches when the ensemble is selected, and read out by the regression
head.  Everything is trained full-batch with Adam on the squared-error
objective plus an L2-norm regularizer.

Gradients are derived by hand: every stage is (complex-)linear except the
activation, so backprop is the adjoint transform (conjugate transpose
along mode 3) and per-slice transposed matrix products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import DynamicGraphDataset, build_adjacency
from .gtcn import (
    EnsembleWeights,
    activation_grad,
    apply_activation,
    preprocess_adjacency,
)
from .head_loss import params_l2_norm
from .tensor3 import m_transform
from .transforms import TransformMatrix, build_transform, next_power_of_two

__all__ = [
    "TrainConfig",
    "ModelParams",
    "ModelAux",
    "EarlyStopping",
    "AdamState",
    "init_params",
    "build_aux",
    "forward_model",
    "compute_gradients",
    "adam_step",
    "train",
    "evaluate",
    "grad_check",
    "model_from_named",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1

TRANSFORM_CHOICES = ("identity", "dft", "dct", "haar", "ensemble")


@dataclass(frozen=True)
class TrainConfig:
    embedding_dim: int = 20
    learning_rate: float = 0.01
    kappa: float = 1e-4
    max_epochs: int = 1000
    patience: int = 10
    seed: int = 0
    activation: str = "sigmoid"
    adjacency_mode: str = "sym_normalized"
    transform: str = "ensemble"
    n_layers: int = 1
    squared_reg: bool = False
    split_seed: int = 0

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.transform not in TRANSFORM_CHOICES:
            raise ValueError(f"transform must be one of {TRANSFORM_CHOICES}")

    def branch_kinds(self):
        if self.transform == "ensemble":
            return ("dft", "dct", "haar")
        return (self.transform,)


@dataclass
class ModelParams:
    """All learnable arrays: per-branch layer weights, embeddings, head.

    Node features are E[n, :] * (1 + U[t, :]): a static per-node
    embedding modulated by a per-slot temporal embedding shared across
    nodes.  A purely static broadcast of E would be annihilated beyond
    the DC row by every transform here (their non-constant rows sum to
    zero), leaving the branches blind to temporal structure; the
    multiplicative modulation puts the node-resolved embeddings into
    every frequency.
    """

    branch_ws: dict  # kind -> list of (F, F, T_branch) arrays
    e: np.ndarray  # (N, F)
    u: np.ndarray  # (T, F)
    r: np.ndarray  # (2F,)
    ensemble: EnsembleWeights = field(default_factory=EnsembleWeights)

    def flatten(self) -> dict:
        """Name every learnable array for the optimizer and checkpoints."""
        out = {}
        for kind, ws in self.branch_ws.items():
            for layer, w in enumerate(ws):
                out[f"w:{kind}:{layer}"] = w
        out["e"] = self.e
        out["u"] = self.u
        out["r"] = self.r
        return out

    def assign(self, named: dict):
        for kind, ws in self.branch_ws.items():
            for layer in range(len(ws)):
                ws[layer] = named[f"w:{kind}:{layer}"]
        self.e = named["e"]
        self.u = named["u"]
        self.r = named["r"]


@dataclass
class ModelAux:
    """Per-dataset fixed quantities: transforms and pre-transformed adjacency."""

    n_nodes: int
    n_slots: int
    transforms: dict  # kind -> TransformMatrix (built at branch T)
    a_hat_transformed: dict  # kind -> preprocessed (padded for haar) adjacency x_3 M
    a_hat_transformed_conj: dict  # kind -> conjugate of the above, cached
    branch_weights: dict  # kind -> ensemble weight


def _branch_slots(kind: str, t: int) -> int:
    return next_power_of_two(t) if kind == "haar" else t


def init_params(ds: DynamicGraphDataset, config: TrainConfig, seed=None) -> ModelParams:
    """Glorot-uniform initialization, deterministic given the seed."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    f = config.embedding_dim
    branch_ws = {}
    for kind in config.branch_kinds():
        t_b = _branch_slots(kind, ds.n_slots)
        bound = np.sqrt(6.0 / (f + f))
        branch_ws[kind] = [
            rng.uniform(-bound, bound, size=(f, f, t_b)) for _ in range(config.n_layers)
        ]
    e_bound = np.sqrt(6.0 / (ds.n_nodes + f))
    e = rng.uniform(-e_bound, e_bound, size=(ds.n_nodes, f))
    u_bound = np.sqrt(6.0 / (ds.n_slots + f))
    u = rng.uniform(-u_bound, u_bound, size=(ds.n_slots, f))
    r_bound = np.sqrt(6.0 / (2 * f + 1))
    r = rng.uniform(-r_bound, r_bound, size=2 * f)
    return ModelParams(branch_ws, e, u, r)


def build_aux(ds: DynamicGraphDataset, config: TrainConfig) -> ModelAux:
    """Preprocess the adjacency once per branch (padded for haar)."""
    raw = build_adjacency(ds)
    a_hat_base = preprocess_adjacency(raw, config.adjacency_mode).a
    kinds = config.branch_kinds()
    if config.transform == "ensemble":
        w = EnsembleWeights()
        branch_weights = {"dft": w.alpha, "dct": w.beta, "haar": w.chi}
    else:
        branch_weights = {kinds[0]: 1.0}
    transforms = {}
    a_hat_t = {}
    for kind in kinds:
        t_b = _branch_slots(kind, ds.n_slots)
        tm = build_transform(kind, t_b)
        padded = a_hat_base
        if t_b != ds.n_slots:
            padded = np.zeros((ds.n_nodes, ds.n_nodes, t_b))
            padded[:, :, : ds.n_slots] = a_hat_base
        transforms[kind] = tm
        a_hat_t[kind] = m_transform(padded, tm.m)
    # conj() of a real array is the array itself, so only DFT pays for a copy.
    a_hat_t_conj = {k: v.conj() for k, v in a_hat_t.items()}
    return ModelAux(ds.n_nodes, ds.n_slots, transforms, a_hat_t, a_hat_t_conj, branch_weights)


def _forward_branch(kind: str, model: ModelParams, aux: ModelAux, activation: str):
    """Run the layer stack for one branch, keeping backprop caches."""
    tm = aux.transforms[kind]
    ah = aux.a_hat_transformed[kind]
    t_b = ah.shape[2]
    n, f = model.e.shape
    x = np.zeros((n, f, t_b))
    x[:, :, : aux.n_slots] = model.e[:, :, None] * (1.0 + model.u.T[None, :, :])
    caches = []
    for w in model.branch_ws[kind]:
        xh = m_transform(x, tm.m)
        wh = m_transform(w, tm.m)
        # matmul over time-stacked slices hits BLAS; einsum would not
        q = np.matmul(ah.transpose(2, 0, 1), xh.transpose(2, 0, 1)).transpose(1, 2, 0)
        p = np.matmul(q.transpose(2, 0, 1), wh.transpose(2, 0, 1)).transpose(1, 2, 0)
        z = m_transform(p, tm.m_inv)
        s = z.real.copy() if np.iscomplexobj(z) else z
        if not np.all(np.isfinite(s)):
            raise FloatingPointError(f"non-finite pre-activation in {kind} branch")
        h = apply_activation(s, activation)
        caches.append({"q": q, "wh": wh, "s": s})
        x = h
    return x, caches


def forward_model(model: ModelParams, aux: ModelAux, activation: str):
    """Representation tensor (N, F, T) plus per-branch caches."""
    branch_h = {}
    branch_caches = {}
    for kind in aux.transforms:
        h_full, caches = _forward_branch(kind, model, aux, activation)
        branch_h[kind] = h_full
        branch_caches[kind] = caches
    n, f = model.e.shape
    h = np.zeros((n, f, aux.n_slots))
    for kind, h_full in branch_h.items():
        h += aux.branch_weights[kind] * h_full[:, :, : aux.n_slots]
    return h, branch_caches


def _flatten_time_major(h: np.ndarray) -> np.ndarray:
    """(N, F, T) -> (N*T, F) so per-observation rows gather contiguously."""
    n, f, t = h.shape
    return np.ascontiguousarray(h.transpose(0, 2, 1)).reshape(n * t, f)


def _predict(h: np.ndarray, r: np.ndarray, t_idx, i_idx, j_idx) -> np.ndarray:
    f = h.shape[1]
    return h[i_idx, :, t_idx - 1] @ r[:f] + h[j_idx, :, t_idx - 1] @ r[f:]


def compute_gradients(model: ModelParams, aux: ModelAux, batch, config: TrainConfig):
    """Loss and exact analytic gradients over the training batch.

    ``batch`` is the tuple (t_idx, i_idx, j_idx, y) of aligned arrays with
    one-based time indices.  Returns (loss_value, gradients, h, y_hat): the
    gradient dict is keyed like ``ModelParams.flatten``, h is the
    representation tensor and y_hat the batch predictions.
    """
    t_idx, i_idx, j_idx, y = batch
    h, branch_caches = forward_model(model, aux, config.activation)
    n, f = model.e.shape
    t_n = aux.n_slots
    r = model.r
    h_rows = _flatten_time_major(h)
    flat_i = i_idx * t_n + (t_idx - 1)
    flat_j = j_idx * t_n + (t_idx - 1)
    hi = h_rows[flat_i]
    hj = h_rows[flat_j]
    y_hat = hi @ r[:f] + hj @ r[f:]
    residual = y_hat - y
    data_loss = float(np.sum(residual**2))

    g_yhat = 2.0 * residual
    g_r = np.concatenate([hi.T @ g_yhat, hj.T @ g_yhat])

    # Scatter the head gradient back onto (node, slot) rows; bincount per
    # feature beats np.add.at by a wide margin at this size.
    flat_all = np.concatenate([flat_i, flat_j])
    g_h_rows = np.empty((n * t_n, f))
    for k in range(f):
        w_all = np.concatenate([g_yhat * r[k], g_yhat * r[f + k]])
        g_h_rows[:, k] = np.bincount(flat_all, weights=w_all, minlength=n * t_n)
    g_h = np.ascontiguousarray(g_h_rows.reshape(n, t_n, f).transpose(0, 2, 1))

    grads = {"r": g_r, "e": np.zeros_like(model.e), "u": np.zeros_like(model.u)}
    for kind, caches in branch_caches.items():
        tm = aux.transforms[kind]
        ah = aux.a_hat_transformed[kind]
        ah_conj = aux.a_hat_transformed_conj[kind]
        t_b = ah.shape[2]
        m_adj = tm.m.conj().T
        m_inv_adj = tm.m_inv.conj().T
        g_x = np.zeros((n, f, t_b))
        g_x[:, :, : aux.n_slots] = aux.branch_weights[kind] * g_h
        for layer in reversed(range(len(caches))):
            cache = caches[layer]
            g_s = g_x * activation_grad(cache["s"], config.activation)
            g_p = m_transform(g_s, m_inv_adj)
            wh = cache["wh"]
            q = cache["q"]
            g_pt = g_p.transpose(2, 0, 1)
            g_q = np.matmul(g_pt, wh.conj().transpose(2, 1, 0)).transpose(1, 2, 0)
            g_wh = np.matmul(q.conj().transpose(2, 1, 0), g_pt).transpose(1, 2, 0)
            g_w = m_transform(g_wh, m_adj)
            grads[f"w:{kind}:{layer}"] = g_w.real.copy() if np.iscomplexobj(g_w) else g_w
            g_xh = np.matmul(ah_conj.transpose(2, 1, 0), g_q.transpose(2, 0, 1)).transpose(1, 2, 0)
            g_x = m_transform(g_xh, m_adj)
            g_x = g_x.real.copy() if np.iscomplexobj(g_x) else g_x
        g_x_obs = g_x[:, :, : aux.n_slots]
        grads["e"] += (g_x_obs * (1.0 + model.u.T[None, :, :])).sum(axis=2)
        grads["u"] += np.einsum("nft,nf->tf", g_x_obs, model.e)

    named = model.flatten()
    total = data_loss
    if config.kappa != 0.0:
        norm = params_l2_norm(named.values())
        if config.squared_reg:
            total += config.kappa * norm**2
            for key, arr in named.items():
                grads[key] = grads[key] + 2.0 * config.kappa * arr
        else:
            total += config.kappa * norm
            if norm > 0:
                for key, arr in named.items():
                    grads[key] = grads[key] + config.kappa * arr / norm
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {key}")
    return total, grads, h, y_hat


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, named: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in named.items()},
            v={k: np.zeros_like(a) for k, a in named.items()},
        )


def adam_step(
    named: dict,
    grads: dict,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> dict:
    """Standard Adam with bias correction; returns updated parameter dict."""
    state.step += 1
    t = state.step
    out = {}
    for key, theta in named.items():
        g = grads[key]
        state.m[key] = beta1 * state.m[key] + (1 - beta1) * g
        state.v[key] = beta2 * state.v[key] + (1 - beta2) * g**2
        m_hat = state.m[key] / (1 - beta1**t)
        v_hat = state.v[key] / (1 - beta2**t)
        out[key] = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


class EarlyStopping:
    """Stop after `patience` consecutive epochs of rising validation error.

    Rises are counted against the previous epoch's value; the best value
    and its epoch are tracked for checkpoint selection.
    """

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.prev = None
        self.consecutive_rises = 0
        self.best = np.inf
        self.best_epoch = -1

    def update(self, value: float, epoch: int) -> bool:
        """Record one epoch's validation error; True means stop now."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
        if self.prev is not None and value > self.prev:
            self.consecutive_rises += 1
        else:
            self.consecutive_rises = 0
        self.prev = value
        return self.consecutive_rises >= self.patience


def train(aux: ModelAux, ds: DynamicGraphDataset, config: TrainConfig):
    """Full-batch Adam training with early stopping on validation MAE.

    ``aux`` is ``build_aux(ds, config)``.  Returns (best ModelParams,
    history) where history is a list of dicts with epoch, train_loss,
    train_mae, val_mae.  The returned parameters are those of the best
    validation epoch.
    """
    if not ds.has_splits:
        raise ValueError("dataset must carry train/val/test splits")
    model = init_params(ds, config)
    train_batch = ds.subset_arrays(ds.train_idx)
    val_t, val_i, val_j, val_y = ds.subset_arrays(ds.val_idx)

    named = model.flatten()
    state = AdamState.for_params(named)
    stopper = EarlyStopping(config.patience)
    history = []
    best_named = None
    for epoch in range(1, config.max_epochs + 1):
        loss_value, grads, h, train_pred = compute_gradients(model, aux, train_batch, config)
        if not np.isfinite(loss_value):
            raise FloatingPointError(f"training diverged at epoch {epoch} (loss={loss_value})")
        # Train and validation error at the current parameters (pre-update).
        train_mae = float(np.mean(np.abs(train_pred - train_batch[3])))
        val_pred = _predict(h, model.r, val_t, val_i, val_j)
        val_mae = float(np.mean(np.abs(val_pred - val_y)))
        history.append(
            {"epoch": epoch, "train_loss": loss_value, "train_mae": train_mae, "val_mae": val_mae}
        )
        if val_mae <= stopper.best:
            best_named = {k: a.copy() for k, a in model.flatten().items()}
        if stopper.update(val_mae, epoch):
            break
        named = adam_step(model.flatten(), grads, state, config.learning_rate)
        model.assign(named)
    if best_named is not None:
        model.assign(best_named)
    return model, history


def evaluate(model: ModelParams, aux: ModelAux, ds: DynamicGraphDataset, config: TrainConfig):
    """MAE/RMSE for every split at the given parameters."""
    h, _ = forward_model(model, aux, config.activation)
    out = {}
    for name, idx in (("train", ds.train_idx), ("val", ds.val_idx), ("test", ds.test_idx)):
        t_idx, i_idx, j_idx, y = ds.subset_arrays(idx)
        pred = _predict(h, model.r, t_idx, i_idx, j_idx)
        out[f"{name}_mae"] = float(np.mean(np.abs(pred - y)))
        out[f"{name}_rmse"] = float(np.sqrt(np.mean((pred - y) ** 2)))
    return out


def grad_check(
    seed: int = 0,
    n: int = 5,
    f: int = 3,
    t: int = 4,
    transform: str = "dft",
    n_obs: int = 12,
    h_step: float = 1e-5,
    kappa: float = 1e-4,
    activation: str = "sigmoid",
) -> dict:
    """Compare analytic gradients against central finite differences.

    Builds a random small instance and reports the max relative error per
    parameter group; ``passed`` requires <= 1e-4 everywhere.
    """
    from .data import SynthSpec, generate_synthetic, split_dataset

    rng = np.random.default_rng(seed)
    spec = SynthSpec(n=n, t=t, density=0.9, pattern="mixed", noise=0.05, seed=seed)
    ds = generate_synthetic(spec)
    ds = split_dataset(ds, seed=seed)
    config = TrainConfig(
        embedding_dim=f,
        transform=transform,
        kappa=kappa,
        activation=activation,
        seed=seed,
    )
    aux = build_aux(ds, config)
    model = init_params(ds, config)
    batch = ds.subset_arrays(ds.train_idx[: min(n_obs, len(ds.train_idx))])

    _, grads, _, _ = compute_gradients(model, aux, batch, config)

    def loss_now():
        return compute_gradients(model, aux, batch, config)[0]

    report = {}
    max_err = 0.0
    named = model.flatten()
    for key, arr in named.items():
        flat = arr.reshape(-1)  # view into the live parameter array
        g_flat = grads[key].ravel()
        # Probe a bounded number of coordinates per group to keep it fast.
        idx = np.arange(flat.size)
        if flat.size > 40:
            idx = rng.choice(flat.size, size=40, replace=False)
        worst = 0.0
        for k in idx:
            orig = flat[k]
            flat[k] = orig + h_step
            up = loss_now()
            flat[k] = orig - h_step
            down = loss_now()
            flat[k] = orig
            fd = (up - down) / (2 * h_step)
            denom = max(abs(fd), abs(g_flat[k]), 1e-8)
            worst = max(worst, abs(fd - g_flat[k]) / denom)
        report[key] = worst
        max_err = max(max_err, worst)
    return {"per_group": report, "max_relative_error": max_err, "passed": max_err <= 1e-4}


def save_checkpoint(path, model: ModelParams, config: TrainConfig, extra=None):
    """Binary dump of all parameter arrays plus the config echo."""
    named = model.flatten()
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "param_keys": sorted(named.keys()),
        "extra": extra or {},
    }
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **named)


def load_checkpoint(path):
    """Returns (named parameter dict, TrainConfig, extra metadata)."""
    with np.load(path) as z:
        meta = json.loads(bytes(z["__meta__"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        named = {k: z[k] for k in meta["param_keys"]}
    config = TrainConfig(**meta["config"])
    return named, config, meta.get("extra", {})


def model_from_named(named: dict, config: TrainConfig) -> ModelParams:
    """Rebuild ModelParams from a flat checkpoint dict."""
    branch_ws = {}
    for kind in config.branch_kinds():
        layers = []
        layer = 0
        while f"w:{kind}:{layer}" in named:
            layers.append(np.asarray(named[f"w:{kind}:{layer}"]))
            layer += 1
        branch_ws[kind] = layers
    return ModelParams(
        branch_ws, np.asarray(named["e"]), np.asarray(named["u"]), np.asarray(named["r"])
    )
