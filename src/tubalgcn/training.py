"""Model assembly, analytic gradients, Adam, early stopping, grad check.

The model: node features are a learnable embedding matrix E broadcast
across time, pushed through a stack of graph tensor convolution layers
(one weight tensor per layer per transform branch), combined across
branches when the ensemble is selected, and read out by the regression
head.  Everything is trained full-batch with Adam on the squared-error
objective plus an L2-norm regularizer.

Gradients are derived by hand; each layer's backward pass is
``gtcn.layer_backward``.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import numbers
import os
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy import sparse

from .data import DynamicGraphDataset, build_tube_adjacency
from .gtcn import ACTIVATIONS, ADJACENCY_MODES, layer_backward, layer_forward, preprocess_tubes, transformed_blocks
from .head_loss import head_scores, loss, mae, params_l2_norm, predict, rmse
from .transforms import TRANSFORM_KINDS, TransformMatrix, build_transform, next_power_of_two

__all__ = [
    "TrainConfig",
    "Branch",
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
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1

TRANSFORM_CHOICES = TRANSFORM_KINDS + ("ensemble",)

# Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# grad_check: training links in its batch, and the central-difference step.
GRAD_CHECK_LINKS = 12
FD_STEP = 1e-5

# The values a TrainConfig field takes, by the type of its default; bool never.
_FIELD_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}


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
    split_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[type(f.default)]):
                raise ValueError(f"{f.name} must be {type(f.default).__name__}, got {value!r}")
        for name in ("patience", "embedding_dim", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        for name in ("seed", "split_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.transform not in TRANSFORM_CHOICES:
            raise ValueError(f"transform must be one of {TRANSFORM_CHOICES}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.adjacency_mode not in ADJACENCY_MODES:
            raise ValueError(f"adjacency_mode must be one of {ADJACENCY_MODES}, got {self.adjacency_mode!r}")

    def branch_kinds(self):
        if self.transform == "ensemble":
            return ("dft", "dct", "haar")
        return (self.transform,)


@dataclass(frozen=True)
class Branch:
    """One transform branch: the transform (built at the branch's slot
    count, the next power of two for haar) and the K kept slices of Â x_3 M
    as one block-diagonal CSR matrix.  Each of the ``len(aux)`` branches
    weighs 1 / len(aux) in the ensemble sum.

    Every face-wise product with Â or Âᵀ (the view ``blocks.T``) is then a
    single sparse x dense product over the stacked (K * N, F) slices.
    """

    tm: TransformMatrix
    blocks: sparse.csr_array


def _branch_slots(kind: str, t: int) -> int:
    return next_power_of_two(t) if kind == "haar" else t


def _param_shapes(config: TrainConfig, n_nodes: int, n_slots: int) -> dict:
    """Shape of every learnable array, keyed and ordered as the parameter dict."""
    f = config.embedding_dim
    shapes = {
        f"w:{kind}:{layer}": (f, f, _branch_slots(kind, n_slots))
        for kind in config.branch_kinds()
        for layer in range(config.n_layers)
    }
    shapes.update(e=(n_nodes, f), u=(n_slots, f), r=(2 * f,))
    return shapes


def init_params(ds: DynamicGraphDataset, config: TrainConfig) -> dict:
    """The parameter dict, Glorot-uniform, deterministic given ``config.seed``.

    Keys: ``w:<kind>:<layer>`` the (F, F, T_b) layer weights of each branch,
    ``e`` the (N, F) node embedding, ``u`` the (T, F) temporal embedding and
    ``r`` the (2F,) head.  Node features are E[n, :] * (1 + U[t, :]): a
    static per-node embedding modulated by a per-slot temporal embedding
    shared across nodes.  A purely static broadcast of E would be
    annihilated beyond the DC row by every transform here (their
    non-constant rows sum to zero), leaving the branches blind to temporal
    structure; the multiplicative modulation puts the node-resolved
    embeddings into every frequency.
    """
    rng = np.random.default_rng(config.seed)
    shapes = _param_shapes(config, ds.n_nodes, ds.n_slots)
    params = _views(np.empty(sum(math.prod(s) for s in shapes.values())), shapes)
    for arr in params.values():
        # fan_in + fan_out; the head maps 2F inputs to one output.
        fan = arr.shape[0] + (arr.shape[1] if arr.ndim > 1 else 1)
        bound = np.sqrt(6.0 / fan)
        arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return params


def _views(vector: np.ndarray, shapes: dict) -> dict:
    """``vector`` cut into consecutive reshaped views, keyed and ordered as ``shapes``."""
    named, end = {}, 0
    for key, shape in shapes.items():
        start, end = end, end + math.prod(shape)
        named[key] = vector[start:end].reshape(shape)
    return named


def _vector(named: dict) -> np.ndarray:
    """The one vector that a dict made by ``_views`` views."""
    return next(iter(named.values())).base


def build_aux(ds: DynamicGraphDataset, config: TrainConfig) -> dict:
    """``{kind: Branch}`` in ``config.branch_kinds()`` order: the adjacency
    preprocessed once, then transformed per branch."""
    a_hat = preprocess_tubes(build_tube_adjacency(ds), config.adjacency_mode)
    aux = {}
    for kind in config.branch_kinds():
        tm = build_transform(kind, _branch_slots(kind, ds.n_slots))
        aux[kind] = Branch(tm, transformed_blocks(a_hat, tm))
    return aux


def forward_model(params: dict, aux: dict, config: TrainConfig):
    """Time-major (T, N, F) representation tensor plus per-branch layer caches.

    Every branch starts from the same T-slot input; the Haar branch's
    layers output its transform's slot count.  The representation is the
    sum of the branch outputs, each cropped to the model's T slots and scaled
    by 1 / len(aux), in ``aux`` order; a single branch is returned as it is,
    without a copy.
    """
    e, u = params["e"], params["u"]
    n_slots = len(u)
    x0 = np.einsum("nf,tf->tnf", e, 1.0 + u)
    h = None
    branch_caches = {}
    for kind, b in aux.items():
        x, caches = x0, []
        for layer in range(config.n_layers):
            x, cache = layer_forward(b.blocks, x, params[f"w:{kind}:{layer}"], b.tm, config.activation)
            caches.append(cache)
        branch_caches[kind] = caches
        x = x[:n_slots] if len(aux) == 1 else (1.0 / len(aux)) * x[:n_slots]
        h = x if h is None else h + x
    return h, branch_caches


def compute_gradients(params: dict, aux: dict, batch, config: TrainConfig):
    """Loss and exact analytic gradients over the training batch.

    ``batch`` is the tuple (t_idx, i_idx, j_idx, y) of aligned arrays with
    one-based time indices.  Returns (loss_value, gradients, scores, y_hat):
    the gradients are views into one vector, keyed and laid out in the order
    of ``params``; scores the ``head_scores`` of the representation tensor
    h; y_hat the batch predictions.

    The head's backward pass works per (slot, node) row of h: the residual
    gradient is summed onto each endpoint row with one ``bincount`` per
    endpoint, giving the (T * N, 2) matrix c of (c_i, c_j), and then
    ``g_r = h^T c`` and ``g_h = c [r[:F]; r[F:]]``.  The branches' input
    gradients are summed before they reach E and U.
    """
    t_idx, i_idx, j_idx, y = batch
    h, branch_caches = forward_model(params, aux, config)
    e, u, r = params["e"], params["u"], params["r"]
    t_n, n, f = h.shape
    scores = head_scores(h, r)
    y_hat = predict(scores, t_idx, i_idx, j_idx)
    norm = params_l2_norm(params.values())
    total = loss(y, y_hat, norm, config.kappa)

    # c[row, 0] and c[row, 1] sum the residual gradient over the links whose
    # first and second endpoint is that slot-major (slot, node) row.
    g_yhat = 2.0 * (y_hat - y)
    c = np.stack([np.bincount((t_idx - 1) * n + k, weights=g_yhat, minlength=t_n * n) for k in (i_idx, j_idx)], axis=1)
    g_h = (c @ r.reshape(2, f)).reshape(h.shape)

    parts = {"r": (h.reshape(-1, f).T @ c).T}
    g_x0 = None
    for kind, caches in branch_caches.items():
        b = aux[kind]
        g_x = (1.0 / len(aux)) * g_h
        for layer in reversed(range(len(caches))):
            g_x, parts[f"w:{kind}:{layer}"] = layer_backward(b.blocks, g_x, caches[layer], b.tm, config.activation)
        g_x0 = g_x[:t_n] if g_x0 is None else g_x0 + g_x[:t_n]
    parts.update(e=np.einsum("tnf,tf->nf", g_x0, 1.0 + u), u=np.einsum("tnf,nf->tf", g_x0, e))
    g = np.concatenate([parts[key].ravel() for key in params])

    if config.kappa != 0.0 and norm > 0:
        g += config.kappa * np.concatenate([a.ravel() for a in params.values()]) / norm
    grads = _views(g, {key: a.shape for key, a in params.items()})
    if not np.all(np.isfinite(g)):
        key = next(k for k, a in grads.items() if not np.all(np.isfinite(a)))
        raise FloatingPointError(f"non-finite gradient for parameter {key}")
    return total, grads, scores, y_hat


@dataclass
class AdamState:
    """First and second moment vectors, laid out like the parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(theta: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """Standard Adam with bias correction; returns the updated parameter
    vector as a new array, leaving ``theta`` as it was."""
    state.step += 1
    t = state.step
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * g**2
    m_hat = state.m / (1 - ADAM_BETA1**t)
    v_hat = state.v / (1 - ADAM_BETA2**t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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


def _keep_freed_heap():
    """Let the process reuse its freed heap instead of returning it (glibc).

    Every epoch allocates and frees megabytes of temporaries.  glibc's
    default trims the heap once twice the largest freed mmap'd block is
    free at its top; when no block of several MB is ever freed, as with a
    tube-sparse adjacency, that is ~2 MB, and each epoch faults its
    temporaries in again (N=200, T=16: ~3,000 page faults per epoch).  The
    values set are those glibc's own dynamic thresholds reach after a
    32 MiB block is freed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library symbol table, or not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def train(ds: DynamicGraphDataset, config: TrainConfig):
    """Full-batch Adam training with early stopping on validation MAE.

    Builds the aux from ``(ds, config)``.  Returns (params, history,
    metrics): the parameter dict of the best validation epoch; the history,
    a list of dicts with epoch, train_loss, train_mae, val_mae; and the
    split metrics ``evaluate`` gives at those parameters, gathered from the
    head scores that epoch's gradient pass already computed.  Each Adam step
    replaces the one vector the parameters view.  On glibc it raises the
    process's heap trim and mmap thresholds; see ``_keep_freed_heap``.
    """
    if not ds.has_splits:
        raise ValueError("dataset must carry train/val/test splits")
    _keep_freed_heap()
    aux = build_aux(ds, config)
    params = init_params(ds, config)
    theta, shapes = _vector(params), {key: a.shape for key, a in params.items()}
    train_batch = ds.subset_arrays(ds.train_idx)
    val_t, val_i, val_j, val_y = ds.subset_arrays(ds.val_idx)

    state = AdamState(np.zeros_like(theta), np.zeros_like(theta))
    stopper = EarlyStopping(config.patience)
    history = []
    best, best_scores = params, None
    for epoch in range(1, config.max_epochs + 1):
        loss_value, grads, scores, train_pred = compute_gradients(params, aux, train_batch, config)
        if not np.isfinite(loss_value):
            raise FloatingPointError(f"training diverged at epoch {epoch} (loss={loss_value})")
        # Train and validation error at the current parameters (pre-update).
        train_mae = mae(train_batch[3], train_pred)
        val_mae = mae(val_y, predict(scores, val_t, val_i, val_j))
        history.append({"epoch": epoch, "train_loss": loss_value, "train_mae": train_mae, "val_mae": val_mae})
        if val_mae <= stopper.best:
            best, best_scores = params, scores  # adam_step returns a new vector, so no copy is needed
        if stopper.update(val_mae, epoch):
            break
        theta = adam_step(theta, _vector(grads), state, config.learning_rate)
        params = _views(theta, shapes)
    return best, history, _split_metrics(best_scores, ds)


def _split_metrics(scores: np.ndarray, ds: DynamicGraphDataset) -> dict:
    """MAE/RMSE for every split, gathered from one ``head_scores`` array."""
    out = {}
    for name, idx in (("train", ds.train_idx), ("val", ds.val_idx), ("test", ds.test_idx)):
        t_idx, i_idx, j_idx, y = ds.subset_arrays(idx)
        pred = predict(scores, t_idx, i_idx, j_idx)
        out[f"{name}_mae"] = mae(y, pred)
        out[f"{name}_rmse"] = rmse(y, pred)
    return out


def evaluate(params: dict, ds: DynamicGraphDataset, config: TrainConfig):
    """MAE/RMSE for every split at the given parameters, on the aux built from ``(ds, config)``."""
    h, _ = forward_model(params, build_aux(ds, config), config)
    return _split_metrics(head_scores(h, params["r"]), ds)


def grad_check(
    seed: int = 0,
    n: int = 5,
    f: int = 3,
    t: int = 4,
    transform: str = "dft",
    activation: str = "sigmoid",
    n_layers: int = 1,
    adjacency_mode: str = "sym_normalized",
) -> dict:
    """Compare analytic gradients against central finite differences.

    Builds a random small instance, trained on its first
    ``GRAD_CHECK_LINKS`` training links with the default ``kappa``, and
    reports the max relative error per parameter group; ``passed`` requires
    <= 1e-4 everywhere.
    """
    from .data import SynthSpec, generate_synthetic, split_dataset

    rng = np.random.default_rng(seed)
    spec = SynthSpec(n=n, t=t, density=0.9, pattern="mixed", noise=0.05, seed=seed)
    ds = generate_synthetic(spec)
    ds = split_dataset(ds, seed=seed)
    config = TrainConfig(
        embedding_dim=f,
        transform=transform,
        activation=activation,
        adjacency_mode=adjacency_mode,
        n_layers=n_layers,
        seed=seed,
    )
    aux = build_aux(ds, config)
    params = init_params(ds, config)
    batch = ds.subset_arrays(ds.train_idx[:GRAD_CHECK_LINKS])

    _, grads, _, _ = compute_gradients(params, aux, batch, config)

    def loss_now():
        return compute_gradients(params, aux, batch, config)[0]

    report = {}
    for key, arr in params.items():
        flat = arr.reshape(-1)  # view into the live parameter array
        g_flat = grads[key].ravel()
        # Probe a bounded number of coordinates per group to keep it fast.
        idx = np.arange(flat.size)
        if flat.size > 40:
            idx = rng.choice(flat.size, size=40, replace=False)
        worst = 0.0
        for k in idx:
            orig = flat[k]
            flat[k] = orig + FD_STEP
            up = loss_now()
            flat[k] = orig - FD_STEP
            down = loss_now()
            flat[k] = orig
            fd = (up - down) / (2 * FD_STEP)
            denom = max(abs(fd), abs(g_flat[k]), 1e-8)
            worst = max(worst, abs(fd - g_flat[k]) / denom)
        report[key] = worst
    max_err = max(report.values())
    return {"per_group": report, "max_relative_error": max_err, "passed": max_err <= 1e-4}


def save_checkpoint(path, params: dict, config: TrainConfig, extra=None):
    """Binary dump of all parameter arrays plus the config echo, at exactly ``path``.

    The file is opened here because ``np.savez`` appends ``.npz`` to a path
    name that lacks it.  It is written under a temporary name in the same
    directory and then renamed over ``path``, so a save that fails leaves no
    half-written file and any earlier file at ``path`` intact.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "param_keys": sorted(params.keys()),
        "extra": extra or {},
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **params)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (parameter dict, TrainConfig, extra metadata).

    A file that ``save_checkpoint`` did not write, or whose arrays do not
    match its config or are not finite floats, raises ValueError naming it.  Configs written while
    the squared-norm regularizer was an option carry ``squared_reg: false``;
    that field is dropped, and ``squared_reg: true`` is rejected.
    """
    foreign = f"{path}: not a tubalgcn checkpoint"
    try:
        z = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{foreign} ({exc})") from exc
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise ValueError(f"{foreign} (it is a single .npy array)")
    with z:
        if "__meta__" not in z.files:
            raise ValueError(f"{foreign} (it has no __meta__ record)")
        try:
            meta = json.loads(bytes(z["__meta__"]).decode())
            version, keys, fields = meta["version"], set(meta["param_keys"]), dict(meta["config"])
            extra = {**meta.get("extra", {})}
        except (ValueError, KeyError, TypeError) as exc:  # bad JSON or UTF-8, a missing field, a non-mapping
            raise ValueError(f"{foreign} (unreadable __meta__ record: {type(exc).__name__}: {exc})") from exc
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        missing = sorted(keys - set(z.files))
        if missing:
            raise ValueError(f"{foreign} (it lacks the arrays {missing})")
        named = {}
        for k in sorted(keys):
            try:
                named[k] = z[k]
            except ValueError as exc:  # an object array, which np.load will not unpickle
                raise ValueError(f"{foreign} (array {k!r}: {exc})") from exc
    if fields.pop("squared_reg", False) is not False:
        raise ValueError(f"{path}: checkpoint config sets squared_reg, a regularizer this version does not have")
    try:
        config = TrainConfig(**fields)
    except TypeError as exc:  # a config field this version does not know
        raise ValueError(f"{foreign} ({exc})") from exc
    except ValueError as exc:  # a field value TrainConfig rejects
        raise ValueError(f"{path}: invalid config in checkpoint ({exc})") from exc
    try:
        shapes = _param_shapes(config, named["e"].shape[0], named["u"].shape[0])
    except (KeyError, IndexError) as exc:  # no e or u, or a 0-d one
        raise ValueError(f"{foreign} (it has no (N, F) array e and (T, F) array u)") from exc
    wrong = sorted(k for k in shapes.keys() | named.keys() if k not in named or named[k].shape != shapes.get(k))
    if wrong:
        raise ValueError(f"{foreign} (arrays {wrong} are missing or do not fit its config)")
    bad = sorted(k for k, a in named.items() if a.dtype.kind != "f" or not np.all(np.isfinite(a)))
    if bad:
        raise ValueError(f"{path}: checkpoint arrays {bad} are not real floating point or hold NaN or inf")
    return {k: named[k] for k in shapes}, config, extra
