"""Model assembly, analytic gradients, Adam, early stopping, grad check.

The model: node features are a learnable embedding matrix E broadcast
across time, pushed through a stack of graph tensor convolution layers
(one weight tensor per layer per transform branch), combined across
branches when the ensemble is selected, and read out by the regression
head.  Everything is trained full-batch with Adam on the squared-error
objective plus an L2-norm regularizer.

Gradients are derived by hand; each layer's backward pass is
``gtcn.layer_backward``.  The first layer runs on the preprocessed Â
itself, shared by every branch: its input is separable, X[t] = E (1 + U[t]),
so one sparse product Â E forward and one Âᵀ g_Z backward serve every
branch per pass (see ``forward_model`` and ``compute_gradients``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import re
import zipfile
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType

import numpy as np
from scipy import sparse

from .data import DynamicGraphDataset, _require_type, build_adjacency, split_dataset
from .gtcn import (
    ACTIVATIONS,
    ADJACENCY_MODES,
    layer_backward,
    layer_forward,
    preprocess_adjacency,
    propagate,
    propagate_grad,
    transform_weight,
    transformed_blocks,
    weight_grad,
)
from .head_loss import head_backward, head_scores, link_rows, loss, mae, params_l2_norm, predict, rmse
from .tensor3 import m_transform
from .transforms import TRANSFORM_KINDS, build_transform, next_power_of_two

__all__ = [
    "TrainConfig",
    "TrainedModel",
    "ModelAux",
    "EarlyStopping",
    "AdamState",
    "init_params",
    "build_aux",
    "link_batch",
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

# The values each TrainConfig field with a fixed set of choices takes.
FIELD_CHOICES = {"transform": TRANSFORM_CHOICES, "activation": ACTIVATIONS, "adjacency_mode": ADJACENCY_MODES}

# Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# grad_check: training links in its batch, and the finite-difference step.
GRAD_CHECK_LINKS = 12
FD_STEP = 1e-4

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
            _require_type(self, type(f.default), f.name)
            # A numpy scalar passes the check; store the builtin, which JSON can write.
            object.__setattr__(self, f.name, type(f.default)(getattr(self, f.name)))
        for name in ("max_epochs", "patience", "embedding_dim", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        for name in ("seed", "split_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name, choices in FIELD_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")

    def branch_kinds(self):
        if self.transform == "ensemble":
            return ("dft", "dct", "haar")
        return (self.transform,)


@dataclass(frozen=True)
class TrainedModel:
    """The config, parameter dict and ``digest()`` of the dataset trained on
    (None in checkpoints that predate it) that ``train`` and ``load_checkpoint`` return.

    Checked when made (ValueError names what fails): the params are a mapping whose arrays fit the config
    at the sizes of ``e`` and ``u`` and are finite real floats, the digest is None or 64 lowercase hex digits.
    The model keeps read-only copies of the arrays in a read-only mapping, so it cannot change after its check."""

    config: TrainConfig
    params: Mapping
    data_sha256: str | None

    def __post_init__(self):
        if not isinstance(self.config, TrainConfig):
            raise ValueError(f"config must be a TrainConfig, got {self.config!r}")
        if not isinstance(self.params, Mapping):
            raise ValueError(f"params must be a mapping of names to arrays, got {type(self.params).__name__}")
        e, u = (np.shape(self.params.get(k)) for k in "eu")
        shapes = _param_shapes(self.config, e[0] if e else 0, u[0] if u else 0)  # a missing or 0-d one misfits
        _check_fit(self.params, shapes)
        bad = sorted(k for k, a in self.params.items() if np.asarray(a).dtype.kind != "f" or not np.all(np.isfinite(a)))
        if bad:
            raise ValueError(f"arrays {bad} are not real floating point or hold NaN or inf")
        sha = self.data_sha256
        if sha is not None and not (isinstance(sha, str) and re.fullmatch("[0-9a-f]{64}", sha)):
            raise ValueError(f"data_sha256 {sha!r} is not 64 lowercase hex digits")
        kept = {k: np.array(self.params[k]) for k in shapes}  # copies, in _param_shapes order
        for a in kept.values():
            a.flags.writeable = False
        object.__setattr__(self, "params", MappingProxyType(kept))


@dataclass(frozen=True)
class ModelAux:
    """One model's fixed inputs, from ``build_aux``: its config; Â as the
    (T * N, N) CSR slot stack of ``gtcn.preprocess_adjacency``; and, keyed by
    branch kind in ``config.branch_kinds()`` order, each branch's transform
    (built at its slot count, the next power of two for haar) and, when the
    model has a layer after the first, the K kept slices of Â x_3 M as one
    block-diagonal CSR matrix from ``gtcn.transformed_blocks`` (else None).

    The first layer's sparse products run once per pass on ``a_hat``, for
    every branch (see ``forward_model``); each later face-wise product with
    Â or Âᵀ (the view ``blocks.T``) is a single sparse x dense product over
    the stacked (K * N, F) slices.
    """

    config: TrainConfig
    a_hat: sparse.csr_array
    tms: dict
    blocks: dict


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


def _check_fit(params: dict, shapes: dict):
    """Raise ValueError naming every key ``params`` lacks, adds or misshapes against ``shapes``."""
    wrong = sorted(k for k in shapes.keys() | params.keys() if k not in params or np.shape(params[k]) != shapes.get(k))
    if wrong:
        raise ValueError(f"parameters do not fit the model (arrays {wrong} are missing or do not fit its config)")


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


def build_aux(ds: DynamicGraphDataset, config: TrainConfig) -> ModelAux:
    """The ``ModelAux`` of ``config`` on ``ds``: Â built from the train rows
    and preprocessed once, as one slot stack for every branch, and, if a
    layer after the first needs them, every branch's blocks of Â x_3 M from
    one pass over Â's tube support."""
    a_hat = preprocess_adjacency(build_adjacency(ds), config.adjacency_mode)
    tms = [build_transform(kind, _branch_slots(kind, ds.n_slots)) for kind in config.branch_kinds()]
    blocks = transformed_blocks(a_hat, tms) if config.n_layers > 1 else [None] * len(tms)
    return ModelAux(config, a_hat, {tm.kind: tm for tm in tms}, {tm.kind: b for tm, b in zip(tms, blocks)})


def link_batch(ds: DynamicGraphDataset, idx: np.ndarray):
    """The batch (rows, y) of the links ``idx`` of ``ds``: their endpoints'
    ``head_loss.link_rows``, bounds-checked here, once per set of links, and
    their weights."""
    t_idx, i_idx, j_idx, y = ds.subset_arrays(idx)
    return link_rows(t_idx, i_idx, j_idx, ds.n_slots, ds.n_nodes), y


def forward_model(params: dict, aux: ModelAux):
    """Time-major (T, N, F) representation tensor plus per-branch caches.

    The model is ``aux.config``; ``params`` that do not fit it raise
    ValueError naming every missing or misshaped key.  The input
    X[t] = E (1 + U[t]) is separable, and a mode-3 product acts along time
    only, so the first layer never forms X: slice k of
    (Â x_3 M) X̂ is Ẑ[k] diag(Û[k]), with Z[t] = Â_t E computed once for
    every branch (one sparse product on ``a_hat``), Ẑ = Z x_3 M[:, :T] and
    Û = M[:, :T] (1 + U), a (K, F) ``np.matmul``.  Each branch's first
    layer then runs ``layer_forward`` on Ẑ and W̃[k] = diag(Û[k]) Ŵ[k]; its later
    layers on ``propagate`` and ``transform_weight``.  The Haar branch's
    layers output its transform's slot count.  The representation is the
    sum of the branch outputs, each cropped to the model's T slots and
    scaled by 1 / len(aux.tms), in that order, built in one array: the
    first branch's scaled output, then ``h += `` each next one's.  A single
    branch is returned as it is, without a copy, so it shares its memory
    with its last layer's cached H.  Each branch's cache is (Û, Ŵ, layer
    caches).

    What lives when, in (T, N, F)-sized arrays: Z until the call returns;
    each layer's cache (Q̂, Ŵ, H), which the backward pass reads; and the
    one representation array.  Every other such array (Q̂ Ŵ, a complex
    inverse, a scaled branch output) is freed when the statement that made
    it is done.
    """
    config, (t_n, n) = aux.config, aux.a_hat.shape
    _check_fit(params, _param_shapes(config, n, t_n // n))
    e, u, n_slots = params["e"], params["u"], t_n // n
    z = (aux.a_hat @ e).reshape(n_slots, *e.shape)
    h = None
    branch_caches = {}
    for kind, tm in aux.tms.items():
        m = tm.m_kept[:, :n_slots]
        u_hat = np.matmul(m, 1.0 + u)
        w_hat = transform_weight(params[f"w:{kind}:0"], tm)
        x, cache = layer_forward(m_transform(m, z), u_hat[:, :, None] * w_hat, tm, config.activation)
        caches = [cache]
        for layer in range(1, config.n_layers):
            wh = transform_weight(params[f"w:{kind}:{layer}"], tm)
            x, cache = layer_forward(propagate(aux.blocks[kind], x, tm), wh, tm, config.activation)
            caches.append(cache)
        branch_caches[kind] = (u_hat, w_hat, caches)
        if len(aux.tms) == 1:
            h = x[:n_slots]
        elif h is None:
            h = (1.0 / len(aux.tms)) * x[:n_slots]
        else:
            h += (1.0 / len(aux.tms)) * x[:n_slots]
    return h, branch_caches


def compute_gradients(params: dict, aux: ModelAux, batch):
    """Loss and exact analytic gradients of ``aux``'s model over the training batch.

    ``batch`` is the pair (rows, y) of ``link_batch``.  Returns (loss_value,
    gradients, scores, y_hat): the gradients are views into one vector,
    keyed and laid out in the order of ``params``; scores the
    ``head_scores`` of the representation tensor h; y_hat the batch
    predictions.

    The head's backward pass is ``head_backward``.  Each branch's first
    layer gives the conjugated ḡ_Ẑ and ḡ_W̃; then ḡ_Ŵ = Û ⊙ ḡ_W̃ and
    ḡ_Û = Σ_g ḡ_W̃ ⊙ Ŵ.  The branches' Re(M[:, :T]^T ḡ_Ẑ) and the (T, F)
    ``np.matmul`` Re(M[:, :T]^T ḡ_Û) are summed into one g_Z and g_U, and
    g_E = Â^T g_Z is the pass's one backward sparse product on ``a_hat``.

    The pass holds each (T, N, F)-sized array only while it is read.  h goes
    once ``head_backward`` has read it; g_h is scaled by 1 / len(aux.tms) in
    place, once for every branch.  The caches are this call's own: each
    layer's is popped as the backward reaches it, so ``layer_backward``
    frees its H and Q̂ on the way, and a branch holds nothing once its
    backward is done.  g_Z is summed in place, with the DFT branch's real
    part copied out once into a contiguous array.  So at any time the pass
    holds the caches not yet read, g_h, g_Z and one layer's temporaries.
    """
    rows, y = batch
    h, branch_caches = forward_model(params, aux)
    config, e, r = aux.config, params["e"], params["r"]
    t_n = len(h)
    scores = head_scores(h, r)
    y_hat = predict(scores, rows)
    norm = params_l2_norm(params.values())
    total = loss(y, y_hat, norm, config.kappa)

    parts = {}
    g_h, parts["r"] = head_backward(h, r, 2.0 * (y_hat - y), rows)
    del h
    if len(aux.tms) > 1:
        g_h *= 1.0 / len(aux.tms)
    g_z = g_u = None
    for kind, tm in aux.tms.items():
        u_hat, w_hat, caches = branch_caches.pop(kind)
        g_x = g_h
        for layer in reversed(range(1, len(caches))):
            g_q, g_wh = layer_backward(g_x, caches.pop(), tm, config.activation)
            del g_x
            parts[f"w:{kind}:{layer}"] = weight_grad(g_wh, tm)
            g_x = propagate_grad(aux.blocks[kind], g_q, tm)
            del g_q
        g_zh, g_wt = layer_backward(g_x, caches.pop(), tm, config.activation)
        del g_x
        parts[f"w:{kind}:0"] = weight_grad(u_hat[:, :, None] * g_wt, tm)
        m_t = tm.m_kept[:, :t_n].T
        g_z_b = m_transform(m_t, g_zh).real
        del g_zh
        g_u_b = np.matmul(m_t, np.sum(g_wt * w_hat, axis=2)).real
        if g_z is None:
            g_z, g_u = np.ascontiguousarray(g_z_b), g_u_b
        else:
            g_z += g_z_b
            g_u += g_u_b
        del g_z_b
    parts.update(e=aux.a_hat.T @ g_z.reshape(-1, e.shape[1]), u=g_u)
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
    vector as a new array, leaving ``theta`` as it was.

    The moments are updated in place, m <- b1 m + (1 - b1) g and
    v <- b2 v + (1 - b2) g², each product formed as in that expression.
    """
    state.step += 1
    t = state.step
    state.m *= ADAM_BETA1
    state.m += (1 - ADAM_BETA1) * g
    g2 = np.square(g)
    g2 *= 1 - ADAM_BETA2
    state.v *= ADAM_BETA2
    state.v += g2
    m_hat = state.m / (1 - ADAM_BETA1**t)
    v_hat = state.v / (1 - ADAM_BETA2**t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class EarlyStopping:
    """Stop after `patience` consecutive epochs of rising validation error.

    Rises are counted against the previous epoch's value; the best value
    and its epoch, the later one on a tie, name the parameters ``train`` keeps.
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
        if value <= self.best:
            self.best = value
            self.best_epoch = epoch
        if self.prev is not None and value > self.prev:
            self.consecutive_rises += 1
        else:
            self.consecutive_rises = 0
        self.prev = value
        return self.consecutive_rises >= self.patience


@functools.cache
def _keep_freed_heap():
    """Let the process reuse its freed heap instead of returning it (glibc).

    Every epoch allocates and frees megabytes of temporaries.  glibc's
    default trims the heap once twice the largest freed mmap'd block is
    free at its top; when no block of several MB is ever freed, as with a
    tube-sparse adjacency, that is ~2 MB, and each epoch faults its
    temporaries in again (N=200, T=16: ~3,000 page faults per epoch).  On
    64-bit glibc, freeing an mmap'd block of at most 32 MiB raises the mmap
    threshold to its size and the trim threshold to twice that (glibc's
    dynamic M_MMAP_THRESHOLD), so this frees one such block, never written:
    it costs address space, not RSS.  Once per process: a second block would
    fall below the raised mmap threshold into the heap, where numpy's
    huge-page advice on it can cost RSS.  An explicit MALLOC_MMAP_THRESHOLD_
    or MALLOC_TRIM_THRESHOLD_ environment setting turns the dynamic
    thresholds off, and then wins.
    """
    np.empty(((32 << 20) - (1 << 16)) // 8)


def train(ds: DynamicGraphDataset, config: TrainConfig):
    """Full-batch Adam training with early stopping on validation MAE.

    ``ds`` is split with ``config.split_seed``, as ``evaluate`` splits it;
    any split it carries is ignored.  Returns (model, history, metrics): the
    ``TrainedModel`` of the best validation epoch; the history, a list of
    dicts with epoch, train_loss, train_mae, val_mae; and the split metrics
    ``evaluate`` gives for the model, gathered from the head scores that
    epoch's gradient pass already computed.  Each Adam step replaces the one vector the parameters
    view.  With the aux built, it raises glibc's heap trim and mmap
    thresholds; see ``_keep_freed_heap``.
    """
    ds = split_dataset(ds, config.split_seed)
    aux = build_aux(ds, config)
    _keep_freed_heap()
    params = init_params(ds, config)
    theta, shapes = _vector(params), {key: a.shape for key, a in params.items()}
    train_batch = link_batch(ds, ds.train_idx)
    val_rows, val_y = link_batch(ds, ds.val_idx)

    state = AdamState(np.zeros_like(theta), np.zeros_like(theta))
    stopper = EarlyStopping(config.patience)
    history = []
    best, best_scores = params, None
    for epoch in range(1, config.max_epochs + 1):
        loss_value, grads, scores, train_pred = compute_gradients(params, aux, train_batch)
        if not np.isfinite(loss_value):
            raise FloatingPointError(f"training diverged at epoch {epoch} (loss={loss_value})")
        # Train and validation error at the current parameters (pre-update).
        train_mae = mae(train_batch[1], train_pred)
        val_mae = mae(val_y, predict(scores, val_rows))
        history.append({"epoch": epoch, "train_loss": loss_value, "train_mae": train_mae, "val_mae": val_mae})
        stop = stopper.update(val_mae, epoch)
        if stopper.best_epoch == epoch:
            best, best_scores = params, scores  # adam_step returns a new vector, so no copy is needed
        if stop:
            break
        theta = adam_step(theta, _vector(grads), state, config.learning_rate)
        params = _views(theta, shapes)
    return TrainedModel(config, best, ds.digest()), history, _split_metrics(best_scores, ds)


def _split_metrics(scores: np.ndarray, ds: DynamicGraphDataset) -> dict:
    """MAE/RMSE for every split, gathered from one ``head_scores`` array."""
    out = {}
    for name, idx in (("train", ds.train_idx), ("val", ds.val_idx), ("test", ds.test_idx)):
        rows, y = link_batch(ds, idx)
        pred = predict(scores, rows)
        out[f"{name}_mae"] = mae(y, pred)
        out[f"{name}_rmse"] = rmse(y, pred)
    return out


def evaluate(model: TrainedModel, ds: DynamicGraphDataset):
    """MAE/RMSE for every split of ``ds``, split again with ``model.config.split_seed``.

    A dataset of another size, or of another digest when the model has one, raises
    ValueError: its rows, re-split, would score training rows as test rows."""
    params = model.params
    for what, trained, have in (("nodes", len(params["e"]), ds.n_nodes), ("time slots", len(params["u"]), ds.n_slots)):
        if trained != have:
            raise ValueError(f"model was trained on {trained} {what}, dataset has {have}")
    if model.data_sha256 is not None and model.data_sha256 != ds.digest():
        raise ValueError("model was not trained on the rows of this dataset in their order (dataset SHA-256 differs)")
    ds = split_dataset(ds, model.config.split_seed)
    h, _ = forward_model(params, build_aux(ds, model.config))
    return _split_metrics(head_scores(h, params["r"]), ds)


def grad_check(ds: DynamicGraphDataset, config: TrainConfig) -> dict:
    """Compare the analytic gradients of ``config``'s model on ``ds`` against
    finite differences; ``ds`` is split with ``config.split_seed``, as ``train``
    splits it.

    The parameters are ``init_params(ds, config)``, the batch the first
    ``GRAD_CHECK_LINKS`` training links, and the coordinates probed are drawn
    from ``config.seed``.  Reports the max relative error per parameter
    group; ``passed`` requires <= 1e-4 everywhere.  The difference is the
    fourth-order central one on the steps ±``FD_STEP`` and ±2 ``FD_STEP``,
    taken of the data term and of the parameter norm apart: the norm's share
    of a loss difference is below the data term's rounding where a gradient
    is the regularizer's alone.  Under ReLU the loss has no derivative where
    a unit switches on or off: a coordinate whose steps change which units
    are active is not compared, and ``kinks_skipped`` counts those.
    """
    rng = np.random.default_rng(config.seed)
    ds = split_dataset(ds, config.split_seed)
    aux = build_aux(ds, config)
    params = init_params(ds, config)
    rows, y = batch = link_batch(ds, ds.train_idx[:GRAD_CHECK_LINKS])

    _, grads, _, _ = compute_gradients(params, aux, batch)

    def probe():
        """The loss's data term and parameter norm, and which ReLU units are active."""
        h, branch_caches = forward_model(params, aux)
        y_hat = predict(head_scores(h, params["r"]), rows)
        terms = np.array([loss(y, y_hat), params_l2_norm(params.values())])
        if config.activation != "relu":
            return terms, None
        return terms, np.concatenate([c["h"].ravel() > 0 for _, _, caches in branch_caches.values() for c in caches])

    _, active = probe()
    report, skipped = {}, 0
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
            probes = []
            for step in (FD_STEP, -FD_STEP, 2 * FD_STEP, -2 * FD_STEP):
                flat[k] = orig + step
                probes.append(probe())
            flat[k] = orig
            if active is not None and any(not np.array_equal(a, active) for _, a in probes):
                skipped += 1
                continue
            (up, _), (down, _), (up2, _), (down2, _) = probes
            # Differencing each term apart keeps the regularizer's share from
            # rounding away against a much larger data term.
            d_data, d_norm = (8 * (up - down) - (up2 - down2)) / (12 * FD_STEP)
            fd = d_data + config.kappa * d_norm
            denom = max(abs(fd), abs(g_flat[k]), 1e-8)
            worst = max(worst, abs(fd - g_flat[k]) / denom)
        report[key] = worst
    max_err = max(report.values())
    return {"per_group": report, "max_relative_error": max_err, "passed": max_err <= 1e-4, "kinks_skipped": skipped}


def save_checkpoint(path, model: TrainedModel):
    """Binary dump of the model's arrays, config and digest (``extra``'s ``data_sha256``) at exactly ``path``.

    The file is opened here because ``np.savez`` appends ``.npz`` to a path name that lacks it.  It is
    written under a temporary name in the same directory and then renamed over ``path``, so a save that
    fails leaves no half-written file and any earlier file at ``path`` intact.  A ``TrainedModel`` is
    checked when made, so ``load_checkpoint`` accepts every file this writes.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "param_keys": sorted(model.params.keys()),
        "extra": {"data_sha256": model.data_sha256},
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            record = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
            np.savez(fh, __meta__=record, **model.params)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _load_member(z: np.lib.npyio.NpzFile, key: str):
    """``z[key]``, after a ValueError if its .npy header declares more data than its member can
    hold, which ``z[key]`` would allocate: its recorded size, and its stored bytes or 1032 times
    (deflate's largest ratio) its deflated bytes, each at most the file's size (the zip may lie)."""
    name = f"{key}.npy" if f"{key}.npy" in z.zip.namelist() else key
    info = z.zip.getinfo(name)
    ratio = {zipfile.ZIP_STORED: 1, zipfile.ZIP_DEFLATED: 1032}.get(info.compress_type)
    if ratio is None:
        raise ValueError(f"its member is compressed by zip method {info.compress_type}, neither stored nor deflated")
    with z.zip.open(name) as fh:
        version = np.lib.format.read_magic(fh)
        read_header = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
        shape, _, dtype = read_header(fh)
        held = min(info.file_size, ratio * min(info.compress_size, os.fstat(z.zip.fp.fileno()).st_size)) - fh.tell()
    if math.prod(shape) * dtype.itemsize > held and not dtype.hasobject:  # a pickled object array has no fixed size
        raise ValueError(f"its header declares shape {shape} of {dtype}, more than the {held} bytes it can hold")
    return z[key]


def load_checkpoint(path) -> TrainedModel:
    """The ``TrainedModel`` that ``save_checkpoint`` wrote at ``path``.

    A file that ``save_checkpoint`` did not write, or whose config or model ``TrainConfig`` or
    ``TrainedModel`` refuses, or with an array whose header declares more bytes than its member can
    hold, raises ValueError naming it; a null or missing ``data_sha256`` loads as None.  Configs
    written while the squared-norm regularizer was an option carry ``squared_reg: false``; that
    field is dropped, and ``squared_reg: true`` is rejected.  Other ``extra`` keys than
    ``data_sha256``, such as the ``data`` path of older files, are ignored.
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
            meta = json.loads(bytes(_load_member(z, "__meta__")).decode())
            version, keys, fields = meta["version"], set(meta["param_keys"]), dict(meta["config"])
            digest = {**meta.get("extra", {})}.get("data_sha256")
        except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:  # bad JSON or UTF-8, a missing field, a non-mapping, a lying zip
            raise ValueError(f"{foreign} (unreadable __meta__ record: {type(exc).__name__}: {exc})") from exc
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        missing = sorted(keys - set(z.files))
        if missing:
            raise ValueError(f"{foreign} (it lacks the arrays {missing})")
        named = {}
        for k in sorted(keys):
            try:
                named[k] = _load_member(z, k)
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # a lying header or zip entry, an object array
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
        return TrainedModel(config, named, digest)
    except ValueError as exc:  # arrays or a digest that TrainedModel rejects
        raise ValueError(f"{path}: checkpoint {exc}") from exc
