"""Span recorder for the traced benchmark run, and the per-layer metrics.

The program is traced from outside: ``install`` replaces each target
function, in every ``tubalgcn`` module namespace that binds it, with a
wrapper that records a span (name, start, end, parent span, command id).
Spans are kept in memory; ``uninstall`` restores the originals.  A target
that no longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# Span name -> (module, qualified name).  Inner helpers such as
# ``tensor3.mode_n_product`` and ``tensor3.as_tensor3`` stay unwrapped, so a
# ``m_transform`` span covers the whole transform and tracing stays cheap.
TARGETS = {
    "data.parse_dataset": ("data", "parse_dataset"),
    "data.split_dataset": ("data", "split_dataset"),
    "data.subset_arrays": ("data", "DynamicGraphDataset.subset_arrays"),
    "data.build_adjacency": ("data", "build_adjacency"),
    "transforms.build_transform": ("transforms", "build_transform"),
    "tensor3.m_transform": ("tensor3", "m_transform"),
    "gtcn.preprocess_adjacency": ("gtcn", "preprocess_adjacency"),
    "gtcn.apply_activation": ("gtcn", "apply_activation"),
    "gtcn.activation_grad": ("gtcn", "activation_grad"),
    "head_loss.params_l2_norm": ("head_loss", "params_l2_norm"),
    "training.build_aux": ("training", "build_aux"),
    # No metric of its own; wrapped to keep it out of train's per-epoch self time.
    "training.init_params": ("training", "init_params"),
    "training.forward_model": ("training", "forward_model"),
    "training.compute_gradients": ("training", "compute_gradients"),
    "training.adam_step": ("training", "adam_step"),
    "training.train": ("training", "train"),
    "training.evaluate": ("training", "evaluate"),
    "training.save_checkpoint": ("training", "save_checkpoint"),
    "training.load_checkpoint": ("training", "load_checkpoint"),
    "cli.main": ("cli", "main"),
}

PACKAGE = "tubalgcn"


def nbytes(obj, seen=None) -> int:
    """Bytes held by the numpy arrays reachable through dataclasses and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(nbytes(v, seen) for v in obj.values())
    if hasattr(obj, "__dataclass_fields__"):
        return sum(nbytes(getattr(obj, f), seen) for f in obj.__dataclass_fields__)
    return 0


class SpanRecorder:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.commands = []
        self.sizes = {}  # span id -> bytes of the returned aux (build_aux only)
        self.command = -1
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, measure=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.commands.append(rec.command)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            rec.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = perf_counter()
                rec._stack.pop()
            if measure is not None:
                rec.sizes[idx] = measure(result)
            return result

        return wrapper

    def install(self) -> list:
        """Wrap every target; returns the span names that could not be found."""
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        missing = []
        for span, (mod_name, qualname) in TARGETS.items():
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                missing.append(span)
                continue
            wrapper = self.wrap(span, original, nbytes if span == "training.build_aux" else None)
            if path:  # a method: patch the class that defines it
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return missing

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "commands": self.commands,
            "sizes": {str(k): v for k, v in self.sizes.items()},
        }

    def self_times(self) -> list:
        """Span duration minus the part of it covered by child spans."""
        children = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx in range(len(self.names)):
            start, end = self.starts[idx], self.ends[idx]
            covered, reach = 0.0, start
            for c in sorted(children[idx], key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def under(self, idx, name) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False


def _ms(seconds):
    return 1e3 * seconds


def layer_metrics(rec: SpanRecorder, commands: list, schemes, missing) -> dict:
    """Per-layer metrics of one traced round.

    ``commands[k]`` is the (kind, scheme) of command id k.  An ``_ms``
    metric is self time summed over the round's commands; metrics with a
    ``.<scheme>`` suffix sum over that scheme's set-up, train and eval
    commands only.  Metrics that need a span in ``missing`` are left out.
    """
    own = rec.self_times()
    by_name = {}
    for idx, name in enumerate(rec.names):
        by_name.setdefault(name, []).append(idx)

    def spans(name, scheme=None, keep=None):
        return [
            i
            for i in by_name.get(name, [])
            if (scheme is None or commands[rec.commands[i]][1] == scheme) and (keep is None or keep(i))
        ]

    def self_ms(name, scheme=None, keep=None):
        return _ms(sum(own[i] for i in spans(name, scheme, keep)))

    def in_aux(i):
        return rec.under(i, "training.build_aux")

    def in_epoch(i):
        return not in_aux(i)

    def in_train(i):
        return rec.under(i, "training.train")

    out = {}
    absent = set(missing)

    def put(metric, value, *needs):
        if not absent.intersection(needs):
            out[metric] = value

    put("data.parse_ms", self_ms("data.parse_dataset"), "data.parse_dataset")
    put("data.split_ms", self_ms("data.split_dataset"), "data.split_dataset")
    put("data.subset_arrays_ms", self_ms("data.subset_arrays"), "data.subset_arrays")
    put("data.subset_arrays_calls", len(spans("data.subset_arrays")), "data.subset_arrays")
    put("data.build_adjacency_ms", self_ms("data.build_adjacency"), "data.build_adjacency")
    put("transforms.build_ms", self_ms("transforms.build_transform"), "transforms.build_transform")
    put("gtcn.preprocess_adjacency_ms", self_ms("gtcn.preprocess_adjacency"), "gtcn.preprocess_adjacency")
    put("head_loss.l2_norm_ms", self_ms("head_loss.params_l2_norm"), "head_loss.params_l2_norm")
    put("cli.self_ms", self_ms("cli.main"), "cli.main")
    checkpoint = ("training.save_checkpoint", "training.load_checkpoint")
    put("cli.checkpoint_ms", sum(self_ms(n) for n in checkpoint), *checkpoint)

    mt, aux, epoch, train = "tensor3.m_transform", "training.build_aux", "training.compute_gradients", "training.train"
    activation = ("gtcn.apply_activation", "gtcn.activation_grad")
    for s in schemes:
        put(f"tensor3.m_transform_ms.{s}", self_ms(mt, s, in_epoch), mt)
        put(f"tensor3.m_transform_calls.{s}", len(spans(mt, s, in_epoch)), mt)
        put(f"tensor3.m_transform_aux_ms.{s}", self_ms(mt, s, in_aux), mt)
        put(f"gtcn.activation_ms.{s}", sum(self_ms(a, s) for a in activation), *activation)
        put(f"training.build_aux_ms.{s}", self_ms(aux, s), aux)
        put(f"training.build_aux_calls.{s}", len(spans(aux, s)), aux)
        put(f"training.aux_mb.{s}", max((rec.sizes.get(i, 0) for i in spans(aux, s)), default=0) / 2**20, aux)
        put(f"training.forward_ms.{s}", self_ms("training.forward_model", s), "training.forward_model")
        put(f"training.backward_ms.{s}", self_ms(epoch, s), epoch)
        put(f"training.adam_ms.{s}", self_ms("training.adam_step", s), "training.adam_step")
        put(f"training.evaluate_ms.{s}", self_ms("training.evaluate", s), "training.evaluate")
        starts = [rec.starts[i] for i in spans(epoch, s, in_train)]
        put(f"training.epochs.{s}", len(starts), epoch, train)
        put(f"training.epoch_other_ms.{s}", self_ms(train, s) / max(len(starts), 1), epoch, train)
        # One epoch: from the start of one compute_gradients to the next.
        gaps = np.diff(starts) if len(starts) > 1 else np.zeros(1)
        put(f"training.epoch_ms.{s}", _ms(float(np.median(gaps))), epoch, train)
        put(f"training.epoch_ms_p90.{s}", _ms(float(np.percentile(gaps, 90))), epoch, train)
    return out
