"""Dataset ingestion, splitting, adjacency assembly, and synthetic graphs.

File format (UTF-8 text): optional header lines ``#nodes=<N>`` and
``#slots=<T>``, each repeatable only with the same value; other ``#``
lines are comments; data lines are
``t<TAB>src<TAB>dst<TAB>weight`` with t one-based and node ids zero-based.
Weights are finite and nonnegative, and each (t, src, dst) appears once.
"""

from __future__ import annotations

import copy
import hashlib
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "DynamicGraphDataset",
    "SynthSpec",
    "parse_dataset",
    "serialize_dataset",
    "split_dataset",
    "build_adjacency",
    "generate_synthetic",
]

PATTERNS = ("periodic", "trend", "mixed")

# Weights are clipped into (0, 1]; the lower edge stays strictly positive.
WEIGHT_FLOOR = 1e-3

# Train, validation and test shares of the entrywise split.
SPLIT_RATIOS = (0.6, 0.2, 0.2)

# One data line: t, src, dst, weight.
_ROW = np.dtype([("t", np.int64), ("i", np.int64), ("j", np.int64), ("y", np.float64)])


# The values a record field of type int, float or str takes; bool never.
_FIELD_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}


def _require_type(owner, kind: type, *names):
    """Raise ValueError naming the first of ``owner``'s ``names`` whose value is not a ``kind`` (int, float or str)."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
            raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


def _real_numbers(name: str, column, what: str = "numbers") -> np.ndarray:
    """``column`` as an int, unsigned or float array; ValueError naming ``name``
    and its first value that is not a real number (a bool is not) otherwise."""
    c = np.asarray(column)
    if c.dtype.kind in "iuf":
        return c
    for value in np.asarray(column, dtype=object).ravel().tolist():  # as given, not cast to one dtype
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"column {name} must hold {what}, got {value!r}")
    return c.astype(np.float64)


def _whole_numbers(name: str, column) -> np.ndarray:
    """``column`` as contiguous int64; ValueError naming ``name`` and the first value that is not a whole number."""
    c = _real_numbers(name, column, "whole numbers")
    if c.dtype.kind == "f":
        bad = ~np.isfinite(c) | (c != np.trunc(c))
        if bad.any():
            raise ValueError(f"column {name} must hold whole numbers, got {c.ravel()[np.argmax(bad)].item()!r}")
    return np.ascontiguousarray(c, dtype=np.int64)


class _BadObservation(ValueError):
    """An observation breaks a dataset rule; ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"observation {row}: {reason}")
        self.row = row
        self.reason = reason


@dataclass
class DynamicGraphDataset:
    """A dynamic graph as aligned observation columns plus splits.

    Observation k is the link ``i[k] -> j[k]`` at one-based slot ``t[k]`` with
    weight ``y[k]``.  Construction checks every row: slot and node ids in range,
    a finite nonnegative weight, and no repeated (t, i, j) key.  The split
    index arrays are not constructor arguments: a dataset is built unsplit,
    and its splits come only from ``split_dataset``, whose result shares the
    columns of the dataset it came from."""

    n_nodes: int
    n_slots: int
    t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray = field(init=False, default_factory=lambda: np.array([], dtype=int))
    val_idx: np.ndarray = field(init=False, default_factory=lambda: np.array([], dtype=int))
    test_idx: np.ndarray = field(init=False, default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        _require_type(self, int, "n_nodes", "n_slots")
        if self.n_nodes < 1 or self.n_slots < 1:
            raise ValueError("dataset needs at least one node and one time slot")
        self.t, self.i, self.j = (_whole_numbers(name, getattr(self, name)) for name in "tij")
        self.y = np.ascontiguousarray(_real_numbers("y", self.y), dtype=np.float64)
        if not (self.t.ndim == 1 and self.t.shape == self.i.shape == self.j.shape == self.y.shape):
            raise ValueError("observation columns t, i, j, y must be 1-d and of equal length")
        self._check_rows()

    def _check_rows(self):
        """Raise _BadObservation for the first row that breaks a rule."""
        t, i, j, y = self.t, self.i, self.j, self.y
        n = self.n_nodes
        bad_t = (t < 1) | (t > self.n_slots)
        bad_node = (i < 0) | (i >= n) | (j < 0) | (j >= n)
        bad_y = ~np.isfinite(y) | (y < 0)
        # A repeated key marks every occurrence after the first.  Keys of
        # out-of-range rows may collide, but such rows are flagged anyway.
        key = ((t - 1) * n + i) * n + j
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(len(key), dtype=bool)
        repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
        bad = bad_t | bad_node | bad_y | repeat
        if not bad.any():
            return
        k = int(np.argmax(bad))
        tk, ik, jk = int(t[k]), int(i[k]), int(j[k])
        if bad_t[k]:
            reason = f"time slot {tk} out of range 1..{self.n_slots}"
        elif bad_node[k]:
            reason = f"node id out of range 0..{n - 1} in (t={tk}, i={ik}, j={jk})"
        elif bad_y[k]:
            reason = f"weight {float(y[k])!r} is not a finite nonnegative number"
        else:
            reason = f"duplicate entry (t={tk}, i={ik}, j={jk})"
        raise _BadObservation(k, reason)

    @property
    def has_splits(self) -> bool:
        return len(self.train_idx) > 0

    def subset_arrays(self, idx: np.ndarray):
        """Return (t, i, j, y) index arrays for the given observation indices."""
        return self.t[idx], self.i[idx], self.j[idx], self.y[idx]

    def digest(self) -> str:
        """SHA-256 of N, T and the t, i, j, y columns, rows in order; splits left out."""
        h = hashlib.sha256(np.array([self.n_nodes, self.n_slots], dtype=np.int64).tobytes())
        for column in (self.t, self.i, self.j, self.y):
            h.update(column)
        return h.hexdigest()


def _load_rows(lines: list) -> np.ndarray:
    """Parse tab-separated data lines in one pass; ValueError on any bad line."""
    if not lines:
        return np.zeros(0, dtype=_ROW)
    # comments=None: '#' starts a comment only at the start of a line, which
    # parse_dataset has already dropped; "0.5#x" must stay a malformed weight.
    return np.loadtxt(lines, dtype=_ROW, delimiter="\t", comments=None, ndmin=1)


def _first_bad_line(lines: list) -> int:
    """Index of the first line _load_rows rejects, given that it rejects some."""
    lo, hi = 0, len(lines)  # lines[:lo] parse; the first bad line is in lines[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load_rows(lines[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def _physical_line(lines: list, row: int) -> int:
    """One-based line number of data row ``row`` in ``lines``, comment lines blanked; for error messages."""
    return [k for k, line in enumerate(lines) if line.strip()][row] + 1


def _header_value(path, lineno: int, text: str, name: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed #{name}= header") from None
    if value < 1:
        raise ValueError(f"{path}:{lineno}: #{name}= must be at least 1, got {value}")
    return value


def _take_comments(path, text: str, lines: list) -> dict:
    """Blank every comment line of ``lines`` in place; returns the headers as {name: value}.

    ``lines`` is ``text`` split at every newline.  Only lines holding a ``#`` are
    looked at: each is found with ``text.find`` and numbered by counting the
    newlines since the previous one, so the scan stays linear.  A header
    repeated with another value raises ValueError naming both lines.
    """
    seen = {}  # name -> (value, line number of its first declaration)
    k, pos = 0, 0  # ``pos`` lies in line ``k`` or on the newline that ends it
    while (hit := text.find("#", pos)) >= 0:
        k += text.count("\n", pos, hit)
        line = lines[k].strip()
        if line.startswith("#"):
            lines[k] = ""
            body = line[1:].strip()
            for name in ("nodes", "slots"):
                # ``nodes``/``slots``, optional whitespace, ``=``: a header.
                rest = body[len(name) :].lstrip() if body.startswith(name) else ""
                if rest.startswith("="):
                    value = _header_value(path, k + 1, rest[1:], name)
                    first, first_line = seen.setdefault(name, (value, k + 1))
                    if value != first:
                        raise ValueError(
                            f"{path}:{k + 1}: #{name}={value} contradicts #{name}={first} on line {first_line}"
                        )
        pos = text.find("\n", hit)
        if pos < 0:
            break
    return {name: value for name, (value, _) in seen.items()}


def parse_dataset(path) -> DynamicGraphDataset:
    """Load a dataset file; N and T come from headers or observed maxima.

    Errors name the file and the physical line (comments and blank lines
    count).  Bad headers are reported first, then lines that do not parse;
    after that, the first line that breaks a dataset rule.
    """
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    lines = text.split("\n")
    headers = _take_comments(path, text, lines)
    data = list(filter(None, map(str.strip, lines)))
    try:
        rows = _load_rows(data)
    except ValueError:
        k = _first_bad_line(data)
        lineno = _physical_line(lines, k)
        n_fields = len(data[k].split("\t"))
        if n_fields != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields, got {n_fields}") from None
        raise ValueError(
            f"{path}:{lineno}: malformed line: expected integer t, src, dst and a decimal weight, "
            f"got {data[k]!r}"
        ) from None
    n_header, t_header = headers.get("nodes"), headers.get("slots")
    if not len(rows) and (n_header is None or t_header is None):
        raise ValueError(f"{path}: empty dataset without #nodes=/#slots= headers")
    n = n_header if n_header is not None else int(max(rows["i"].max(), rows["j"].max())) + 1
    t = t_header if t_header is not None else int(rows["t"].max())
    try:
        return DynamicGraphDataset(n, t, rows["t"], rows["i"], rows["j"], rows["y"])
    except _BadObservation as exc:
        raise ValueError(f"{path}:{_physical_line(lines, exc.row)}: {exc.reason}") from None


def serialize_dataset(ds: DynamicGraphDataset, path):
    """Write the exact format parse_dataset reads (round-trip safe)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#nodes={ds.n_nodes}\n")
        fh.write(f"#slots={ds.n_slots}\n")
        for t, i, j, y in zip(ds.t.tolist(), ds.i.tolist(), ds.j.tolist(), ds.y.tolist()):
            fh.write(f"{t}\t{i}\t{j}\t{y!r}\n")


def split_dataset(ds: DynamicGraphDataset, seed: int = 0) -> DynamicGraphDataset:
    """Uniform random entrywise ``SPLIT_RATIOS`` split; floor-based sizes, remainder to train.

    The result shares ``ds``'s columns, which were checked when ``ds`` was
    built, so nothing is validated again.
    """
    n_obs = len(ds.t)
    if n_obs < 5:
        raise ValueError(f"need at least 5 observations to split, got {n_obs}")
    n_val = int(np.floor(SPLIT_RATIOS[1] * n_obs))
    n_test = int(np.floor(SPLIT_RATIOS[2] * n_obs))
    n_train = n_obs - n_val - n_test
    if n_val == 0 or n_test == 0:
        raise ValueError("degenerate split: empty validation or test set")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_obs)
    out = copy.copy(ds)
    out.train_idx = np.sort(perm[:n_train])
    out.val_idx = np.sort(perm[n_train : n_train + n_val])
    out.test_idx = np.sort(perm[n_train + n_val :])
    return out


def build_adjacency(ds: DynamicGraphDataset) -> sparse.csr_array:
    """The adjacency of the TRAIN observations as a (T * N, N) CSR slot stack.

    Row s * N + i is row i of slot s, directions preserved, with no
    self-loops added (see ``gtcn.preprocess_adjacency``).  Validation and
    test weights never enter it, so the model never sees the values it is
    evaluated on.  Memory scales with the number of train rows, never with
    N * N * T.
    """
    if not ds.has_splits:
        raise ValueError("dataset has no train/val/test splits; call split_dataset first")
    k, n = ds.train_idx, ds.n_nodes
    return sparse.csr_array((ds.y[k], ((ds.t[k] - 1) * n + ds.i[k], ds.j[k])), shape=(ds.n_slots * n, n))


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic dynamic-graph generator."""

    n: int
    t: int
    density: float = 0.1
    pattern: str = "mixed"
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require_type(self, int, "n", "t", "seed")
        _require_type(self, float, "density", "noise")
        if self.n < 2 or self.t < 1:
            raise ValueError(f"need n >= 2 nodes and t >= 1 slots, got n={self.n}, t={self.t}")
        if not (0.0 < self.density <= 1.0):
            raise ValueError(f"density must lie in (0, 1], got {self.density}")
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise!r}")


def generate_synthetic(spec: SynthSpec) -> DynamicGraphDataset:
    """Random directed graph with node-driven temporal weight series.

    Each present edge (i, j) carries w(t) = base_ij * f_ij(t) + noise.
    The base and the temporal profile are derived from per-node latent
    attributes (activity levels, phases, trend directions) so that the
    patterns are low-rank and learnable from node embeddings: f is either
    a sinusoid whose per-edge phase is the sum of the endpoint phases
    (periodic), a linear ramp in the source node's direction (trend), or
    a per-source-node choice between the two (mixed).  Weights are
    clipped into (0, 1].  The loop over ordered pairs only draws, in
    (i, j) order: each pair's presence, then a present edge's noise; the
    series of all edges are then computed at once as (E, T) arrays.
    """
    rng = np.random.default_rng(spec.seed)
    src_level = rng.uniform(0.5, 1.0, size=spec.n)
    dst_level = rng.uniform(0.5, 1.0, size=spec.n)
    node_phase = rng.uniform(0.0, 2.0 * np.pi, size=spec.n)
    trend_dir = rng.choice([-1.0, 1.0], size=spec.n)
    prefers_periodic = rng.random(size=spec.n) < 0.5

    edges, noise = [], []
    for i in range(spec.n):
        for j in range(spec.n):
            if i != j and rng.random() < spec.density:
                edges.append((i, j))
                if spec.noise > 0:
                    noise.append(rng.normal(0.0, spec.noise, size=spec.t))
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    ramp = np.arange(spec.t, dtype=np.float64) / max(spec.t - 1, 1)
    cycles = 2.0
    periodic = 0.5 + 0.5 * np.sin(2.0 * np.pi * cycles * ramp + (node_phase[src] + node_phase[dst])[:, None])
    trend = 0.5 + (0.5 * trend_dir[src])[:, None] * (2.0 * ramp - 1.0)
    pick = prefers_periodic[src] if spec.pattern == "mixed" else np.full(len(src), spec.pattern == "periodic")
    w = (src_level[src] * dst_level[dst])[:, None] * np.where(pick[:, None], periodic, trend)
    if spec.noise > 0:
        w = w + np.reshape(noise, w.shape)
    # One row per slot of every present edge, ordered by (i, j, t).
    t, i, j = np.tile(np.arange(1, spec.t + 1), len(src)), np.repeat(src, spec.t), np.repeat(dst, spec.t)
    return DynamicGraphDataset(spec.n, spec.t, t, i, j, np.clip(w, WEIGHT_FLOOR, 1.0).ravel())
