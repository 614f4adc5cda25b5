"""Dataset ingestion, splitting, adjacency assembly, and synthetic graphs.

File format (UTF-8 text): optional header lines ``#nodes=<N>`` and
``#slots=<T>``; other ``#`` lines are comments; data lines are
``t<TAB>src<TAB>dst<TAB>weight`` with t one-based and node ids zero-based.
Weights are finite and nonnegative, and each (t, src, dst) appears once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .head_loss import LinkObservation

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

# One data line: t, src, dst, weight.
_ROW = np.dtype([("t", np.int64), ("i", np.int64), ("j", np.int64), ("y", np.float64)])


class _BadObservation(ValueError):
    """An observation breaks a dataset rule; ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"observation {row}: {reason}")
        self.row = row
        self.reason = reason


@dataclass
class DynamicGraphDataset:
    """A dynamic graph as aligned observation columns plus splits.

    Observation k is the link ``i[k] -> j[k]`` at one-based slot ``t[k]``
    with weight ``y[k]``.  Construction checks every row: slot and node ids
    in range, a finite nonnegative weight, and no repeated (t, i, j) key.
    Split datasets share the columns of the dataset they came from.
    """

    n_nodes: int
    n_slots: int
    t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    val_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    test_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        if self.n_nodes < 1 or self.n_slots < 1:
            raise ValueError("dataset needs at least one node and one time slot")
        self.t, self.i, self.j = (np.ascontiguousarray(c, dtype=np.int64) for c in (self.t, self.i, self.j))
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if not (self.t.ndim == 1 and self.t.shape == self.i.shape == self.j.shape == self.y.shape):
            raise ValueError("observation columns t, i, j, y must be 1-d and of equal length")
        self._check_rows()

    @classmethod
    def from_observations(cls, n_nodes: int, n_slots: int, observations) -> "DynamicGraphDataset":
        """Build from a sequence of LinkObservation records."""
        rows = np.array([(o.t, o.i, o.j, o.y) for o in observations], dtype=_ROW)
        return cls(n_nodes, n_slots, rows["t"], rows["i"], rows["j"], rows["y"])

    def observations(self) -> list:
        """The observations as LinkObservation records, in row order."""
        columns = (self.t.tolist(), self.i.tolist(), self.j.tolist(), self.y.tolist())
        return [LinkObservation(*row) for row in zip(*columns)]

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


def _header_value(path, lineno: int, body: str, name: str) -> int:
    try:
        value = int(body[len(name) + 1 :])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed #{name}= header") from None
    if value < 1:
        raise ValueError(f"{path}:{lineno}: #{name}= must be at least 1, got {value}")
    return value


def parse_dataset(path) -> DynamicGraphDataset:
    """Load a dataset file; N and T come from headers or observed maxima.

    Errors name the file and the physical line (comments and blank lines
    count).  Lines that do not parse are reported first; after that, the
    first line that breaks a dataset rule.
    """
    n_header = None
    t_header = None
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.read().split("\n")]
    data_lines = []  # index into ``lines`` of every data line
    for k, line in enumerate(lines):
        if not line:
            continue
        if not line.startswith("#"):
            data_lines.append(k)
            continue
        body = line[1:].strip()
        if body.startswith("nodes="):
            n_header = _header_value(path, k + 1, body, "nodes")
        elif body.startswith("slots="):
            t_header = _header_value(path, k + 1, body, "slots")
    data = [lines[k] for k in data_lines]
    try:
        rows = _load_rows(data)
    except ValueError:
        k = data_lines[_first_bad_line(data)]
        n_fields = len(lines[k].split("\t"))
        if n_fields != 4:
            raise ValueError(f"{path}:{k + 1}: expected 4 tab-separated fields, got {n_fields}") from None
        raise ValueError(
            f"{path}:{k + 1}: malformed line: expected integer t, src, dst and a decimal weight, "
            f"got {lines[k]!r}"
        ) from None
    if not len(rows) and (n_header is None or t_header is None):
        raise ValueError(f"{path}: empty dataset without #nodes=/#slots= headers")
    n = n_header if n_header is not None else int(max(rows["i"].max(), rows["j"].max())) + 1
    t = t_header if t_header is not None else int(rows["t"].max())
    try:
        return DynamicGraphDataset(n, t, rows["t"], rows["i"], rows["j"], rows["y"])
    except _BadObservation as exc:
        raise ValueError(f"{path}:{data_lines[exc.row] + 1}: {exc.reason}") from None


def serialize_dataset(ds: DynamicGraphDataset, path):
    """Write the exact format parse_dataset reads (round-trip safe)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#nodes={ds.n_nodes}\n")
        fh.write(f"#slots={ds.n_slots}\n")
        for t, i, j, y in zip(ds.t.tolist(), ds.i.tolist(), ds.j.tolist(), ds.y.tolist()):
            fh.write(f"{t}\t{i}\t{j}\t{y!r}\n")


def split_dataset(ds: DynamicGraphDataset, ratios=(0.6, 0.2, 0.2), seed: int = 0) -> DynamicGraphDataset:
    """Uniform random entrywise split; floor-based sizes, remainder to train.

    The result shares ``ds``'s columns, which were checked when ``ds`` was
    built, so nothing is validated again.
    """
    n_obs = len(ds.t)
    if n_obs < 5:
        raise ValueError(f"need at least 5 observations to split, got {n_obs}")
    n_val = int(np.floor(ratios[1] * n_obs))
    n_test = int(np.floor(ratios[2] * n_obs))
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


def build_adjacency(ds: DynamicGraphDataset) -> np.ndarray:
    """Assemble (N, N, T) from TRAIN observations only; direction preserved.

    Validation and test weights never enter the tensor, so the model never
    sees the values it is evaluated on.
    """
    if not ds.has_splits:
        raise ValueError("assign splits before building the adjacency tensor")
    a = np.zeros((ds.n_nodes, ds.n_nodes, ds.n_slots))
    k = ds.train_idx
    a[ds.i[k], ds.j[k], ds.t[k] - 1] = ds.y[k]
    return a


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
        if self.n < 2 or self.t < 1:
            raise ValueError("need n >= 2 nodes and t >= 1 slots")
        if not (0.0 < self.density <= 1.0):
            raise ValueError("density must lie in (0, 1]")
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")


def generate_synthetic(spec: SynthSpec) -> DynamicGraphDataset:
    """Random directed graph with node-driven temporal weight series.

    Each present edge (i, j) carries w(t) = base_ij * f_ij(t) + noise.
    The base and the temporal profile are derived from per-node latent
    attributes (activity levels, phases, trend directions) so that the
    patterns are low-rank and learnable from node embeddings: f is either
    a sinusoid whose per-edge phase is the sum of the endpoint phases
    (periodic), a linear ramp in the source node's direction (trend), or
    a per-source-node choice between the two (mixed).  Weights are
    clipped into (0, 1].
    """
    rng = np.random.default_rng(spec.seed)
    src_level = rng.uniform(0.5, 1.0, size=spec.n)
    dst_level = rng.uniform(0.5, 1.0, size=spec.n)
    node_phase = rng.uniform(0.0, 2.0 * np.pi, size=spec.n)
    trend_dir = rng.choice([-1.0, 1.0], size=spec.n)
    prefers_periodic = rng.random(size=spec.n) < 0.5

    edges_i, edges_j, weights = [], [], []
    tt = np.arange(1, spec.t + 1, dtype=np.float64)
    ramp = (tt - 1) / max(spec.t - 1, 1)
    cycles = 2.0
    for i in range(spec.n):
        for j in range(spec.n):
            if i == j:
                continue
            if rng.random() >= spec.density:
                continue
            base = src_level[i] * dst_level[j]
            phase = node_phase[i] + node_phase[j]
            periodic = 0.5 + 0.5 * np.sin(2.0 * np.pi * cycles * ramp + phase)
            trend = 0.5 + 0.5 * trend_dir[i] * (2.0 * ramp - 1.0)
            if spec.pattern == "periodic":
                f = periodic
            elif spec.pattern == "trend":
                f = trend
            else:
                f = periodic if prefers_periodic[i] else trend
            w = base * f
            if spec.noise > 0:
                w = w + rng.normal(0.0, spec.noise, size=spec.t)
            edges_i.append(i)
            edges_j.append(j)
            weights.append(np.clip(w, WEIGHT_FLOOR, 1.0))
    # One row per slot of every present edge, ordered by (i, j, t).
    n_edges = len(edges_i)
    return DynamicGraphDataset(
        spec.n,
        spec.t,
        np.tile(np.arange(1, spec.t + 1), n_edges),
        np.repeat(np.array(edges_i, dtype=np.int64), spec.t),
        np.repeat(np.array(edges_j, dtype=np.int64), spec.t),
        np.concatenate(weights) if weights else np.zeros(0),
    )
