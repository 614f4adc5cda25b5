"""Benchmark workloads and the seeded synthetic graphs they train on.

The generator lives here, not in ``tubalgcn.data``, so that a change to the
program cannot change the benchmark's inputs: the program only ever sees the
TSV file written by ``write_tsv``.  Its model follows the package's own
synthetic generator with the ``mixed`` pattern (node-driven periodic or trend
weight series plus noise, clipped into (0, 1]) but draws every edge at once
with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEMES = ("identity", "dft", "dct", "haar", "ensemble")

# Lower edge of the weight clip; weights stay strictly positive.
WEIGHT_FLOOR = 1e-3
NOISE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    slots: int
    density: float
    epochs: int


# Why each workload exists is recorded in BENCHMARK.json and perfbench/spec.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("crit7", nodes=200, slots=16, density=0.05, epochs=50),
        Workload("wide-sparse", nodes=1000, slots=8, density=0.002, epochs=10),
    )
}


def generate(w: Workload, seed: int):
    """Observation columns (t, i, j, y) of one seeded graph, t one-based.

    Rows are ordered by (i, j, t), one row per slot for every present edge.
    The graph has ``round(density * N * (N - 1))`` edges whatever the seed.
    """
    rng = np.random.default_rng(seed)
    n, t = w.nodes, w.slots
    src_level = rng.uniform(0.5, 1.0, size=n)
    dst_level = rng.uniform(0.5, 1.0, size=n)
    node_phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
    trend_dir = rng.choice([-1.0, 1.0], size=n)
    prefers_periodic = rng.random(size=n) < 0.5

    # A fixed edge count, so that every seed gives a graph of the same size.
    off_diagonal = np.flatnonzero(~np.eye(n, dtype=bool))
    edges = round(w.density * n * (n - 1))
    i, j = np.divmod(np.sort(rng.choice(off_diagonal, size=edges, replace=False)), n)
    ramp = np.arange(t) / max(t - 1, 1)
    base = (src_level[i] * dst_level[j])[:, None]
    phase = (node_phase[i] + node_phase[j])[:, None]
    periodic = 0.5 + 0.5 * np.sin(2.0 * np.pi * 2.0 * ramp[None, :] + phase)
    trend = 0.5 + 0.5 * trend_dir[i][:, None] * (2.0 * ramp[None, :] - 1.0)
    f = np.where(prefers_periodic[i][:, None], periodic, trend)
    y = base * f + rng.normal(0.0, NOISE, size=(len(i), t))
    y = np.clip(y, WEIGHT_FLOOR, 1.0)
    tt = np.tile(np.arange(1, t + 1), len(i))
    return tt, np.repeat(i, t), np.repeat(j, t), y.ravel()


def write_tsv(path, w: Workload, columns):
    """Write the dataset in the format ``tubalgcn.data.parse_dataset`` reads."""
    t, i, j, y = columns
    lines = [f"#nodes={w.nodes}", f"#slots={w.slots}"]
    lines += [f"{a}\t{b}\t{c}\t{d!r}" for a, b, c, d in zip(t.tolist(), i.tolist(), j.tolist(), y.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def shape(w: Workload, seed: int, columns, train_rows) -> dict:
    """Size of one generated graph and the sparsity of its preprocessed Â.

    ``train_rows`` indexes the rows that the program's split puts in train;
    Â holds those entries plus one self-loop per node and slot.
    """
    t, i, j, _ = columns
    n, slots = w.nodes, w.slots
    train_tubes = np.unique(i[train_rows] * n + j[train_rows]).size
    return {
        "seed": seed,
        "N": n,
        "T": slots,
        "epochs": w.epochs,
        "observations": int(len(t)),
        "train": int(len(train_rows)),
        "a_hat_nonzero_fraction": (len(train_rows) + n * slots) / (n * n * slots),
        "a_hat_tube_support_fraction": (train_tubes + n) / (n * n),
    }
