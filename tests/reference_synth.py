"""The synthetic generator as an earlier release wrote it: one Python loop
over every ordered pair that draws the pair's presence and computes a present
edge's base, phase, profile, noise and clip one edge at a time.
``tubalgcn.data.generate_synthetic`` makes the same draws in the same order
and computes the series for all edges at once; the generator tests require
the two to give the same t, i, j and y bytes and dtypes."""

import numpy as np

from tubalgcn.data import WEIGHT_FLOOR, DynamicGraphDataset, SynthSpec


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
