import json
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubalgcn.data import (
    DynamicGraphDataset,
    SynthSpec,
    build_adjacency,
    generate_synthetic,
    split_dataset,
)
from tubalgcn.gtcn import (
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
from tubalgcn.head_loss import link_rows, predict
from tubalgcn.tensor3 import m_transform
from tubalgcn.training import (
    TRANSFORM_CHOICES,
    AdamState,
    EarlyStopping,
    TrainConfig,
    TrainedModel,
    adam_step,
    build_aux,
    compute_gradients,
    evaluate,
    forward_model,
    grad_check,
    init_params,
    link_batch,
    load_checkpoint,
    save_checkpoint,
    train,
)
from tubalgcn.transforms import TransformMatrix, build_transform, next_power_of_two

from oracle import dense_a_hat, dense_adjacency, message_passing_oracle


def node_major(h):
    """The model's time-major (T, N, F) representation as (N, F, T)."""
    return h.transpose(1, 2, 0)


def linked_pairs_dataset(n, t, edges):
    """N nodes, T slots and ``edges`` random node pairs linked in every slot, split with seed 0."""
    rng = np.random.default_rng(0)
    i, j = np.divmod(rng.choice(n * n, size=edges, replace=False), n)
    slots = np.tile(np.arange(1, t + 1), edges)
    y = rng.uniform(0.05, 1.0, size=edges * t)
    return split_dataset(DynamicGraphDataset(n, t, slots, np.repeat(i, t), np.repeat(j, t), y), seed=0)


def small_dataset(seed=0, n=6, t=4):
    return split_dataset(
        generate_synthetic(SynthSpec(n=n, t=t, density=0.8, noise=0.05, seed=seed)), seed=seed
    )


def synth_grad_check(seed, t=4, **config):
    """``grad_check`` at F = 3 on the graph ``tubalgcn grad-check --seed <seed>
    --slots <t>`` checks: 5 nodes at density 0.9, split with the same seed."""
    ds = generate_synthetic(SynthSpec(n=5, t=t, density=0.9, noise=0.05, seed=seed))
    return grad_check(ds, TrainConfig(embedding_dim=3, seed=seed, split_seed=seed, **config))


BAD_HYPERPARAMETERS = [
    ("max_epochs", 0),
    ("max_epochs", -3),
    ("patience", 0),
    ("embedding_dim", 0),
    ("n_layers", 0),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("learning_rate", 0.0),
    ("learning_rate", -1.0),
    ("kappa", float("nan")),
    ("kappa", float("inf")),
    ("kappa", -1.0),
    ("seed", -1),
    ("split_seed", -1),
    ("n_layers", 1.5),
    ("embedding_dim", 20.0),
    ("patience", True),
    ("seed", 0.5),
    ("learning_rate", "0.01"),
    ("activation", None),
]


class TestConfig:
    @pytest.mark.parametrize(
        "name,value", [("transform", "wavelet"), ("activation", "tanh"), ("adjacency_mode", "dense")]
    )
    def test_unknown_choice_fails_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be one of .*'{value}'"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name,value", BAD_HYPERPARAMETERS)
    def test_bad_hyperparameter_fails_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
            TrainConfig(**{name: value})


class TestInit:
    def test_deterministic(self):
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=4, seed=11)
        a = init_params(ds, cfg)
        b = init_params(ds, cfg)
        assert list(a) == list(b)
        for key, arr in a.items():
            np.testing.assert_array_equal(arr, b[key])

    def test_bounds_respected(self):
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=20, transform="dct", seed=0)
        params = init_params(ds, cfg)
        bound = np.sqrt(6.0 / 40.0)
        assert np.max(np.abs(params["w:dct:0"])) <= bound

    def test_seeds_differ(self):
        ds = small_dataset()
        a = init_params(ds, TrainConfig(embedding_dim=4, seed=1))
        b = init_params(ds, TrainConfig(embedding_dim=4, seed=2))
        assert np.max(np.abs(a["e"] - b["e"])) > 0


class TestModelAux:
    # The aux carries its config, so the only mismatch left is params that
    # do not fit it; every misfit key is named.
    @pytest.mark.parametrize(
        "params_config, aux_config, keys",
        [
            (dict(transform="dct"), dict(transform="dct", n_layers=2), ["w:dct:1"]),
            (dict(transform="dft"), dict(transform="dct"), ["w:dct:0", "w:dft:0"]),
            (dict(transform="dct", embedding_dim=4), dict(transform="dct"), ["e", "r", "u", "w:dct:0"]),
        ],
    )
    @pytest.mark.parametrize("entry", ["forward_model", "compute_gradients"])
    def test_params_that_do_not_fit_the_aux_fail_by_name(self, entry, params_config, aux_config, keys):
        ds = small_dataset(n=12, t=5)
        params = init_params(ds, TrainConfig(**{"embedding_dim": 3, **params_config}))
        aux = build_aux(ds, TrainConfig(**{"embedding_dim": 3, **aux_config}))
        message = f"parameters do not fit the model (arrays {keys} are missing or do not fit its config)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if entry == "forward_model":
                forward_model(params, aux)
            else:
                compute_gradients(params, aux, link_batch(ds, ds.train_idx))

    def test_unsplit_dataset_is_refused_by_name(self):
        ds = generate_synthetic(SynthSpec(n=5, t=2, density=1.0, seed=0))
        message = "dataset has no train/val/test splits; call split_dataset first"
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_aux(ds, TrainConfig(embedding_dim=3, max_epochs=2))


class TestGradients:
    def test_zero_at_perfect_fit_without_reg(self):
        # One self-consistent observation: force y to equal the model's
        # own prediction, then the data gradient must vanish.
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=3, transform="dct", kappa=0.0, seed=4)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, aux)[0])
        t_idx = np.array([1])
        i_idx = np.array([0])
        j_idx = np.array([1])
        f = cfg.embedding_dim
        y_val = h[0, :, 0] @ params["r"][:f] + h[1, :, 0] @ params["r"][f:]
        rows = link_rows(t_idx, i_idx, j_idx, ds.n_slots, ds.n_nodes)
        _, grads, _, _ = compute_gradients(params, aux, (rows, np.array([y_val])))
        for key, g in grads.items():
            assert np.max(np.abs(g)) <= 1e-12, key

    @pytest.mark.parametrize("transform", ["identity", "dft", "dct", "haar", "ensemble"])
    def test_finite_differences(self, transform):
        rep = synth_grad_check(3, transform=transform)
        assert rep["passed"], rep

    def test_finite_differences_haar_padding(self):
        rep = synth_grad_check(5, t=3, transform="haar")
        assert rep["passed"], rep

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "identity"])
    @pytest.mark.parametrize(
        "transform,t,mode",
        [
            pytest.param(kind, t, "sym_normalized", id=f"{kind}-{t}")
            for kind, t in [("dft", 4), ("haar", 3), ("dft", 5), ("dft", 6), ("identity", 4), ("dct", 5)]
        ]
        + [
            pytest.param(kind, t, "raw_self_loops", id=f"{kind}-{t}-raw_self_loops")
            for kind, t in [("dft", 4), ("dft", 5), ("haar", 3)]
        ],
    )
    def test_finite_differences_two_layers(self, transform, t, mode, activation):
        rep = synth_grad_check(3, t=t, transform=transform, activation=activation, n_layers=2, adjacency_mode=mode)
        assert rep["passed"], rep
        assert {"w:%s:0" % transform, "w:%s:1" % transform} <= rep["per_group"].keys()

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 6])
    def test_finite_differences_ensemble_at_padded_slot_counts(self, t, n_layers):
        # The padded Haar branch and the unpadded DFT and DCT branches share
        # g_h and the gradients of E and U.  At T = 1 and 2 every DFT slice
        # is self-conjugate (K = T).
        rep = synth_grad_check(3, t=t, transform="ensemble", n_layers=n_layers)
        assert rep["passed"], rep

    def test_norm_gradient(self):
        # Gradient of kappa * ||Theta||_2 is kappa * Theta / ||Theta||.
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=3, transform="identity", kappa=0.5, seed=6)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, aux)[0])
        f = cfg.embedding_dim
        y_val = h[0, :, 0] @ params["r"][:f] + h[1, :, 0] @ params["r"][f:]
        batch = (link_rows(np.array([1]), np.array([0]), np.array([1]), ds.n_slots, ds.n_nodes), np.array([y_val]))
        _, grads, _, _ = compute_gradients(params, aux, batch)
        norm = np.sqrt(sum(float(np.sum(a**2)) for a in params.values()))
        for key, arr in params.items():
            np.testing.assert_allclose(grads[key], 0.5 * arr / norm, atol=1e-12)


    def test_separate_arrays_give_the_gradients_of_views(self):
        # init_params returns views of one vector; load_checkpoint returns
        # separate arrays.  Both give the same bits.
        ds = small_dataset(seed=13)
        cfg = TrainConfig(embedding_dim=3, transform="ensemble", seed=13)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        batch = link_batch(ds, ds.train_idx)
        loss_views, grads_views, scores_views, _ = compute_gradients(params, aux, batch)
        separate = {key: a.copy() for key, a in params.items()}
        loss_separate, grads_separate, scores_separate, _ = compute_gradients(separate, aux, batch)
        assert loss_views == loss_separate
        np.testing.assert_array_equal(scores_views, scores_separate)
        assert list(grads_views) == list(params)
        for key in params:
            np.testing.assert_array_equal(grads_views[key], grads_separate[key])


class TestHeadGradient:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_gathered_row_reference(self, n_layers, activation):
        # Reference: gather the (B, F) endpoint rows, form g_r from them,
        # scatter g_h onto (node, slot) with np.add.at and backpropagate it
        # through every branch.  Links (1, 0, 1) and (1, 0, 2) share node 0's
        # row at slot 1; (2, 1, 2) and (2, 2, 1) use each other's rows from
        # the other side; (2, 3, 3) is a self pair.
        ds = small_dataset(seed=12)
        cfg = TrainConfig(
            embedding_dim=3, transform="ensemble", kappa=0.0, activation=activation, n_layers=n_layers, seed=12
        )
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        t = np.array([1, 1, 2, 2, 2, 3])
        i = np.array([0, 0, 1, 2, 3, 4])
        j = np.array([1, 2, 2, 1, 3, 0])
        y = np.random.default_rng(12).uniform(size=len(t))
        rows = link_rows(t, i, j, ds.n_slots, ds.n_nodes)
        _, grads, scores, y_hat = compute_gradients(params, aux, (rows, y))
        h = node_major(forward_model(params, aux)[0])

        e, u, r = params["e"], params["u"], params["r"]
        n, f, n_slots = h.shape
        hi, hj = h[i, :, t - 1], h[j, :, t - 1]
        ref_y_hat = hi @ r[:f] + hj @ r[f:]
        g = 2.0 * (ref_y_hat - y)
        ref = {"r": np.concatenate([hi.T @ g, hj.T @ g]), "e": np.zeros_like(e), "u": np.zeros_like(u)}
        g_h = np.zeros((n, n_slots, f))
        np.add.at(g_h, (i, t - 1), g[:, None] * r[:f])
        np.add.at(g_h, (j, t - 1), g[:, None] * r[f:])
        a_hat = preprocess_adjacency(build_adjacency(ds), cfg.adjacency_mode)
        x0 = e[None, :, :] * (1.0 + u[:, None, :])  # time-major (T, N, F)
        for kind, tm in aux.tms.items():
            # The explicit route the trainer's first layer skips: the input
            # X = E (1 + U) and the blocks of Â x_3 M, as later layers run.
            (blocks,) = transformed_blocks(a_hat, [tm])
            x, ref_caches = x0, []
            for layer in range(n_layers):
                wh = transform_weight(params[f"w:{kind}:{layer}"], tm)
                x, cache = layer_forward(propagate(blocks, x, tm), wh, tm, activation)
                ref_caches.append(cache)
            # The layer runs time-major: (T_b, N, F) in, (T_b, N, F) out.
            g_x = np.zeros((tm.size, n, f))
            g_x[:n_slots] = (1.0 / len(aux.tms)) * g_h.transpose(1, 0, 2)
            for layer in reversed(range(n_layers)):
                g_q, g_wh = layer_backward(g_x, ref_caches[layer], tm, activation)
                ref[f"w:{kind}:{layer}"] = weight_grad(g_wh, tm)
                g_x = propagate_grad(blocks, g_q, tm)
            g_x = node_major(g_x[:n_slots])
            ref["e"] += (g_x * (1.0 + u.T[None, :, :])).sum(axis=2)
            ref["u"] += np.einsum("nft,nf->tf", g_x, e)

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

        close(y_hat, ref_y_hat)
        close(predict(scores, rows), ref_y_hat)
        assert grads.keys() == ref.keys()
        for key, want in ref.items():
            assert np.max(np.abs(want)) > 0, key
            close(grads[key], want)


class TestForwardMatchesOracle:
    @pytest.mark.parametrize("t", [3, 4, 5])
    @pytest.mark.parametrize("mode", ["sym_normalized", "raw_self_loops"])
    @pytest.mark.parametrize("kind", ["identity", "dft", "dct", "haar"])
    def test_one_layer(self, kind, mode, t):
        # The trainer's tube-sparse path against the dense adjacency and the
        # message-passing oracle; haar at T = 3 and 5 runs zero-padded to 4 and 8.
        n = 6
        ds = small_dataset(seed=t, n=n, t=t)
        cfg = TrainConfig(embedding_dim=3, transform=kind, adjacency_mode=mode, seed=t)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, aux)[0])

        tm = aux.tms[kind]
        t_b = tm.size
        a = np.zeros((n, n, t_b))
        a[:, :, :t] = dense_a_hat(dense_adjacency(ds), mode)
        x = np.zeros((n, cfg.embedding_dim, t_b))
        x[:, :, :t] = params["e"][:, :, None] * (1.0 + params["u"].T[None, :, :])
        oracle = message_passing_oracle(a, x, params[f"w:{kind}:0"], tm, cfg.activation)
        assert np.max(np.abs(h - oracle[:, :, :t])) <= 1e-9

        # The blocks hold the K kept slices of Â x_3 M; under the DFT each
        # dropped slice T_b - s is the conjugate of kept slice s.
        a_hat_t = m_transform(tm.m, a.transpose(2, 0, 1)).transpose(1, 2, 0)
        k = tm.kept
        for s in range(k, t_b):
            np.testing.assert_allclose(a_hat_t[:, :, s], a_hat_t[:, :, t_b - s].conj(), rtol=0, atol=1e-12)
        expected = np.zeros((k * n, k * n), dtype=a_hat_t.dtype)
        for s in range(k):
            expected[s * n : (s + 1) * n, s * n : (s + 1) * n] = a_hat_t[:, :, s]
        # A one-layer model builds no blocks; a deeper one builds these.
        assert aux.blocks[kind] is None
        (blocks,) = transformed_blocks(preprocess_adjacency(build_adjacency(ds), mode), [tm])
        np.testing.assert_allclose(blocks.toarray(), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [3, 5])
    @pytest.mark.parametrize("mode", ["sym_normalized", "raw_self_loops"])
    def test_every_branch_shares_one_raw_a_hat_stack(self, mode, t):
        # T = 3 and 5 run the Haar branch padded to 4 and 8 slots; the one
        # stack holds Â's T slices, untransformed, with no stored zero.
        n = 6
        ds = small_dataset(seed=t, n=n, t=t)
        a = build_aux(ds, TrainConfig(embedding_dim=3, transform="ensemble", adjacency_mode=mode, seed=t)).a_hat
        assert a.shape == (t * n, n) and np.all(a.data != 0)
        dense = dense_a_hat(dense_adjacency(ds), mode)
        np.testing.assert_array_equal(a.toarray().reshape(t, n, n), dense.transpose(2, 0, 1))

    def test_two_layer_haar_keeps_activations_in_padded_slots(self):
        # T = 3 runs the Haar branch at 4 slots.  Layer 2 sees sigma(z) in the
        # padded slot, not zero: the oracle is applied twice to the padded
        # tensor and only the output is cropped.
        n, t = 6, 3
        ds = small_dataset(seed=t, n=n, t=t)
        cfg = TrainConfig(embedding_dim=3, transform="haar", n_layers=2, seed=t)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, aux)[0])

        tm = aux.tms["haar"]
        a = np.zeros((n, n, tm.size))
        a[:, :, :t] = dense_a_hat(dense_adjacency(ds), cfg.adjacency_mode)
        x = np.zeros((n, cfg.embedding_dim, tm.size))
        x[:, :, :t] = params["e"][:, :, None] * (1.0 + params["u"].T[None, :, :])
        for layer in range(2):
            x = message_passing_oracle(a, x, params[f"w:haar:{layer}"], tm, cfg.activation)
        assert np.max(np.abs(h - x[:, :, :t])) <= 1e-9

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("transform", TRANSFORM_CHOICES)
    def test_every_cli_configuration(self, transform, n_layers, activation, t):
        # Every transform, layer count and activation `tubalgcn train` accepts.
        n = 6
        ds = small_dataset(seed=t, n=n, t=t)
        cfg = TrainConfig(embedding_dim=3, transform=transform, activation=activation, n_layers=n_layers, seed=t)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, build_aux(ds, cfg))[0])
        expected = oracle_representation(ds, params, cfg)
        assert np.max(np.abs(expected)) > 0
        assert np.max(np.abs(h - expected)) <= 1e-9

    @pytest.mark.parametrize("mode", ADJACENCY_MODES)
    def test_observed_self_loop_and_all_zero_pair(self, mode):
        # Node 2 links to itself with weight 0.7 at slot 2, and the pair
        # (0, 3) is observed in every slot with weight 0.  Â adds the
        # self-loop to the observed weight and stores no zero, so the pair
        # has no tube in the blocks of the second layer either.
        n, t = 5, 3
        base = generate_synthetic(SynthSpec(n=n, t=t, density=0.6, seed=2))
        keep = ~((base.i == 0) & (base.j == 3))
        ds = DynamicGraphDataset(
            n,
            t,
            np.concatenate([base.t[keep], [2], np.arange(1, t + 1)]),
            np.concatenate([base.i[keep], [2], np.zeros(t, dtype=int)]),
            np.concatenate([base.j[keep], [2], np.full(t, 3)]),
            np.concatenate([base.y[keep], [0.7], np.zeros(t)]),
        )
        ds.train_idx = np.arange(len(ds.t))
        cfg = TrainConfig(embedding_dim=3, transform="ensemble", n_layers=2, adjacency_mode=mode, seed=2, split_seed=3)
        aux = build_aux(ds, cfg)
        a = aux.a_hat
        assert np.all(a.data != 0)
        if mode == "raw_self_loops":
            assert a[n + 2, 2] == 0.7 + 1.0
        for blocks in aux.blocks.values():
            assert 3 not in blocks.indices[blocks.indptr[0] : blocks.indptr[1]]
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, aux)[0])
        assert np.max(np.abs(h - oracle_representation(ds, params, cfg))) <= 1e-9
        _, grads, _, _ = compute_gradients(params, aux, link_batch(ds, ds.train_idx))
        assert np.all(np.isfinite(np.concatenate([g.ravel() for g in grads.values()])))
        # grad_check splits again; split seed 3 keeps the self-loop and the zero pair in train.
        assert set(range(len(ds.t) - 1 - t, len(ds.t))) <= set(split_dataset(ds, cfg.split_seed).train_idx)
        assert grad_check(ds, cfg)["passed"]


def oracle_representation(ds, params, cfg):
    """The model's (N, F, T) representation by the message-passing oracle.

    Each branch runs the oracle with its own weights on the operands
    zero-padded to its slot count and is cropped to T; the ensemble's
    reference is the equally weighted sum of its three branches.
    """
    t = ds.n_slots
    kinds = cfg.branch_kinds()
    a_hat = dense_a_hat(dense_adjacency(ds), cfg.adjacency_mode)
    x0 = params["e"][:, :, None] * (1.0 + params["u"].T[None, :, :])
    expected = 0.0
    for kind in kinds:
        tm = build_transform(kind, next_power_of_two(t) if kind == "haar" else t)
        pad = ((0, 0), (0, 0), (0, tm.size - t))
        a, x = np.pad(a_hat, pad), np.pad(x0, pad)
        for layer in range(cfg.n_layers):
            x = message_passing_oracle(a, x, params[f"w:{kind}:{layer}"], tm, cfg.activation)
        expected = expected + x[:, :, :t] / len(kinds)
    return expected


class TestEveryConfiguration:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        transform=st.sampled_from(TRANSFORM_CHOICES),
        n_layers=st.integers(1, 3),
        activation=st.sampled_from(ACTIVATIONS),
        mode=st.sampled_from(ADJACENCY_MODES),
        t=st.integers(1, 9),
        n=st.integers(4, 7),
        f=st.integers(1, 3),
        seed=st.integers(0, 999),
        kappa=st.sampled_from([0.0, 1e-4, 0.1]),
    )
    def test_gradients_and_forward_match_their_references(
        self, transform, n_layers, activation, mode, t, n, f, seed, kappa
    ):
        # Any configuration the CLI accepts, and kappa = 0, on any small
        # graph: the analytic gradients against finite differences, and the
        # forward pass against the message-passing oracle.
        ds = small_dataset(seed=seed, n=n, t=t)
        cfg = TrainConfig(
            embedding_dim=f, transform=transform, activation=activation, n_layers=n_layers, adjacency_mode=mode,
            kappa=kappa, seed=seed, split_seed=seed,
        )
        rep = grad_check(ds, cfg)
        assert rep["passed"], rep
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, build_aux(ds, cfg))[0])
        assert np.max(np.abs(h - oracle_representation(ds, params, cfg))) <= 1e-9


class TestMemory:
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_dft_identity_layer_caches_a_contiguous_real_h(self, n_layers):
        # With the identity activation H is the pre-activation itself, the
        # real part of a complex inverse: the cache must not keep that
        # complex array, twice H's bytes, alive through a strided view.
        ds = small_dataset(seed=4, n=8, t=6)
        cfg = TrainConfig(embedding_dim=3, transform="dft", activation="identity", n_layers=n_layers, seed=4)
        _, branch_caches = forward_model(init_params(ds, cfg), build_aux(ds, cfg))
        hs = [cache["h"] for cache in branch_caches["dft"][2]]
        assert len(hs) == n_layers
        for h in hs:
            assert h.dtype == np.float64 and h.flags.c_contiguous
            assert not np.iscomplexobj(h.base)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_aux_and_epoch_allocate_no_dense_adjacency(self, n_layers):
        # N = 2000, T = 8, 0.1 % of node pairs linked in every slot.  The
        # embedding is small so that the N x F x T activations stay far
        # below the bound and only an N x N x T allocation could break it.
        n, t = 2000, 8
        ds = linked_pairs_dataset(n, t, edges=4000)
        cfg = TrainConfig(embedding_dim=4, transform="ensemble", n_layers=n_layers)
        params = init_params(ds, cfg)
        batch = link_batch(ds, ds.train_idx)
        tracemalloc.start()
        try:
            aux = build_aux(ds, cfg)
            compute_gradients(params, aux, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = n * n * t * np.dtype(np.float64).itemsize
        assert peak < dense_bytes / 10, f"peak {peak} bytes"

    @pytest.mark.parametrize("transform,n_layers,bound", [("dct", 1, 4.5), ("ensemble", 1, 9.2), ("ensemble", 2, 18.0)])
    def test_gradient_pass_peak_in_activation_copies(self, transform, n_layers, bound):
        # At N = 2000, T = 16, F = 20 the (T, N, F) activations, not Â, set
        # a pass's peak.  The pass holds each such array only while it is
        # read, and the DFT's transform of a real array holds its complex
        # result and one real part; it peaks at 4.2, 9.2 and 15.7 copies of one.
        n, t, f = 2000, 16, 20
        ds = linked_pairs_dataset(n, t, edges=4000)
        cfg = TrainConfig(embedding_dim=f, transform=transform, n_layers=n_layers)
        params = init_params(ds, cfg)
        batch = link_batch(ds, ds.train_idx)
        aux = build_aux(ds, cfg)
        tracemalloc.start()
        try:
            compute_gradients(params, aux, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        copies = peak / (t * n * f * np.dtype(np.float64).itemsize)
        assert copies <= bound, f"peak {copies:.2f} copies of one (T, N, F) array"


class TestPassPurity:
    # compute_gradients drops its caches and temporaries as it goes and
    # writes into the arrays it made; it must never write into one it did
    # not make.  T = 5 runs the Haar branch padded to 8 slots and the DFT
    # branch with one self-conjugate slice.
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("transform", TRANSFORM_CHOICES)
    def test_repeats_bit_for_bit_and_leaves_its_inputs(self, transform, activation, n_layers):
        ds = small_dataset(seed=5, n=7, t=5)
        cfg = TrainConfig(embedding_dim=3, transform=transform, activation=activation, n_layers=n_layers, seed=5)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        batch = link_batch(ds, ds.train_idx)
        blocks = [b.data for b in aux.blocks.values() if b is not None]
        inputs = [*params.values(), *batch, aux.a_hat.data, *blocks]
        saved = [a.copy() for a in inputs]
        first, second = compute_gradients(params, aux, batch), compute_gradients(params, aux, batch)
        assert first[0] == second[0]
        assert list(first[1]) == list(second[1]) == list(params)
        for a, b in zip([*first[1].values(), *first[2:]], [*second[1].values(), *second[2:]]):
            assert a.tobytes() == b.tobytes()
        for before, after in zip(saved, inputs):
            assert before.tobytes() == after.tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("transform", TRANSFORM_CHOICES)
    def test_forward_caches_outlive_the_layer_backward(self, transform, activation, n_layers):
        # grad_check reads forward_model's caches["h"]; layer_backward reads
        # a cache and never drops or overwrites what it holds.
        ds = small_dataset(seed=5, n=7, t=5)
        cfg = TrainConfig(embedding_dim=3, transform=transform, activation=activation, n_layers=n_layers, seed=5)
        aux = build_aux(ds, cfg)
        _, branch_caches = forward_model(init_params(ds, cfg), aux)
        saved = {kind: [{k: a.copy() for k, a in c.items()} for c in caches] for kind, (_, _, caches) in branch_caches.items()}
        for kind, (_, _, caches) in branch_caches.items():
            for cache in caches:
                layer_backward(np.ones_like(cache["h"]), cache, aux.tms[kind], activation)
        assert list(branch_caches) == list(cfg.branch_kinds())
        for kind, (_, _, caches) in branch_caches.items():
            assert len(caches) == n_layers
            for cache, before in zip(caches, saved[kind]):
                assert list(cache) == ["q", "wh", "h"]
                for key, a in before.items():
                    assert cache[key].tobytes() == a.tobytes()


class TestIdentityBranch:
    # The identity branch runs no product along time.  The general path, run
    # with an explicit I not flagged as the identity, must give the same
    # bits; the -0.0 planted in E, U and W checks signed zeros, which I x
    # turns into +0.0.
    @pytest.mark.parametrize("t", [3, 5, 6, 16])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_the_general_path_with_an_explicit_i(self, n_layers, activation, t):
        ds = small_dataset(seed=t, n=7, t=t)
        cfg = TrainConfig(embedding_dim=3, transform="identity", activation=activation, n_layers=n_layers, seed=t)
        aux = build_aux(ds, cfg)
        eye = TransformMatrix("explicit", np.eye(t))
        (blocks,) = transformed_blocks(aux.a_hat, [eye]) if n_layers > 1 else (None,)
        if blocks is not None:
            assert blocks.data.tobytes() == aux.blocks["identity"].data.tobytes()
        general = replace(aux, tms={"identity": eye}, blocks={"identity": blocks})
        params = init_params(ds, cfg)
        params["e"][0, 1] = params["u"][1, 2] = params["w:identity:0"][0, 0, 0] = -0.0
        batch = link_batch(ds, ds.train_idx)
        skipped, full = compute_gradients(params, aux, batch), compute_gradients(params, general, batch)
        assert skipped[0] == full[0]
        assert list(skipped[1]) == list(full[1])
        for a, b in zip([*skipped[1].values(), *skipped[2:]], [*full[1].values(), *full[2:]]):
            assert a.tobytes() == b.tobytes()


def zero_state(n):
    return AdamState(np.zeros(n), np.zeros(n))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        theta = np.array([1.0, -2.0])
        out = adam_step(theta, np.zeros(2), zero_state(2), lr=0.1)
        np.testing.assert_array_equal(out, theta)

    def test_first_step_scalar_hand_trace(self):
        g = 3.0
        out = adam_step(np.array([1.0]), np.array([g]), zero_state(1), lr=0.01)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g**2) / (1 - 0.999)
        expected = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(out, [expected], atol=1e-15)

    def test_returns_a_new_vector(self):
        # train keeps the best epoch's parameters by reference.
        theta = np.array([1.0, -2.0])
        out = adam_step(theta, np.array([0.5, 0.5]), zero_state(2), lr=0.1)
        assert not np.shares_memory(out, theta)
        np.testing.assert_array_equal(theta, [1.0, -2.0])

    def test_moments_update_in_place_with_the_textbook_bits(self):
        rng = np.random.default_rng(1)
        theta, state = rng.normal(size=50), zero_state(50)
        m, v = state.m, state.v
        ref_m, ref_v = np.zeros(50), np.zeros(50)
        for step in range(1, 6):
            g = rng.normal(size=50)
            out = adam_step(theta, g, state, 0.01)
            ref_m = 0.9 * ref_m + (1 - 0.9) * g
            ref_v = 0.999 * ref_v + (1 - 0.999) * g**2
            ref = theta - 0.01 * (ref_m / (1 - 0.9**step)) / (np.sqrt(ref_v / (1 - 0.999**step)) + 1e-8)
            assert state.m is m and state.v is v and state.step == step
            assert state.m.tobytes() == ref_m.tobytes() and state.v.tobytes() == ref_v.tobytes()
            assert out.tobytes() == ref.tobytes()
            theta = out

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=5)
        g = rng.normal(size=5)
        np.testing.assert_array_equal(
            adam_step(theta.copy(), g, zero_state(5), 0.01),
            adam_step(theta.copy(), g, zero_state(5), 0.01),
        )


class TestEarlyStopping:
    def test_stops_at_exactly_tenth_rise(self):
        stopper = EarlyStopping(patience=10)
        curve = [1.0, 0.9, 0.8] + [0.8 + 0.01 * k for k in range(1, 11)]
        stopped_at = None
        for epoch, v in enumerate(curve, start=1):
            if stopper.update(v, epoch):
                stopped_at = epoch
                break
        assert stopped_at == len(curve)  # the 10th consecutive rise
        assert stopper.best_epoch == 3

    def test_reset_on_any_improvement(self):
        stopper = EarlyStopping(patience=3)
        for epoch, v in enumerate([1.0, 1.1, 1.2, 0.9, 1.0, 1.1, 1.2], start=1):
            stop = stopper.update(v, epoch)
        assert stop  # three rises after the reset at epoch 4
        assert stopper.best_epoch == 4

    def test_flat_curve_never_stops(self):
        stopper = EarlyStopping(patience=2)
        assert not any(stopper.update(0.5, e) for e in range(1, 50))

    def test_a_tie_makes_the_later_epoch_the_best(self):
        # train keeps the parameters of the latest epoch at the best value; the stopper names that epoch.
        stopper = EarlyStopping(patience=5)
        for epoch, v in enumerate([0.5, 0.4, 0.4, 0.45], start=1):
            stopper.update(v, epoch)
        assert (stopper.best, stopper.best_epoch) == (0.4, 3)


class TestTrain:
    def test_overfits_tiny_dataset(self):
        rng = np.random.default_rng(3)
        rows = []
        seen = set()
        while len(rows) < 20:
            t = int(rng.integers(1, 5))
            i, j = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            if i == j or (t, i, j) in seen:
                continue
            seen.add((t, i, j))
            rows.append((t, i, j, float(rng.uniform(0.05, 1.0))))
        ds = split_dataset(DynamicGraphDataset(8, 4, *zip(*rows)), seed=3)
        cfg = TrainConfig(transform="ensemble", max_epochs=2000, patience=2000, seed=3, split_seed=3)
        _, hist, _ = train(ds, cfg)
        assert min(h["train_mae"] for h in hist) <= 0.01

    def test_returns_best_validation_epoch(self):
        ds = small_dataset(seed=7, n=10)
        cfg = TrainConfig(embedding_dim=4, transform="dct", max_epochs=60, patience=5, seed=7, split_seed=7)
        model, hist, _ = train(ds, cfg)
        metrics = evaluate(model, ds)
        best_val = min(h["val_mae"] for h in hist)
        assert abs(metrics["val_mae"] - best_val) <= 1e-12

    @pytest.mark.parametrize(
        "transform,n_layers,t", [(kind, 1, 4) for kind in TRANSFORM_CHOICES] + [("haar", 2, 5)]
    )
    def test_metrics_equal_evaluate(self, tmp_path, transform, n_layers, t):
        # train reads its metrics from the best epoch's representation tensor,
        # which later epochs must leave alone; at T = 5 the padded Haar branch
        # holds it as a view of the padded layer output.  The model saved and
        # loaded again scores the same.
        ds = small_dataset(seed=11, n=10, t=t)
        cfg = TrainConfig(
            embedding_dim=4, transform=transform, n_layers=n_layers, max_epochs=60, patience=3, seed=11, split_seed=11
        )
        model, hist, metrics = train(ds, cfg)
        assert hist[-1]["val_mae"] > min(h["val_mae"] for h in hist)  # the best epoch is not the last
        assert metrics == evaluate(model, ds)
        save_checkpoint(tmp_path / "m.npz", model)
        restored = load_checkpoint(tmp_path / "m.npz")
        assert metrics == evaluate(restored, ds)

    def test_scores_each_representation_once(self, monkeypatch):
        # The loss, the train and validation MAE and the best epoch's split
        # metrics all gather from the scores of one head GEMM per pass.
        import tubalgcn.training

        calls = []
        real = tubalgcn.training.head_scores

        def counting(h, r):
            calls.append(h.shape)
            return real(h, r)

        monkeypatch.setattr(tubalgcn.training, "head_scores", counting)
        ds = small_dataset(seed=8, n=10)
        cfg = TrainConfig(embedding_dim=4, transform="ensemble", max_epochs=3, patience=3, seed=8, split_seed=8)
        model, hist, _ = train(ds, cfg)
        assert len(hist) == 3 and len(calls) == 3
        evaluate(model, ds)
        assert len(calls) == 4

    def test_deterministic_history(self):
        ds = small_dataset(seed=8, n=10)
        cfg = TrainConfig(embedding_dim=4, transform="dft", max_epochs=30, patience=30, seed=8, split_seed=8)
        _, h1, _ = train(ds, cfg)
        _, h2, _ = train(ds, cfg)
        assert h1 == h2

    def test_loss_decreases_initially(self):
        ds = small_dataset(seed=9, n=12)
        cfg = TrainConfig(embedding_dim=4, transform="ensemble", max_epochs=6, patience=6, seed=9, split_seed=9)
        _, hist, _ = train(ds, cfg)
        losses = [h["train_loss"] for h in hist]
        assert losses[-1] < losses[0]


class TestTrainedModel:
    # A score means something only for the config and split the model was
    # trained with; evaluate reads both from the model.
    @staticmethod
    def trained():
        """An unsplit graph, a dct config with split seed 4, and its trained model and metrics."""
        ds = generate_synthetic(SynthSpec(n=10, t=4, density=0.8, noise=0.05, seed=4))
        cfg = TrainConfig(embedding_dim=3, transform="dct", max_epochs=20, seed=4, split_seed=4)
        model, _, metrics = train(ds, cfg)
        return ds, cfg, model, metrics

    def test_evaluate_takes_no_config_and_the_model_is_frozen(self):
        ds, cfg, model, _ = self.trained()
        for other in (replace(cfg, activation="relu"), replace(cfg, adjacency_mode="raw_self_loops")):
            with pytest.raises(TypeError):
                evaluate(model, ds, other)
            with pytest.raises(AttributeError):
                model.config = other

    def test_evaluate_splits_with_the_model_split_seed(self):
        # The split a dataset carries is ignored, so no other split is scored.
        ds, _, model, metrics = self.trained()
        assert evaluate(model, ds) == evaluate(model, split_dataset(ds, seed=7)) == metrics

    @pytest.mark.parametrize("transform", ["dct", "ensemble"])
    def test_train_and_grad_check_split_with_the_config_split_seed(self, transform):
        # As evaluate does, whatever split the dataset carries.
        ds = generate_synthetic(SynthSpec(n=10, t=4, density=0.8, noise=0.05, seed=4))
        cfg = TrainConfig(embedding_dim=3, transform=transform, max_epochs=20, seed=4, split_seed=4)
        model, history, metrics = train(ds, cfg)
        report = grad_check(ds, cfg)
        for split in (split_dataset(ds, seed=4), split_dataset(ds, seed=7)):
            other, other_history, other_metrics = train(split, cfg)
            assert (other_history, other_metrics) == (history, metrics)
            assert list(other.params) == list(model.params)
            for key, arr in model.params.items():
                np.testing.assert_array_equal(other.params[key], arr)
            assert grad_check(split, cfg) == report

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda ds: generate_synthetic(SynthSpec(n=9, t=4, density=0.8, seed=4)), "trained on 10 nodes"),
            (lambda ds: replace(ds, y=ds.y[::-1]), "not trained on the rows of this dataset"),
        ],
        ids=["nodes", "rows"],
    )
    def test_evaluate_refuses_other_data(self, edit, message):
        ds, _, model, _ = self.trained()
        with pytest.raises(ValueError, match=f"^model was {message}"):
            evaluate(model, edit(ds))

    # What load_checkpoint would refuse, the constructor refuses, so
    # save_checkpoint never writes it and evaluate never scores it.
    @pytest.mark.parametrize(
        "edit,message",
        [
            ("nan_r", "arrays ['r'] are not real floating point or hold NaN or inf"),
            ("int_r", "arrays ['r'] are not real floating point or hold NaN or inf"),
            ("short_r", "parameters do not fit the model (arrays ['r'] are missing or do not fit its config)"),
            ("no_u", "parameters do not fit the model (arrays ['u', 'w:dct:0'] are missing or do not fit its config)"),
            ("bad_digest", "data_sha256 'abc' is not 64 lowercase hex digits"),
            ("dict_config", "config must be a TrainConfig, got {'transform': 'dct'}"),
            ("list_params", "params must be a mapping of names to arrays, got list"),
        ],
        ids=["nan_r", "int_r", "short_r", "no_u", "bad_digest", "dict_config", "list_params"],
    )
    def test_a_bad_model_is_refused_when_made(self, edit, message):
        cfg = TrainConfig(embedding_dim=3, transform="dct")
        params, digest = dict(init_params(small_dataset(n=12), cfg)), None
        if edit == "nan_r":
            params["r"] = np.full_like(params["r"], np.nan)
        elif edit == "int_r":
            params["r"] = np.ones(6, dtype=np.int64)
        elif edit == "short_r":
            params["r"] = params["r"][:4]
        elif edit == "no_u":
            del params["u"]
        elif edit == "bad_digest":
            digest = "abc"
        elif edit == "list_params":
            params = list(params.values())
        else:
            cfg = {"transform": "dct"}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainedModel(cfg, params, digest)

    def test_params_are_kept_in_param_shapes_order(self):
        cfg = TrainConfig(embedding_dim=3, transform="ensemble", n_layers=2)
        params = init_params(small_dataset(n=12), cfg)
        model = TrainedModel(cfg, dict(reversed(params.items())), None)
        assert list(model.params) == list(params)
        for k, a in params.items():
            np.testing.assert_array_equal(model.params[k], a)
            # The model keeps copies; the caller's arrays keep their flags.
            assert not np.shares_memory(model.params[k], a) and a.flags.writeable

    def test_a_model_cannot_change_after_its_check(self):
        # An edit would reach evaluate unchecked, and save_checkpoint would write a file load_checkpoint refuses.
        ds, _, model, metrics = self.trained()
        with pytest.raises(ValueError, match="read-only"):
            model.params["r"][0] = np.nan
        with pytest.raises(TypeError):
            model.params["r"] = np.full_like(model.params["r"], np.nan)
        assert evaluate(model, ds) == metrics


class TestCheckpoint:
    @pytest.mark.parametrize("transform", TRANSFORM_CHOICES)
    def test_round_trip(self, tmp_path, transform):
        # Loading returns the TrainedModel that was saved: config, digest and every array.
        ds = small_dataset(seed=10, n=8)
        cfg = TrainConfig(embedding_dim=3, transform=transform, max_epochs=5, patience=5, seed=10, split_seed=10)
        model, _, _ = train(ds, cfg)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model)
        restored = load_checkpoint(path)
        assert isinstance(restored, TrainedModel)
        assert restored.config == cfg
        assert restored.data_sha256 == model.data_sha256 == ds.digest()
        assert list(restored.params) == list(model.params)
        for key, arr in model.params.items():
            np.testing.assert_array_equal(arr, restored.params[key])

    def test_numpy_scalar_config_round_trips_as_builtins(self, tmp_path):
        # numpy scalars pass the type checks; the config stores them as the
        # builtins of its defaults, so the checkpoint's JSON record can hold them.
        ds = small_dataset(seed=10, n=8)
        cfg = TrainConfig(
            embedding_dim=np.int64(3), learning_rate=np.float32(0.01), max_epochs=np.int32(2), seed=np.int64(3),
            split_seed=np.int64(10),
        )
        model, _, _ = train(ds, cfg)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model)
        restored = load_checkpoint(path).config
        assert restored == cfg
        assert [type(v) for v in vars(restored).values()] == [type(f.default) for f in fields(TrainConfig)]

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        ds = small_dataset(seed=10, n=8)
        cfg = TrainConfig(embedding_dim=3, transform="dct", seed=10)
        path = tmp_path / "m.npz"
        save_checkpoint(path, TrainedModel(cfg, init_params(ds, cfg), None))
        before = path.read_bytes()

        def failing_savez(fh, **arrays):
            fh.write(b"half an archive")
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, TrainedModel(cfg, init_params(ds, replace(cfg, seed=11)), None))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]  # no temporary file left behind

    @pytest.mark.parametrize("digest", [5, "ab" * 31, "AB" * 32, "g" * 64, ["ab" * 32]])
    def test_bad_digest_in_checkpoint_fails_by_name(self, tmp_path, digest):
        path = self.checkpoint_with_config(tmp_path)
        with np.load(path) as z:
            arrays = dict(z)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["extra"]["data_sha256"] = digest
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        message = f"{path}: checkpoint data_sha256 {digest!r} is not 64 lowercase hex digits"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @staticmethod
    def checkpoint_with_config(tmp_path, **fields):
        """A dct checkpoint whose stored config has ``fields`` written over it."""
        ds = small_dataset(seed=10, n=8)
        cfg = TrainConfig(embedding_dim=3, transform="dct", seed=10)
        path = tmp_path / "m.npz"
        save_checkpoint(path, TrainedModel(cfg, init_params(ds, cfg), None))
        with np.load(path) as z:
            arrays = dict(z)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["config"].update(fields)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        return path

    def test_unknown_activation_in_checkpoint_fails_by_name(self, tmp_path):
        path = self.checkpoint_with_config(tmp_path, activation="tanh")
        with pytest.raises(ValueError, match="activation must be one of .*'tanh'"):
            load_checkpoint(path)

    def test_squared_reg_true_in_checkpoint_fails_by_name(self, tmp_path):
        # Configs from when the squared-norm regularizer was an option carry
        # squared_reg; false still loads (the version 1 fixture in test_cli).
        path = self.checkpoint_with_config(tmp_path, squared_reg=True)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint config sets squared_reg"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,value", BAD_HYPERPARAMETERS)
    def test_bad_hyperparameter_in_checkpoint_fails_by_name(self, tmp_path, name, value):
        path = self.checkpoint_with_config(tmp_path, **{name: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid config in checkpoint \\({name} must be "):
            load_checkpoint(path)
