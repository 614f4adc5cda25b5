import json
import re
import tracemalloc

import numpy as np
import pytest

from tubalgcn.data import DynamicGraphDataset, SynthSpec, build_adjacency, generate_synthetic, split_dataset
from tubalgcn.gtcn import ACTIVATIONS, layer_backward, preprocess_adjacency
from tubalgcn.head_loss import predict
from tubalgcn.tensor3 import m_transform
from tubalgcn.training import (
    TRANSFORM_CHOICES,
    AdamState,
    EarlyStopping,
    TrainConfig,
    adam_step,
    build_aux,
    compute_gradients,
    evaluate,
    forward_model,
    grad_check,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from tubalgcn.transforms import build_transform, next_power_of_two

from oracle import message_passing_oracle


def node_major(h):
    """The model's time-major (T, N, F) representation as (N, F, T)."""
    return h.transpose(1, 2, 0)


def small_dataset(seed=0, n=6, t=4):
    return split_dataset(
        generate_synthetic(SynthSpec(n=n, t=t, density=0.8, noise=0.05, seed=seed)), seed=seed
    )


BAD_HYPERPARAMETERS = [
    ("max_epochs", 0),
    ("max_epochs", -3),
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
    @pytest.mark.parametrize("name,value", [("activation", "tanh"), ("adjacency_mode", "dense")])
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


class TestGradients:
    def test_zero_at_perfect_fit_without_reg(self):
        # One self-consistent observation: force y to equal the model's
        # own prediction, then the data gradient must vanish.
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=3, transform="dct", kappa=0.0, seed=4)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, aux, cfg)[0])
        t_idx = np.array([1])
        i_idx = np.array([0])
        j_idx = np.array([1])
        f = cfg.embedding_dim
        y_val = h[0, :, 0] @ params["r"][:f] + h[1, :, 0] @ params["r"][f:]
        _, grads, _, _ = compute_gradients(params, aux, (t_idx, i_idx, j_idx, np.array([y_val])), cfg)
        for key, g in grads.items():
            assert np.max(np.abs(g)) <= 1e-12, key

    @pytest.mark.parametrize("transform", ["identity", "dft", "dct", "haar", "ensemble"])
    def test_finite_differences(self, transform):
        rep = grad_check(seed=3, transform=transform)
        assert rep["passed"], rep

    def test_finite_differences_haar_padding(self):
        rep = grad_check(seed=5, t=3, transform="haar")
        assert rep["passed"], rep

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "identity"])
    @pytest.mark.parametrize(
        "transform,t", [("dft", 4), ("haar", 3), ("dft", 5), ("dft", 6), ("identity", 4), ("dct", 5)]
    )
    def test_finite_differences_two_layers(self, transform, t, activation):
        rep = grad_check(seed=3, t=t, transform=transform, activation=activation, n_layers=2)
        assert rep["passed"], rep
        assert {"w:%s:0" % transform, "w:%s:1" % transform} <= rep["per_group"].keys()

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("t", [3, 5, 6])
    def test_finite_differences_ensemble_at_padded_slot_counts(self, t, n_layers):
        # The padded Haar branch and the unpadded DFT and DCT branches share
        # g_h and the gradients of E and U.
        rep = grad_check(seed=3, t=t, transform="ensemble", n_layers=n_layers)
        assert rep["passed"], rep

    def test_norm_gradient(self):
        # Gradient of kappa * ||Theta||_2 is kappa * Theta / ||Theta||.
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=3, transform="identity", kappa=0.5, seed=6)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, aux, cfg)[0])
        f = cfg.embedding_dim
        y_val = h[0, :, 0] @ params["r"][:f] + h[1, :, 0] @ params["r"][f:]
        batch = (np.array([1]), np.array([0]), np.array([1]), np.array([y_val]))
        _, grads, _, _ = compute_gradients(params, aux, batch, cfg)
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
        batch = ds.subset_arrays(ds.train_idx)
        loss_views, grads_views, scores_views, _ = compute_gradients(params, aux, batch, cfg)
        separate = {key: a.copy() for key, a in params.items()}
        loss_separate, grads_separate, scores_separate, _ = compute_gradients(separate, aux, batch, cfg)
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
        _, grads, scores, y_hat = compute_gradients(params, aux, (t, i, j, y), cfg)
        h, caches = forward_model(params, aux, cfg)
        h = node_major(h)

        e, u, r = params["e"], params["u"], params["r"]
        n, f, n_slots = h.shape
        hi, hj = h[i, :, t - 1], h[j, :, t - 1]
        ref_y_hat = hi @ r[:f] + hj @ r[f:]
        g = 2.0 * (ref_y_hat - y)
        ref = {"r": np.concatenate([hi.T @ g, hj.T @ g]), "e": np.zeros_like(e), "u": np.zeros_like(u)}
        g_h = np.zeros((n, n_slots, f))
        np.add.at(g_h, (i, t - 1), g[:, None] * r[:f])
        np.add.at(g_h, (j, t - 1), g[:, None] * r[f:])
        for kind, b in aux.items():
            # The layer runs time-major: (T_b, N, F) in, (T_b, N, F) out.
            g_x = np.zeros((b.tm.size, n, f))
            g_x[:n_slots] = (1.0 / len(aux)) * g_h.transpose(1, 0, 2)
            for layer in reversed(range(n_layers)):
                g_x, ref[f"w:{kind}:{layer}"] = layer_backward(
                    b.blocks, g_x, caches[kind][layer], b.tm, activation
                )
            g_x = node_major(g_x[:n_slots])
            ref["e"] += (g_x * (1.0 + u.T[None, :, :])).sum(axis=2)
            ref["u"] += np.einsum("nft,nf->tf", g_x, e)

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

        close(y_hat, ref_y_hat)
        close(predict(scores, t, i, j), ref_y_hat)
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
        h = node_major(forward_model(params, aux, cfg)[0])

        branch = aux[kind]
        tm = branch.tm
        t_b = tm.size
        a = np.zeros((n, n, t_b))
        a[:, :, :t] = preprocess_adjacency(build_adjacency(ds), mode)
        x = np.zeros((n, cfg.embedding_dim, t_b))
        x[:, :, :t] = params["e"][:, :, None] * (1.0 + params["u"].T[None, :, :])
        oracle = message_passing_oracle(a, x, params[f"w:{kind}:0"], tm, cfg.activation)
        assert np.max(np.abs(h - oracle[:, :, :t])) <= 1e-9

        # The blocks hold the K kept slices of Â x_3 M; under the DFT each
        # dropped slice T_b - s is the conjugate of kept slice s.
        a_hat_t = m_transform(a, tm.m)
        k = tm.kept
        for s in range(k, t_b):
            np.testing.assert_allclose(a_hat_t[:, :, s], a_hat_t[:, :, t_b - s].conj(), rtol=0, atol=1e-12)
        expected = np.zeros((k * n, k * n), dtype=a_hat_t.dtype)
        for s in range(k):
            expected[s * n : (s + 1) * n, s * n : (s + 1) * n] = a_hat_t[:, :, s]
        np.testing.assert_allclose(branch.blocks.toarray(), expected, rtol=0, atol=1e-12)

    def test_two_layer_haar_keeps_activations_in_padded_slots(self):
        # T = 3 runs the Haar branch at 4 slots.  Layer 2 sees sigma(z) in the
        # padded slot, not zero: the oracle is applied twice to the padded
        # tensor and only the output is cropped.
        n, t = 6, 3
        ds = small_dataset(seed=t, n=n, t=t)
        cfg = TrainConfig(embedding_dim=3, transform="haar", n_layers=2, seed=t)
        aux = build_aux(ds, cfg)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, aux, cfg)[0])

        tm = aux["haar"].tm
        a = np.zeros((n, n, tm.size))
        a[:, :, :t] = preprocess_adjacency(build_adjacency(ds), cfg.adjacency_mode)
        x = np.zeros((n, cfg.embedding_dim, tm.size))
        x[:, :, :t] = params["e"][:, :, None] * (1.0 + params["u"].T[None, :, :])
        for layer in range(2):
            x = message_passing_oracle(a, x, params[f"w:haar:{layer}"], tm, cfg.activation)
        assert np.max(np.abs(h - x[:, :, :t])) <= 1e-9

    @pytest.mark.parametrize("t", [3, 4, 5])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("transform", TRANSFORM_CHOICES)
    def test_every_cli_configuration(self, transform, n_layers, activation, t):
        # Every transform, layer count and activation `tubalgcn train` accepts.
        # Each branch runs the oracle with its own weights on the operands
        # zero-padded to its slot count and is cropped to T; the ensemble's
        # reference is the equally weighted sum of its three branches.
        n = 6
        ds = small_dataset(seed=t, n=n, t=t)
        cfg = TrainConfig(embedding_dim=3, transform=transform, activation=activation, n_layers=n_layers, seed=t)
        params = init_params(ds, cfg)
        h = node_major(forward_model(params, build_aux(ds, cfg), cfg)[0])

        kinds = ("dft", "dct", "haar") if transform == "ensemble" else (transform,)
        a_hat = preprocess_adjacency(build_adjacency(ds), cfg.adjacency_mode)
        x0 = params["e"][:, :, None] * (1.0 + params["u"].T[None, :, :])
        expected = np.zeros_like(h)
        for kind in kinds:
            tm = build_transform(kind, next_power_of_two(t) if kind == "haar" else t)
            pad = ((0, 0), (0, 0), (0, tm.size - t))
            a, x = np.pad(a_hat, pad), np.pad(x0, pad)
            for layer in range(n_layers):
                x = message_passing_oracle(a, x, params[f"w:{kind}:{layer}"], tm, activation)
            expected += x[:, :, :t] / len(kinds)
        assert np.max(np.abs(expected)) > 0
        assert np.max(np.abs(h - expected)) <= 1e-9


class TestMemory:
    def test_aux_and_epoch_allocate_no_dense_adjacency(self):
        # N = 2000, T = 8, 0.1 % of node pairs linked in every slot.  The
        # embedding is small so that the N x F x T activations stay far
        # below the bound and only an N x N x T allocation could break it.
        n, t, edges = 2000, 8, 4000
        rng = np.random.default_rng(0)
        i, j = np.divmod(rng.choice(n * n, size=edges, replace=False), n)
        slots = np.tile(np.arange(1, t + 1), edges)
        y = rng.uniform(0.05, 1.0, size=edges * t)
        ds = split_dataset(DynamicGraphDataset(n, t, slots, np.repeat(i, t), np.repeat(j, t), y), seed=0)
        cfg = TrainConfig(embedding_dim=4, transform="ensemble")
        params = init_params(ds, cfg)
        batch = ds.subset_arrays(ds.train_idx)
        tracemalloc.start()
        try:
            aux = build_aux(ds, cfg)
            compute_gradients(params, aux, batch, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = n * n * t * np.dtype(np.float64).itemsize
        assert peak < dense_bytes / 10, f"peak {peak} bytes"


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
        cfg = TrainConfig(transform="ensemble", max_epochs=2000, patience=2000, seed=3)
        _, hist, _ = train(ds, cfg)
        assert min(h["train_mae"] for h in hist) <= 0.01

    def test_returns_best_validation_epoch(self):
        ds = small_dataset(seed=7, n=10)
        cfg = TrainConfig(embedding_dim=4, transform="dct", max_epochs=60, patience=5, seed=7)
        params, hist, _ = train(ds, cfg)
        metrics = evaluate(params, ds, cfg)
        best_val = min(h["val_mae"] for h in hist)
        assert abs(metrics["val_mae"] - best_val) <= 1e-12

    @pytest.mark.parametrize(
        "transform,n_layers,t", [(kind, 1, 4) for kind in TRANSFORM_CHOICES] + [("haar", 2, 5)]
    )
    def test_metrics_equal_evaluate(self, transform, n_layers, t):
        # train reads its metrics from the best epoch's representation tensor,
        # which later epochs must leave alone; at T = 5 the padded Haar branch
        # holds it as a view of the padded layer output.
        ds = small_dataset(seed=11, n=10, t=t)
        cfg = TrainConfig(
            embedding_dim=4, transform=transform, n_layers=n_layers, max_epochs=60, patience=3, seed=11
        )
        params, hist, metrics = train(ds, cfg)
        assert hist[-1]["val_mae"] > min(h["val_mae"] for h in hist)  # the best epoch is not the last
        assert metrics == evaluate(params, ds, cfg)

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
        cfg = TrainConfig(embedding_dim=4, transform="ensemble", max_epochs=3, patience=3, seed=8)
        params, hist, _ = train(ds, cfg)
        assert len(hist) == 3 and len(calls) == 3
        evaluate(params, ds, cfg)
        assert len(calls) == 4

    def test_deterministic_history(self):
        ds = small_dataset(seed=8, n=10)
        cfg = TrainConfig(embedding_dim=4, transform="dft", max_epochs=30, patience=30, seed=8)
        _, h1, _ = train(ds, cfg)
        _, h2, _ = train(ds, cfg)
        assert h1 == h2

    def test_loss_decreases_initially(self):
        ds = small_dataset(seed=9, n=12)
        cfg = TrainConfig(embedding_dim=4, transform="ensemble", max_epochs=6, patience=6, seed=9)
        _, hist, _ = train(ds, cfg)
        losses = [h["train_loss"] for h in hist]
        assert losses[-1] < losses[0]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ds = small_dataset(seed=10, n=8)
        cfg = TrainConfig(embedding_dim=3, transform="ensemble", max_epochs=5, patience=5, seed=10)
        params, _, _ = train(ds, cfg)
        path = tmp_path / "m.npz"
        save_checkpoint(path, params, cfg, extra={"note": "x"})
        restored, cfg2, extra = load_checkpoint(path)
        assert cfg2 == cfg
        assert extra == {"note": "x"}
        assert list(restored) == list(params)
        for key, arr in params.items():
            np.testing.assert_array_equal(arr, restored[key])

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        ds = small_dataset(seed=10, n=8)
        cfg = TrainConfig(embedding_dim=3, transform="dct", seed=10)
        path = tmp_path / "m.npz"
        save_checkpoint(path, init_params(ds, cfg), cfg)
        before = path.read_bytes()

        def failing_savez(fh, **arrays):
            fh.write(b"half an archive")
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, init_params(ds, TrainConfig(embedding_dim=3, transform="dct", seed=11)), cfg)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]  # no temporary file left behind

    @staticmethod
    def checkpoint_with_config(tmp_path, **fields):
        """A dct checkpoint whose stored config has ``fields`` written over it."""
        ds = small_dataset(seed=10, n=8)
        cfg = TrainConfig(embedding_dim=3, transform="dct", seed=10)
        path = tmp_path / "m.npz"
        save_checkpoint(path, init_params(ds, cfg), cfg)
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
