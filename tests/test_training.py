import numpy as np
import pytest

from tubalgcn.data import DynamicGraphDataset, SynthSpec, generate_synthetic, split_dataset
from tubalgcn.head_loss import LinkObservation
from tubalgcn.training import (
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
    model_from_named,
    save_checkpoint,
    train,
)


def small_dataset(seed=0, n=6, t=4):
    return split_dataset(
        generate_synthetic(SynthSpec(n=n, t=t, density=0.8, noise=0.05, seed=seed)), seed=seed
    )


class TestInit:
    def test_deterministic(self):
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=4, seed=11)
        a = init_params(ds, cfg)
        b = init_params(ds, cfg)
        for key, arr in a.flatten().items():
            np.testing.assert_array_equal(arr, b.flatten()[key])

    def test_bounds_respected(self):
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=20, transform="dct", seed=0)
        model = init_params(ds, cfg)
        bound = np.sqrt(6.0 / 40.0)
        for w in model.branch_ws["dct"]:
            assert np.max(np.abs(w)) <= bound

    def test_seeds_differ(self):
        ds = small_dataset()
        a = init_params(ds, TrainConfig(embedding_dim=4, seed=1))
        b = init_params(ds, TrainConfig(embedding_dim=4, seed=2))
        assert np.max(np.abs(a.e - b.e)) > 0


class TestGradients:
    def test_zero_at_perfect_fit_without_reg(self):
        # One self-consistent observation: force y to equal the model's
        # own prediction, then the data gradient must vanish.
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=3, transform="dct", kappa=0.0, seed=4)
        aux = build_aux(ds, cfg)
        model = init_params(ds, cfg)
        h, _ = forward_model(model, aux, cfg.activation)
        t_idx = np.array([1])
        i_idx = np.array([0])
        j_idx = np.array([1])
        f = cfg.embedding_dim
        y_val = h[0, :, 0] @ model.r[:f] + h[1, :, 0] @ model.r[f:]
        _, grads, _, _ = compute_gradients(model, aux, (t_idx, i_idx, j_idx, np.array([y_val])), cfg)
        for key, g in grads.items():
            assert np.max(np.abs(g)) <= 1e-12, key

    @pytest.mark.parametrize("transform", ["identity", "dft", "dct", "haar", "ensemble"])
    def test_finite_differences(self, transform):
        rep = grad_check(seed=3, transform=transform)
        assert rep["passed"], rep

    def test_finite_differences_haar_padding(self):
        rep = grad_check(seed=5, t=3, transform="haar")
        assert rep["passed"], rep

    def test_norm_gradient(self):
        # Gradient of kappa * ||Theta||_2 is kappa * Theta / ||Theta||.
        ds = small_dataset()
        cfg = TrainConfig(embedding_dim=3, transform="identity", kappa=0.5, seed=6)
        aux = build_aux(ds, cfg)
        model = init_params(ds, cfg)
        h, _ = forward_model(model, aux, cfg.activation)
        f = cfg.embedding_dim
        y_val = h[0, :, 0] @ model.r[:f] + h[1, :, 0] @ model.r[f:]
        batch = (np.array([1]), np.array([0]), np.array([1]), np.array([y_val]))
        _, grads, _, _ = compute_gradients(model, aux, batch, cfg)
        named = model.flatten()
        norm = np.sqrt(sum(float(np.sum(a**2)) for a in named.values()))
        for key, arr in named.items():
            np.testing.assert_allclose(grads[key], 0.5 * arr / norm, atol=1e-12)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        named = {"a": np.array([1.0, -2.0])}
        state = AdamState.for_params(named)
        out = adam_step(named, {"a": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(out["a"], named["a"])

    def test_first_step_scalar_hand_trace(self):
        g = 3.0
        named = {"a": np.array([1.0])}
        state = AdamState.for_params(named)
        out = adam_step(named, {"a": np.array([g])}, state, lr=0.01)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g**2) / (1 - 0.999)
        expected = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(out["a"], [expected], atol=1e-15)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        named = {"a": rng.normal(size=5)}
        grads = {"a": rng.normal(size=5)}
        s1 = AdamState.for_params(named)
        s2 = AdamState.for_params(named)
        np.testing.assert_array_equal(
            adam_step(dict(named), grads, s1, 0.01)["a"],
            adam_step(dict(named), grads, s2, 0.01)["a"],
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
        obs = []
        seen = set()
        while len(obs) < 20:
            t = int(rng.integers(1, 5))
            i, j = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            if i == j or (t, i, j) in seen:
                continue
            seen.add((t, i, j))
            obs.append(LinkObservation(t, i, j, float(rng.uniform(0.05, 1.0))))
        ds = split_dataset(DynamicGraphDataset.from_observations(8, 4, obs), seed=3)
        cfg = TrainConfig(transform="ensemble", max_epochs=2000, patience=2000, seed=3)
        _, hist = train(build_aux(ds, cfg), ds, cfg)
        assert min(h["train_mae"] for h in hist) <= 0.01

    def test_returns_best_validation_epoch(self):
        ds = small_dataset(seed=7, n=10)
        cfg = TrainConfig(embedding_dim=4, transform="dct", max_epochs=60, patience=5, seed=7)
        model, hist = train(build_aux(ds, cfg), ds, cfg)
        aux = build_aux(ds, cfg)
        metrics = evaluate(model, aux, ds, cfg)
        best_val = min(h["val_mae"] for h in hist)
        assert abs(metrics["val_mae"] - best_val) <= 1e-12

    def test_deterministic_history(self):
        ds = small_dataset(seed=8, n=10)
        cfg = TrainConfig(embedding_dim=4, transform="dft", max_epochs=30, patience=30, seed=8)
        _, h1 = train(build_aux(ds, cfg), ds, cfg)
        _, h2 = train(build_aux(ds, cfg), ds, cfg)
        assert h1 == h2

    def test_loss_decreases_initially(self):
        ds = small_dataset(seed=9, n=12)
        cfg = TrainConfig(embedding_dim=4, transform="ensemble", max_epochs=6, patience=6, seed=9)
        _, hist = train(build_aux(ds, cfg), ds, cfg)
        losses = [h["train_loss"] for h in hist]
        assert losses[-1] < losses[0]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ds = small_dataset(seed=10, n=8)
        cfg = TrainConfig(embedding_dim=3, transform="ensemble", max_epochs=5, patience=5, seed=10)
        model, _ = train(build_aux(ds, cfg), ds, cfg)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, cfg, extra={"note": "x"})
        named, cfg2, extra = load_checkpoint(path)
        assert cfg2 == cfg
        assert extra == {"note": "x"}
        restored = model_from_named(named, cfg2)
        for key, arr in model.flatten().items():
            np.testing.assert_array_equal(arr, restored.flatten()[key])
