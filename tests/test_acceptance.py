"""End-to-end acceptance checks.

Each test verifies one release criterion and prints a single
"criterion N ...: PASS/FAIL" line (run pytest with -s or look at
captured stdout).  These are intentionally redundant with the unit
suites: they pin down the external contract in one place, at the
stated tolerances, on top of whatever the finer-grained tests cover.
"""

import time

import numpy as np
import pytest

from tubalgcn.cli import main
from tubalgcn.data import DynamicGraphDataset, SynthSpec, generate_synthetic, split_dataset
from tubalgcn.gtcn import GtcnLayerParams, gtcn_forward, message_passing_oracle, preprocess_adjacency
from tubalgcn.head_loss import LinkObservation
from tubalgcn.tensor3 import facewise_product, m_inverse_transform, m_product, m_transform
from tubalgcn.training import EarlyStopping, TrainConfig, build_aux, evaluate, grad_check, train
from tubalgcn.transforms import TRANSFORM_KINDS, build_transform


def _report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


class TestAcceptance:
    def test_criterion_1_algebra_suite(self):
        started = time.perf_counter()
        ok = True
        rng = np.random.default_rng(0)
        for t in [2, 4, 8, 16]:
            for kind in TRANSFORM_KINDS:
                tm = build_transform(kind, t)
                resid = np.max(np.abs(tm.m @ tm.m_inv - np.eye(t)))
                ok &= resid <= 1e-12
                x = rng.normal(size=(3, 2, t))
                back = m_inverse_transform(m_transform(x, tm.m), tm)
                ok &= np.max(np.abs(back - x)) <= 1e-10
            eye = build_transform("identity", t)
            a = rng.normal(size=(2, 3, t))
            b = rng.normal(size=(3, 4, t))
            ok &= np.array_equal(m_product(a, b, eye), facewise_product(a, b))
        ok &= (time.perf_counter() - started) < 5.0
        _report(1, "algebra suite", ok)

    def test_criterion_2_tubal_circular_convolution(self):
        started = time.perf_counter()
        rng = np.random.default_rng(1)
        worst = 0.0
        for t in [2, 4, 8]:
            tm = build_transform("dft", t)
            for _ in range(50):
                a = rng.normal(size=(1, 1, t))
                b = rng.normal(size=(1, 1, t))
                prod = m_product(a, b, tm)[0, 0]
                conv = np.array(
                    [sum(a[0, 0, j] * b[0, 0, (k - j) % t] for j in range(t)) for k in range(t)]
                )
                worst = max(worst, np.max(np.abs(prod - conv / np.sqrt(t))))
        ok = worst <= 1e-10 and (time.perf_counter() - started) < 5.0
        _report(2, "tubal product is scaled circular convolution", ok)

    def test_criterion_3_forward_matches_oracle(self):
        started = time.perf_counter()
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            f_in = int(rng.integers(1, 4))
            f_out = int(rng.integers(1, 4))
            t = int(rng.choice([2, 4]))
            kind = TRANSFORM_KINDS[seed % 4]
            raw = rng.uniform(0.0, 1.0, size=(n, n, t))
            raw[np.arange(n), np.arange(n), :] = 0.0
            a = preprocess_adjacency(raw, "sym_normalized")
            x = rng.normal(size=(n, f_in, t))
            p = GtcnLayerParams(rng.normal(size=(f_in, f_out, t)), "sigmoid")
            tm = build_transform(kind, t)
            diff = np.max(np.abs(gtcn_forward(a, x, p, tm) - message_passing_oracle(a, x, p, tm)))
            worst = max(worst, diff)
        ok = worst <= 1e-9 and (time.perf_counter() - started) < 30.0
        _report(3, "layer forward matches message-passing oracle", ok)

    def test_criterion_4_gradient_checks(self):
        started = time.perf_counter()
        ok = True
        for transform in ["identity", "dft", "dct", "haar", "ensemble"]:
            ok &= grad_check(seed=3, transform=transform)["passed"]
        ok &= grad_check(seed=5, t=3, transform="haar")["passed"]  # padding path
        ok &= (time.perf_counter() - started) < 60.0
        _report(4, "analytic gradients vs finite differences", ok)

    def test_criterion_5_overfit_capacity(self):
        started = time.perf_counter()
        rng = np.random.default_rng(3)
        obs, seen = [], set()
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
        ok = min(h["train_mae"] for h in hist) <= 0.01
        ok &= (time.perf_counter() - started) < 60.0
        _report(5, "ensemble overfits 20 links", ok)

    def test_criterion_6_early_stop_rule(self):
        # Scripted curve: improve for 3 epochs, then rise 10 times in a row.
        stopper = EarlyStopping(patience=10)
        curve = [1.0, 0.9, 0.8] + [0.8 + 0.01 * k for k in range(1, 11)]
        stopped_at = None
        for epoch, v in enumerate(curve, start=1):
            if stopper.update(v, epoch):
                stopped_at = epoch
                break
        ok = stopped_at == 13 and stopper.best_epoch == 3

        # And the trainer hands back the parameters from the best epoch.
        ds = split_dataset(
            generate_synthetic(SynthSpec(n=10, t=4, density=0.8, noise=0.05, seed=7)), seed=7
        )
        cfg = TrainConfig(embedding_dim=4, transform="dct", max_epochs=60, patience=5, seed=7)
        model, hist = train(build_aux(ds, cfg), ds, cfg)
        metrics = evaluate(model, build_aux(ds, cfg), ds, cfg)
        ok &= abs(metrics["val_mae"] - min(h["val_mae"] for h in hist)) <= 1e-12
        _report(6, "early stop at tenth consecutive rise, best epoch returned", ok)

    def test_criterion_7_transforms_beat_identity(self):
        started = time.perf_counter()
        ds = generate_synthetic(
            SynthSpec(n=200, t=16, density=0.05, pattern="mixed", noise=0.02, seed=42)
        )
        means = {}
        for scheme in ["identity", "dft", "dct", "haar", "ensemble"]:
            maes = []
            for seed in range(5):
                cfg = TrainConfig(transform=scheme, seed=seed, split_seed=seed)
                split = split_dataset(ds, seed=cfg.split_seed)
                model, _ = train(build_aux(split, cfg), split, cfg)
                metrics = evaluate(model, build_aux(split, cfg), split, cfg)
                maes.append(metrics["test_mae"])
            means[scheme] = float(np.mean(maes))
        singles = [means[k] for k in ["dft", "dct", "haar"]]
        ok = all(m < means["identity"] for m in singles + [means["ensemble"]])
        ok &= means["ensemble"] <= 1.02 * min(singles)
        ok &= (time.perf_counter() - started) < 600.0
        print("  mean test MAE:", {k: round(v, 5) for k, v in means.items()})
        _report(7, "temporal transforms beat identity; ensemble near best single", ok)

    def test_criterion_8_byte_identical_reports(self, tmp_path):
        data = tmp_path / "d.tsv"
        assert main(["gen-synth", "--nodes", "20", "--slots", "4", "--density", "0.3",
                     "--noise", "0.02", "--seed", "11", "--out", str(data)]) == 0
        reports = []
        for run in "ab":
            sub = tmp_path / run
            sub.mkdir()
            assert main(["train", "--data", str(data), "--transform", "ensemble",
                         "--seed", "4", "--embedding-dim", "5", "--max-epochs", "25",
                         "--patience", "25", "--checkpoint", str(sub / "m.npz"),
                         "--report", str(sub / "r.txt")]) == 0
            reports.append((sub / "r.txt").read_bytes())
        _report(8, "training reports are byte-identical across reruns", reports[0] == reports[1])

    @pytest.mark.parametrize("n_obs,sizes", [(10, (6, 2, 2)), (11, (7, 2, 2)), (101, (61, 20, 20))])
    def test_criterion_9_split_sizes(self, n_obs, sizes):
        obs = [LinkObservation(1, 0, k + 1, 0.5) for k in range(n_obs)]
        ds = split_dataset(DynamicGraphDataset.from_observations(n_obs + 1, 1, obs), seed=0)
        got = (len(ds.train_idx), len(ds.val_idx), len(ds.test_idx))
        _report(9, f"60/20/20 split of {n_obs} observations", got == sizes)
