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
from tubalgcn.gtcn import layer_forward, propagate, transform_weight, transformed_blocks
from tubalgcn.tensor3 import m_transform
from tubalgcn.training import EarlyStopping, TrainConfig, evaluate, train
from tubalgcn.transforms import TRANSFORM_KINDS, build_transform

from oracle import dense_a_hat, message_passing_oracle, slot_stack
from test_tensor3 import chain_product
from test_training import synth_grad_check


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
                x = rng.normal(size=(3, 2, t)).transpose(2, 0, 1)
                back = m_transform(tm.m_inv, m_transform(tm.m, x))
                ok &= np.max(np.abs(back - x)) <= 1e-10
            eye = build_transform("identity", t)
            a = rng.normal(size=(2, 3, t)).transpose(2, 0, 1)
            b = rng.normal(size=(3, 4, t)).transpose(2, 0, 1)
            ok &= np.array_equal(chain_product(a, b, eye), np.matmul(a, b))
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
                prod = chain_product(a.transpose(2, 0, 1), b.transpose(2, 0, 1), tm)[:, 0, 0]
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
            a = dense_a_hat(raw, "sym_normalized")
            x = rng.normal(size=(n, f_in, t))
            w = rng.normal(size=(f_in, f_out, t))
            tm = build_transform(kind, t)
            # The layer the trainer runs after the first, on blocks built as build_aux builds them.
            (blocks,) = transformed_blocks(slot_stack(a), [tm])
            qh = propagate(blocks, np.ascontiguousarray(x.transpose(2, 0, 1)), tm)
            h, _ = layer_forward(qh, transform_weight(w, tm), tm, "sigmoid")
            h = h.transpose(1, 2, 0)  # time-major (T, N, F) to the oracle's (N, F, T)
            diff = np.max(np.abs(h - message_passing_oracle(a, x, w, tm, "sigmoid")))
            worst = max(worst, diff)
        ok = worst <= 1e-9 and (time.perf_counter() - started) < 30.0
        _report(3, "layer forward matches message-passing oracle", ok)

    def test_criterion_4_gradient_checks(self):
        started = time.perf_counter()
        ok = True
        for transform in ["identity", "dft", "dct", "haar", "ensemble"]:
            ok &= synth_grad_check(3, transform=transform)["passed"]
        ok &= synth_grad_check(5, t=3, transform="haar")["passed"]  # padding path
        ok &= (time.perf_counter() - started) < 60.0
        _report(4, "analytic gradients vs finite differences", ok)

    def test_criterion_5_overfit_capacity(self):
        started = time.perf_counter()
        rng = np.random.default_rng(3)
        rows, seen = [], set()
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
        cfg = TrainConfig(embedding_dim=4, transform="dct", max_epochs=60, patience=5, seed=7, split_seed=7)
        model, hist, _ = train(ds, cfg)
        metrics = evaluate(model, ds)
        ok &= abs(metrics["val_mae"] - min(h["val_mae"] for h in hist)) <= 1e-12
        _report(6, "early stop at tenth consecutive rise, best epoch returned", ok)

    def test_criterion_7_transforms_beat_identity(self, tmp_path):
        # `tubalgcn ablation` trains every scheme with the default config at
        # seeds 0..4, each seed also the split seed, and writes each mean test MAE.
        started = time.perf_counter()
        data, out = tmp_path / "g.tsv", tmp_path / "ablation.txt"
        assert main(["gen-synth", "--nodes", "200", "--slots", "16", "--density", "0.05", "--pattern", "mixed",
                     "--noise", "0.02", "--seed", "42", "--out", str(data)]) == 0
        assert main(["ablation", "--data", str(data), "--seeds", "5", "--out", str(out)]) == 0
        header, *rows = out.read_text(encoding="utf-8").split("# ablation\n")[1].splitlines()
        column = header.split(",").index("mae_mean")
        means = {row.split(",")[0]: float(row.split(",")[column]) for row in rows}
        assert list(means) == ["identity", "dft", "dct", "haar", "ensemble"]
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
        k = np.arange(n_obs)
        ds = split_dataset(
            DynamicGraphDataset(n_obs + 1, 1, np.ones_like(k), np.zeros_like(k), k + 1, np.full(n_obs, 0.5)), seed=0
        )
        got = (len(ds.train_idx), len(ds.val_idx), len(ds.test_idx))
        _report(9, f"60/20/20 split of {n_obs} observations", got == sizes)
