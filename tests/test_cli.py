import argparse
import dataclasses
import hashlib
import json
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from tubalgcn.cli import _config_from_args, build_parser, main
from tubalgcn.data import PATTERNS, SynthSpec, generate_synthetic, parse_dataset
from tubalgcn.training import (
    FIELD_CHOICES,
    TrainConfig,
    TrainedModel,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def two_row_file(tmp_path):
    """A dataset of two observations, too few to split."""
    path = tmp_path / "two.tsv"
    path.write_text("#nodes=4\n#slots=2\n1\t0\t1\t0.5\n2\t2\t3\t0.25\n")
    return path


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.tsv"
    rc = main(
        [
            "gen-synth", "--nodes", "16", "--slots", "4", "--pattern", "periodic",
            "--density", "0.4", "--seed", "7", "--out", str(path),
        ]
    )
    assert rc == 0
    return path


class TestGenSynth:
    def test_writes_parseable_file(self, dataset_file):
        from tubalgcn.data import parse_dataset

        ds = parse_dataset(dataset_file)
        assert ds.n_nodes == 16 and ds.n_slots == 4

    def test_criterion_7_graph_is_pinned(self, tmp_path):
        # README's criterion-7 graph: the acceptance thresholds and every recorded
        # baseline rest on these bytes, so a change to how the generator draws must keep them.
        out = tmp_path / "crit7.tsv"
        assert main(["gen-synth", "--nodes", "200", "--slots", "16", "--density", "0.05", "--pattern", "mixed",
                     "--noise", "0.02", "--seed", "42", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "b01dd366877f85ec037b90be65ccb1106e71deba1b65448eb7613ce0dff57cc9"

    def test_byte_identical_reruns(self, tmp_path):
        flags = ["gen-synth", "--nodes", "8", "--slots", "3", "--density", "0.5", "--seed", "1"]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_slots_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen-synth", "--nodes", "4", "--slots", "0", "--seed", "0",
                   "--out", str(tmp_path / "x.tsv")])
        assert rc == 1

    @pytest.mark.parametrize(
        "flags,message",
        [(["--nodes", "1", "--slots", "4"], "need n >= 2 nodes and t >= 1 slots, got n=1, t=4"),
         (["--nodes", "4", "--slots", "0"], "need n >= 2 nodes and t >= 1 slots, got n=4, t=0"),
         (["--nodes", "4", "--slots", "2", "--density", "1.5"], "density must lie in (0, 1], got 1.5"),
         (["--nodes", "4", "--slots", "2", "--density", "0"], "density must lie in (0, 1], got 0.0")],
        ids=["nodes", "slots", "density_above_one", "zero_density"],
    )
    def test_bad_size_names_its_flag(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.tsv"
        assert main(["gen-synth", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_fails_by_name(self, tmp_path, capsys, noise):
        out = tmp_path / "x.tsv"
        assert main(["gen-synth", "--nodes", "4", "--slots", "2", "--noise", noise, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: noise must be finite and >= 0, got {float(noise)!r}\n"
        assert not out.exists()


class TestTrainEval:
    def _train(self, dataset_file, tmp_path, transform="dct", extra=()):
        tmp_path.mkdir(exist_ok=True)
        ckpt = tmp_path / "m.npz"
        report = tmp_path / "r.txt"
        rc = main(
            [
                "train", "--data", str(dataset_file), "--transform", transform,
                "--seed", "7", "--embedding-dim", "4", "--max-epochs", "15",
                "--patience", "15", "--checkpoint", str(ckpt), "--report", str(report),
                *extra,
            ]
        )
        assert rc == 0
        return ckpt, report

    def test_train_writes_finite_metrics(self, dataset_file, tmp_path):
        _, report = self._train(dataset_file, tmp_path, transform="ensemble")
        text = report.read_text()
        for key in ["train_mae", "val_mae", "test_mae", "test_rmse"]:
            line = next(l for l in text.splitlines() if l.startswith(f"{key} ="))
            assert np.isfinite(float(line.split("=")[1]))

    def test_byte_identical_reports(self, dataset_file, tmp_path):
        _, r1 = self._train(dataset_file, tmp_path / "a", transform="dft")
        _, r2 = self._train(dataset_file, tmp_path / "b", transform="dft")
        assert r1.read_bytes() == r2.read_bytes()

    def test_byte_identical_checkpoints(self, dataset_file, tmp_path):
        c1, _ = self._train(dataset_file, tmp_path / "a")
        c2, _ = self._train(dataset_file, tmp_path / "b")
        assert c1.read_bytes() == c2.read_bytes()

    def test_checkpoint_does_not_depend_on_how_data_is_spelled(self, dataset_file, tmp_path):
        # The checkpoint records the dataset's digest, not the --data path.
        d = dataset_file.parent
        c1, _ = self._train(d / dataset_file.name, tmp_path / "a")
        c2, _ = self._train(d / ".." / d.name / dataset_file.name, tmp_path / "b")
        assert c1.read_bytes() == c2.read_bytes()

    def test_haar_pads_odd_slot_count(self, tmp_path):
        data = tmp_path / "d.tsv"
        assert main(["gen-synth", "--nodes", "10", "--slots", "7", "--density", "0.6",
                     "--seed", "2", "--out", str(data)]) == 0
        ckpt, report = self._train(data, tmp_path, transform="haar")
        assert "test_mae" in report.read_text()

    def test_eval_reproduces_train_metrics(self, dataset_file, tmp_path):
        ckpt, train_report = self._train(dataset_file, tmp_path)
        eval_report = tmp_path / "e.txt"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_file),
                     "--report", str(eval_report)]) == 0
        train_lines = {
            l.split(" = ")[0]: l.split(" = ")[1]
            for l in train_report.read_text().splitlines()
            if l.startswith(("test_", "val_", "train_"))
        }
        eval_lines = {
            l.split(" = ")[0]: l.split(" = ")[1]
            for l in eval_report.read_text().splitlines()
            if l.startswith(("test_", "val_", "train_"))
        }
        assert train_lines == eval_lines

    def test_train_builds_aux_once(self, dataset_file, tmp_path, monkeypatch):
        import tubalgcn.training

        calls = []
        real = tubalgcn.training.build_aux

        def counting(ds, config):
            calls.append(config.transform)
            return real(ds, config)

        monkeypatch.setattr(tubalgcn.training, "build_aux", counting)
        self._train(dataset_file, tmp_path, transform="ensemble")
        assert calls == ["ensemble"]

    @pytest.mark.parametrize("weight", ["nan", "inf", "-0.5"])
    def test_bad_weight_in_test_split_fails(self, dataset_file, tmp_path, capsys, weight):
        from tubalgcn.data import parse_dataset, split_dataset

        row = int(split_dataset(parse_dataset(dataset_file), seed=0).test_idx[0])
        lines = dataset_file.read_text().splitlines()
        lineno = 3 + row  # two header lines, then one line per row
        fields = lines[lineno - 1].split("\t")
        lines[lineno - 1] = "\t".join(fields[:3] + [weight])
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(bad), "--max-epochs", "2",
                   "--checkpoint", str(tmp_path / "m.npz"), "--report", str(tmp_path / "r.txt")])
        assert rc == 1
        assert f"bad.tsv:{lineno}: weight" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    def test_eval_node_mismatch_fails(self, dataset_file, tmp_path, capsys):
        ckpt, _ = self._train(dataset_file, tmp_path)
        other = tmp_path / "other.tsv"
        assert main(["gen-synth", "--nodes", "9", "--slots", "4", "--density", "0.5",
                     "--seed", "3", "--out", str(other)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(other),
                   "--report", str(tmp_path / "e.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {ckpt}, data {other}: model was trained on 16 nodes, dataset has 9\n"

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--max-epochs", "0", "max_epochs"),
            ("--lr", "nan", "learning_rate"),
            ("--lr", "-1", "learning_rate"),
            ("--kappa", "-1", "kappa"),
            ("--seed", "-1", "seed"),
            ("--split-seed", "-1", "split_seed"),
        ],
    )
    def test_bad_hyperparameter_fails_by_name(self, dataset_file, tmp_path, capsys, flag, value, field):
        rc = main(["train", "--data", str(dataset_file), flag, value,
                   "--checkpoint", str(tmp_path / "m.npz"), "--report", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be ")
        assert not (tmp_path / "m.npz").exists() and not (tmp_path / "r.txt").exists()

    def test_train_prints_ms_per_epoch(self, dataset_file, tmp_path, capsys):
        self._train(dataset_file, tmp_path)
        out = capsys.readouterr().out
        assert re.fullmatch(r"trained 15 epochs in \d+\.\d\ds \(\d+\.\d ms/epoch\); test MAE \d\.\d{5}\n", out), out

    def test_eval_slot_mismatch_fails(self, tmp_path, capsys):
        paths = {}
        for slots in (4, 8):
            paths[slots] = tmp_path / f"t{slots}.tsv"
            assert main(["gen-synth", "--nodes", "12", "--slots", str(slots), "--density", "0.5",
                         "--seed", "3", "--out", str(paths[slots])]) == 0
        ckpt, _ = self._train(paths[4], tmp_path)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(paths[8]),
                   "--report", str(tmp_path / "e.txt")])
        assert rc == 1
        assert "trained on 4 time slots, dataset has 8" in capsys.readouterr().err
        assert not (tmp_path / "e.txt").exists()

    @pytest.mark.parametrize("edit", ["drop_every_50th_row", "reverse_rows"])
    def test_eval_on_other_rows_fails(self, dataset_file, tmp_path, capsys, edit):
        # N and T match, so only the dataset digest tells these files apart
        # from the training data; re-split with the checkpoint's split seed,
        # their "test" rows would include training rows.
        ckpt, _ = self._train(dataset_file, tmp_path)
        lines = dataset_file.read_text().splitlines()
        header, rows = lines[:2], lines[2:]
        rows = [row for k, row in enumerate(rows) if k % 50 != 49] if edit == "drop_every_50th_row" else rows[::-1]
        other = tmp_path / "other.tsv"
        other.write_text("\n".join(header + rows) + "\n")
        capsys.readouterr()
        report = tmp_path / "e.txt"
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(other), "--report", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {ckpt}, data {other}: model was not trained on the rows of this dataset "
            "in their order (dataset SHA-256 differs)\n"
        )
        assert not report.exists()

    def test_eval_of_a_reformatted_copy(self, dataset_file, tmp_path):
        # The digest covers the parsed rows, not the file's bytes: a comment,
        # CRLF line ends and another spelling of every weight change nothing.
        ckpt, _ = self._train(dataset_file, tmp_path)
        lines = dataset_file.read_text().splitlines()
        fields = [line.split("\t") for line in lines[2:]]
        rows = ["\t".join(f[:3] + [f"{float(f[3]):.17e}"]) for f in fields]
        copy = tmp_path / "copy.tsv"
        copy.write_bytes("\r\n".join(lines[:2] + ["# re-serialized"] + rows).encode() + b"\r\n")
        metrics = []
        for data in (dataset_file, copy):
            report = tmp_path / f"{data.stem}.txt"
            assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--report", str(report)]) == 0
            metrics.append([l for l in report.read_text().splitlines() if l.startswith(("test_", "val_", "train_"))])
        assert metrics[0] == metrics[1] and len(metrics[0]) == 6

    @pytest.mark.parametrize(
        "kind",
        [
            "npz_without_meta", "npz_without_arrays", "unknown_config_field", "not_npz",
            "meta_not_json", "meta_not_utf8", "meta_without_version", "missing_layer", "extra_not_an_object",
        ],
    )
    def test_eval_foreign_checkpoint_fails(self, dataset_file, tmp_path, capsys, kind):
        ckpt = tmp_path / "x.npz"
        if kind == "npz_without_meta":
            np.savez(ckpt, e=np.zeros((16, 4)))
        elif kind == "npz_without_arrays":
            good, _ = self._train(dataset_file, tmp_path / "good")
            with np.load(good) as z:
                np.savez(ckpt, __meta__=z["__meta__"], e=z["e"])
        elif kind == "unknown_config_field":
            meta = {"version": 1, "config": {"dropout": 0.5}, "param_keys": [], "extra": {}}
            np.savez(ckpt, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        elif kind in ("meta_not_json", "meta_not_utf8"):
            raw = b"{not json" if kind == "meta_not_json" else b"\xff\xfe"
            np.savez(ckpt, __meta__=np.frombuffer(raw, dtype=np.uint8))
        elif kind == "meta_without_version":
            meta = {"config": {}, "param_keys": [], "extra": {}}
            np.savez(ckpt, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        elif kind == "missing_layer":
            # A two-layer checkpoint whose record and arrays both lack layer 1.
            good, _ = self._train(dataset_file, tmp_path / "good", extra=("--layers", "2"))
            with np.load(good) as z:
                arrays = {k: z[k] for k in z.files if k != "w:dct:1"}
            meta = json.loads(bytes(arrays["__meta__"]).decode())
            meta["param_keys"].remove("w:dct:1")
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            np.savez(ckpt, **arrays)
        elif kind == "extra_not_an_object":
            good, _ = self._train(dataset_file, tmp_path / "good")
            with np.load(good) as z:
                arrays = dict(z)
            meta = json.loads(bytes(arrays["__meta__"]).decode())
            meta["extra"] = "x"
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            np.savez(ckpt, **arrays)
        else:
            ckpt.write_text("epoch,loss\n1,0.5\n")
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_file),
                   "--report", str(tmp_path / "e.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        if kind == "missing_layer":  # TrainedModel names the arrays that fit no model of the config
            assert err == (f"error: {ckpt}: checkpoint parameters do not fit the model "
                           "(arrays ['w:dct:1'] are missing or do not fit its config)\n")
        else:
            assert f"error: {ckpt}: not a tubalgcn checkpoint" in err
        assert not (tmp_path / "e.txt").exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("n_layers", 1.5, "invalid config in checkpoint (n_layers must be int, got 1.5)"),
            *[
                (key, value, f"checkpoint arrays {[key]!r} are not real floating point or hold NaN or inf")
                for key in ("r", "e", "w:dct:0")
                for value in (np.nan, np.inf)
            ],
            (
                "w:haar:0", slice(5),
                "checkpoint parameters do not fit the model (arrays ['w:haar:0'] are missing or do not fit its config)",
            ),
        ],
    )
    def test_eval_of_an_edited_checkpoint_fails_by_name(self, dataset_file, tmp_path, capsys, key, value, message):
        # A config value of the wrong type, a non-finite parameter array, or
        # a Haar weight cut from the branch's padded T_b = 8 slots to T = 5.
        if key == "w:haar:0":
            data = tmp_path / "t5.tsv"
            assert main(["gen-synth", "--nodes", "10", "--slots", "5", "--density", "0.6",
                         "--seed", "2", "--out", str(data)]) == 0
            good, _ = self._train(data, tmp_path / "good", transform="haar")
        else:
            good, _ = self._train(dataset_file, tmp_path / "good")
        with np.load(good) as z:
            arrays = dict(z)
        if isinstance(value, slice):
            arrays[key] = arrays[key][..., value]
        elif key in arrays:
            arrays[key].flat[1] = value
        else:
            meta = json.loads(bytes(arrays["__meta__"]).decode())
            meta["config"][key] = value
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        ckpt = tmp_path / "x.npz"
        np.savez(ckpt, **arrays)
        capsys.readouterr()
        report = tmp_path / "e.txt"
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_file), "--report", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"
        assert not report.exists()

    def test_eval_of_a_checkpoint_with_an_object_array_names_the_array(self, dataset_file, tmp_path, capsys):
        good, _ = self._train(dataset_file, tmp_path / "good")
        with np.load(good) as z:
            arrays = dict(z)
        arrays["r"] = arrays["r"].astype(object)
        ckpt = tmp_path / "x.npz"
        np.savez(ckpt, **arrays)
        capsys.readouterr()
        report = tmp_path / "e.txt"
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_file), "--report", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: not a tubalgcn checkpoint "
            "(array 'r': Object arrays cannot be loaded when allow_pickle=False)\n"
        )
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv,flags",
        [
            ("train --data {dir}/d.tsv --max-epochs 2 --checkpoint {dir}/n.npz --report {dir}/d.tsv",
             ("--report", "--data")),
            ("train --data {dir}/d.tsv --max-epochs 2 --checkpoint {dir}/./d.tsv --report {dir}/n.txt",
             ("--checkpoint", "--data")),
            ("train --data {dir}/d.tsv --max-epochs 2 --checkpoint {dir}/n --report {dir}/n",
             ("--checkpoint", "--report")),
            ("eval --checkpoint {dir}/m.npz --data {dir}/d.tsv --report {dir}/d.tsv", ("--report", "--data")),
            ("eval --checkpoint {dir}/m.npz --data {dir}/d.tsv --report {dir}/link.npz", ("--report", "--checkpoint")),
            ("ablation --data {dir}/d.tsv --seeds 1 --max-epochs 2 --out {dir}/link.tsv", ("--out", "--data")),
        ],
        ids=["train-report-data", "train-checkpoint-data", "train-checkpoint-report", "eval-report-data",
             "eval-report-checkpoint", "ablation-out-data"],
    )
    def test_an_output_naming_an_input_fails_before_writing(self, dataset_file, tmp_path, capsys, argv, flags):
        # The same file by another spelling or through a symlink counts too.
        ckpt, report = self._train(dataset_file, tmp_path)
        report.unlink()
        (tmp_path / "d.tsv").write_bytes(dataset_file.read_bytes())
        (tmp_path / "link.npz").symlink_to(ckpt)
        (tmp_path / "link.tsv").symlink_to(tmp_path / "d.tsv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        rc = main(argv.format(dir=tmp_path).split())
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and all(flag in err for flag in flags), err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--data", "{dir}", "--checkpoint", "{dir}/m.npz", "--report", "{dir}/r.txt"],
            ["eval", "--checkpoint", "{dir}", "--data", "{data}", "--report", "{dir}/e.txt"],
            ["train", "--data", "{data}", "--max-epochs", "2", "--checkpoint", "{dir}/m.npz", "--report", "{dir}"],
        ],
        ids=["train-data", "eval-checkpoint", "train-report"],
    )
    def test_directory_as_a_path_fails_without_traceback(self, dataset_file, tmp_path, capsys, argv):
        rc = main([arg.format(dir=tmp_path, data=dataset_file) for arg in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err, err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_checkpoint_fails_before_training(self, dataset_file, tmp_path, capsys, monkeypatch, where):
        import tubalgcn.cli

        def no_training(*args):
            raise AssertionError("trained before the checkpoint path was checked")

        monkeypatch.setattr(tubalgcn.cli, "train", no_training)
        ckpt = tmp_path if where == "directory" else tmp_path / "missing" / "m.npz"
        rc = main(["train", "--data", str(dataset_file), "--max-epochs", "2", "--checkpoint", str(ckpt),
                   "--report", str(tmp_path / "r.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(ckpt) in err, err
        assert list(tmp_path.iterdir()) == []  # neither a checkpoint nor a report

    @pytest.mark.parametrize(
        "argv",
        ["train --data {dir}/d.tsv --checkpoint {dir}/m.npz --report {dir}/r.txt",
         "ablation --data {dir}/d.tsv --seeds 2 --out {dir}/abl.txt"],
        ids=["train", "ablation"],
    )
    def test_failed_training_writes_nothing(self, dataset_file, tmp_path, capsys, monkeypatch, argv):
        import tubalgcn.cli

        def diverging(*args):
            raise FloatingPointError("training diverged at epoch 1 (loss=nan)")

        monkeypatch.setattr(tubalgcn.cli, "train", diverging)
        (tmp_path / "d.tsv").write_bytes(dataset_file.read_bytes())
        assert main(argv.format(dir=tmp_path).split()) == 1
        assert capsys.readouterr().err == "error: training diverged at epoch 1 (loss=nan)\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d.tsv"]

    def test_unwritable_report_directory_fails_before_training(self, dataset_file, tmp_path, capsys, monkeypatch):
        # Mode bits do not stop a process running as root, so os.access refuses the directory.
        import os

        import tubalgcn.cli

        def no_training(*args):
            raise AssertionError("trained before the report path was checked")

        locked = tmp_path / "locked"
        locked.mkdir()
        real_access = os.access

        def access(path, *args, **kwargs):
            return Path(path) != locked and real_access(path, *args, **kwargs)

        monkeypatch.setattr(os, "access", access)
        monkeypatch.setattr(tubalgcn.cli, "train", no_training)
        report = locked / "r.txt"
        rc = main(["train", "--data", str(dataset_file), "--checkpoint", str(tmp_path / "m.npz"),
                   "--report", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{report}'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["locked"] and list(locked.iterdir()) == []

    def test_too_few_observations_name_the_file_and_write_nothing(self, two_row_file, capsys):
        out = two_row_file.parent
        rc = main(["train", "--data", str(two_row_file), "--checkpoint", str(out / "m.npz"),
                   "--report", str(out / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {two_row_file}: need at least 5 observations to split, got 2\n"
        assert [p.name for p in out.iterdir()] == ["two.tsv"]

    def test_eval_on_too_few_observations_names_the_file(self, two_row_file, capsys):
        ds = parse_dataset(two_row_file)
        config = TrainConfig(embedding_dim=2, transform="dct")
        ckpt = two_row_file.parent / "m.npz"
        save_checkpoint(ckpt, TrainedModel(config, init_params(ds, config), ds.digest()))
        report = two_row_file.parent / "e.txt"
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(two_row_file), "--report", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {ckpt}, data {two_row_file}: need at least 5 observations to split, got 2\n"
        )
        assert not report.exists()

    def test_large_learning_rate_raises_no_warning(self, tmp_path, capsys):
        # At --lr 5 sigmoid pre-activations fall below -709, where exp(-s)
        # overflows; the sigmoid is then exactly 0.0 and says nothing.
        data = tmp_path / "g.tsv"
        assert main(["gen-synth", "--nodes", "30", "--slots", "5", "--density", "0.3", "--seed", "3",
                     "--out", str(data)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--data", str(data), "--lr", "5", "--max-epochs", "20",
                         "--checkpoint", str(tmp_path / "m.npz"), "--report", str(tmp_path / "r.txt")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("transform", ["ensemble", "haar", "identity", "dft"])
    def test_report_matches_the_committed_one(self, tmp_path, transform):
        # <transform>_2layer_train_report.txt is the report `tubalgcn train`
        # writes with these flags: the default kappa runs the
        # regularizer, and T = 5 runs the Haar branch padded to 8 slots.  The
        # single-branch reports pin the identity, Haar and DFT branches byte
        # for byte on their own, the DFT one keeping 3 of its 5 slices.
        data = tmp_path / "small.tsv"
        assert main(["gen-synth", "--nodes", "12", "--slots", "5", "--density", "0.6", "--noise", "0.05",
                     "--seed", "5", "--out", str(data)]) == 0
        report = tmp_path / "r.txt"
        assert main(["train", "--data", str(data), "--transform", transform, "--layers", "2",
                     "--embedding-dim", "4", "--max-epochs", "40", "--patience", "40",
                     "--checkpoint", str(tmp_path / "m.npz"), "--report", str(report)]) == 0

        def without_data_line(path):
            return [l for l in path.read_bytes().split(b"\n") if not l.startswith(b"data = ")]

        assert without_data_line(report) == without_data_line(DATA / f"{transform}_2layer_train_report.txt")

    def test_checkpoint_is_written_at_the_given_path(self, dataset_file, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(dataset_file), "--max-epochs", "2", "--checkpoint", str(ckpt),
                     "--report", str(tmp_path / "r.txt")]) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_file),
                     "--report", str(tmp_path / "e.txt")]) == 0
        assert not (tmp_path / "m.ckpt.npz").exists()

    def test_every_config_field_has_a_train_flag(self, dataset_file, tmp_path):
        # Every training flag at a value other than its default must move
        # every TrainConfig field away from its default.
        ckpt = tmp_path / "m.npz"
        assert main(["train", "--data", str(dataset_file), "--transform", "dft", "--seed", "3",
                     "--split-seed", "2", "--embedding-dim", "3", "--lr", "0.02", "--kappa", "0.001",
                     "--max-epochs", "2", "--patience", "1", "--activation", "relu",
                     "--adjacency", "raw_self_loops", "--layers", "2",
                     "--checkpoint", str(ckpt), "--report", str(tmp_path / "r.txt")]) == 0
        config = load_checkpoint(ckpt).config
        default = TrainConfig()
        same = [f.name for f in dataclasses.fields(config) if getattr(config, f.name) == getattr(default, f.name)]
        assert not same, f"TrainConfig fields no train flag sets: {same}"

    def test_eval_of_a_version_1_checkpoint(self, tmp_path, capsys):
        # ensemble_2layer_v1.npz was written by an earlier release of
        # `tubalgcn train` (two-layer ensemble, --embedding-dim 3 --seed 1
        # --max-epochs 30 --patience 30) on this gen-synth graph; its eval
        # report then read test_mae = 0.17490955675835435, and reads
        # 0.17490955675835432 since the first layer runs Â E once for every
        # branch (1.6e-16 relative).
        data = tmp_path / "g.tsv"
        assert main(["gen-synth", "--nodes", "12", "--slots", "4", "--density", "0.5",
                     "--noise", "0.02", "--seed", "5", "--out", str(data)]) == 0
        report = tmp_path / "e.txt"
        assert main(["eval", "--checkpoint", str(DATA / "ensemble_2layer_v1.npz"), "--data", str(data),
                     "--report", str(report)]) == 0
        assert "test_mae = 0.17490955675835432" in report.read_text().splitlines()


class TestTransformMatrix:
    def test_haar4_rows(self, tmp_path):
        out = tmp_path / "h"
        assert main(["transform-matrix", "--kind", "haar", "--size", "4", "--out", str(out)]) == 0
        m = np.loadtxt(f"{out}.csv", delimiter=",")
        s = 1 / np.sqrt(2)
        expected = np.array(
            [[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, -0.5, -0.5], [s, -s, 0, 0], [0, 0, s, -s]]
        )
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_dft_writes_two_files(self, tmp_path):
        out = tmp_path / "f"
        assert main(["transform-matrix", "--kind", "dft", "--size", "2", "--out", str(out)]) == 0
        re = np.loadtxt(f"{out}_real.csv", delimiter=",")
        im = np.loadtxt(f"{out}_imag.csv", delimiter=",")
        np.testing.assert_allclose(re, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(im, np.zeros((2, 2)), atol=1e-12)

    def test_haar_bad_size_fails(self, tmp_path, capsys):
        rc = main(["transform-matrix", "--kind", "haar", "--size", "3",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "power of two" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["transform-matrix", "--kind", "wavelet", "--size", "4"])
        assert exc.value.code == 2


class TestConfigFlags:
    # Flags whose default is deliberately not their field's, by command.
    DEFAULT_OVERRIDES = {"grad-check": {"transform": "dft", "embedding_dim": 3}}

    def test_every_record_flag_takes_its_fields_type_default_and_choices(self):
        # A flag whose dest is a field of its command's record (SynthSpec for
        # gen-synth, TrainConfig for the rest) must not drift from that field.
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        choices = {**FIELD_CHOICES, "pattern": PATTERNS}
        covered = {}
        for command, parser in subparsers.choices.items():
            record = SynthSpec if command == "gen-synth" else TrainConfig
            hints, fields = typing.get_type_hints(record), {f.name: f for f in dataclasses.fields(record)}
            overrides = self.DEFAULT_OVERRIDES.get(command, {})
            for action in parser._actions:
                f = fields.get(action.dest)
                if f is None:
                    continue
                covered.setdefault(command, set()).add(f.name)
                required = f.default is dataclasses.MISSING
                # argparse hands a flag without a type over as str.
                assert (action.type or str) is hints[f.name], (command, f.name)
                assert action.choices == choices.get(f.name), (command, f.name)
                assert action.required == required, (command, f.name)
                default = None if required else f.default
                assert action.default == overrides.get(f.name, default), (command, f.name)
        assert covered["gen-synth"] == {f.name for f in dataclasses.fields(SynthSpec)}
        assert covered["train"] == {f.name for f in dataclasses.fields(TrainConfig)}
        for command, names in self.DEFAULT_OVERRIDES.items():
            assert set(names) <= covered[command]

    def test_every_spec_field_has_a_gen_synth_flag(self, tmp_path, monkeypatch):
        # Every gen-synth flag at a value other than its default must move
        # every SynthSpec field away from its default.
        import tubalgcn.cli

        specs = []
        real = tubalgcn.cli.generate_synthetic
        monkeypatch.setattr(tubalgcn.cli, "generate_synthetic", lambda spec: specs.append(spec) or real(spec))
        assert main(["gen-synth", "--nodes", "3", "--slots", "2", "--density", "0.5", "--pattern", "trend",
                     "--noise", "0.01", "--seed", "4", "--out", str(tmp_path / "g.tsv")]) == 0
        (spec,) = specs
        assert spec == SynthSpec(n=3, t=2, density=0.5, pattern="trend", noise=0.01, seed=4)
        same = [f.name for f in dataclasses.fields(spec) if getattr(spec, f.name) == f.default]
        assert not same, f"SynthSpec fields no gen-synth flag sets: {same}"

    @pytest.mark.parametrize("command", ["train", "ablation"])
    def test_no_flags_parse_to_the_default_config(self, command):
        args = build_parser().parse_args([command, "--data", "x"])
        assert _config_from_args(args, TrainConfig) == TrainConfig()

    def test_bare_grad_check_passes_the_grad_check_defaults(self, monkeypatch):
        import tubalgcn.cli

        calls = []

        def recording(ds, config):
            calls.append((ds, config))
            return {"per_group": {}, "max_relative_error": 0.0, "passed": True}

        monkeypatch.setattr(tubalgcn.cli, "grad_check", recording)
        assert main(["grad-check"]) == 0
        assert main(["grad-check", "--seed", "3"]) == 0
        # The unsplit graph of --seed, which grad_check splits with the same seed.
        for (ds, config), seed in zip(calls, (0, 3)):
            assert config == TrainConfig(embedding_dim=3, transform="dft", seed=seed, split_seed=seed)
            expected = generate_synthetic(SynthSpec(n=5, t=4, density=0.9, noise=0.05, seed=seed))
            assert (ds.n_nodes, ds.n_slots, ds.digest(), ds.has_splits) == (5, 4, expected.digest(), False)
        assert len(calls) == 2


class TestGradCheckCommand:
    def test_default_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max relative error" in out

    def test_ensemble_passes(self):
        assert main(["grad-check", "--transform", "ensemble"]) == 0

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--nodes", "2", "--slots", "1"], "--nodes 2 --slots 1: need at least 5 observations to split, got 1"),
            (["--nodes", "1"], "--nodes 1 --slots 4: need n >= 2 nodes and t >= 1 slots, got n=1, t=4"),
            (["--features", "0"], "--features must be >= 1, got 0"),
            (["--features", "-2"], "--features must be >= 1, got -2"),
        ],
        ids=["too_few_observations", "one_node", "no_features", "negative_features"],
    )
    def test_bad_size_names_its_flag(self, capsys, flags, message):
        assert main(["grad-check", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_two_dft_layers_at_odd_slots_pass(self, capsys):
        assert main(["grad-check", "--transform", "dft", "--slots", "5", "--layers", "2"]) == 0
        out = capsys.readouterr().out
        assert "w:dft:1: max relative error" in out and out.endswith("PASS\n")


class TestAblationCommand:
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_fail(self, dataset_file, tmp_path, capsys, seeds):
        out = tmp_path / "abl.txt"
        assert main(["ablation", "--data", str(dataset_file), "--seeds", seeds, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --seeds must be >= 1, got {seeds}\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_fails_before_training(self, dataset_file, tmp_path, capsys, monkeypatch, where):
        import tubalgcn.cli

        trainings = []
        monkeypatch.setattr(tubalgcn.cli, "train", lambda *args: trainings.append(args))
        out = tmp_path if where == "directory" else tmp_path / "missing" / "abl.txt"
        rc = main(["ablation", "--data", str(dataset_file), "--seeds", "2", "--max-epochs", "2", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err, err
        assert trainings == []

    def test_bad_hyperparameter_fails_before_the_report(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "abl.txt"
        assert main(["ablation", "--data", str(dataset_file), "--max-epochs", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: max_epochs must be >= 1, got 0\n"
        assert not out.exists()

    def test_too_few_observations_name_the_file_and_write_nothing(self, two_row_file, capsys):
        out = two_row_file.parent / "abl.txt"
        assert main(["ablation", "--data", str(two_row_file), "--seeds", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {two_row_file}: need at least 5 observations to split, got 2\n"
        assert not out.exists()

    def test_small_ablation_table(self, tmp_path):
        data = tmp_path / "d.tsv"
        assert main(["gen-synth", "--nodes", "12", "--slots", "4", "--density", "0.5",
                     "--noise", "0.02", "--seed", "5", "--out", str(data)]) == 0
        out = tmp_path / "abl.txt"
        rc = main(["ablation", "--data", str(data), "--seeds", "2", "--embedding-dim", "3",
                   "--max-epochs", "10", "--patience", "10", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        lines = [l for l in text.splitlines() if "," in l and not l.startswith("#")]
        # header + 5 schemes
        assert len(lines) == 6
        assert lines[0].endswith("improvement_vs_identity")
        for row in lines[1:]:
            values = row.split(",")[1:]
            assert all(np.isfinite(float(v)) for v in values)
