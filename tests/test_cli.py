import numpy as np
import pytest

from tubalgcn.cli import main


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
        import tubalgcn.cli
        import tubalgcn.training

        calls = []
        real = tubalgcn.training.build_aux

        def counting(ds, config):
            calls.append(config.transform)
            return real(ds, config)

        monkeypatch.setattr(tubalgcn.cli, "build_aux", counting)
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

    def test_eval_node_mismatch_fails(self, dataset_file, tmp_path):
        ckpt, _ = self._train(dataset_file, tmp_path)
        other = tmp_path / "other.tsv"
        assert main(["gen-synth", "--nodes", "9", "--slots", "4", "--density", "0.5",
                     "--seed", "3", "--out", str(other)]) == 0
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(other),
                   "--report", str(tmp_path / "e.txt")])
        assert rc == 1


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


class TestGradCheckCommand:
    def test_default_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max relative error" in out

    def test_ensemble_passes(self):
        assert main(["grad-check", "--transform", "ensemble"]) == 0


class TestAblationCommand:
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
