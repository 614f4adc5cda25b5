import numpy as np
import pytest

from tubalgcn.data import (
    DynamicGraphDataset,
    SynthSpec,
    build_adjacency,
    generate_synthetic,
    parse_dataset,
    serialize_dataset,
    split_dataset,
)
from tubalgcn.head_loss import LinkObservation


class TestParse:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0\t1\t0.5\n2\t1\t0\t0.25\n")
        ds = parse_dataset(p)
        assert ds.n_nodes == 2 and ds.n_slots == 2
        assert len(ds.observations()) == 2
        assert ds.observations()[0] == LinkObservation(1, 0, 1, 0.5)

    def test_duplicate_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0\t1\t0.5\n1\t0\t1\t0.7\n")
        with pytest.raises(ValueError, match=":2.*duplicate"):
            parse_dataset(p)

    def test_header_override(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("#nodes=10\n#slots=5\n1\t0\t1\t0.5\n")
        ds = parse_dataset(p)
        assert ds.n_nodes == 10 and ds.n_slots == 5

    def test_malformed_line_named(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0\t1\t0.5\nnot a line\n")
        with pytest.raises(ValueError, match=":2"):
            parse_dataset(p)

    def test_out_of_declared_range_rejected(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("#nodes=2\n#slots=2\n3\t0\t1\t0.5\n")
        with pytest.raises(ValueError, match="out of range"):
            parse_dataset(p)

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("# a comment\n1\t0\t1\t0.5\n")
        assert len(parse_dataset(p).observations()) == 1

    def test_error_names_physical_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("#nodes=3\n\n# note\n1\t0\t1\t0.5\n   \n# another\n2\t0\t1\tabc\n")
        with pytest.raises(ValueError, match=r"d\.tsv:7: malformed line"):
            parse_dataset(p)

    @pytest.mark.parametrize("line", ["1.5\t1\t0\t0.5", "1\t1\t0\t0.5#x", "1\t1\t\t0.5"])
    def test_malformed_value_rejected(self, tmp_path, line):
        p = tmp_path / "d.tsv"
        p.write_text(f"1\t0\t1\t0.5\n{line}\n")
        with pytest.raises(ValueError, match=r"d\.tsv:2: malformed line"):
            parse_dataset(p)

    @pytest.mark.parametrize("line,count", [("1\t0\t1", 3), ("1\t0\t1\t0.5\t9", 5), ("1 0 1 0.5", 1)])
    def test_wrong_field_count(self, tmp_path, line, count):
        p = tmp_path / "d.tsv"
        p.write_text(f"1\t0\t1\t0.5\n2\t1\t0\t0.5\n{line}\n")
        with pytest.raises(ValueError, match=rf"d\.tsv:3: expected 4 tab-separated fields, got {count}"):
            parse_dataset(p)

    def test_duplicate_after_comment_names_its_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0\t1\t0.5\n2\t0\t1\t0.5\n# repeated below\n\n1\t0\t1\t0.7\n")
        with pytest.raises(ValueError, match=r"d\.tsv:5: duplicate entry \(t=1, i=0, j=1\)"):
            parse_dataset(p)

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_bytes(b"#nodes=3\r\n#slots=2\r\n1\t0\t1\t0.5\r\n\r\n2\t1\t2\t0.25\r\n")
        ds = parse_dataset(p)
        assert ds.n_nodes == 3 and ds.n_slots == 2
        assert ds.observations() == [LinkObservation(1, 0, 1, 0.5), LinkObservation(2, 1, 2, 0.25)]

    def test_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("#nodes=2\n#slots=2\n1\t0\t1\t0.5\n2\t0\t2\t0.5\n")
        with pytest.raises(ValueError, match=r"d\.tsv:4: node id out of range"):
            parse_dataset(p)

    @pytest.mark.parametrize(
        "header,message",
        [("#nodes=two", "malformed #nodes= header"), ("#slots=0", "#slots= must be at least 1")],
    )
    def test_bad_header_named(self, tmp_path, header, message):
        p = tmp_path / "d.tsv"
        p.write_text(f"# c\n{header}\n1\t0\t1\t0.5\n")
        with pytest.raises(ValueError, match=rf"d\.tsv:2: {message}"):
            parse_dataset(p)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-0.5"])
    def test_bad_weight_rejected(self, tmp_path, weight):
        p = tmp_path / "d.tsv"
        p.write_text(f"1\t0\t1\t0.5\n# c\n1\t1\t0\t{weight}\n")
        with pytest.raises(ValueError, match=r"d\.tsv:3: weight .* not a finite nonnegative number"):
            parse_dataset(p)

    def test_zero_weight_allowed(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0\t1\t0\n1\t1\t0\t0.0\n")
        assert [o.y for o in parse_dataset(p).observations()] == [0.0, 0.0]

    def test_weights_equal_python_float(self, tmp_path):
        fields = ["0.1", "1e-300", "0.30000000000000004", "5.", ".25", "1E5", "123456789.123456789"]
        p = tmp_path / "d.tsv"
        p.write_text("".join(f"1\t0\t{k + 1}\t{w}\n" for k, w in enumerate(fields)))
        got = parse_dataset(p).y
        want = np.array([float(w) for w in fields])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestColumns:
    def test_from_observations_round_trip(self):
        obs = [LinkObservation(2, 1, 0, 0.25), LinkObservation(1, 0, 1, 0.5)]
        ds = DynamicGraphDataset.from_observations(2, 2, obs)
        assert ds.observations() == obs
        assert ds.t.dtype == ds.i.dtype == ds.j.dtype == np.int64 and ds.y.dtype == np.float64

    def test_duplicate_rejected_at_construction(self):
        obs = [LinkObservation(1, 0, 1, 0.5), LinkObservation(2, 0, 1, 0.5), LinkObservation(1, 0, 1, 0.7)]
        with pytest.raises(ValueError, match=r"observation 2: duplicate entry"):
            DynamicGraphDataset.from_observations(2, 2, obs)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            DynamicGraphDataset(2, 1, [1, 1], [0, 1], [1, 0], [0.5])

    def test_subset_arrays_matches_records(self):
        ds = generate_synthetic(SynthSpec(n=6, t=3, density=0.5, seed=4))
        idx = np.array([5, 0, 3])
        records = ds.observations()
        t, i, j, y = ds.subset_arrays(idx)
        assert list(zip(t.tolist(), i.tolist(), j.tolist(), y.tolist())) == [
            (records[k].t, records[k].i, records[k].j, records[k].y) for k in idx
        ]

    def test_split_shares_columns(self):
        ds = generate_synthetic(SynthSpec(n=6, t=3, density=0.5, seed=4))
        split = split_dataset(ds, seed=0)
        assert split.y is ds.y and not ds.has_splits


class TestSplit:
    def make(self, n_obs):
        obs = [LinkObservation(1, 0, k + 1, 0.5) for k in range(n_obs)]
        return DynamicGraphDataset.from_observations(n_obs + 1, 1, obs)

    @pytest.mark.parametrize(
        "n_obs,sizes", [(10, (6, 2, 2)), (11, (7, 2, 2)), (101, (61, 20, 20))]
    )
    def test_floor_remainder_rule(self, n_obs, sizes):
        ds = split_dataset(self.make(n_obs), seed=0)
        assert (len(ds.train_idx), len(ds.val_idx), len(ds.test_idx)) == sizes

    def test_deterministic(self):
        a = split_dataset(self.make(20), seed=5)
        b = split_dataset(self.make(20), seed=5)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)

    def test_partition_disjoint_and_exhaustive(self):
        ds = split_dataset(self.make(37), seed=1)
        merged = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
        np.testing.assert_array_equal(np.sort(merged), np.arange(37))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            split_dataset(self.make(4), seed=0)


class TestBuildAdjacency:
    def test_single_train_observation(self):
        ds = DynamicGraphDataset.from_observations(
            2, 1, [LinkObservation(1, 0, 1, 0.5)] + [LinkObservation(1, 1, 0, 0.1)] * 0
        )
        ds.train_idx = np.array([0])
        ds.val_idx = np.array([], dtype=int)
        ds.test_idx = np.array([], dtype=int)
        a = build_adjacency(ds)
        assert a[0, 1, 0] == 0.5
        assert a.sum() == 0.5

    def test_no_leakage_from_held_out_entries(self):
        ds = split_dataset(generate_synthetic(SynthSpec(n=10, t=4, density=0.5, seed=0)), seed=0)
        a = build_adjacency(ds)
        for k in np.concatenate([ds.val_idx, ds.test_idx]):
            obs = ds.observations()[k]
            assert a[obs.i, obs.j, obs.t - 1] == 0.0

    def test_matches_loop_oracle(self):
        ds = split_dataset(generate_synthetic(SynthSpec(n=8, t=3, density=0.6, seed=1)), seed=1)
        a = build_adjacency(ds)
        expected = np.zeros_like(a)
        for k in ds.train_idx:
            obs = ds.observations()[k]
            expected[obs.i, obs.j, obs.t - 1] = obs.y
        np.testing.assert_array_equal(a, expected)

    def test_requires_splits(self):
        ds = generate_synthetic(SynthSpec(n=5, t=2, density=1.0, seed=0))
        with pytest.raises(ValueError, match="splits"):
            build_adjacency(ds)


class TestGenerateSynthetic:
    def test_full_density_small_case(self):
        ds = generate_synthetic(SynthSpec(n=2, t=2, density=1.0, noise=0.0, pattern="periodic", seed=0))
        # 2 directed edges, observed at both slots.
        assert len(ds.observations()) == 4
        pairs = {(o.i, o.j) for o in ds.observations()}
        assert pairs == {(0, 1), (1, 0)}

    def test_weights_in_unit_interval(self):
        ds = generate_synthetic(SynthSpec(n=20, t=8, density=0.3, noise=0.1, seed=2))
        ys = np.array([o.y for o in ds.observations()])
        assert np.all(ys > 0) and np.all(ys <= 1)

    def test_deterministic(self):
        spec = SynthSpec(n=10, t=4, density=0.4, noise=0.05, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.observations() == b.observations()

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            SynthSpec(n=5, t=3, density=0.0)

    def test_round_trip_through_file(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n=12, t=5, density=0.3, noise=0.02, seed=3))
        p = tmp_path / "d.tsv"
        serialize_dataset(ds, p)
        back = parse_dataset(p)
        assert back.n_nodes == ds.n_nodes and back.n_slots == ds.n_slots
        assert back.observations() == ds.observations()
