import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubalgcn.data import (
    DynamicGraphDataset,
    SynthSpec,
    build_adjacency,
    generate_synthetic,
    parse_dataset,
    serialize_dataset,
    split_dataset,
)

import reference_parse
from oracle import unstack


def rows(ds):
    """The observations as (t, i, j, y) tuples, in row order."""
    return list(zip(ds.t.tolist(), ds.i.tolist(), ds.j.tolist(), ds.y.tolist()))


class TestParse:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0\t1\t0.5\n2\t1\t0\t0.25\n")
        ds = parse_dataset(p)
        assert ds.n_nodes == 2 and ds.n_slots == 2
        assert rows(ds) == [(1, 0, 1, 0.5), (2, 1, 0, 0.25)]

    def test_duplicate_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t0\t1\t0.5\n1\t0\t1\t0.7\n")
        with pytest.raises(ValueError, match=":2.*duplicate"):
            parse_dataset(p)

    def test_header_override(self, tmp_path):
        p = tmp_path / "d.tsv"
        for headers, n, t in [
            ("#nodes=10\n#slots=5\n", 10, 5),
            # Whitespace may stand between the name and "=".
            ("#nodes = 10\n#slots =5\n", 10, 5),
            ("# nodes\t= 10 \n#  slots=\t5\n", 10, 5),
            # No "=" after the name: comments, so N and T come from the row.
            ("# nodes of the graph\n#slots:3\n", 2, 1),
        ]:
            p.write_text(headers + "1\t0\t1\t0.5\n")
            ds = parse_dataset(p)
            assert (ds.n_nodes, ds.n_slots) == (n, t), headers

    def test_non_utf8_file_named(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_bytes(b"\xff\xfe1\t0\t1\t0.5\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: not UTF-8 text \('utf-8' codec"):
            parse_dataset(p)

    def test_byte_order_mark_ignored(self, tmp_path):
        text = b"#nodes=3\n#slots=2\n1\t0\t1\t0.5\n2\t2\t1\t0.25\n"
        plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
        plain.write_bytes(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        assert parse_outcome(parse_dataset, bom) == parse_outcome(parse_dataset, plain)
        assert parse_dataset(bom).digest() == parse_dataset(plain).digest()

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
        assert len(parse_dataset(p).t) == 1

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
        assert rows(ds) == [(1, 0, 1, 0.5), (2, 1, 2, 0.25)]

    def test_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("#nodes=2\n#slots=2\n1\t0\t1\t0.5\n2\t0\t2\t0.5\n")
        with pytest.raises(ValueError, match=r"d\.tsv:4: node id out of range"):
            parse_dataset(p)

    @pytest.mark.parametrize(
        "header,message",
        [
            ("#nodes=two", "malformed #nodes= header"),
            ("#slots=0", "#slots= must be at least 1"),
            ("#slots = 5 (hourly)", "malformed #slots= header"),
        ],
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
        assert parse_dataset(p).y.tolist() == [0.0, 0.0]

    def test_weights_equal_python_float(self, tmp_path):
        fields = ["0.1", "1e-300", "0.30000000000000004", "5.", ".25", "1E5", "123456789.123456789"]
        p = tmp_path / "d.tsv"
        p.write_text("".join(f"1\t0\t{k + 1}\t{w}\n" for k, w in enumerate(fields)))
        got = parse_dataset(p).y
        want = np.array([float(w) for w in fields])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("#nodes=10\n#slots=5\n1\t0\t1\t0.5\n#nodes=3\n#slots=2\n", "4: #nodes=3 contradicts #nodes=10 on line 1"),
            ("#slots=5\n# c\n  #  slots=5\n#nodes=4\n1\t0\t1\t0.5\n#slots=2\n", "6: #slots=2 contradicts #slots=5 on line 1"),
        ],
        ids=["nodes", "slots"],
    )
    def test_repeated_header_with_another_value_rejected(self, tmp_path, text, message):
        p = tmp_path / "d.tsv"
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{p}:{message}')}$"):
            parse_dataset(p)

    def test_repeated_header_with_the_same_value_accepted(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("#nodes=10\n#slots=5\n1\t0\t1\t0.5\n# nodes=10\n\t#slots=05\n")
        ds = parse_dataset(p)
        assert ds.n_nodes == 10 and ds.n_slots == 5
        assert rows(ds) == [(1, 0, 1, 0.5)]


def parse_outcome(parse, path):
    """N, T and the column bytes of a parse, or its error message."""
    try:
        ds = parse(path)
    except ValueError as exc:
        return str(exc)
    return ds.n_nodes, ds.n_slots, [(c.dtype.str, c.tobytes()) for c in (ds.t, ds.i, ds.j, ds.y)]


_SPACE = st.sampled_from(["", "", "", " ", "\t", " \t ", "\x0c"])
_BAD_FIELD = st.sampled_from(["1.5", "x", "", "-1", "9", "nan", "inf", "-0.5", "abc", "0.5#x", "1 0"])


@st.composite
def _data_line(draw):
    """Mostly a valid row; now and then a bad field, field count or separator, or a ``#`` inside."""
    fields = [
        draw(st.sampled_from("1234")),
        draw(st.sampled_from("012345")),
        draw(st.sampled_from("012345")),
        draw(st.sampled_from(["0.5", "0.25", "1e-3", "0", "1", ".25", "5.", "0.1", "3E-2"])),
    ]
    flaw = draw(st.sampled_from(["field", "short", "long", "spaces", "hash"] + ["none"] * 75))
    if flaw == "field":
        fields[draw(st.integers(0, 3))] = draw(_BAD_FIELD)
    elif flaw == "short":
        fields.pop()
    elif flaw == "long":
        fields.append("0.5")
    line = (" " if flaw == "spaces" else "\t").join(fields)
    if flaw == "hash":
        line += draw(st.sampled_from(["#", "\t# note", " #nodes=2"]))
    return draw(_SPACE) + line + draw(_SPACE)


@st.composite
def dataset_text(draw):
    """A dataset file mixing rows, headers, comments and blank lines under mixed line endings.

    A header repeats only with the same value; rows draw from a few ids, so
    keys repeat, and now and then carry a flaw (see ``_data_line``).
    """
    values = {
        "nodes": draw(st.sampled_from(["6", "8", " 6", "06"] * 3 + ["3", "0", "two"])),
        "slots": draw(st.sampled_from(["4", "5", "4 "] * 3 + ["2", "0", "x"])),
    }
    header = st.builds(
        lambda space, gap, name: f"{space}#{gap}{name}={values[name]}",
        _SPACE, st.sampled_from(["", " "]), st.sampled_from(["nodes", "slots"]),
    )
    comment = st.builds(
        lambda space, body: f"{space}#{body}",
        _SPACE, st.sampled_from(["", " note", "#", " nodes", "\tslots:3", " 1\t0\t1\t0.5"]),
    )
    # Rows four times as often as each other kind of line.
    line = st.one_of(_data_line(), _data_line(), _data_line(), _data_line(), header, comment, _SPACE)
    lines = draw(st.lists(line, min_size=1, max_size=40))
    endings = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(a + b for a, b in zip(lines, endings)) + draw(st.sampled_from(["", "", "4\t5\t5\t0.5"]))


class TestParseEquality:
    """``parse_dataset`` against the line-by-line reference in ``reference_parse``."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(text=dataset_text())
    def test_same_columns_or_same_error_as_the_reference(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("eq") / "d.tsv"
        p.write_bytes(text.encode())
        assert parse_outcome(parse_dataset, p) == parse_outcome(reference_parse.parse_dataset, p)

    def test_comment_after_every_row(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n=30, t=6, density=0.2, noise=0.01, seed=5))
        plain = tmp_path / "plain.tsv"
        serialize_dataset(ds, plain)
        lines = plain.read_text().splitlines()
        assert lines[:2] == ["#nodes=30", "#slots=6"] and len(lines) > 900
        commented = tmp_path / "commented.tsv"
        commented.write_text("".join(f"{line}\n# after line {k + 1}\n" for k, line in enumerate(lines)))
        assert parse_outcome(parse_dataset, commented) == parse_outcome(parse_dataset, plain)
        assert rows(parse_dataset(commented)) == rows(ds)
        # Row 700 sits on physical line 2 * (2 + 700) + 1 once every line has a comment after it.
        lines[2 + 700] = "1\t0\t1\tnot-a-weight"
        commented.write_text("".join(f"{line}\n# after line {k + 1}\n" for k, line in enumerate(lines)))
        with pytest.raises(ValueError, match=rf"commented\.tsv:{2 * (2 + 700) + 1}: malformed line"):
            parse_dataset(commented)


class TestColumns:
    def test_columns_keep_row_order_and_dtypes(self):
        ds = DynamicGraphDataset(2, 2, [2, 1], [1, 0], [0, 1], [0.25, 0.5])
        assert rows(ds) == [(2, 1, 0, 0.25), (1, 0, 1, 0.5)]
        assert ds.t.dtype == ds.i.dtype == ds.j.dtype == np.int64 and ds.y.dtype == np.float64

    def test_duplicate_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"observation 2: duplicate entry"):
            DynamicGraphDataset(2, 2, [1, 2, 1], [0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.7])

    @pytest.mark.parametrize(
        "args,message",
        [
            ((2, 3, [1.7, 2.0], [0, 1], [1, 0], [0.5, 0.5]), "column t must hold whole numbers, got 1.7"),
            ((2, 3, [1, 2], [0.9, 1], [1, 0], [0.5, 0.5]), "column i must hold whole numbers, got 0.9"),
            ((2, 3, [1, 2], [0, 1], [1, np.nan], [0.5, 0.5]), "column j must hold whole numbers, got nan"),
            ((3.5, 3, [1], [0], [1], [0.5]), "n_nodes must be int, got 3.5"),
            ((2, 3.0, [1], [0], [1], [0.5]), "n_slots must be int, got 3.0"),
            ((2, 2, ["a"], [0], [1], [0.5]), "column t must hold whole numbers, got 'a'"),
            ((2, 2, [1], [0], [True], [0.5]), "column j must hold whole numbers, got True"),
            ((2, 2, [1, 2], [0, 1], [1, 0], [0.5, "x"]), "column y must hold numbers, got 'x'"),
            ((2, 2, [1], [0], [1], [None]), "column y must hold numbers, got None"),
        ],
        ids=["t", "i", "j", "n_nodes", "n_slots", "string_t", "bool_j", "string_y", "none_y"],
    )
    def test_non_integer_ids_and_sizes_are_rejected_by_name(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DynamicGraphDataset(*args)

    def test_whole_float_and_empty_columns_are_accepted(self):
        ds = DynamicGraphDataset(np.int64(2), 3, [1.0, 3.0], [0.0, 1.0], np.array([1, 0], dtype=np.int32), [0.5, 0.5])
        assert rows(ds) == [(1, 0, 1, 0.5), (3, 1, 0, 0.5)]
        assert ds.t.dtype == ds.i.dtype == ds.j.dtype == np.int64
        assert len(DynamicGraphDataset(2, 2, [], [], [], []).t) == 0

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            DynamicGraphDataset(2, 1, [1, 1], [0, 1], [1, 0], [0.5])

    def test_subset_arrays_matches_records(self):
        ds = generate_synthetic(SynthSpec(n=6, t=3, density=0.5, seed=4))
        idx = np.array([5, 0, 3])
        records = rows(ds)
        t, i, j, y = ds.subset_arrays(idx)
        assert list(zip(t.tolist(), i.tolist(), j.tolist(), y.tolist())) == [records[k] for k in idx]

    def test_split_shares_columns(self):
        ds = generate_synthetic(SynthSpec(n=6, t=3, density=0.5, seed=4))
        split = split_dataset(ds, seed=0)
        assert split.y is ds.y and not ds.has_splits

    @pytest.mark.parametrize("name", ["train_idx", "val_idx", "test_idx"])
    def test_constructor_refuses_split_indices(self, name):
        # Splits come only from split_dataset, so no index is left unchecked.
        with pytest.raises(TypeError, match=name):
            DynamicGraphDataset(3, 2, [1], [0], [1], [0.5], **{name: np.array([0, 99])})


class TestSplit:
    def make(self, n_obs):
        k = np.arange(n_obs)
        return DynamicGraphDataset(n_obs + 1, 1, np.ones_like(k), np.zeros_like(k), k + 1, np.full(n_obs, 0.5))

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
        ds = DynamicGraphDataset(2, 1, [1], [0], [1], [0.5])
        ds.train_idx = np.array([0])
        ds.val_idx = np.array([], dtype=int)
        ds.test_idx = np.array([], dtype=int)
        a = unstack(build_adjacency(ds))
        assert a[0, 1, 0] == 0.5
        assert a.sum() == 0.5

    def test_no_leakage_from_held_out_entries(self):
        ds = split_dataset(generate_synthetic(SynthSpec(n=10, t=4, density=0.5, seed=0)), seed=0)
        a = unstack(build_adjacency(ds))
        for k in np.concatenate([ds.val_idx, ds.test_idx]):
            assert a[ds.i[k], ds.j[k], ds.t[k] - 1] == 0.0

    def test_matches_loop_oracle(self):
        ds = split_dataset(generate_synthetic(SynthSpec(n=8, t=3, density=0.6, seed=1)), seed=1)
        a = unstack(build_adjacency(ds))
        expected = np.zeros_like(a)
        for k in ds.train_idx:
            expected[ds.i[k], ds.j[k], ds.t[k] - 1] = ds.y[k]
        np.testing.assert_array_equal(a, expected)

    def test_requires_splits(self):
        ds = generate_synthetic(SynthSpec(n=5, t=2, density=1.0, seed=0))
        with pytest.raises(ValueError, match="splits"):
            build_adjacency(ds)


class TestGenerateSynthetic:
    def test_full_density_small_case(self):
        ds = generate_synthetic(SynthSpec(n=2, t=2, density=1.0, noise=0.0, pattern="periodic", seed=0))
        # 2 directed edges, observed at both slots.
        assert len(ds.t) == 4
        pairs = set(zip(ds.i.tolist(), ds.j.tolist()))
        assert pairs == {(0, 1), (1, 0)}

    def test_weights_in_unit_interval(self):
        ds = generate_synthetic(SynthSpec(n=20, t=8, density=0.3, noise=0.1, seed=2))
        assert np.all(ds.y > 0) and np.all(ds.y <= 1)

    def test_deterministic(self):
        spec = SynthSpec(n=10, t=4, density=0.4, noise=0.05, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert rows(a) == rows(b)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            SynthSpec(n=5, t=3, density=0.0)

    @pytest.mark.parametrize(
        "fields,message",
        [
            (dict(n=1, t=3), "need n >= 2 nodes and t >= 1 slots, got n=1, t=3"),
            (dict(n=5, t=0), "need n >= 2 nodes and t >= 1 slots, got n=5, t=0"),
            (dict(n=5, t=3, density=1.5), "density must lie in (0, 1], got 1.5"),
            (dict(n=5, t=3, pattern="x"), "pattern must be one of ('periodic', 'trend', 'mixed'), got 'x'"),
            (dict(n=4.5, t=3), "n must be int, got 4.5"),
            (dict(n=5, t=3.0), "t must be int, got 3.0"),
            (dict(n=5, t=True), "t must be int, got True"),
            (dict(n=5, t=3, seed=0.5), "seed must be int, got 0.5"),
            (dict(n=4, t=3, density="0.5"), "density must be float, got '0.5'"),
            (dict(n=4, t=3, noise=None), "noise must be float, got None"),
        ],
        ids=[
            "nodes", "slots", "density", "pattern", "float_nodes", "float_slots", "bool_slots", "float_seed",
            "string_density", "none_noise",
        ],
    )
    def test_bad_spec_names_the_value(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthSpec(**fields)

    def test_round_trip_through_file(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n=12, t=5, density=0.3, noise=0.02, seed=3))
        p = tmp_path / "d.tsv"
        serialize_dataset(ds, p)
        back = parse_dataset(p)
        assert back.n_nodes == ds.n_nodes and back.n_slots == ds.n_slots
        assert rows(back) == rows(ds)
