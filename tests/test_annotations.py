import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emocons.annotations as annotations
from emocons.annotations import (
    _write_table,
    AnnotationMatrix,
    ClampWarning,
    DIMENSIONS,
    Dataset,
    FeatureSequence,
    GoldStandardTrack,
    Manifest,
    PROVENANCES,
    SourceData,
    WindowSpec,
    load_annotation_csv,
    load_dataset,
    load_features_csv,
    load_gold_csv,
    window_bounds,
    window_count,
    write_annotation_csv,
    write_dataset,
    write_features_csv,
    write_gold_csv,
    write_trace_csv,
)
from emocons.codec import from_dict, to_dict
from emocons.errors import ContractError, ParseError, StructuralError
from emocons.synth import default_synth_config, generate_source


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadWide:
    def test_two_annotator_matrix(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,a1,a2\n0.00,0.1,0.3\n0.04,-0.2,0.2\n")
        m = load_annotation_csv(p, "arousal")
        assert isinstance(m, AnnotationMatrix)
        assert m.frames == 2 and m.annotators == 2
        np.testing.assert_allclose(m.data, [[0.1, 0.3], [-0.2, 0.2]])
        assert m.rate_hz == pytest.approx(25.0)

    def test_columns_sorted_by_annotator_id(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,b,a\n0.0,0.5,0.1\n0.04,0.6,0.2\n")
        m = load_annotation_csv(p, "valence")
        assert m.annotator_ids == ("a", "b")
        np.testing.assert_allclose(m.data[:, 0], [0.1, 0.2])

    def test_out_of_range_value_clamped_with_warning(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,a1,a2\n0.0,1.7,0.0\n0.04,0.2,-1.3\n")
        with pytest.warns(ClampWarning, match="2"):
            m = load_annotation_csv(p, "arousal")
        np.testing.assert_allclose(m.data, [[1.0, 0.0], [0.2, -1.0]])

    def test_single_annotator_gives_one_column_matrix(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,solo\n0.0,0.1\n0.04,0.2\n0.08,0.3\n")
        m = load_annotation_csv(p, "arousal")
        assert isinstance(m, AnnotationMatrix)
        assert m.annotator_ids == ("solo",)
        assert m.data.shape == (3, 1)
        np.testing.assert_allclose(m.data[:, 0], [0.1, 0.2, 0.3])

    def test_empty_file_is_structural_error(self, tmp_path):
        p = write(tmp_path, "a.csv", "")
        with pytest.raises(StructuralError):
            load_annotation_csv(p, "arousal")

    def test_header_only_is_structural_error(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,a1\n")
        with pytest.raises(StructuralError):
            load_annotation_csv(p, "arousal")

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,a1\n0.0,0.1\n0.04,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            load_annotation_csv(p, "arousal")

    def test_ragged_row_is_structural_error(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,a1,a2\n0.0,0.1,0.2\n0.04,0.3\n")
        with pytest.raises(StructuralError):
            load_annotation_csv(p, "arousal")

    def test_crlf_accepted(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,a1\r\n0.0,0.1\r\n0.04,0.2\r\n")
        m = load_annotation_csv(p, "arousal")
        np.testing.assert_allclose(m.data[:, 0], [0.1, 0.2])

    @pytest.mark.parametrize("header", ["time,a1,a1", "time,a1, a1 ", 'time,"a1",b,a1'])
    def test_repeated_annotator_id_refused_with_its_file(self, tmp_path, header):
        # used to be a ContractError from AnnotationMatrix that named no file
        width = header.count(",")
        row = ",".join(["0.1"] * width)
        p = write(tmp_path, "a.csv", f"{header}\n0.0,{row}\n0.04,{row}\n")
        want = re.escape(f"{p}: annotator id 'a1' heads more than one column")
        with pytest.raises(StructuralError, match=want):
            load_annotation_csv(p, "arousal")


class TestLoadLong:
    def test_long_format_matrix(self, tmp_path):
        p = write(
            tmp_path,
            "a.csv",
            "time,annotator,value\n"
            "0.0,r2,0.3\n0.0,r1,0.1\n0.04,r1,-0.2\n0.04,r2,0.2\n",
        )
        m = load_annotation_csv(p, "arousal")
        assert isinstance(m, AnnotationMatrix)
        assert m.annotator_ids == ("r1", "r2")
        np.testing.assert_allclose(m.data, [[0.1, 0.3], [-0.2, 0.2]])

    def test_clamp_warns_at_the_caller_in_both_layouts(self, tmp_path):
        # the warning names the caller's line, whichever layout the file has
        wide = write(tmp_path, "w.csv", "time,a1,a2\n0.0,1.7,0.0\n0.04,0.2,-1.3\n")
        long = write(
            tmp_path,
            "l.csv",
            "time,annotator,value\n0.0,a2,0.0\n0.0,a1,1.7\n0.04,a1,0.2\n0.04,a2,-1.3\n",
        )
        loaded = []
        for p in (wide, long):
            with pytest.warns(ClampWarning, match=rf"clamped 2 value\(s\) .* in {p.name}") as seen:
                loaded.append(load_annotation_csv(p, "arousal"))
            assert [w.filename for w in seen] == [__file__]
        assert loaded[0].annotator_ids == loaded[1].annotator_ids == ("a1", "a2")
        assert loaded[0].data.tobytes() == loaded[1].data.tobytes()
        np.testing.assert_array_equal(loaded[0].data, [[1.0, 0.0], [0.2, -1.0]])

    def test_long_format_misaligned_grids_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "a.csv",
            "time,annotator,value\n0.0,r1,0.1\n0.04,r1,0.2\n0.0,r2,0.3\n",
        )
        with pytest.raises(StructuralError):
            load_annotation_csv(p, "arousal")


class TestRoundTrip:
    def test_matrix_roundtrip_six_decimals(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, size=(40, 3))
        m = AnnotationMatrix(
            data=data, annotator_ids=("a", "b", "c"), dimension="arousal", rate_hz=25.0
        )
        p = tmp_path / "out.csv"
        write_annotation_csv(p, m)
        m2 = load_annotation_csv(p, "arousal")
        np.testing.assert_allclose(m2.data, m.data, atol=1e-6)
        assert m2.annotator_ids == m.annotator_ids

    def test_column_order_invariant_under_file_order(self, tmp_path):
        p1 = write(tmp_path, "p1.csv", "time,x,y\n0.0,0.1,0.2\n0.04,0.3,0.4\n")
        p2 = write(tmp_path, "p2.csv", "time,y,x\n0.0,0.2,0.1\n0.04,0.4,0.3\n")
        m1 = load_annotation_csv(p1, "arousal")
        m2 = load_annotation_csv(p2, "arousal")
        assert m1.annotator_ids == m2.annotator_ids
        np.testing.assert_array_equal(m1.data, m2.data)


class TestGoldAndFeatures:
    def test_gold_csv(self, tmp_path):
        p = write(tmp_path, "g.csv", "time,value\n0.0,0.5\n0.04,0.6\n")
        g = load_gold_csv(p, "valence")
        assert isinstance(g, GoldStandardTrack)
        np.testing.assert_allclose(g.values, [0.5, 0.6])
        assert g.provenance == "external_gold"

    def test_features_csv(self, tmp_path):
        p = write(tmp_path, "f.csv", "time,f0,f1\n0.0,1.5,-2.0\n0.04,0.5,3.0\n")
        f = load_features_csv(p)
        assert isinstance(f, FeatureSequence)
        assert f.frames == 2 and f.dim == 2
        np.testing.assert_allclose(f.data, [[1.5, -2.0], [0.5, 3.0]])


class TestWriteTrace:
    """write_trace_csv refuses, before a file is made, what load_gold_csv would."""

    def test_written_trace_loads_back(self, tmp_path):
        write_trace_csv(tmp_path / "t.csv", [0.1, -0.2, 0.3], 25.0)
        g = load_gold_csv(tmp_path / "t.csv", "valence")
        np.testing.assert_array_equal(g.values, [0.1, -0.2, 0.3])
        assert g.rate_hz == pytest.approx(25.0)

    @pytest.mark.parametrize(
        "values, rate, match",
        [
            ([0.1, float("nan"), 0.2], 25.0, "trace values must be finite"),
            ([0.1, float("inf")], 25.0, "trace values must be finite"),
            ([0.1, 0.2], 0.0, "sampling rate must be positive"),
            ([0.1, 0.2], -5.0, "sampling rate must be positive"),
            ([[0.1, 0.2], [0.3, 0.4]], 25.0, "must be 1-D"),
            ([], 25.0, "nonempty"),
        ],
        ids=["nan", "inf", "zero_rate", "negative_rate", "two_d", "empty"],
    )
    def test_bad_trace_refused(self, tmp_path, values, rate, match):
        with pytest.raises(ContractError, match=match):
            write_trace_csv(tmp_path / "t.csv", np.array(values), rate)
        assert list(tmp_path.iterdir()) == []


def _one_row_writes():
    """Each CSV writer with a 1-row table, which no loader could read back."""
    ann = AnnotationMatrix(np.array([[0.1, 0.2]]), ("a0", "a1"), "valence", 25.0)
    gold = GoldStandardTrack("valence", 25.0, np.array([0.1]), "external_gold")
    feats = FeatureSequence(np.zeros((0, 3)), 25.0)
    return {
        "trace": lambda p: write_trace_csv(p, [0.1], 25.0),
        "gold": lambda p: write_gold_csv(p, gold),
        "annotations": lambda p: write_annotation_csv(p, ann),
        "features": lambda p: write_features_csv(p, feats),
    }


@pytest.mark.parametrize("writer", sorted(_one_row_writes()))
def test_writers_refuse_fewer_than_two_rows(tmp_path, writer):
    path = tmp_path / "one.csv"
    with pytest.raises(ContractError, match=re.escape(f"{path}: need at least 2 rows")):
        _one_row_writes()[writer](path)
    assert list(tmp_path.iterdir()) == []


def make_aligned(frames, rate=25.0, dim=4, annotators=2):
    rng = np.random.default_rng(1)
    feats = FeatureSequence(rng.normal(size=(frames, dim)), rate)
    ann = AnnotationMatrix(
        rng.uniform(-1, 1, size=(frames, annotators)),
        tuple(f"a{i}" for i in range(annotators)),
        "arousal",
        rate,
    )
    gold = GoldStandardTrack("arousal", rate, rng.uniform(-1, 1, frames), "external_gold")
    return feats, ann, gold


def make_source(frames, rate=25.0, gold_rate=None, source_id="s"):
    feats, ann, gold = make_aligned(frames, rate)
    if gold_rate is not None:
        gold = GoldStandardTrack("arousal", gold_rate, gold.values, "external_gold")
    return SourceData(source_id, feats, {"arousal": gold}, {"arousal": ann})


CONTAINERS = pytest.mark.parametrize(
    "name, build, shape",
    [
        ("AnnotationMatrix", lambda v: AnnotationMatrix(v, ("a0", "a1"), "arousal", 25.0),
         (10, 2)),
        ("GoldStandardTrack", lambda v: GoldStandardTrack("arousal", 25.0, v), (10,)),
        ("FeatureSequence", lambda v: FeatureSequence(v, 25.0), (10, 4)),
    ],
)


class TestFiniteValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @CONTAINERS
    def test_containers_refuse_non_finite(self, name, build, shape, bad):
        values = np.zeros(shape)
        values.flat[3] = bad
        with pytest.raises(ContractError, match=f"{name} values must be finite"):
            build(values)

    @CONTAINERS
    def test_callers_array_stays_writeable(self, name, build, shape):
        values = np.zeros(shape)
        held = getattr(build(values), "values" if name == "GoldStandardTrack" else "data")
        assert values.flags.writeable and not held.flags.writeable
        values.flat[0] = 1.0
        assert held.flat[0] == 0.0


class TestWindowize:
    def test_count_formula_300_75_10(self):
        bounds = window_bounds(300, WindowSpec(3.0, 0.4), 25.0)
        assert len(bounds) == 23
        assert all(b - a == 75 for a, b in bounds)
        assert [a for a, _ in bounds] == list(range(0, 230, 10))

    def test_exact_fit_one_window(self):
        assert window_bounds(75, WindowSpec(3.0, 0.4), 25.0) == [(0, 75)]

    def test_too_short_gives_none(self):
        assert window_bounds(74, WindowSpec(3.0, 0.4), 25.0) == []

    def test_slices_are_aligned(self):
        # one frame grid for every stream: the third 1 s window at 25 Hz
        assert window_bounds(100, WindowSpec(1.0, 1.0), 25.0)[2] == (50, 75)

    def test_misaligned_lengths_rejected(self):
        feats, ann, gold = make_aligned(100)
        bad_gold = GoldStandardTrack("arousal", 25.0, gold.values[:-1], "external_gold")
        with pytest.raises(ContractError, match="frame-aligned"):
            SourceData("s", feats, {"arousal": bad_gold}, {"arousal": ann})

    def test_mixed_stream_rates_rejected(self):
        # 12.5 Hz features next to 25 Hz gold used to load and fail only at batch time
        with pytest.raises(ContractError, match=r"s/arousal: gold rate 25.0 Hz .* 12.5 Hz"):
            make_source(100, rate=12.5, gold_rate=25.0)
        make_source(100, rate=25.0, gold_rate=25.0 * (1 + 1e-12))

    def test_mixed_source_rates_rejected(self):
        slow, fast = make_source(100, 12.5, source_id="slow"), make_source(100, source_id="fast")
        with pytest.raises(ContractError, match=r"'slow' .* 12.5 Hz.*'fast' at 25.0 Hz"):
            Dataset([fast, slow])

    @pytest.mark.parametrize("kind", ["gold", "annotations"])
    def test_stream_labelled_for_another_dimension_rejected(self, kind):
        # an arousal stream filed under valence used to be accepted
        feats, ann, gold = make_aligned(100)
        # the other stream is relabelled, so only the one of this kind is wrong
        if kind == "gold":
            ann = dataclasses.replace(ann, dimension="valence")
        else:
            gold = dataclasses.replace(gold, dimension="valence")
        with pytest.raises(ContractError, match=rf"s/valence: {kind} is 'arousal'"):
            SourceData("s", feats, {"valence": gold}, {"valence": ann})

    def test_invalid_spec_rejected(self):
        with pytest.raises(ContractError):
            WindowSpec(0.0, 0.4)
        with pytest.raises(ContractError):
            WindowSpec(3.0, 0.0)
        with pytest.raises(ContractError):
            WindowSpec(0.4, 3.0)  # shift must not exceed the window


@given(st.integers(0, 500), st.integers(1, 120), st.integers(1, 120))
@settings(max_examples=300, deadline=None)
def test_window_count_matches_enumeration(t, w, s):
    brute = sum(1 for start in range(0, max(t, 1), s) if start + w <= t)
    assert window_count(t, w, s) == brute


# ---------------------------------------------------------------------------
# The whole-array CSV layer against the per-value code it replaced

RATES = (25.0, 30.0, 44.1, 60.0)


def old_write_table(path, header, rate_hz, columns):
    """The per-value writer that _write_table replaced, kept as its oracle."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(columns.shape[0]):
            w.writerow([f"{k / rate_hz:.6f}"] + [f"{v:.6f}" for v in columns[k]])


def old_parse(text):
    """csv.reader + float() over the non-blank rows after the header: the old parser."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    return np.array([[float(tok) for tok in row] for row in rows[1:]], dtype=np.float64)


header_ids = st.text(
    alphabet=st.sampled_from(list("ab,\" x_1\t")), min_size=1, max_size=6
)
# The digit kernel's domain ends at 2**52 / 1e6; past it _write_table falls back.
KERNEL_LIMIT = 2.0**52 / 1e6

table_values = st.one_of(
    st.sampled_from([0.0, -0.0, -4e-7, 4e-7, 5e-7, -5e-7, 1e6, -1e6, 0.5, 1.0000005, 1e9, -1e9]),
    st.floats(-1e6, 1e6, allow_nan=False),
    # dyadic values: k / 2**7 with k odd is an exact tie at the sixth decimal
    st.integers(-(10**6), 10**6).map(lambda k: k / 2**7),
    st.integers(-(10**9), 10**9).map(lambda k: k / 2**20),
    # products v * 1e6 within an ulp of a half-integer
    st.integers(-(10**9), 10**9).map(lambda k: (k + 0.5) / 1e6),
    # magnitudes on both sides of the kernel's limit
    st.sampled_from([KERNEL_LIMIT, float(np.nextafter(KERNEL_LIMIT, 0))]),
    st.floats(0.99 * KERNEL_LIMIT, 1.01 * KERNEL_LIMIT).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
)


@given(
    # fewer than 2 rows are refused (test_writers_refuse_fewer_than_two_rows)
    st.integers(2, 30),
    st.lists(header_ids, min_size=1, max_size=4),
    st.sampled_from(RATES),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_write_table_bytes_match_per_value_writer(tmp_path_factory, n, ids, rate, data):
    cols = np.array(
        data.draw(st.lists(st.lists(table_values, min_size=len(ids), max_size=len(ids)),
                           min_size=n, max_size=n)),
        dtype=np.float64,
    ).reshape(n, len(ids))
    d = tmp_path_factory.mktemp("w")
    old_write_table(d / "old.csv", ["time", *ids], rate, cols)
    _write_table(d / "new.csv", ["time", *ids], rate, cols)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def in_kernel_domain(v):
    """Whether v lies inside the digit kernel's domain with a margin: |v| below
    the limit and v * 1e6 more than two ulps from a half-integer."""
    p = v * 1e6
    return abs(v) < KERNEL_LIMIT and abs(abs(p - round(p)) - 0.5) > 2 * np.spacing(abs(p))


# The largest micro count in_kernel_domain admits: past 2**50 two ulps of
# v * 1e6 reach half a unit, so the domain ends at a quarter of KERNEL_LIMIT.
DOMAIN_MICROS = 2**50 - 2

# Values inside the domain by construction, so no draw is rejected: v * 1e6 is
# a whole number of micros, or one of at most 2**40 micros plus an offset of at
# most 0.4, and either lies well clear of every half-integer.
kernel_values = st.one_of(
    st.sampled_from([0.0, -0.0, -4e-7, 4e-7, 0.5, 1.0000004, 1e6, -1e6, 1e9, -1e9]),
    # sub-micro values of both signs
    st.floats(-0.4, 0.4).map(lambda f: f / 1e6),
    st.tuples(st.integers(-(2**40), 2**40), st.floats(-0.4, 0.4)).map(
        lambda qf: (qf[0] + qf[1]) / 1e6
    ),
    st.integers(-DOMAIN_MICROS, DOMAIN_MICROS).map(lambda q: q / 1e6),
    # magnitudes just under the end of the domain
    st.integers(DOMAIN_MICROS - 10**6, DOMAIN_MICROS).flatmap(
        lambda q: st.sampled_from([q / 1e6, -q / 1e6])
    ),
)


@given(st.lists(kernel_values, min_size=1, max_size=60), st.integers(1, 4))
@example([-0.0, -4e-7, 5.0, 12.25, -999.9999994, 1000.0, -123456.789, 1e9, -1098765432.1], 3)
@settings(max_examples=150, deadline=None)
def test_kernel_formats_tables_of_its_domain(values, width):
    """A table whose every value lies inside the domain takes the kernel's
    fast path, whatever mix of signs and magnitudes it holds."""
    assert all(in_kernel_domain(v) for v in values)
    width = min(width, len(values))
    table = np.array(values[: len(values) // width * width]).reshape(-1, width)
    want = "".join(",".join(f"{v:.6f}" for v in row) + "\r\n" for row in table)
    assert annotations._fixed6_rows(table) == want.encode()


@pytest.mark.parametrize(
    "v",
    [1 / 128, -3 / 128, 5e-7, KERNEL_LIMIT, -KERNEL_LIMIT, float("nan"), float("inf")],
)
def test_kernel_leaves_a_table_outside_its_domain_to_the_fallback(tmp_path, v):
    cols = np.array([[0.25, 0.5], [v, -0.75]])
    assert annotations._fixed6_rows(np.column_stack([[0.0, 0.04], cols])) is None
    _write_table(tmp_path / "t.csv", ["time", "a", "b"], 25.0, cols)
    old_write_table(tmp_path / "old.csv", ["time", "a", "b"], 25.0, cols)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_default_synth_source_takes_the_kernel(tmp_path, monkeypatch):
    """Every table of a default synthetic source is formatted by the digit
    kernel: a kernel that always fell back would pass the byte tests."""

    def fallback(table):
        raise AssertionError(f"a {table.shape} table fell back to the % format")

    source = generate_source(default_synth_config(seed=5), 0)
    monkeypatch.setattr(annotations, "_percent_rows", fallback)
    write_dataset(tmp_path, Dataset([source]))
    assert sorted(p.name for p in (tmp_path / source.source_id).iterdir()) == [
        "annotations_arousal.csv",
        "annotations_valence.csv",
        "features.csv",
        "gold_arousal.csv",
        "gold_valence.csv",
    ]


@st.composite
def messy_feature_csvs(draw):
    """A features CSV in LF, CRLF or CR, with blank lines, padded and quoted numbers."""
    rate = draw(st.sampled_from(RATES))
    n, width = draw(st.integers(2, 25)), draw(st.integers(1, 4))
    styles = st.sampled_from(["{}", " {} ", "\t{}", '"{}"', '" {}"', "{} "])

    def token(v):
        body = f"{v:.6f}" if draw(st.booleans()) else repr(v)
        return draw(styles).format(body)

    lines = [""] * draw(st.integers(0, 2))
    lines.append(",".join(["time", *(f"f{j}" for j in range(width))]))
    for k in range(n):
        row = [k / rate] + draw(st.lists(table_values, min_size=width, max_size=width))
        lines.append(",".join(token(v) for v in row))
        lines += [""] * draw(st.integers(0, 2))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@given(messy_feature_csvs())
@settings(max_examples=150, deadline=None)
def test_loader_matches_per_value_parser(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("r") / "f.csv"
    p.write_bytes(text.encode())
    want = old_parse(text)
    got = load_features_csv(p)
    assert got.data.tobytes() == want[:, 1:].tobytes()  # bit for bit, -0.0 included
    assert got.rate_hz == 1.0 / float(np.median(np.diff(want[:, 0])))


# The reader's kernel takes fields of at most 9 integer digits.
PARSE_LIMIT = 999_999_999.999999

parse_values = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 4e-7, -4e-7, 5e-7, 1e-6, -1e-6, 0.5,
         123456789.25, -987654321.5, PARSE_LIMIT, -PARSE_LIMIT]
    ),
    st.floats(-PARSE_LIMIT, PARSE_LIMIT, allow_nan=False),
    st.floats(-1e-5, 1e-5, allow_nan=False),
    # exact ties and near-half products: tables the % fallback writes
    st.integers(-(10**6), 10**6).map(lambda k: k / 2**7),
    st.integers(-(10**9), 10**9).map(lambda k: (k + 0.5) / 1e6),
)


# fewer than 2 rows are refused (test_writers_refuse_fewer_than_two_rows)
parse_tables = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(parse_values, min_size=w, max_size=w), min_size=2, max_size=30)
)


@given(parse_tables, st.sampled_from(RATES))
@example([[-0.0, 1 / 128], [5e-324, -PARSE_LIMIT]], 25.0)  # a tie: the % fallback writes it
@example([[123456789.0], [-5e-324], [0.0]], 30.0)
@settings(max_examples=150, deadline=None)
def test_parse_kernel_reads_what_np_loadtxt_reads(tmp_path_factory, rows, rate):
    """Every table _write_table writes with at most 9 integer digits a value
    is read by the kernel, bit for bit as np.loadtxt reads it, also when the
    text is cut into many blocks, and also with its CRLF rows ending in LF."""
    cols = np.array(rows, dtype=np.float64)
    width = cols.shape[1]
    path = tmp_path_factory.mktemp("p") / "t.csv"
    _write_table(path, ["time", *(f"c{j}" for j in range(width))], rate, cols)
    header, data, start = annotations._read_header(path)
    rest = data[start:]
    assert rest.endswith(b"\r\n")
    want = np.loadtxt(io.StringIO(rest.decode()), delimiter=",", ndmin=2)
    # the bytes before the body are the kernel's padding when there are 16 or
    # more; the digit masks drop them, whatever they hold
    for before in (b"", data[:start], b"-9\xff." * 4 + b"time,c0\r\n"):
        for body in (rest, rest.replace(b"\r\n", b"\n")):
            got = annotations._fixed6_parse(before + body, len(before), len(header))
            assert got is not None
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(annotations, "_PARSE_BLOCK", 30)  # about one row a block
                blocks = annotations._fixed6_parse(before + body, len(before), len(header))
            assert np.array_equal(blocks.view(np.int64), want.view(np.int64))


def test_parse_kernel_reads_crlf_and_lf_rows_alike():
    lf = b"1.000000,-0.000000\n-22.500000,0.000001\n"
    got = annotations._fixed6_parse(lf.replace(b"\n", b"\r\n"), 0, 2)
    want = annotations._fixed6_parse(lf, 0, 2)
    assert want is not None and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "body, width",
    [
        (b"1.000000\n\n2.000000\n", 1),
        (b"\n1.000000\n", 1),
        (b"+1.000000\n", 1),
        (b"1e3\n", 1),
        (b'"1.000000"\n', 1),
        (b"1.0000000\n", 1),
        (b"1.00000\n", 1),
        (b"-\n", 1),
        (b"-.000000\n", 1),
        (b"1234567890.000000\n", 1),
        (b"1.000000", 1),
        (b"1.000000\n2.000000,3.000000,4.000000\n", 2),
        (b"1.000000,2.000000\n", 1),
        (b"1.000000\n", 2),
        (b" 1.000000\n", 1),
        (b"1.000000\t\n", 1),
        (b"1-2.000000\n", 1),
        (b"1/2.000000\n", 1),
        (b"1.00:000\n", 1),
        (b"1.000000;2.000000\n", 2),
        ("١.000000\n".encode(), 1),
        (b"1.000000\r", 1),
        (b"1.000000\r2.000000\r\n", 1),
        (b"1.000000\r5\n2.000000\r\n", 1),
        (b"1.000000\r\r\n", 1),
        (b"1.000000\r\n\r\n2.000000\r\n", 1),
        (b"\r\n1.000000\r\n", 1),
        (b"1.000000\n2.000000\r\n", 1),
        (b"1.000000\r\n2.000000\n", 1),
        (b"1.000000,2.000000\r\n", 1),
        (b"1.000000\r\n", 2),
        (b"1.000000\r,2.000000\r\n", 2),
    ],
    ids=lambda v: repr(v.decode()) if isinstance(v, bytes) else None,
)
def test_parse_kernel_leaves_other_text_to_np_loadtxt(body, width, monkeypatch):
    assert annotations._fixed6_parse(body, 0, width) is None
    # the same fault after rows that parse, in a later block
    eol = b"\r\n" if body.endswith(b"\r\n") else b"\n"
    rows = (b",".join([b"-1.500000"] * width) + eol) * 3
    monkeypatch.setattr(annotations, "_PARSE_BLOCK", 1)
    assert annotations._fixed6_parse(rows + body, 0, width) is None
    assert annotations._fixed6_parse(rows, 0, width) is not None


def test_default_synth_corpus_loads_through_the_parse_kernel(tmp_path, monkeypatch):
    """Every CSV write_dataset writes for a default synthetic corpus is read
    by the kernel: one that always fell back to np.loadtxt would pass every
    test of what the loader returns."""
    kernel = annotations._fixed6_parse
    parsed = []

    def strict(data, start, width):
        table = kernel(data, start, width)
        assert table is not None, f"a {width}-column body fell back to np.loadtxt"
        parsed.append(width)
        return table

    cfg = default_synth_config(seed=5)
    write_dataset(tmp_path, Dataset([generate_source(cfg, i) for i in range(2)]))
    monkeypatch.setattr(annotations, "_fixed6_parse", strict)
    load_dataset(tmp_path)
    assert len(parsed) == len(list(tmp_path.rglob("*.csv"))) == 10


# Files that a reader of text (UTF-8, universal newlines) read as below: the
# byte path must load the same ids and values, or refuse the file with the
# same error type, line and the file's path.
ROWS = [b"0.000000,0.100000,-0.200000", b"0.040000,0.300000,0.400000"]
PARITY_CASES = {
    "lf": b"time,a1,a2\n" + b"\n".join(ROWS) + b"\n",
    "crlf": b"time,a1,a2\r\n" + b"\r\n".join(ROWS) + b"\r\n",
    "cr": b"time,a1,a2\r" + b"\r".join(ROWS) + b"\r",
    "lone_cr_in_body": b"time,a1,a2\r\n" + b"\r".join(ROWS) + b"\r\n",
    "lone_cr_ends_header": b"time,a1,a2\r" + b"\n".join(ROWS) + b"\n",
    "leading_blank_lines": b"\n\r\n\rtime,a1,a2\n" + b"\n".join(ROWS) + b"\n",
    "quoted_ids": b'time,"a,1","b\n2"\r\n' + b"\r\n".join(ROWS) + b"\r\n",
    "bom": b"\xef\xbb\xbftime,a1,a2\n" + b"\n".join(ROWS) + b"\n",
    "non_utf8_header": b"time,a\xe9,a2\n" + b"\n".join(ROWS) + b"\n",
    "non_utf8_body": b"time,a1,a2\n" + b"\n".join(ROWS) + b"\n0.080000,\xe9,0.1\n",
    "lf_only_body": b"time,a1,a2\n\n\n",
    "crlf_only_body": b"time,a1,a2\r\n\r\n",
    "cr_then_bad_token": b"time,a1,a2\r\n" + ROWS[0] + b"\r0.040000,oops,0.4\r\n",
    "crlf_then_ragged_row": b"time,a1,a2\r\n" + ROWS[0] + b"\r\n\r\n0.040000,0.3\r\n",
}
PARITY_WANT = {
    "quoted_ids": ("a,1", "b\n2"),
    "bom": (StructuralError, None, "first column must be 'time', got '\\ufefftime'"),
    "non_utf8_header": (StructuralError, None, "cannot read CSV"),
    "non_utf8_body": (StructuralError, None, "cannot read CSV"),
    "lf_only_body": (StructuralError, None, "no data rows"),
    "crlf_only_body": (StructuralError, None, "no data rows"),
    "cr_then_bad_token": (ParseError, 3, "cannot parse 'oops'"),
    "crlf_then_ragged_row": (StructuralError, None, "line 4 has 2 fields, expected 3"),
}


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_byte_path_reads_files_as_the_text_path_did(tmp_path, case):
    p = tmp_path / "a.csv"
    p.write_bytes(PARITY_CASES[case])
    want = PARITY_WANT.get(case, ("a1", "a2"))
    if isinstance(want[0], str):
        m = load_annotation_csv(p, "arousal")
        assert m.annotator_ids == want
        assert m.data.tobytes() == np.array([[0.1, -0.2], [0.3, 0.4]]).tobytes()
        assert m.rate_hz == 25.0
        return
    kind, line, match = want
    with pytest.raises(kind, match=re.escape(match)) as info:
        load_annotation_csv(p, "arousal")
    assert type(info.value) is kind and str(info.value).startswith(f"{p}: ")
    assert getattr(info.value, "line", None) == line


class TestLoadErrors:
    def test_bad_token_after_blank_lines_names_its_line(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,a1\n0.0,0.1\n\n\n0.04,oops\n")
        with pytest.raises(ParseError, match=r"a\.csv: line 5: cannot parse 'oops'") as exc:
            load_annotation_csv(p, "arousal")
        assert exc.value.line == 5

    def test_ragged_row_names_its_line(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,a1,a2\n0.0,0.1,0.2\n\n0.04,0.3\n")
        with pytest.raises(StructuralError, match="line 4 has 2 fields, expected 3"):
            load_annotation_csv(p, "arousal")

    def test_uniformly_narrow_body_refused(self, tmp_path):
        p = write(tmp_path, "f.csv", "time,f0,f1\n0.0,0.1\n0.04,0.2\n")
        with pytest.raises(StructuralError, match="line 2 has 2 fields, expected 3"):
            load_features_csv(p)

    def test_hash_line_is_data_not_a_comment(self, tmp_path):
        p = write(tmp_path, "g.csv", "time,value\n0.0,0.1\n#0.04,0.2\n0.08,0.3\n")
        with pytest.raises(ParseError, match="line 3: cannot parse '#0.04'"):
            load_gold_csv(p, "valence")

    def test_underscore_digits_refused(self, tmp_path):
        # float() reads "1_0" as 10; np.loadtxt, and so the loader, does not
        p = write(tmp_path, "g.csv", "time,value\n0.0,0.1\n0.04,1_0\n")
        with pytest.raises(ParseError, match="line 3: cannot parse '1_0'"):
            load_gold_csv(p, "valence")

    def test_nan_in_written_features_refused(self, tmp_path):
        # a nan used to load and end the run in epoch 1 as a non-finite gradient
        feats, _, _ = make_aligned(20)
        p = tmp_path / "features.csv"
        write_features_csv(p, feats)
        lines = p.read_text().splitlines(keepends=True)
        fields = lines[5].split(",")  # data row 5 sits on line 6
        fields[3] = "nan"
        lines[5] = ",".join(fields)
        p.write_text("".join(lines))
        want = r"features\.csv: line 6: non-finite value 'nan' in column 'f2'"
        with pytest.raises(ParseError, match=want):
            load_features_csv(p)

    @pytest.mark.parametrize("token", ["inf", "-inf", "NaN", "1e400"])
    def test_non_finite_refused_in_every_layout(self, tmp_path, token):
        cases = [
            (f"time,value\n0.0,0.1\n0.04,{token}\n", lambda p: load_gold_csv(p, "valence")),
            (f"time,a,b\n0.0,0.1,{token}\n0.04,0.2,0.3\n",
             lambda p: load_annotation_csv(p, "arousal")),
            (f"time,annotator,value\n0.0,r1,0.1\n0.0,r2,0.2\n0.04,r1,{token}\n0.04,r2,0.3\n",
             lambda p: load_annotation_csv(p, "arousal")),
        ]
        for i, (text, load) in enumerate(cases):
            p = write(tmp_path, f"c{i}.csv", text)
            with pytest.raises(ParseError, match=f"c{i}.csv: line \\d: non-finite value"):
                load(p)


class TestTimeGrid:
    def test_gap_in_gold_refused(self, tmp_path):
        # a 4 s gap cut out of the time column used to load silently
        p = tmp_path / "gold.csv"
        write_gold_csv(p, GoldStandardTrack("valence", 25.0, np.zeros(300)))
        lines = p.read_text().splitlines(keepends=True)
        del lines[1 + 50 : 1 + 150]  # data rows 50-149
        p.write_text("".join(lines))
        want = r"time 6\.000000 at line 52 is off the uniform grid"
        with pytest.raises(StructuralError, match=want):
            load_gold_csv(p, "valence")

    def test_time_going_back_names_its_line(self, tmp_path):
        p = write(tmp_path, "g.csv", "time,value\n0.0,0.1\n0.04,0.2\n0.02,0.3\n")
        with pytest.raises(StructuralError, match="line 4 breaks the strictly increasing"):
            load_gold_csv(p, "valence")

    def test_long_layout_gap_names_its_line(self, tmp_path):
        rows = [f"{t},{a},0.1" for t in (0.0, 0.04, 0.08, 1.0) for a in ("r2", "r1")]
        p = write(tmp_path, "a.csv", "time,annotator,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(StructuralError, match="time 1.000000 at line 9 is off"):
            load_annotation_csv(p, "arousal")

    @pytest.mark.parametrize("rate", RATES)
    def test_package_files_load_at_common_rates(self, tmp_path, rate):
        # 6-decimal time stamps: steps differ by up to 1e-6 s
        p = tmp_path / "f.csv"
        feats = FeatureSequence(np.zeros((2000, 2)), rate)
        write_features_csv(p, feats)
        assert load_features_csv(p).rate_hz == pytest.approx(rate, rel=1e-4)


class TestDatasetManifest:
    @pytest.mark.parametrize("rate", [30.0, 44.1, 60.0])
    def test_rate_round_trips_exactly(self, tmp_path, rate):
        # the median 6-decimal step used to give 30.0003 Hz and 59.9988 Hz
        ds = Dataset([make_source(400, rate=rate, source_id="s0")])
        write_dataset(tmp_path / "d", ds)
        back = load_dataset(tmp_path / "d")
        src = back.sources[0]
        rates = [src.features.rate_hz, src.gold["arousal"].rate_hz,
                 src.annotations["arousal"].rate_hz]
        assert rates == [rate] * 3
        np.testing.assert_allclose(src.features.data, ds.sources[0].features.data, atol=5e-7)

    def _write_with_manifest(self, tmp_path, **changes):
        root = tmp_path / "d"
        write_dataset(root, Dataset([make_source(100, source_id="s0")]))
        manifest = json.loads((root / "manifest.json").read_text())
        manifest.update(changes)
        (root / "manifest.json").write_text(json.dumps(manifest))
        return root

    def test_files_off_the_manifest_rate_refused(self, tmp_path):
        root = self._write_with_manifest(tmp_path, rate_hz=26.0)
        want = r"features\.csv: time .* off the manifest's 26.0 Hz grid"
        with pytest.raises(StructuralError, match=want):
            load_dataset(root)

    @pytest.mark.parametrize(
        "shift, refused", [(1.0, True), (0.4, False)], ids=["frame", "under_half"]
    )
    def test_time_column_starts_at_zero(self, tmp_path, shift, refused):
        # a gold trace shifted by one frame used to load, then pair with the features by row
        root = self._write_with_manifest(tmp_path)
        path = root / "s0" / "gold_arousal.csv"
        header, *rows = path.read_text().splitlines()
        shifted = [f"{float(t) + shift / 25.0:.6f},{v}" for t, v in (r.split(",") for r in rows)]
        path.write_text("\n".join([header, *shifted]) + "\n")
        if refused:
            want = r"gold_arousal\.csv: time 0\.040000 at line 2 is off the manifest's 25.0 Hz grid"
            with pytest.raises(StructuralError, match=want):
                load_dataset(root)
        else:
            assert load_dataset(root).sources[0].gold["arousal"].rate_hz == 25.0

    @pytest.mark.parametrize("rate", [0, -25.0, "25", None, True])
    def test_bad_manifest_rate_refused(self, tmp_path, rate):
        root = self._write_with_manifest(tmp_path, rate_hz=rate)
        with pytest.raises(StructuralError, match="manifest.json: rate_hz must be"):
            load_dataset(root)

    @pytest.mark.parametrize("sid", ["..", ".", "", "a/b", "a\\b", "../s0", 3])
    def test_source_id_must_be_a_plain_name(self, tmp_path, sid):
        root = self._write_with_manifest(tmp_path, sources=[sid])
        want = r"manifest\.json: source id .* plain directory"
        if not isinstance(sid, str):
            want = r"manifest\.json: sources\[0\] must be str, got 3"
        with pytest.raises(StructuralError, match=want):
            load_dataset(root)

    def test_missing_file_named_with_its_manifest(self, tmp_path):
        root = tmp_path / "d"
        write_dataset(root, Dataset([make_source(100, source_id="s0")]))
        (root / "s0" / "gold_arousal.csv").unlink()
        want = r"d/manifest\.json: names .*d/s0/gold_arousal\.csv, which does not exist"
        with pytest.raises(StructuralError, match=want):
            load_dataset(root)

    # Of Manifest's refusals, Dataset and its streams leave the writer only a
    # source id that is not a plain name and a dataset without dimensions.
    @pytest.mark.parametrize("sid", ["../escaped", "..", ".", "a/b", "a\\b", 3])
    def test_writer_refuses_what_the_loader_refuses(self, tmp_path, sid):
        ds = Dataset([make_source(100, source_id="s0"), make_source(100, source_id=sid)])
        want = rf"source id {re.escape(repr(sid))} is not a plain directory name"
        with pytest.raises(ContractError, match=want):
            write_dataset(tmp_path / "root" / "d", ds)
        assert list(tmp_path.rglob("*")) == []
        root = self._write_with_manifest(tmp_path, sources=["s0", sid])
        with pytest.raises(StructuralError, match=r"manifest\.json: (source id|sources\[1\])"):
            load_dataset(root)

    def test_writer_and_loader_refuse_a_dataset_without_dimensions(self, tmp_path):
        feats, _, _ = make_aligned(100)
        with pytest.raises(ContractError):
            write_dataset(tmp_path / "root" / "d", Dataset([SourceData("s0", feats, {}, {})]))
        assert list(tmp_path.rglob("*")) == []
        with pytest.raises(StructuralError, match=r"manifest\.json: dimensions must be"):
            load_dataset(self._write_with_manifest(tmp_path, dimensions=[]))

    @pytest.mark.parametrize(
        "change, want",
        [
            (dict(sources=()), "sources must be a list of at least one id, got []"),
            (dict(sources=("s0", "..")), "source id '..' is not a plain directory name"),
            (dict(sources=("s0", "s0")), "duplicate source ids in ['s0', 's0']"),
            (dict(dimensions=()), "dimensions must be a non-empty list of distinct names"),
            (dict(dimensions=("anger",)), "dimensions must be a non-empty list of distinct names"),
            (dict(dimensions=("arousal",) * 2), "dimensions must be a non-empty list of distinct"),
            (dict(rate_hz=0), "rate_hz must be a positive number, got 0"),
            (dict(rate_hz=-25.0), "rate_hz must be a positive number, got -25.0"),
            (dict(rate_hz=math.inf), "rate_hz must be a positive number, got inf"),
            (dict(rate_hz=math.nan), "rate_hz must be a positive number, got nan"),
            (dict(rate_hz=10**400), f"rate_hz must be a positive number, got {10**400}"),
            (dict(gold_provenance="bogus"), "gold_provenance must be one of"),
        ],
        ids=["no_sources", "dot_dot", "duplicate_ids", "no_dimensions", "unknown_dimension",
             "repeated_dimension", "zero_rate", "negative_rate", "inf_rate", "nan_rate",
             "huge_int_rate", "bad_provenance"],
    )
    def test_manifest_and_loader_refuse_alike(self, tmp_path, change, want):
        valid = dict(sources=("s0",), dimensions=("arousal",), rate_hz=25.0, feature_dim=4)
        with pytest.raises(ContractError, match=re.escape(want)):
            Manifest(**{**valid, **change})
        root = self._write_with_manifest(tmp_path, **change)
        with pytest.raises(StructuralError, match=rf"manifest\.json: {re.escape(want)}"):
            load_dataset(root)

    def test_unwritable_meta_refused_before_any_file_changes(self, tmp_path):
        # a numpy seed used to replace every CSV, then fail in the manifest's write
        # with a bare TypeError and leave the old manifest over the new tables
        root = tmp_path / "d"
        write_dataset(root, Dataset([make_source(100, source_id="s0")], meta={"seed": 5}))
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        other = Dataset([make_source(120, source_id="s0")], meta={"seed": np.int64(6)})
        want = r"d/manifest\.json: key 'seed': .*int64 is not JSON serializable"
        with pytest.raises(ContractError, match=want):
            write_dataset(root, other)
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before

    def test_short_later_source_leaves_nothing_behind(self, tmp_path):
        ds = Dataset([make_source(100, source_id="s0"), make_source(1, source_id="s1")])
        root = tmp_path / "d"
        want = re.escape(f"{root / 's1' / 'features.csv'}: need at least 2 rows to write, got 1")
        with pytest.raises(ContractError, match=want):
            write_dataset(root, ds)
        assert list(tmp_path.rglob("*")) == []

    def test_repeated_annotator_id_refused_with_its_file(self, tmp_path):
        root = tmp_path / "d"
        write_dataset(root, Dataset([make_source(100, source_id="s0")]))
        path = root / "s0" / "annotations_arousal.csv"
        text = path.read_bytes()
        assert text.startswith(b"time,a0,a1\r\n")
        path.write_bytes(b"time,a0,a0" + text[len(b"time,a0,a1") :])
        want = re.escape(f"{path}: annotator id 'a0' heads more than one column")
        with pytest.raises(StructuralError, match=want):
            load_dataset(root)

    def test_sources_must_be_a_list(self, tmp_path):
        root = self._write_with_manifest(tmp_path, sources="s0")
        with pytest.raises(StructuralError, match="sources must be a list"):
            load_dataset(root)

    @pytest.mark.parametrize(
        "dims",
        [None, 5, "arousal", [], ["arousal", "arousal"], ["anger"], [["arousal"]]],
        ids=["null", "number", "string", "empty", "repeated", "unknown", "nested"],
    )
    def test_bad_manifest_dimensions_refused(self, tmp_path, dims):
        root = self._write_with_manifest(tmp_path, dimensions=dims)
        with pytest.raises(StructuralError, match=r"manifest\.json: dimensions(\[0\])? must be"):
            load_dataset(root)

    @pytest.mark.parametrize("width", [99, 3, 4.0, "4", None])
    def test_manifest_feature_dim_must_match_the_files(self, tmp_path, width):
        # the written features.csv files are 4 columns wide
        root = self._write_with_manifest(tmp_path, feature_dim=width)
        want = r"manifest\.json: feature_dim is .*s0/features\.csv has 4 feature columns"
        if type(width) is not int:
            want = rf"manifest\.json: feature_dim must be int, got {re.escape(repr(width))}"
        with pytest.raises(StructuralError, match=want):
            load_dataset(root)

    def test_manifest_without_feature_dim_refused(self, tmp_path):
        root = self._write_with_manifest(tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        del manifest["feature_dim"]
        (root / "manifest.json").write_text(json.dumps(manifest))
        want = r"manifest\.json: bad Manifest: .*missing 1 required .*'feature_dim'"
        with pytest.raises(StructuralError, match=want):
            load_dataset(root)

    @pytest.mark.parametrize(
        "change, want",
        [
            (dict(sources=[]), "sources must be a list of at least one id"),
            (dict(sources=["s0", "s0"]), "duplicate source ids"),
            (dict(gold_provenance="bogus"), "gold_provenance must be one of"),
        ],
        ids=["no_sources", "duplicate_ids", "bad_provenance"],
    )
    def test_manifest_refusals_name_the_manifest(self, tmp_path, change, want):
        root = self._write_with_manifest(tmp_path, **change)
        with pytest.raises(StructuralError, match=rf"manifest\.json: {want}"):
            load_dataset(root)

    def test_subset_of_loaded_dataset_round_trips(self, tmp_path):
        # the old manifest in meta used to overwrite the sources the writer listed
        ds = Dataset([make_source(100, source_id=f"s{i}") for i in range(3)], meta={"seed": 7})
        write_dataset(tmp_path / "d", ds)
        loaded = load_dataset(tmp_path / "d")
        write_dataset(tmp_path / "e", Dataset(loaded.sources[:2], meta=loaded.meta))
        back = load_dataset(tmp_path / "e")
        assert back.source_ids == ("s0", "s1")
        assert back.meta["seed"] == 7

    @pytest.mark.parametrize("provenance", PROVENANCES)
    def test_gold_provenance_comes_from_the_tracks(self, tmp_path, provenance):
        # the tracks decide the manifest's provenance, whatever the meta says
        sources = [make_source(100, source_id=f"s{i}") for i in range(2)]
        for s in sources:
            s.gold["arousal"] = dataclasses.replace(s.gold["arousal"], provenance=provenance)
        other = next(p for p in PROVENANCES if p != provenance)
        write_dataset(tmp_path / "d", Dataset(sources, meta={"gold_provenance": other}))
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["gold_provenance"] == provenance
        back = load_dataset(tmp_path / "d")
        assert [s.gold["arousal"].provenance for s in back.sources] == [provenance] * 2

    def test_mixed_gold_provenances_refused_before_writing(self, tmp_path):
        sources = [make_source(100, source_id=f"s{i}") for i in range(2)]
        for s, provenance in zip(sources, ("aggregated", "intended_emotion")):
            s.gold["arousal"] = dataclasses.replace(s.gold["arousal"], provenance=provenance)
        want = r"share one provenance, got \['aggregated', 'intended_emotion'\]"
        with pytest.raises(ContractError, match=want):
            write_dataset(tmp_path / "d", Dataset(sources))
        assert not (tmp_path / "d").exists()

    def test_manifest_written_last_and_no_temp_files(self, tmp_path, monkeypatch):
        root = tmp_path / "d"
        ds = Dataset([make_source(100, source_id="s0")])
        write_dataset(root, ds)
        files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))
        assert files == [
            "manifest.json", "s0", "s0/annotations_arousal.csv", "s0/features.csv",
            "s0/gold_arousal.csv",
        ]

        def fail(*args):
            raise OSError("disk full")

        # a write that stops halfway leaves no manifest naming missing files
        monkeypatch.setattr(annotations, "write_annotation_csv", fail)
        with pytest.raises(OSError):
            write_dataset(tmp_path / "e", ds)
        assert not (tmp_path / "e" / "manifest.json").exists()


PLAIN_IDS = st.text(min_size=1, max_size=8).filter(
    lambda s: s not in (".", "..") and "/" not in s and "\\" not in s
)
MANIFESTS = st.builds(
    Manifest,
    sources=st.lists(PLAIN_IDS, min_size=1, max_size=4, unique=True).map(tuple),
    dimensions=st.lists(st.sampled_from(DIMENSIONS), min_size=1, unique=True).map(tuple),
    rate_hz=st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    | st.integers(1, 10**6),
    feature_dim=st.integers(0, 2**31),
    gold_provenance=st.sampled_from(PROVENANCES),
)


@given(MANIFESTS)
def test_manifest_round_trips_through_json(manifest):
    assert from_dict(Manifest, json.loads(json.dumps(to_dict(manifest)))) == manifest
    assert type(manifest.rate_hz) is float


def test_csv_is_utf8_under_an_ascii_locale(tmp_path):
    # open() takes the locale's encoding unless told otherwise; the C locale's is ASCII
    code = (
        "import locale, sys\n"
        "from emocons.annotations import AnnotationMatrix, load_annotation_csv, "
        "write_annotation_csv\n"
        "assert locale.getpreferredencoding(False).lower() not in ('utf-8', 'utf8')\n"
        "ann = AnnotationMatrix([[0.5], [0.25]], ('\\u00e91',), 'arousal', 25.0)\n"
        "write_annotation_csv(sys.argv[1], ann)\n"
        "print(ascii(load_annotation_csv(sys.argv[1], 'arousal').annotator_ids))\n"
    )
    src = str(Path(annotations.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(
        os.environ, PYTHONPATH=path, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"
    )
    p = tmp_path / "a.csv"
    out = subprocess.run(
        [sys.executable, "-c", code, str(p)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "('\\xe91',)"
    assert p.read_bytes().startswith("time,\u00e91\r\n".encode("utf-8"))
