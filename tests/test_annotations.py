import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocons.annotations import (
    AnnotationMatrix,
    AnnotationTrack,
    ClampWarning,
    Dataset,
    FeatureSequence,
    GoldStandardTrack,
    SourceData,
    WindowSpec,
    load_annotation_csv,
    load_features_csv,
    load_gold_csv,
    window_bounds,
    window_count,
    write_annotation_csv,
)
from emocons.errors import ContractError, ParseError, StructuralError


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

    def test_single_annotator_gives_track(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,solo\n0.0,0.1\n0.04,0.2\n0.08,0.3\n")
        t = load_annotation_csv(p, "arousal")
        assert isinstance(t, AnnotationTrack)
        assert t.annotator_id == "solo"
        np.testing.assert_allclose(t.values, [0.1, 0.2, 0.3])

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
        t = load_annotation_csv(p, "arousal")
        np.testing.assert_allclose(t.values, [0.1, 0.2])


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
