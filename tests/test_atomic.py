import numpy as np
import pytest

from emocons.annotations import load_annotation_csv, load_dataset, load_features_csv, load_gold_csv
from emocons.atomic import atomic_write
from emocons.errors import StructuralError
from emocons.evalharness import load_report
from emocons.nn import DenseLayer, Network, load_checkpoint, save_checkpoint


def test_replaces_file_when_block_completes(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("old")
    with atomic_write(p) as fh:
        fh.write("new")
        assert p.read_text() == "old"  # readers see the old file until the end
    assert p.read_text() == "new"
    assert [q.name for q in tmp_path.iterdir()] == ["a.txt"]


def test_failure_midway_keeps_old_file_and_leaves_no_temp(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_write(p) as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert p.read_text() == "old"
    assert [q.name for q in tmp_path.iterdir()] == ["a.txt"]


def test_new_file_not_created_by_failed_write(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "a.txt") as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


def _net():
    return Network(layers=[DenseLayer(np.ones((1, 2)), np.zeros(1), "linear")])


def test_checkpoint_failing_midway_keeps_previous(tmp_path):
    # json.dump writes the networks, then fails on the unserialisable meta
    p = tmp_path / "checkpoint.json"
    save_checkpoint(p, {"predictor": _net()}, {"epoch": 1})
    before = p.read_bytes()
    with pytest.raises(TypeError):
        save_checkpoint(p, {"predictor": _net()}, {"epoch": 2, "bad": object()})
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["checkpoint.json"]
    _, meta = load_checkpoint(p)
    assert meta == {"epoch": 1}



# Every artifact reader goes through atomic.open_text / read_json, so each
# refuses a file it cannot use with a StructuralError that names the file.
READERS = {
    "annotation_csv": ("a.csv", lambda p: load_annotation_csv(p, "arousal")),
    "gold_csv": ("g.csv", lambda p: load_gold_csv(p, "arousal")),
    "features_csv": ("f.csv", load_features_csv),
    "manifest": ("manifest.json", lambda p: load_dataset(p.parent)),
    "checkpoint": ("checkpoint.json", load_checkpoint),
    "report": ("report.json", load_report),
}
FAULTS = {
    "missing": lambda p: None,
    "directory": lambda p: p.mkdir(),
    "not_utf8": lambda p: p.write_bytes(
        ('{"a": "é"}' if p.suffix == ".json" else "time,é1\n0.0,0.5\n0.04,0.5\n")
        .encode("latin-1")
    ),
    "invalid_json": lambda p: p.write_text("{not json"),
    "not_object": lambda p: p.write_text("[1, 2]"),
}


@pytest.mark.parametrize(
    "reader, fault",
    [
        (r, f)
        for r, (name, _) in READERS.items()
        for f in FAULTS
        if name.endswith(".json") or f not in ("invalid_json", "not_object")
    ],
)
def test_unusable_file_is_structural_and_named(tmp_path, reader, fault):
    name, load = READERS[reader]
    p = tmp_path / "d" / name
    p.parent.mkdir()
    FAULTS[fault](p)
    with pytest.raises(StructuralError) as info:
        load(p)
    assert f"{p}: " in str(info.value)
