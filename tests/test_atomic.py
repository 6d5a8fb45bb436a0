import numpy as np
import pytest

from emocons.atomic import atomic_write
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

