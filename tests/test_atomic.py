import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from emocons.annotations import (
    WindowSpec,
    load_annotation_csv,
    load_dataset,
    load_features_csv,
    load_gold_csv,
    write_annotation_csv,
    write_dataset,
    write_features_csv,
    write_gold_csv,
)
from emocons.atomic import atomic_write, atomic_write_binary, read_binary
from emocons.errors import StructuralError
from emocons.evalharness import FoldScore, Report, load_report, save_report
from emocons.nn import DenseLayer, Network, load_checkpoint, save_checkpoint
from emocons.predictor import PredictorConfig
from emocons.synth import SynthConfig, generate_corpus
from emocons.trainer import TrainConfig, config_hash, prepare_data, run_training, save_run, write_epochs_csv


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


def test_binary_form_replaces_only_when_block_completes(tmp_path):
    p = tmp_path / "a.csv"
    p.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write_binary(p) as fh:
            fh.write(b"half")
            raise RuntimeError("interrupted")
    assert p.read_bytes() == b"old"
    with atomic_write_binary(p) as fh:
        fh.write(b"new\r\n")
        assert p.read_bytes() == b"old"
    assert p.read_bytes() == b"new\r\n"  # no newline translation
    assert [q.name for q in tmp_path.iterdir()] == ["a.csv"]


def test_new_file_not_created_by_failed_write(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "a.txt") as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


def _net():
    return Network(layers=[DenseLayer(np.ones((1, 2)), np.zeros(1), "linear")])


def test_checkpoint_failing_midway_keeps_previous(tmp_path):
    # json.dumps fails on the unserialisable meta before the file is opened
    p = tmp_path / "checkpoint.json"
    save_checkpoint(p, {"predictor": _net()}, {"epoch": 1})
    before = p.read_bytes()
    with pytest.raises(TypeError):
        save_checkpoint(p, {"predictor": _net()}, {"epoch": 2, "bad": object()})
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["checkpoint.json"]
    _, meta = load_checkpoint(p)
    assert meta == {"epoch": 1}


def test_os_error_in_the_block_names_the_target(tmp_path):
    p = tmp_path / "a.txt"
    with pytest.raises(StructuralError, match=re.escape(f"{p}: cannot write (No space")):
        with atomic_write(p) as fh:
            fh.write("half")
            raise OSError(28, "No space left on device")
    assert list(tmp_path.iterdir()) == []


def test_target_that_is_a_directory_is_refused(tmp_path):
    # os.replace fails last, once the temporary file is written
    p = tmp_path / "a.txt"
    p.mkdir()
    with pytest.raises(StructuralError, match=re.escape(f"{p}: cannot write")):
        with atomic_write(p) as fh:
            fh.write("new")
    assert [q.name for q in tmp_path.iterdir()] == ["a.txt"]


@pytest.fixture(scope="module")
def artifacts():
    corpus = generate_corpus(
        SynthConfig(sources=2, frames_per_source=200, feature_dim=3, annotators=2, seed=1)
    )
    cfg = TrainConfig(
        dimensions="arousal",
        epochs=1,
        batch_size=8,
        window=WindowSpec(2.0, 1.0),
        predictor=PredictorConfig(encoder_dims=(4,)),
    )
    run = run_training(prepare_data(corpus.sources[:1], corpus.sources[1:], cfg), cfg)
    report = Report(
        scheme="leave_one_source_out",
        task="arousal",
        seeds=(0,),
        config_hashes={"baseline": config_hash(run.config)},
        entries=(FoldScore("baseline", 0, 0, ("source_01",), {"arousal": 0.5}),),
    )
    return SimpleNamespace(corpus=corpus, source=corpus.sources[0], run=run, report=report)


def _write_binary(path, a):
    with atomic_write_binary(path) as fh:
        fh.write(b"time,value\r\n")


WRITERS = {
    "atomic_write_binary": _write_binary,
    "annotation_csv": lambda p, a: write_annotation_csv(p, a.source.annotations["arousal"]),
    "gold_csv": lambda p, a: write_gold_csv(p, a.source.gold["arousal"]),
    "features_csv": lambda p, a: write_features_csv(p, a.source.features),
    "epochs_csv": lambda p, a: write_epochs_csv(p, a.run.epochs),
    "checkpoint": lambda p, a: save_checkpoint(p, {"predictor": _net()}, {}),
    "report": lambda p, a: save_report(p, a.report),
    "run": lambda p, a: save_run(p, a.run),
    "dataset": lambda p, a: write_dataset(p, a.corpus),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_unwritable_target_is_structural_and_named(tmp_path, artifacts, writer):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    target = blocker / "x"
    with pytest.raises(StructuralError) as info:
        WRITERS[writer](target, artifacts)
    assert f"{target}" in str(info.value) and "cannot write" in str(info.value)
    assert [q.name for q in tmp_path.rglob("*")] == ["afile"]  # no temporary file left


@pytest.mark.parametrize("writer", list(WRITERS))
def test_missing_directories_are_created(tmp_path, artifacts, writer):
    target = tmp_path / "a" / "b" / "x"
    WRITERS[writer](target, artifacts)
    assert target.exists()
    assert not [q for q in tmp_path.rglob("*.tmp")]


def test_json_artifacts_end_with_one_newline(tmp_path, artifacts):
    save_run(tmp_path / "run", artifacts.run)
    write_dataset(tmp_path / "d", artifacts.corpus)
    save_report(tmp_path / "report.json", artifacts.report)
    for p in [
        tmp_path / "run" / "config.json",
        tmp_path / "run" / "checkpoint.json",
        tmp_path / "d" / "manifest.json",
        tmp_path / "report.json",
    ]:
        text = p.read_text()
        assert text.endswith("}\n") and not text.endswith("\n\n"), p.name


# True == 1 and 1.0 == 1 in Python, so an envelope check by == let these in.
ENVELOPED = {
    "report": ("report.json", lambda p, a: save_report(p, a.report), load_report),
    "manifest": (
        "manifest.json",
        lambda p, a: write_dataset(p.parent, a.corpus),
        lambda p: load_dataset(p.parent),
    ),
    "checkpoint": ("checkpoint.json", WRITERS["checkpoint"], load_checkpoint),
}


@pytest.mark.parametrize(
    "artifact, version",
    [("report", True), ("report", 1.0), ("manifest", True), ("manifest", 1.0), ("checkpoint", 2.0)],
)
def test_version_must_be_that_int(tmp_path, artifacts, artifact, version):
    name, write, load = ENVELOPED[artifact]
    p = tmp_path / name
    write(p, artifacts)
    doc = json.loads(p.read_text())
    doc["version"] = version
    p.write_text(json.dumps(doc))
    with pytest.raises(StructuralError, match=re.escape(f"{p}: unsupported version {version!r}")):
        load(p)


# Every artifact reader goes through atomic.read_binary or read_json, so
# each refuses a file it cannot use with a StructuralError that names the
# file.
READERS = {
    "read_binary": ("b.csv", lambda p: read_binary(p, "CSV")),
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
    # unreadable whoever runs the test: a mode of 000 does not stop root
    "symlink_loop": lambda p: p.symlink_to(p),
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
        if r != "read_binary" or f != "not_utf8"  # bytes are read as they are
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
