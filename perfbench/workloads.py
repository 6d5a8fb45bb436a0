"""The three benchmark workloads.

Each workload builds its corpus from the benchmark seed in ``setup`` and
then runs whole passes.  A pass calls only public emocons functions, looked
up through their modules at call time so an installed tracer sees them, and
returns a ``PassResult`` whose checks count as operations attempted and
failed.  Why each workload exists:

* ``ab_reduced`` -- criterion 6's A/B recipe (default valence config,
  leave-one-source-out, artifacts written under a run root) at 3 sources x
  3 seeds; the only workload with many independent folds.
* ``fold_dense_windows`` -- one acn fold on both dimensions with the
  3 s / 0.4 s window regime, where the per-window CCC, the consensus nets
  and the batch plumbing weigh most; a single fold, so fold scheduling
  cannot help it.
* ``corpus_io`` -- dataset write then load of the full 7-source corpus;
  trains nothing, so model-side changes must leave it alone.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import emocons.annotations as annotations
import emocons.ccc as ccc
import emocons.evalharness as evalharness
import emocons.nn as nn
import emocons.synth as synth
import emocons.trainer as trainer
from emocons.errors import EmoconsError
from emocons.predictor import PredictorConfig

MODULES = {
    "annotations": annotations,
    "ccc": ccc,
    "evalharness": evalharness,
    "nn": nn,
    "synth": synth,
    "trainer": trainer,
}

# Training seeds of the A/B; the corpus seed is the benchmark's --seed.
AB_SEEDS = (1, 2, 3)

# CSV values are written with 6 decimals, so a round trip moves each value
# by at most half a unit in the last place (plus float parsing slack).
ROUND_TRIP_TOL = 5e-7 + 1e-12

# Frames per source (25 Hz) of the training workloads' 3-source corpora:
# small enough that a run holds several passes, so its median rides out
# the host's speed drift.
AB_FRAMES = 1500
DENSE_FRAMES = 1800

_clock = time.perf_counter


@dataclass
class PassResult:
    started: float
    ended: float
    frames: int
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: dict[str, float] = field(default_factory=dict)
    net_s: float = 0.0  # wall minus speed-probe time, set by the probe
    ref: float = 0.0  # net_s in reference-kernel units, set by the probe

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _ccc_ok(v: float) -> bool:
    return math.isfinite(v) and -1.0 <= v <= 1.0


def _trained_frames(sources, cfg) -> int:
    """Window frames one training run sees over all its epochs."""
    total = 0
    for src in sources:
        w, s = cfg.window.frames(src.features.rate_hz)
        total += annotations.window_count(src.features.frames, w, s) * w
    return total * cfg.epochs


def _streams(src):
    """(label, values, rate) of every CSV file a source is written to."""
    yield "features", src.features.data, src.features.rate_hz
    for dim in src.dimensions:
        yield f"gold_{dim}", src.gold[dim].values, src.gold[dim].rate_hz
        yield f"annotations_{dim}", src.annotations[dim].data, src.annotations[dim].rate_hz


class _Workload:
    name = ""
    synth_overrides: dict = {}

    def setup(self, seed: int):
        return synth.generate_corpus(synth.default_synth_config(seed, **self.synth_overrides))


class AbReduced(_Workload):
    name = "ab_reduced"

    def __init__(self, tiny: bool):
        self.synth_overrides = {"sources": 3, "frames_per_source": AB_FRAMES}
        self.cfg = trainer.TrainConfig(dimensions="valence")
        if tiny:
            self.synth_overrides["frames_per_source"] = 300
            self.cfg = dataclasses.replace(self.cfg, epochs=1)

    def run_pass(self, corpus, workdir: Path) -> PassResult:
        root = workdir / "ab"
        t0 = _clock()
        cmp = evalharness.ab_compare(corpus, self.cfg, seeds=AB_SEEDS, run_root=root)
        t1 = _clock()

        plan = evalharness.make_loso_plan(corpus.source_ids)
        by_id = {s.source_id: s for s in corpus.sources}
        per_run = sum(
            _trained_frames([by_id[i] for i in train], self.cfg) for train, _ in plan.folds
        )
        res = PassResult(started=t0, ended=t1, frames=per_run * 2 * len(AB_SEEDS))

        for e in cmp.report.entries:
            res.check(
                all(_ccc_ok(v) for v in e.ccc.values()),
                f"fold {e.fold} {e.mode} seed {e.seed}: held-out ccc {dict(e.ccc)}",
            )
        checkpoints = sorted(root.rglob("checkpoint.json"))
        res.check(
            len(checkpoints) == len(cmp.report.entries),
            f"{len(checkpoints)} saved runs for {len(cmp.report.entries)} folds",
        )
        for path in checkpoints:
            missing = [f for f in ("config.json", "epochs.csv") if not (path.parent / f).is_file()]
            res.check(not missing, f"{path.parent.relative_to(root)}: missing {missing}")
        reports = sorted(root.rglob("report.json"))
        res.check(len(reports) == 1 + 2 * len(AB_SEEDS), f"{len(reports)} report.json files")
        for path in reports:
            try:
                evalharness.load_report(path)
            except (EmoconsError, OSError, ValueError) as exc:
                res.check(False, f"{path.relative_to(root)}: {exc}")
            else:
                res.check(True, "")

        vals = [e.ccc["valence"] for e in cmp.report.entries]
        res.outputs = {
            "heldout_ccc_valence": math.fsum(vals) / len(vals),
            "ab_delta_valence": cmp.median_delta["valence"],
        }
        shutil.rmtree(root)  # stale artifacts would hide a missing write next pass
        return res


class FoldDenseWindows(_Workload):
    name = "fold_dense_windows"

    def __init__(self, tiny: bool):
        self.synth_overrides = {"sources": 3, "frames_per_source": DENSE_FRAMES}
        self.cfg = trainer.TrainConfig(
            mode="acn",
            dimensions="both",
            window=trainer.WINDOW_REGIMES["3s_0.4s"],
            predictor=PredictorConfig(heads="dual"),
        )
        if tiny:
            self.synth_overrides["frames_per_source"] = 300
            self.cfg = dataclasses.replace(self.cfg, epochs=1)

    def run_pass(self, corpus, workdir: Path) -> PassResult:
        train, test = corpus.sources[:-1], corpus.sources[-1:]
        dims = trainer.resolve_dimensions(self.cfg)
        t0 = _clock()
        data = trainer.prepare_data(train, test, self.cfg)
        run = trainer.run_training(data, self.cfg)
        scores = evalharness.evaluate(run.model.predictor, test, dims)
        t1 = _clock()

        res = PassResult(started=t0, ended=t1, frames=_trained_frames(train, self.cfg))
        res.check(
            set(scores) == set(dims) and all(_ccc_ok(v) for v in scores.values()),
            f"held-out ccc {scores}",
        )
        res.outputs = {f"heldout_ccc_{d}": scores[d] for d in dims}
        return res


class CorpusIo(_Workload):
    name = "corpus_io"

    def __init__(self, tiny: bool):
        self.synth_overrides = {"sources": 2, "frames_per_source": 200} if tiny else {}

    def run_pass(self, corpus, workdir: Path) -> PassResult:
        out = workdir / "corpus"
        t0 = _clock()
        annotations.write_dataset(out, corpus)
        loaded = annotations.load_dataset(out)
        t1 = _clock()

        frames = sum(s.features.frames for s in corpus.sources)
        res = PassResult(started=t0, ended=t1, frames=2 * frames)
        res.check(loaded.source_ids == corpus.source_ids, "source ids differ after load")
        for want, got in zip(corpus.sources, loaded.sources):
            for (label, a, rate_a), (_, b, rate_b) in zip(_streams(want), _streams(got)):
                err = float(abs(a - b).max()) if a.shape == b.shape else math.inf
                res.check(
                    err <= ROUND_TRIP_TOL and math.isclose(rate_a, rate_b, rel_tol=1e-9),
                    f"{want.source_id}/{label}: max error {err:g}, rate {rate_a} vs {rate_b}",
                )
        res.outputs = {
            "bytes_written": float(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
        }
        shutil.rmtree(out)
        return res


WORKLOADS = {w.name: w for w in (AbReduced, FoldDenseWindows, CorpusIo)}
