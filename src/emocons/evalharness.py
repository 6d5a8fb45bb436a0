"""Cross-validation and paired comparison of trained runs.

The pieces here stack: a FoldPlan says which sources to hold out, evaluate()
scores one model on held-out sources, and one cross-validation loop
trains, saves and scores every fold of a list of runs and builds each run's
report.  run_cv() is one run through it, its folds in order in this
process; ab_compare() is one run per seed for each of two training modes,
its folds spread over worker processes, and reports per-seed score deltas
with their median.
evaluate() lives in ``predictor``, where the training loop's validation
calls it, and is re-exported here; a fold is scored by its run's last
validation, whose sources are the fold's held-out ones.

A report.json is an ``atomic.envelope`` around ``codec.to_dict`` of the
Report, written by save_report() through ``atomic.write_json``;
load_report() reads it through ``atomic.read_json``, checks the envelope
with ``atomic.open_envelope``, decodes the body with ``codec.from_dict``
and checks the stored aggregate against the one the folds give, so a
malformed file is a StructuralError naming the file and the offending
field.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import itertools
import logging
import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .annotations import Dataset, SourceData
from .atomic import envelope, open_envelope, read_json, write_json
from .codec import from_dict, to_dict
from .errors import ConfigError, ContractError, StructuralError
from . import predictor
from .trainer import (
    TRAIN_MODES,
    TrainConfig,
    config_hash,
    prepare_data,
    resolve_dimensions,
    run_training,
    save_run,
)

logger = logging.getLogger("emocons.evalharness")

# re-exported, so callers of this module score through the same function
evaluate = predictor.evaluate

FOLD_SCHEMES = ("leave_one_source_out", "fixed_split")

REPORT_FORMAT = "emocons-report"
REPORT_VERSION = 1


# ---------------------------------------------------------------------------
# Fold plans


@dataclass(frozen=True)
class FoldPlan:
    """Held-out evaluation splits: one (train ids, test ids) pair per fold."""

    folds: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.folds:
            raise ContractError("fold plan has no folds")
        norm = []
        for train, test in self.folds:
            train, test = tuple(train), tuple(test)
            if not train or not test:
                raise ContractError("each fold needs sources on both sides")
            for side in (train, test):
                repeated = sorted({s for s in side if side.count(s) > 1})
                if repeated:
                    raise ContractError(f"a fold names sources more than once: {repeated}")
            overlap = sorted(set(train) & set(test))
            if overlap:
                raise ContractError(f"sources in both train and test: {overlap}")
            norm.append((train, test))
        object.__setattr__(self, "folds", tuple(norm))

    @property
    def scheme(self) -> str:
        """Leave-one-source-out when the folds test every source they name
        exactly once, else a fixed split."""
        tested = [t for _, test in self.folds for t in test]
        named = {s for train, test in self.folds for s in (*train, *test)}
        if len(tested) == len(named) == len(set(tested)):
            return "leave_one_source_out"
        return "fixed_split"


def make_loso_plan(source_ids: Sequence[str]) -> FoldPlan:
    """One fold per source, testing it against a model trained on the rest."""
    ids = tuple(source_ids)
    if len(ids) < 2:
        raise ContractError("leave-one-source-out needs at least two sources")
    folds = tuple(
        (tuple(s for s in ids if s != held), (held,)) for held in ids
    )
    return FoldPlan(folds)


def make_fixed_split(train_ids: Sequence[str], test_ids: Sequence[str]) -> FoldPlan:
    return FoldPlan(((tuple(train_ids), tuple(test_ids)),))


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class FoldScore:
    """Held-out CCC of one trained run, per dimension."""

    mode: str
    seed: int
    fold: int
    test_sources: tuple[str, ...]
    ccc: Mapping[str, float]


def _aggregate(entries: Sequence[FoldScore]) -> dict[str, dict[str, float]]:
    by_mode: dict[str, dict[str, list[float]]] = {}
    for e in entries:
        dims = by_mode.setdefault(e.mode, {})
        for dim, v in e.ccc.items():
            dims.setdefault(dim, []).append(v)
    return {
        mode: {dim: math.fsum(vs) / len(vs) for dim, vs in dims.items()}
        for mode, dims in by_mode.items()
    }


@dataclass(frozen=True)
class Report:
    """Cross-validation outcome: per-fold scores plus their per-mode mean.

    The aggregate is derived from the entries when the report is built and
    stored in report.json beside them; load_report() refuses a file whose
    stored aggregate is not its folds' mean.
    """

    scheme: str
    task: str
    seeds: tuple[int, ...]
    config_hashes: Mapping[str, str]
    entries: tuple[FoldScore, ...]
    aggregate: Mapping[str, Mapping[str, float]] = field(init=False)

    def __post_init__(self):
        if self.scheme not in FOLD_SCHEMES:
            raise ContractError(f"unknown fold scheme {self.scheme!r}")
        if not self.entries:
            raise ContractError("report has no entries")
        object.__setattr__(self, "aggregate", _aggregate(self.entries))


def save_report(path, report: Report) -> None:
    write_json(path, envelope(REPORT_FORMAT, REPORT_VERSION, to_dict(report)))


def _same_aggregate(stored, derived: Mapping[str, Mapping[str, float]]) -> bool:
    """Whether ``stored``, as read from JSON, holds ``derived``'s modes and
    dimensions, each within 1e-12 of its value."""
    try:
        return stored.keys() == derived.keys() and all(
            stored[mode].keys() == dims.keys()
            and all(abs(stored[mode][d] - v) <= 1e-12 for d, v in dims.items())
            for mode, dims in derived.items()
        )
    except (AttributeError, TypeError):  # not a mapping of mappings of numbers
        return False


def load_report(path) -> Report:
    """The Report in ``path``; a malformed file, or one whose stored
    aggregate is missing or is not its folds' mean, is a StructuralError
    naming it."""
    body = open_envelope(read_json(path, "report"), REPORT_FORMAT, REPORT_VERSION, str(path))
    stored = body.pop("aggregate", None)
    try:
        report = from_dict(Report, body)
    except (ConfigError, ContractError) as exc:
        raise StructuralError(f"{path}: {exc}") from exc
    if not _same_aggregate(stored, report.aggregate):
        raise StructuralError(
            f"{path}: report aggregate is missing or is not the mean of its folds"
        )
    return report


_TASK_LABELS = {"valence": "Valence", "arousal": "Arousal", "both": "Valence & Arousal"}


def format_comparison_table(report: Report) -> str:
    """A report's aligned score row, one column per mode: ``TRAIN_MODES``
    first, then any other in name order; a joint cell is valence/arousal."""
    dims = ("valence", "arousal") if report.task == "both" else (report.task,)
    modes = [m for m in TRAIN_MODES if m in report.aggregate]
    modes += sorted(set(report.aggregate) - set(modes))
    cells = []
    for mode in modes:
        agg = report.aggregate[mode]
        missing = " or ".join(d for d in dims if d not in agg)
        if missing:
            raise ContractError(f"{report.task} report has no {missing} score for {mode}")
        cells.append("/".join(f"{agg[d]:.3f}" for d in dims))
    widths = [max(len(m), len(c)) for m, c in zip(modes, cells)]
    label = _TASK_LABELS.get(report.task, report.task)
    header = " " * len(label) + "".join(f"  {m.rjust(w)}" for m, w in zip(modes, widths))
    row = label + "".join(f"  {c.rjust(w)}" for c, w in zip(cells, widths))
    return f"{header}\n{row}"


# ---------------------------------------------------------------------------
# Cross-validation


def _fold_sources(
    sources: Sequence[SourceData], plan: FoldPlan
) -> list[tuple[list[SourceData], list[SourceData]]]:
    """The (train, test) sources of every fold, refusing unknown or duplicate ids."""
    by_id = {s.source_id: s for s in sources}
    if len(by_id) != len(sources):
        raise ContractError("duplicate source ids in dataset")
    for train_ids, test_ids in plan.folds:
        for sid in (*train_ids, *test_ids):
            if sid not in by_id:
                raise ContractError(f"fold references unknown source {sid!r}")
    return [
        ([by_id[s] for s in train_ids], [by_id[s] for s in test_ids])
        for train_ids, test_ids in plan.folds
    ]


def _run_fold(train, test, cfg: TrainConfig, fold: int, run_dir) -> FoldScore:
    """Train one fold, save it under ``run_dir`` if set, and score it.

    The held-out sources are the run's validation sources, so the score is
    the last epoch's validation CCC: ``evaluate`` on the trained predictor.
    """
    run = run_training(prepare_data(train, test, cfg), cfg)
    if run_dir is not None:
        save_run(run_dir, run)
    return FoldScore(
        mode=cfg.mode,
        seed=cfg.seed,
        fold=fold,
        test_sources=tuple(s.source_id for s in test),
        ccc=dict(run.epochs[-1].val_ccc),
    )


def _log_fold(score: FoldScore, folds: int) -> None:
    logger.info(
        "fold %d/%d mode=%s seed=%d: %s",
        score.fold + 1,
        folds,
        score.mode,
        score.seed,
        " ".join(f"{d}={v:+.4f}" for d, v in score.ccc.items()),
    )


def _cross_validate(data, plan: FoldPlan | None, runs, workers: int):
    """Train and score every fold of every run, yielding each run's Report
    in run order as its last fold arrives.

    ``runs`` is a sequence of (TrainConfig, run_dir) pairs; ``plan``
    defaults to leave-one-source-out.  With a run_dir, each fold is saved
    under ``run_dir/fold_NN`` as it finishes and the run's report as
    ``run_dir/report.json`` once its folds are in.  The folds run through
    ``_run_folds`` with at most ``workers`` processes.
    """
    sources = list(data.sources if isinstance(data, Dataset) else data)
    if plan is None:
        plan = make_loso_plan([s.source_id for s in sources])
    folds = _fold_sources(sources, plan)
    tasks = [
        (train, test, cfg, i, None if run_dir is None else Path(run_dir, f"fold_{i:02d}"))
        for cfg, run_dir in runs
        for i, (train, test) in enumerate(folds)
    ]
    with contextlib.closing(_run_folds(tasks, workers)) as scores:
        for cfg, run_dir in runs:
            entries = []
            for score in itertools.islice(scores, len(folds)):
                _log_fold(score, len(folds))
                entries.append(score)
            report = Report(
                scheme=plan.scheme,
                task=cfg.dimensions,
                seeds=(cfg.seed,),
                config_hashes={cfg.mode: config_hash(cfg)},
                entries=tuple(entries),
            )
            if run_dir is not None:
                save_report(Path(run_dir, "report.json"), report)
            yield report


def run_cv(
    data,
    cfg: TrainConfig,
    plan: FoldPlan | None = None,
    *,
    run_root=None,
) -> Report:
    """Train one run per fold and score it on the fold's held-out sources.

    `data` may be a Dataset or a source list; `plan` defaults to
    leave-one-source-out.  The folds run one after another in this
    process, in plan order.  With `run_root` set, every completed fold is
    persisted as it finishes (so a crash mid-way leaves the finished folds
    on disk) and the report is written there at the end.  A failing fold
    propagates its error.
    """
    (report,) = _cross_validate(data, plan, [(cfg, run_root)], workers=1)
    return report


# ---------------------------------------------------------------------------
# Fold pool
#
# ab_compare's folds are independent and deterministic, so they run in
# forked worker processes.  Each worker pins the OpenBLAS it inherited to
# one thread: two workers at two BLAS threads each on two cores are slower
# than the serial run, and one thread is what makes a worker's numbers
# equal a one-thread serial run's.  fork hands every worker the fold
# tasks (corpus included) once, and re-imports nothing, so a script that
# calls ab_compare needs no ``if __name__ == "__main__"`` guard.

_BLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)

# the fold tasks, set in each worker by _init_worker and never in the parent
_worker_tasks: Sequence[tuple] = ()


def _usable_cores() -> int:
    if not hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return 1
    return len(os.sched_getaffinity(0))


def _blas_thread_setters() -> list:
    """The thread-count setter of every OpenBLAS mapped into this process.

    Empty when there is none (another BLAS, or no ``/proc/self/maps``).
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    setters = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _BLAS_SETTERS if hasattr(lib, n)), None)
        if name is not None:
            setter = getattr(lib, name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setters.append(setter)
    return setters


def _init_worker(tasks: Sequence[tuple], blas_setters: list) -> None:
    global _worker_tasks
    _worker_tasks = tasks
    for set_threads in blas_setters:
        set_threads(1)


def _run_task(i: int) -> FoldScore:
    return _run_fold(*_worker_tasks[i])


def _pool_folds(tasks: Sequence[tuple], workers: int, blas_setters: list):
    """Yield each task's FoldScore in task order, computed by ``workers``
    forked processes.

    The first fold to fail, in whatever order the folds finish, is raised
    at once: the folds no worker has taken are cancelled and the running
    ones stopped.
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(tasks, blas_setters),
    )
    finished = False
    try:
        futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
        pending = set(futures)
        for fut in futures:
            while not fut.done():
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for d in done:
                    exc = d.exception()
                    if exc is not None:
                        raise exc
            yield fut.result()
        finished = True
    finally:
        if not finished:
            # shutdown() cancels only the folds no worker has taken yet
            for proc in list((pool._processes or {}).values()):
                proc.terminate()
        pool.shutdown(wait=True, cancel_futures=not finished)


def _run_folds(tasks: Sequence[tuple], workers: int):
    """Yield each task's FoldScore in task order: from a pool of up to
    ``workers`` processes when that allows more than one and the loaded
    BLAS can be pinned, else here."""
    workers = min(workers, len(tasks))
    setters = _blas_thread_setters() if workers > 1 else []
    if setters:
        return _pool_folds(tasks, workers, setters)
    return (_run_fold(*task) for task in tasks)


# ---------------------------------------------------------------------------
# Paired A/B comparison


@dataclass(frozen=True)
class SeedDelta:
    """Aggregate scores of the two modes' runs for one seed; `delta` is
    acn minus baseline, per dimension."""

    seed: int
    baseline: Mapping[str, float]
    acn: Mapping[str, float]
    delta: Mapping[str, float]


@dataclass(frozen=True)
class AbComparison:
    report: Report
    per_seed: tuple[SeedDelta, ...]
    median_delta: Mapping[str, float]


def ab_compare(
    data,
    base_cfg: TrainConfig,
    seeds: Sequence[int],
    *,
    plan: FoldPlan | None = None,
    run_root=None,
) -> AbComparison:
    """Run the full cross-validation per seed for both modes and pair them.

    Seeded runs of the two modes share the fold plan and (because batch
    order and initialization derive from the seed alone) the exact same
    predictor start and shuffles, so per-seed deltas isolate the training
    mode.  At least three seeds are required for the median to mean much.

    Every (seed, mode, fold) is trained in a pool of forked workers, one
    per usable core and each at one BLAS thread, and merged in plan order,
    so the result and every saved file equal those of a serial run at one
    BLAS thread.  With one usable core, or a BLAS whose thread count cannot
    be set, the folds run here one after another.  The first fold to fail
    is raised; the folds after it are cancelled and no top-level report is
    written.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < 3:
        raise ContractError("paired comparison needs at least three seeds")
    if len(set(seeds)) != len(seeds):
        raise ContractError("duplicate seeds in paired comparison")
    root = None if run_root is None else Path(run_root)
    dims = resolve_dimensions(base_cfg)
    # one cross-validation per (seed, mode), seed by seed
    runs = [
        (
            dataclasses.replace(base_cfg, mode=mode, seed=seed),
            None if root is None else root / f"seed_{seed:02d}" / f"{slot}_{mode}",
        )
        for seed in seeds
        for slot, mode in enumerate(TRAIN_MODES)
    ]
    reports: list[Report] = []
    rows: list[SeedDelta] = []
    run_reports = _cross_validate(data, plan, runs, _usable_cores())
    for pair in zip(run_reports, run_reports):  # one seed's two runs, as they arrive
        reports.extend(pair)
        seed = pair[0].seeds[0]
        baseline, acn = (r.aggregate[mode] for r, mode in zip(pair, TRAIN_MODES))
        delta = {d: acn[d] - baseline[d] for d in dims}
        rows.append(SeedDelta(seed=seed, baseline=dict(baseline), acn=dict(acn), delta=delta))
        logger.info("seed %d: %s", seed, " ".join(f"d_{d}={delta[d]:+.4f}" for d in dims))
    median = {
        d: float(statistics.median(r.delta[d] for r in rows)) for d in dims
    }
    merged = Report(
        scheme=reports[0].scheme,
        task=base_cfg.dimensions,
        seeds=tuple(seeds),
        config_hashes={
            f"{mode}@{r.seeds[0]}": h for r in reports for mode, h in r.config_hashes.items()
        },
        entries=tuple(e for r in reports for e in r.entries),
    )
    if root is not None:
        save_report(root / "report.json", merged)
    return AbComparison(report=merged, per_seed=tuple(rows), median_delta=median)
