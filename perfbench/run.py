"""emocons benchmark: one command runs a workload, checks it, prints metrics.

    python3 perfbench/run.py --workload ab_reduced --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare base.jsonl new.jsonl

A run generates its corpus from ``--seed`` (set-up), then repeats whole
passes of the workload until the next pass would end after ``--seconds``
(at least one pass; two with ``--trace 1``).  Every pass checks its outputs
and counts the checks as operations attempted and failed, and runs under
the speed probe (``probe.py``), which prices it in reference-kernel units
to cancel the speed drift of a shared core.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer metrics, taken from traced passes that
alternate with untraced ones so the tracing overhead is measured in the
same run.  A failed check makes the exit code 1.  ``--out FILE`` also
appends the result, with the machine facts, as one JSON line that
``--compare`` reads.

The package is imported from ``src/`` of the checkout this file sits in;
BLAS is pinned to ``--blas-threads`` threads before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# workloads.py imports numpy, so it is loaded only after BLAS is pinned
WORKLOAD_NAMES = ("ab_reduced", "fold_dense_windows", "corpus_io")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated this many times per run and reported as a median.
SETUP_REPS = 5

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import emocons; "
    "print(time.perf_counter() - t)"
)

# Deterministic pass outputs reported as per-layer metrics.
OUTPUT_METRICS = {
    "heldout_ccc_valence": "evalharness.heldout_ccc_valence",
    "heldout_ccc_arousal": "evalharness.heldout_ccc_arousal",
    "ab_delta_valence": "evalharness.ab_delta_valence",
    "bytes_written": "annotations.bytes_written",
}

_clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--out", help="append the result record to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="print per-metric deltas between two --out files")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required unless --compare is given")
    if args.blas_threads < 1:
        p.error("--blas-threads must be at least 1")
    return args


def machine_facts(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
    }


def time_import() -> float:
    """Seconds to import emocons in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def peak_rss_mb() -> float:
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def run_passes(workload, corpus, seconds, workdir, probe, tracer, modules):
    """Repeat passes until the next one would overrun ``seconds``.

    Every pass runs under the speed probe, which sets ``res.ref`` and
    ``res.net_s``.  With a tracer, odd passes are traced (run id
    ``pass-<i>``)."""
    passes = []
    started = _clock()
    need = 2 if tracer else 1
    while True:
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        t0 = _clock()
        if traced:
            tracer.run_id = f"pass-{i}"
            tracer.install(modules)
        try:
            with probe.sampling(tracer if traced else None):
                res = workload.run_pass(corpus, workdir)
        finally:
            if traced:
                tracer.uninstall()
        probe.measure(res)
        last = _clock() - t0
        passes.append((f"pass-{i}", traced, res))
        if len(passes) >= need and (_clock() - started) + last > seconds:
            return passes


def end_to_end_metrics(passes, import_s, setup_gen_s):
    return {
        "setup_s": (statistics.median(import_s) + statistics.median(setup_gen_s), "s"),
        "wall_ref": (statistics.median(r.ref for _, _, r in passes), "ref"),
    }


def per_layer_metrics(passes, tracer, attempted, failed):
    traced = [(rid, r) for rid, t, r in passes if t]
    plain = [r for _, t, r in passes if not t]
    n = len(traced)
    self_s, calls = tracer.self_times([rid for rid, _ in traced])
    setup_self, setup_calls = tracer.self_times(["setup"])
    counts = tracer.counts

    def per_pass(name):
        return self_s.get(name, 0.0) / n

    folds = []
    for rid, _ in traced:
        steps = ("trainer.prepare_data", "trainer.run_training", "trainer.save_run",
                 "evalharness.evaluate")
        parts = [d for d in (tracer.durations(rid, name) for name in steps) if d]
        folds.extend(sum(fold) for fold in zip(*parts))
    unattributed = [r.net_s - sum(tracer.durations(rid, top=True)) for rid, r in traced]

    attempted_w = counts["windows_attempted"]
    m = {
        "ccc.ccc_batch_loss_s": (per_pass("ccc.ccc_batch_loss"), "s"),
        "ccc.ccc_loss_calls": (counts["ccc_loss_calls"] / n, "count"),
        "nn.forward_s": (per_pass("nn.forward"), "s"),
        "nn.backward_s": (per_pass("nn.backward"), "s"),
        "nn.optimizer_step_s": (per_pass("nn.optimizer_step"), "s"),
        "nn.clip_fired_ratio": (
            counts["clip_fired"] / counts["clip_calls"] if counts["clip_calls"] else 0.0,
            "ratio",
        ),
        "consensus.forward_consensus_s": (per_pass("consensus.forward_consensus"), "s"),
        "consensus.backward_consensus_s": (per_pass("consensus.backward_consensus"), "s"),
        "trainer.compute_batch_self_s": (per_pass("trainer.compute_batch"), "s"),
        "trainer.make_batches_s": (per_pass("trainer.make_batches"), "s"),
        "trainer.prepare_data_s": (per_pass("trainer.prepare_data"), "s"),
        "trainer.epoch_other_s": (per_pass("trainer.run_training"), "s"),
        "trainer.useful_window_ratio": (
            1.0 - counts["windows_degenerate"] / attempted_w if attempted_w else 0.0,
            "ratio",
        ),
        "trainer.save_run_s": (per_pass("trainer.save_run"), "s"),
        "evalharness.ab_compare_s": (per_pass("evalharness.ab_compare"), "s"),
        "evalharness.run_cv_s": (per_pass("evalharness.run_cv"), "s"),
        "evalharness.evaluate_s": (per_pass("evalharness.evaluate"), "s"),
        "evalharness.folds": (calls.get("trainer.run_training", 0) / n, "count"),
        "evalharness.fold_s_p50": (statistics.median(folds) if folds else 0.0, "s"),
        "annotations.write_dataset_s": (per_pass("annotations.write_dataset"), "s"),
        "annotations.load_dataset_s": (per_pass("annotations.load_dataset"), "s"),
        "synth.generate_corpus_s": (
            setup_self.get("synth.generate_corpus", 0.0)
            / max(setup_calls.get("synth.generate_corpus", 0), 1),
            "s",
        ),
        "process.peak_rss_mb": (peak_rss_mb(), "MB"),
        "bench.ops_failed_ratio": (failed / attempted, "ratio"),
        "bench.wall_s": (statistics.median(r.net_s for r in plain), "s"),
        "bench.frames_per_s": (sum(r.frames for r in plain) / sum(r.net_s for r in plain), "1/s"),
        "trace.overhead_ratio": (
            statistics.median(r.ref for _, r in traced)
            / statistics.median(r.ref for r in plain)
            - 1.0,
            "ratio",
        ),
        "trace.unattributed_s": (statistics.mean(unattributed), "s"),
    }
    outputs = passes[0][2].outputs
    for key, name in OUTPUT_METRICS.items():
        unit = "bytes" if key == "bytes_written" else "ccc"
        m[name] = (float(outputs.get(key, 0.0)), unit)
    return m


def run_benchmark(args) -> int:
    if not (SRC / "emocons" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'emocons'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))

    import workloads
    from probe import SpeedProbe
    from tracer import Tracer

    facts = machine_facts(args.blas_threads)
    print("machine " + json.dumps(facts), flush=True)
    workload = workloads.WORKLOADS[args.workload](args.tiny)
    tracer = Tracer() if args.trace else None

    # import is timed in child processes, so only when setup_s is reported;
    # traced runs then count only the package's own children in peak RSS
    import_s = [] if tracer else [time_import() for _ in range(SETUP_REPS)]
    gen_s = []
    if tracer:
        tracer.run_id = "setup"
        tracer.install(workloads.MODULES)
    try:
        for _ in range(SETUP_REPS):
            t0 = _clock()
            corpus = workload.setup(args.seed)
            gen_s.append(_clock() - t0)
    finally:
        if tracer:
            tracer.uninstall()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        passes = run_passes(
            workload, corpus, args.seconds, workdir, SpeedProbe(), tracer, workloads.MODULES
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for _, _, r in passes)
    failed = sum(r.failed for _, _, r in passes)
    errors = [e for _, _, r in passes for e in r.errors]
    first = passes[0][2].outputs
    for rid, _, r in passes[1:]:
        attempted += 1
        if r.outputs != first:
            failed += 1
            errors.append(f"{rid}: outputs {r.outputs} differ from pass-0 {first}")

    if tracer:
        metrics = per_layer_metrics(passes, tracer, attempted, failed)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)})")
    else:
        metrics = end_to_end_metrics(passes, import_s, gen_s)

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    print("  pass wall_ref: " + " ".join(
        f"{r.ref:.1f}{'t' if traced else ''}" for _, traced, r in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "machine": facts,
            "result": result,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare, ROOT / "BENCHMARK.json")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
