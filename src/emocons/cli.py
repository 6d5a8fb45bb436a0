"""Command-line entry point.

One executable with subcommands covering the whole workflow: simulate a
corpus, train a run, evaluate or predict from its checkpoint, aggregate
annotations into a consensus trace, compare two traces, and run the paired
baseline-vs-consensus experiment.  Configuration is a single JSON document;
a subcommand takes a dotted-path flag (``--train.alpha 0.7``) for each leaf
it reads and for no other, and flags win over the file with a warning.  The
flags and their parse rules are derived from the config dataclasses' fields
and types, and the JSON document is read and written by ``codec``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .annotations import (
    GoldStandardTrack,
    load_annotation_csv,
    load_dataset,
    load_features_csv,
    load_gold_csv,
    write_dataset,
    write_gold_csv,
    write_trace_csv,
)
from .atomic import write_json
from . import ccc
from .ccc import POOLINGS
from .codec import from_dict, to_dict
from .consensus import (
    AGGREGATORS,
    aggregate,
    aggregate_baseline,
    compute_reliability_weights,
    forward_consensus,
)
from .errors import ConfigError, ContractError, EmoconsError
from .evalharness import (
    ab_compare,
    evaluate,
    format_comparison_table,
    make_fixed_split,
)
from .predictor import forward_predictor, output_index
from .synth import SynthConfig, generate_corpus
from .trainer import (
    TrainConfig,
    load_run_model,
    prepare_data,
    resolve_dimensions,
    run_training,
    save_run,
)

CLI_SCHEMA_VERSION = 1

AGGREGATE_METHODS = AGGREGATORS + ("acn",)


# ---------------------------------------------------------------------------
# Config schema


@dataclass(frozen=True)
class EvalConfig:
    """Held-out selection for evaluate/ab: the source lists and the seeds."""

    train_sources: tuple[str, ...] = ()
    test_sources: tuple[str, ...] = ()
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        object.__setattr__(self, "train_sources", tuple(str(s) for s in self.train_sources))
        object.__setattr__(self, "test_sources", tuple(str(s) for s in self.test_sources))
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ConfigError("eval.seeds must not be empty")
        object.__setattr__(self, "seeds", seeds)

    @property
    def scheme(self) -> str:
        """A fixed split when either source list is given, else leave-one-source-out."""
        return "fixed_split" if self.train_sources or self.test_sources else "leave_one_source_out"


@dataclass(frozen=True)
class CliConfig:
    version: int = CLI_SCHEMA_VERSION
    dataset_dir: str = ""
    run_dir: str = ""
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def cli_config_from_dict(d: Mapping) -> CliConfig:
    if isinstance(d, Mapping) and d.get("version") != CLI_SCHEMA_VERSION:
        raise ConfigError(
            f"cli config needs schema version {CLI_SCHEMA_VERSION}, got {d.get('version')!r}"
        )
    return from_dict(CliConfig, d)


# ---------------------------------------------------------------------------
# Flags: one per config leaf, derived from the dataclass fields and types


def _is_numeric_mapping(tp) -> bool:
    return typing.get_origin(tp) is Mapping and typing.get_args(tp)[1] in (int, float)


def _leaves(cfg, prefix: str = ""):
    """(dotted path, type, default) of every overridable leaf of a config."""
    hints = typing.get_type_hints(type(cfg))
    for f in dataclasses.fields(cfg):
        path, tp, value = prefix + f.name, hints[f.name], getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, path + ".")
            continue
        if _is_numeric_mapping(tp):
            for key, v in value.items():
                yield f"{path}.{key}", typing.get_args(tp)[1], v
        elif path != "version":
            yield path, tp, value


# dotted path -> (field type, default)
FLAG_REGISTRY: dict[str, tuple[object, object]] = {
    path: (tp, default) for path, tp, default in _leaves(CliConfig())
}

_BOOL_WORDS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _tuple_item(tp):
    """Element type of ``tuple[int, ...]`` or ``tuple[str, ...]``, else None."""
    if typing.get_origin(tp) is tuple and typing.get_args(tp)[0] in (int, str):
        return typing.get_args(tp)[0]
    return None


def _type_name(tp) -> str:
    if tp in (bool, int, float, str):
        return tp.__name__.upper()
    if item := _tuple_item(tp):
        return f"{item.__name__.upper()},..."
    return "JSON"


def _parse_value(name: str, raw: str):
    tp = FLAG_REGISTRY[name][0]
    text = raw.strip()
    try:
        if tp is bool:
            return _BOOL_WORDS[text.lower()]
        if tp in (int, float, str):
            return tp(text)
        if item := _tuple_item(tp):
            return [item(t.strip()) for t in text.split(",") if t.strip()]
        return json.loads(text)
    except (KeyError, ValueError):
        raise ConfigError(
            f"invalid value for --{name}: {raw!r} is not {_type_name(tp)}"
        ) from None


def _format_value(value) -> str:
    """A default in the form its flag parses back."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, Mapping):
        return json.dumps(value)
    return str(value)


def resolve_config(
    config_path: str | None, overrides: Mapping[str, str]
) -> tuple[CliConfig, list[str]]:
    """Merge a config file (or defaults) with dotted-path flag overrides.

    Returns the resolved config plus one warning per override that changed
    a value the file set explicitly (the flag wins).
    """
    explicit: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
        try:
            explicit = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(explicit, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        base = cli_config_from_dict(explicit)
    else:
        base = CliConfig()
    tree = to_dict(base)

    warnings: list[str] = []
    for name, raw in overrides.items():
        if name not in FLAG_REGISTRY:
            raise ConfigError(f"unknown override flag --{name}")
        value = _parse_value(name, raw)
        parts = name.split(".")
        node, seen = tree, explicit
        for p in parts[:-1]:
            node = node[p]
            seen = seen.get(p) if isinstance(seen, dict) else None
        leaf = parts[-1]
        if isinstance(seen, dict) and leaf in seen and seen[leaf] != value:
            warnings.append(
                f"--{name}={raw} overrides config value {seen[leaf]!r}"
            )
        node[leaf] = value
    return cli_config_from_dict(tree), warnings


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    # usage problems should become exit code 1, not argparse's own exit(2)
    def error(self, message):
        raise ConfigError(message)


# Leaves a subcommand sets itself for each run (ab_compare sets each run's mode
# and seed): it takes no flag for them, and refuses a config file that gives
# them a value other than the default.
_SETS: dict[str, tuple[str, ...]] = {"ab": ("train.mode", "train.seed")}

# The config each subcommand reads, as leaves and whole sections: its parser
# takes the flags of these leaves and no other.
_READS: dict[str, tuple[str, ...]] = {
    "simulate": ("dataset_dir", "synth"),
    "train": ("dataset_dir", "run_dir", "train"),
    "evaluate": ("dataset_dir", "run_dir", "eval.test_sources"),
    "aggregate": ("run_dir",),
    "predict": ("run_dir",),
    "metrics": (),
    "ab": ("dataset_dir", "run_dir", "eval", *(
        path for path in (f"train.{f.name}" for f in dataclasses.fields(TrainConfig))
        if path not in _SETS["ab"]
    )),
}

_ALIASES: dict[str, dict[str, str]] = {
    "simulate": {"seed": "synth.seed", "out": "dataset_dir"},
    "train": {
        "mode": "train.mode",
        "dimension": "train.dimensions",
        "dataset": "dataset_dir",
        "out": "run_dir",
    },
    "evaluate": {"dataset": "dataset_dir", "run": "run_dir", "sources": "eval.test_sources"},
    "aggregate": {"checkpoint": "run_dir"},
    "predict": {"run": "run_dir"},
    "ab": {"dataset": "dataset_dir", "out": "run_dir", "seeds": "eval.seeds"},
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="emocons",
        description="Consensus-aware continuous emotion recognition toolkit.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name: str, summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary)
        group = p.add_argument_group("configuration")
        group.add_argument("--config", metavar="JSON", help="cli config file")
        for path, (tp, default) in FLAG_REGISTRY.items():
            if any(path == r or path.startswith(r + ".") for r in _READS[name]):
                group.add_argument(
                    f"--{path}", metavar=_type_name(tp),
                    help=f"default: {_format_value(default) or 'empty'}",
                )
        for alias, path in _ALIASES.get(name, {}).items():
            p.add_argument(
                f"--{alias}", dest=path, metavar=_type_name(FLAG_REGISTRY[path][0]),
                help=f"alias for --{path}",
            )
        return p

    command("simulate", "generate a synthetic multi-annotator dataset")
    command("train", "train one run")

    p = command("evaluate", "score a trained run against gold on a dataset")
    p.add_argument(
        "--pooling", choices=POOLINGS, default="pooled",
        help="score whole traces or average window scores",
    )

    p = command("aggregate", "collapse an annotation matrix into one consensus trace")
    p.add_argument("--in", dest="input", metavar="CSV", required=True,
                   help="wide annotation csv")
    p.add_argument("--out", dest="output", metavar="CSV", required=True,
                   help="consensus csv to write")
    p.add_argument("--method", choices=AGGREGATE_METHODS, default="mean")
    p.add_argument("--dimension", default="arousal", metavar="DIM")

    p = command("predict", "run a trained predictor over a feature csv")
    p.add_argument("--features", metavar="CSV", required=True)
    p.add_argument("--out", dest="output", metavar="CSV", required=True)
    p.add_argument("--dimension", metavar="DIM",
                   help="which trained dimension to emit (default: first)")

    p = command("metrics", "concordance between two traces")
    p.add_argument("--x", metavar="CSV", required=True)
    p.add_argument("--y", metavar="CSV", required=True)
    p.add_argument("--dimension", default="arousal", metavar="DIM")

    command("ab", "paired baseline-vs-consensus cross-validation over seeds")
    return parser


# ---------------------------------------------------------------------------
# Subcommands


def _refuse_what_it_sets(command: str, cfg: CliConfig) -> None:
    sets = _SETS.get(command, ())
    for path, _, value in _leaves(cfg):
        default = FLAG_REGISTRY[path][1]
        if path in sets and value != default:
            raise ConfigError(
                f"{path} is {value!r}: {command} sets {' and '.join(sets)} per run, "
                f"so a config may give it only its default {default!r}"
            )


def _require(value: str, what: str, hint: str) -> str:
    if not value:
        raise ConfigError(f"{what} is required (set {hint})")
    return value


def _write_cli_config(dirpath: Path, cfg: CliConfig) -> None:
    write_json(dirpath / "cli_config.json", to_dict(cfg))


def _cmd_simulate(cfg: CliConfig, ns) -> int:
    out = _require(cfg.dataset_dir, "dataset_dir", "--out or --dataset_dir")
    corpus = generate_corpus(cfg.synth)
    write_dataset(out, corpus)
    _write_cli_config(Path(out), cfg)
    print(f"wrote {len(corpus.sources)} sources to {out}")
    return 0


def _cmd_train(cfg: CliConfig, ns) -> int:
    dataset_dir = _require(cfg.dataset_dir, "dataset_dir", "--dataset or --dataset_dir")
    run_dir = _require(cfg.run_dir, "run_dir", "--out or --run_dir")
    ds = load_dataset(dataset_dir)
    # the train subcommand fits on the full dataset; its validation curve is
    # computed on the same sources (held-out scoring is evaluate/ab's job)
    data = prepare_data(ds.sources, ds.sources, cfg.train)
    run = run_training(data, cfg.train)
    save_run(run_dir, run)
    _write_cli_config(Path(run_dir), cfg)
    last = run.epochs[-1]
    vals = " ".join(f"val_{dim}={v:.4f}" for dim, v in last.val_ccc.items())
    print(
        f"trained {run.config.mode} for {len(run.epochs)} epochs "
        f"(loss {last.total:.6f} {vals}) -> {run_dir}"
    )
    return 0


def _cmd_evaluate(cfg: CliConfig, ns) -> int:
    run_dir = _require(cfg.run_dir, "run_dir", "--run or --run_dir")
    dataset_dir = _require(cfg.dataset_dir, "dataset_dir", "--dataset or --dataset_dir")
    model, run_cfg = load_run_model(run_dir)
    ds = load_dataset(dataset_dir)
    sources = list(ds.sources)
    if wanted := cfg.eval.test_sources:
        by_id = {s.source_id: s for s in sources}
        missing = [sid for sid in wanted if sid not in by_id]
        if missing:
            raise ContractError(f"unknown sources: {missing}")
        repeated = sorted({sid for sid in wanted if wanted.count(sid) > 1})
        if repeated:
            raise ContractError(f"sources named more than once: {repeated}")
        sources = [by_id[sid] for sid in wanted]
    dims = resolve_dimensions(run_cfg)
    scores = evaluate(model.predictor, sources, dims, pooling=ns.pooling, window=run_cfg.window)
    for dim in dims:
        print(f"{dim} ccc={round(scores[dim], 6)}")
    return 0


def _cmd_aggregate(cfg: CliConfig, ns) -> int:
    matrix = load_annotation_csv(ns.input, ns.dimension)
    if ns.method == "acn":
        run_dir = _require(cfg.run_dir, "run_dir for --method acn", "--checkpoint or --run_dir")
        model, _ = load_run_model(run_dir)
        acn = model.acns.get(ns.dimension)
        if acn is None:
            raise ContractError(
                f"{run_dir}: checkpoint has no consensus net for {ns.dimension!r}"
            )
        track = GoldStandardTrack(
            dimension=ns.dimension,
            rate_hz=matrix.rate_hz,
            values=forward_consensus(acn, matrix.data),
            provenance="aggregated",
        )
    else:
        weights = None
        if ns.method == "weighted":
            weights = compute_reliability_weights(matrix.data, aggregate(matrix.data, "mean"))
        track = aggregate_baseline(matrix, ns.method, weights)
    write_gold_csv(ns.output, track)
    print(f"wrote {ns.method} consensus over {matrix.annotators} annotators to {ns.output}")
    return 0


def _cmd_predict(cfg: CliConfig, ns) -> int:
    run_dir = _require(cfg.run_dir, "run_dir", "--run or --run_dir")
    feats = load_features_csv(ns.features)
    model, run_cfg = load_run_model(run_dir)
    dims = resolve_dimensions(run_cfg)
    dim = ns.dimension or dims[0]
    if dim not in dims:
        raise ContractError(f"{run_dir}: run was trained on {list(dims)}, not {dim!r}")
    out = forward_predictor(model.predictor, feats.data)
    col = output_index(model.predictor.config, dim)
    write_trace_csv(ns.output, out[:, col], feats.rate_hz)
    print(f"wrote {out.shape[0]} frames of {dim} predictions to {ns.output}")
    return 0


def _cmd_metrics(cfg: CliConfig, ns) -> int:
    x = load_gold_csv(ns.x, ns.dimension)
    y = load_gold_csv(ns.y, ns.dimension)
    # the last frame of equal-length traces must sit within half a step on both grids
    last = x.values.size - 1
    if abs(last / x.rate_hz - last / y.rate_hz) >= 0.5 / max(x.rate_hz, y.rate_hz):
        raise ContractError(
            f"{ns.x} ({x.rate_hz:g} Hz) and {ns.y} ({y.rate_hz:g} Hz) "
            "are not on one time grid"
        )
    result = ccc.ccc_loss(x.values, y.values)
    print(f"ccc={round(result.ccc, 6)} loss={round(result.loss, 6)}")
    return 0


def _cmd_ab(cfg: CliConfig, ns) -> int:
    dataset_dir = _require(cfg.dataset_dir, "dataset_dir", "--dataset or --dataset_dir")
    plan = None  # ab_compare's default: leave one source out
    if cfg.eval.scheme == "fixed_split":
        plan = make_fixed_split(cfg.eval.train_sources, cfg.eval.test_sources)
    ds = load_dataset(dataset_dir)
    root = cfg.run_dir or None
    cmp = ab_compare(ds, cfg.train, cfg.eval.seeds, plan=plan, run_root=root)
    if root:
        _write_cli_config(Path(root), cfg)
    dims = sorted(cmp.median_delta)
    for row in cmp.per_seed:
        parts = " ".join(
            f"{d} {row.baseline[d]:+.4f} -> {row.acn[d]:+.4f} (delta {row.delta[d]:+.4f})"
            for d in dims
        )
        print(f"seed {row.seed}: {parts}")
    print(
        "median delta: "
        + " ".join(f"{d}={cmp.median_delta[d]:+.4f}" for d in dims)
    )
    print(format_comparison_table(cmp.report))
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "aggregate": _cmd_aggregate,
    "predict": _cmd_predict,
    "metrics": _cmd_metrics,
    "ab": _cmd_ab,
}


# ---------------------------------------------------------------------------
# Entry point


def _install_logging():
    name = os.environ.get("CER_LOG", "warning").upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        level = logging.WARNING
    logger = logging.getLogger("emocons")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    state = (logger, handler, logger.level, logger.propagate)
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return state


def _restore_logging(state) -> None:
    logger, handler, level, propagate = state
    logger.removeHandler(handler)
    logger.setLevel(level)
    logger.propagate = propagate


def _one_line(exc: BaseException) -> str:
    text = " ".join(str(exc).split())
    return text or type(exc).__name__


def parse_and_dispatch(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the process exit status.

    0 on success, 1 on configuration or contract errors (single-line
    ``error:`` prefix on stderr), 2 on unexpected internal failures
    (``internal-error:`` prefix).
    """
    state = _install_logging()
    try:
        parser = _build_parser()
        try:
            ns = parser.parse_args(list(argv))
        except SystemExit as exc:  # --help prints and exits itself
            return int(exc.code or 0)
        if ns.command is None:
            raise ConfigError("a subcommand is required; see --help")
        overrides = {
            name: raw for name, raw in vars(ns).items() if name in FLAG_REGISTRY and raw is not None
        }
        cfg, warnings = resolve_config(ns.config, overrides)
        for message in warnings:
            print(f"warning: {message}", file=sys.stderr)
        _refuse_what_it_sets(ns.command, cfg)
        return _HANDLERS[ns.command](cfg, ns)
    except EmoconsError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal-error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 2
    finally:
        _restore_logging(state)


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
