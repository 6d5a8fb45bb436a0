"""Source checks over ``src/emocons`` that a linter would make, by ``ast`` scan,
and of the type hints of the dataclasses that ``codec.from_dict`` decodes."""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

import pytest

import emocons

PACKAGE = Path(emocons.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))

# Functions outside atomic.py that may open files themselves, with the reason.
OWN_READS = {
    # its ConfigError messages are part of the CLI's contract
    ("cli.py", "resolve_config"),
    # /proc/self/maps is not an artifact
    ("evalharness.py", "_blas_thread_setters"),
}
# open() and these methods, on any object
FILE_CALLS = {"open", "read_text", "read_bytes", "mkdir", "write_text", "write_bytes"}
# these functions of the json module
JSON_FILE_CALLS = {"dump", "load"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_file_call(f: ast.expr) -> bool:
    if isinstance(f, ast.Name):
        return f.id == "open"
    if not isinstance(f, ast.Attribute):
        return False
    on_json = isinstance(f.value, ast.Name) and f.value.id == "json"
    return f.attr in FILE_CALLS or (on_json and f.attr in JSON_FILE_CALLS)


def _located(tree: ast.Module, match) -> list:
    """(enclosing function, line) of every node that ``match`` accepts."""

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if match(child):
                yield func, child.lineno
            yield from walk(child, func)

    return list(walk(tree, None))


def _file_calls(tree: ast.Module):
    """(enclosing function, line) of every call that opens, reads, writes or makes a
    file or directory: open(), .open/.read_*/.write_*/.mkdir and json.dump/json.load."""
    return _located(tree, lambda n: isinstance(n, ast.Call) and _is_file_call(n.func))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "atomic.py"], ids=lambda p: p.name)
def test_files_are_read_only_through_atomic(path):
    calls = [
        (func, line)
        for func, line in _file_calls(_parse(path))
        if (path.name, func) not in OWN_READS
    ]
    assert calls == [], (
        f"{path.name} touches files itself; use atomic.read_binary, read_json, "
        "atomic_write, atomic_write_binary or write_json"
    )


# The one place that picks a training precision below float64.
FLOAT32_OWNER = ("trainer.py", "_train_loop")
FLOAT32_NAMES = {"float32", "single"}  # np.float32, np.single
FLOAT32_STRINGS = {"float32", "f4"}  # dtype="float32", dtype="f4"


def _names_float32(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in FLOAT32_NAMES
    if isinstance(node, ast.Name):
        return node.id in FLOAT32_NAMES
    if isinstance(node, ast.alias):
        return node.name in FLOAT32_NAMES
    return isinstance(node, ast.Constant) and node.value in FLOAT32_STRINGS


def test_float32_is_named_only_in_the_training_loop():
    found = [
        (path.name, func, line)
        for path in MODULES
        for func, line in _located(_parse(path), _names_float32)
    ]
    assert found, "the training loop no longer picks float32"
    assert all((name, func) == FLOAT32_OWNER for name, func, _ in found), (
        f"float32 is named outside {'.'.join(FLOAT32_OWNER)}: {found}; the nets compute "
        "in the dtype of their input, and only the training loop picks it"
    )


# The CCC ratio is written once: its denominator is the only reader of EPSILON.
EPSILON_OWNER = "ccc.py"


def _reads_epsilon(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "EPSILON" and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.Attribute) and node.attr == "EPSILON"


def test_the_ccc_ratio_is_written_once():
    found = [
        (path.name, func, line)
        for path in MODULES
        for func, line in _located(_parse(path), _reads_epsilon)
    ]
    assert len(found) == 1 and found[0][0] == EPSILON_OWNER, (
        f"EPSILON is read at {found}; the CCC ratio belongs in one kernel in "
        f"{EPSILON_OWNER}, which ccc_loss and ccc_batch_loss share"
    )


# Layer fields that are views of their network's flat vectors: only nn.py,
# which makes the views, may bind them; elsewhere they are written in place.
LAYER_STATE = {"weights", "bias", "grad_w", "grad_b", "m_w", "v_w", "m_b", "v_b"}


def _targets(node: ast.expr):
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _binds_layer_state(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Attribute) and t.attr in LAYER_STATE
        for target in node.targets
        for t in _targets(target)
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "nn.py"], ids=lambda p: p.name)
def test_layer_state_is_bound_only_in_nn(path):
    assert _located(_parse(path), _binds_layer_state) == [], (
        f"{path.name} binds a new array to a layer's parameter state, detaching it from "
        "the network's flat vectors; write into it in place"
    )


# The benchmark counts ccc_loss calls by patching ccc.ccc_loss, which a caller
# that bound the name at import would not see.
def _imports_ccc_loss(node: ast.AST) -> bool:
    return isinstance(node, ast.ImportFrom) and any(a.name == "ccc_loss" for a in node.names)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_ccc_loss_is_called_through_its_module(path):
    assert _located(_parse(path), _imports_ccc_loss) == []


def _format_keys(tree: ast.Module) -> list[int]:
    """Lines that name the "format" key every artifact envelope starts with."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == "format"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "atomic.py"], ids=lambda p: p.name)
def test_envelopes_are_made_and_checked_only_in_atomic(path):
    assert _format_keys(_parse(path)) == [], (
        f"{path.name} handles a format/version envelope itself; use atomic.envelope "
        "and open_envelope"
    )


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(_parse(path)) == []


def test_checks_catch_what_they_look_for():
    tree = ast.parse(
        "import os\nfrom json import load, dumps\n"
        "def f(p):\n    return open(p), p.read_text(), dumps\n"
    )
    assert _file_calls(tree) == [("f", 4), ("f", 4)]
    assert _unused_imports(tree) == ["load", "os"]


def test_write_checks_catch_what_they_look_for():
    tree = ast.parse(
        "import json\n"
        "def g(p, d, fh):\n"
        "    p.parent.mkdir(parents=True)\n"
        "    p.write_text('x')\n"
        "    p.write_bytes(b'x')\n"
        "    json.dump(d, fh)\n"
        "    json.load(fh)\n"
        "    return json.dumps(d), json.loads('{}'), d.load(), fh.write('x')\n"
    )
    assert _file_calls(tree) == [("g", 3), ("g", 4), ("g", 5), ("g", 6), ("g", 7)]
    envelope = ast.parse('doc = {"format": "x", "version": 1}\nok = doc.get("format") == "x"\n')
    assert _format_keys(envelope) == [1, 2]


def test_float32_check_catches_what_it_looks_for():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import float32\n"
        "def f(x):\n    return x.astype(np.float32), np.single, float32, x.astype('f4')\n"
        "def g(x, heads='single'):\n"
        "    return np.asarray(x, dtype='float32'), x.dtype.itemsize == 4, np.float64\n"
    )
    assert _located(tree, _names_float32) == [(None, 2)] + [("f", 4)] * 4 + [("g", 6)]


def test_epsilon_check_catches_what_it_looks_for():
    tree = ast.parse(
        "EPSILON = 1e-8\nfrom .ccc import EPSILON\n"
        "def f(a, b):\n    return a / (b + EPSILON), ccc.EPSILON, 'EPSILON'\n"
    )
    assert _located(tree, _reads_epsilon) == [("f", 4), ("f", 4)]


def test_layer_state_checks_catch_what_they_look_for():
    tree = ast.parse(
        "from .ccc import POOLINGS, ccc_loss\n"
        "from . import ccc\n"
        "def f(layer, out, np):\n"
        "    layer.weights = -layer.weights\n"
        "    out.bias, n = out.bias * 2, 1\n"
        "    layer.weights[:] = 0.0\n"
        "    layer.m_w *= 0.5\n"
        "    np.negative(out.bias, out=out.bias)\n"
        "    weights = layer.weights\n"
        "    layer.trainable = False\n"
        "    return ccc.ccc_loss(weights, weights)\n"
    )
    assert _located(tree, _binds_layer_state) == [("f", 4), ("f", 5)]
    assert _located(tree, _imports_ccc_loss) == [(None, 1)]


# A run's scores are keyed by dimension: only the epochs.csv writer in trainer.py
# spells a dimension into a field name, and only annotations.py lists the names.
def _spells_val_ccc(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        text = node.attr
    elif isinstance(node, ast.Name):
        text = node.id
    elif isinstance(node, ast.keyword):
        text = node.arg
    elif isinstance(node, ast.Constant):
        text = node.value
    else:
        return False
    return isinstance(text, str) and "val_ccc_" in text


def _lists_dimensions(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Tuple)
        and all(isinstance(e, ast.Constant) for e in node.elts)
        and [e.value for e in node.elts] == ["arousal", "valence"]
    )


@pytest.mark.parametrize(
    "match, owner",
    [(_spells_val_ccc, "trainer.py"), (_lists_dimensions, "annotations.py")],
    ids=["val_ccc_", "dimension_tuple"],
)
def test_dimension_names_have_one_home(match, owner):
    found = [
        (path.name, func, line)
        for path in MODULES
        for func, line in _located(_parse(path), match)
    ]
    assert found and {name for name, _, _ in found} == {owner}, (
        f"found at {found}; outside {owner}, read annotations.DIMENSIONS "
        "or key scores by dimension"
    )


def test_dimension_checks_catch_what_they_look_for():
    tree = ast.parse(
        "DIMS = ('arousal', 'valence')\n"
        "def f(r, dim):\n"
        "    r.val_ccc_arousal, val_ccc_valence = 1, 2\n"
        "    g(val_ccc_x=1, **r.val_ccc)\n"
        "    return f'val_ccc_{dim}', ('valence', 'arousal'), ('arousal', dim), (*DIMS, 'x')\n"
    )
    assert _located(tree, _spells_val_ccc) == [("f", 3), ("f", 3), ("f", 4), ("f", 5)]
    assert _located(tree, _lists_dimensions) == [(None, 1)]


# _train_loop numbers a run's epochs 1..n as it makes them, so TrainRun checks
# nothing itself: it is built in no other place.
TRAIN_RUN_OWNER = ("trainer.py", "_train_loop")


def _builds_train_run(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return getattr(f, "id", None) == "TrainRun" or getattr(f, "attr", None) == "TrainRun"


def test_train_runs_are_built_only_in_the_training_loop():
    found = [
        (path.name, func, line)
        for path in MODULES
        for func, line in _located(_parse(path), _builds_train_run)
    ]
    assert found and {(name, func) for name, func, _ in found} == {TRAIN_RUN_OWNER}, (
        f"TrainRun is built at {found}; only {'.'.join(TRAIN_RUN_OWNER)} numbers its epochs"
    )


def test_train_run_check_catches_what_it_looks_for():
    tree = ast.parse(
        "from .trainer import TrainRun\n"
        "run = TrainRun(config=None)\n"
        "def f(t):\n"
        "    return t.TrainRun(), TrainRun, isinstance(t, TrainRun), TrainRunner()\n"
    )
    assert _located(tree, _builds_train_run) == [(None, 2), ("f", 4)]


# trainer.py is the one module that knows a run directory's layout; the others
# reach its files through save_run and load_run_model.
RUN_FILES = {"config.json", "checkpoint.json", "epochs.csv"}


def _names_run_file(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value in RUN_FILES


def test_run_directory_layout_has_one_home():
    found = [
        (path.name, func, line)
        for path in MODULES
        for func, line in _located(_parse(path), _names_run_file)
    ]
    assert found and {name for name, _, _ in found} == {"trainer.py"}, (
        f"run files named at {found}; outside trainer.py, use save_run and load_run_model"
    )


def test_run_file_check_catches_what_it_looks_for():
    tree = ast.parse(
        '"""Writes config.json."""\n'
        "def f(d):\n"
        "    return d / 'config.json', d / 'cli_config.json', d / 'epochs.csv.tmp'\n"
        "g = {'checkpoint.json': 1, 'epochs.csv': 2}\n"
    )
    assert _located(tree, _names_run_file) == [("f", 3), (None, 4), (None, 4)]


# The field of annotations.Manifest is the one place that names a dataset
# manifest's gold_provenance key, as a string, a field or a keyword; the
# other modules give and take the provenance on the gold tracks, which
# write_dataset and load_dataset carry to and from it.
def _names_gold_provenance(node: ast.AST) -> bool:
    if isinstance(node, ast.AnnAssign):
        return isinstance(node.target, ast.Name) and node.target.id == "gold_provenance"
    if isinstance(node, ast.keyword):
        return node.arg == "gold_provenance"
    return isinstance(node, ast.Constant) and node.value == "gold_provenance"


def test_manifest_gold_provenance_has_one_home():
    found = [
        (path.name, func, line)
        for path in MODULES
        for func, line in _located(_parse(path), _names_gold_provenance)
    ]
    manifest = next(
        node
        for node in ast.walk(_parse(PACKAGE / "annotations.py"))
        if isinstance(node, ast.ClassDef) and node.name == "Manifest"
    )
    field_line = next(node.lineno for node in manifest.body if _names_gold_provenance(node))
    assert found == [("annotations.py", None, field_line)], (
        f"gold_provenance named at {found}; outside the Manifest field, set the "
        "provenance of the gold tracks"
    )


def test_gold_provenance_check_catches_what_it_looks_for():
    tree = ast.parse(
        '"""Records the gold_provenance."""\n'
        "class M:\n"
        "    gold_provenance: str = 'external_gold'\n"
        "    other: str = 'gold_provenance_v2'\n"
        "def f(m):\n"
        "    return m['gold_provenance'], m.get('gold_provenance_v2'), m.gold_provenance\n"
        "meta = {'gold_provenance': 'aggregated'}\n"
        "g = M(gold_provenance='aggregated')\n"
    )
    assert _located(tree, _names_gold_provenance) == [(None, 3), ("f", 6), (None, 7), (None, 8)]


# codec.from_dict decodes no `X | None`: a setting that can be switched off by a
# null is a second code path that some pipeline must reach, or it goes.
def _decoded_roots() -> list[type]:
    """The dataclasses that modules other than codec.py pass to from_dict."""
    roots = []
    for path in MODULES:
        if path.name == "codec.py":
            continue
        module = importlib.import_module(f"emocons.{path.stem}")
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "from_dict":
                roots.append(getattr(module, node.args[0].id))
    return roots


def _optional_init_fields(roots) -> list[str]:
    """``Class.field`` of every init field whose type holds an ``X | None``, in
    the dataclass trees under ``roots``, through nested dataclasses, tuples and
    mappings."""
    found, seen, todo = [], set(), list(roots)
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if not f.init:
                continue
            parts, stack = [], [hints[f.name]]
            while stack:
                tp = stack.pop()
                parts.append(tp)
                stack.extend(typing.get_args(tp))
            if type(None) in parts:
                found.append(f"{cls.__name__}.{f.name}")
            todo.extend(tp for tp in parts if dataclasses.is_dataclass(tp))
    return sorted(found)


def test_decoded_configs_have_no_optional_fields():
    roots = _decoded_roots()
    assert {"CliConfig", "Report", "DenseLayer"} <= {cls.__name__ for cls in roots}
    assert _optional_init_fields(roots) == []


def test_optional_field_check_catches_what_it_looks_for():
    ns: dict = {}
    exec(
        "import dataclasses\n"
        "from typing import Mapping, Optional\n"
        "@dataclasses.dataclass\n"
        "class Leaf:\n"
        "    a: float | None = None\n"
        "    b: Optional[int] = None\n"
        "    c: float = 1.0\n"
        "    d: int | None = dataclasses.field(default=None, init=False)\n"
        "    e: tuple[int | None, ...] = ()\n"
        "@dataclasses.dataclass\n"
        "class Root:\n"
        "    leaves: tuple[Leaf, ...] = ()\n"
        "    by_name: Mapping[str, Leaf] = dataclasses.field(default_factory=dict)\n"
        "    f: str | None = None\n",
        ns,
    )
    assert _optional_init_fields([ns["Root"]]) == ["Leaf.a", "Leaf.b", "Leaf.e", "Root.f"]


# Each cli subcommand takes the flags of the config it reads (cli._READS):
# every cfg.<a>.<b>... chain in its handler lies inside its entry, but for the
# fields that the function it is handed to replaces, every leaf of its entry is
# read by some chain, and its aliases name leaves it reads.
def _replaced_fields(func: ast.FunctionDef | None, arg: int | str) -> set[str]:
    """The fields that ``func`` sets by ``replace(<param>, field=...)`` on its
    parameter at ``arg``, a position or a name, and reads nowhere else."""
    if func is None:
        return set()
    positional = [a.arg for a in func.args.posonlyargs + func.args.args]
    if isinstance(arg, int):
        arg = positional[arg] if arg < len(positional) else None
    if arg not in positional + [a.arg for a in func.args.kwonlyargs]:
        return set()  # bound to *args or **kwargs
    name = arg
    replaced, read = set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == name:
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "replace"
            and node.args
            and getattr(node.args[0], "id", None) == name
        ):
            replaced.update(k.arg for k in node.keywords)
    return replaced - read


def _config_reads(tree: ast.Module, callee) -> dict[str, dict[str, set[str]]]:
    """The ``cfg`` chains each ``_cmd_<name>`` reads, as dotted paths, each with
    the fields that every function it is handed to replaces; ``callee`` gives
    the FunctionDef a called name binds, or None.  A bare ``cfg`` is the empty
    path, except as an argument of ``_write_cli_config``."""
    found = {}
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")):
            continue
        # nodes that are part of a longer chain, or handed to _write_cli_config;
        # the fields replaced by the function each argument is handed to
        skip, replaced = set(), {}
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                skip.add(id(node.value))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "_write_cli_config":
                    skip.update(id(a) for a in node.args)
                target = callee(node.func.id)
                args = [*enumerate(node.args), *((k.arg, k.value) for k in node.keywords)]
                replaced.update((id(a), _replaced_fields(target, at)) for at, a in args)
        chains = {}
        for node in ast.walk(func):
            if id(node) in skip:
                continue
            fields = replaced.get(id(node), set())
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "cfg":
                chain = ".".join(reversed(parts))
                chains[chain] = chains.get(chain, fields) & fields
        found[func.name.removeprefix("_cmd_")] = chains
    return found


def _under(path: str, roots) -> bool:
    return any(path == r or path.startswith(r + ".") for r in roots)


def _cli_callee(name: str) -> ast.FunctionDef | None:
    """The FunctionDef of the function ``name`` binds in cli, or None."""
    from emocons import cli

    obj = getattr(cli, name, None)
    if not inspect.isfunction(obj):
        return None
    return next(
        node
        for node in ast.walk(_parse(Path(inspect.getsourcefile(obj))))
        if isinstance(node, ast.FunctionDef) and node.name == obj.__name__
    )


def test_each_command_takes_the_flags_of_what_it_reads():
    from emocons import cli

    reads = _config_reads(_parse(PACKAGE / "cli.py"), _cli_callee)
    assert set(reads) == set(cli._READS) == set(cli._HANDLERS)
    for command, entry in cli._READS.items():
        chains = reads[command]
        flags = {n for n in cli.FLAG_REGISTRY if _under(n, entry)}
        # the leaves each chain reads: those under it but the fields its callees replace
        leaves = {
            c: {
                n for n in cli.FLAG_REGISTRY
                if _under(n, [c]) and not _under(n, [f"{c}.{f}" for f in replaced])
            }
            for c, replaced in chains.items()
        }
        outside = [
            c for c, replaced in chains.items()
            if not (_under(c, entry) or replaced and leaves[c] <= flags)
        ]
        assert outside == [], command
        assert sorted(flags - set().union(*leaves.values())) == [], command
        aliased = cli._ALIASES.get(command, {}).values()
        assert [p for p in aliased if not _under(p, entry)] == [], command


def test_config_read_check_catches_what_it_looks_for():
    tree = ast.parse(
        "def _cmd_x(cfg, ns):\n"
        "    a = cfg.train.window.window_s + cfg.run_dir + ns.cfg.synth + other.cfg\n"
        "    _write_cli_config(p, cfg)\n"
        "    f(cfg)\n"
        "    return cfg.eval.test_sources.count(a)\n"
        "def helper(cfg):\n"
        "    return cfg.synth\n"
        "def _cmd_y(cfg, ns):\n"
        "    return _write_cli_config(p, cfg)\n"
        "def _cmd_z(cfg, ns):\n"
        "    run(ds, cfg.train, cfg.eval, other=cfg.synth)\n"
        "    return reset(cfg.eval), pack(cfg.synth, extra=cfg.run_dir)\n"
        "def run(ds, base, ev, *, other=None):\n"
        "    a = dataclasses.replace(base, mode=1, seed=2, epochs=3)\n"
        "    return replace(ev, seeds=()), base.epochs, replace(other, seed=4), other.seed\n"
        "def reset(ev):\n"
        "    return ev\n"
        "def pack(*args, **kwargs):\n"
        "    return replace(args, seed=1), replace(None, seed=2)\n"
    )
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    none = set()
    assert _config_reads(tree, defs.get) == {
        "x": {"train.window.window_s": none, "run_dir": none, "": none,
              "eval.test_sources.count": none},
        "y": {},
        # run replaces base's mode and seed; it reads base.epochs and other.seed,
        # reset replaces nothing of the eval it is also handed, and what pack
        # takes as *args or **kwargs is read
        "z": {"train": {"mode", "seed"}, "eval": none, "synth": none, "run_dir": none},
    }
    assert _under("eval.test_sources.count", ["eval.test_sources"])
    assert not _under("eval.test_sources_x", ["eval.test_sources"])
    assert not _under("", ["train"])


# A training step scores every loss term in one call of the batch kernel:
# trainer.py calls ccc_batch_loss at one site, and not from inside a loop.
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _kernel_calls(tree: ast.Module) -> list[tuple[int, bool]]:
    """(line, inside a loop) of every call of ``ccc_batch_loss``."""

    def walk(node, looped):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", getattr(f, "attr", None)) == "ccc_batch_loss":
                    yield child.lineno, looped
            yield from walk(child, looped or isinstance(child, LOOPS))

    return list(walk(tree, False))


def test_a_training_step_calls_the_ccc_kernel_once():
    found = _kernel_calls(_parse(PACKAGE / "trainer.py"))
    assert len(found) == 1 and not found[0][1], (
        f"ccc_batch_loss is called at {found}; stack the terms on its term axis "
        "and call it once per step"
    )


def test_kernel_call_check_catches_what_it_looks_for():
    tree = ast.parse(
        "from .ccc import ccc_batch_loss\n"
        "def f(xs, ccc):\n"
        "    a = ccc_batch_loss(xs)\n"
        "    for x in xs:\n"
        "        b = ccc.ccc_batch_loss(x)\n"
        "    c = [ccc_batch_loss(x) for x in xs]\n"
        "    while xs:\n"
        "        xs = ccc_batch_loss\n"
        "    return ccc.ccc_loss(xs), ccc_batch_loss(a, b)\n"
    )
    assert _kernel_calls(tree) == [(3, False), (5, True), (6, True), (9, False)]
