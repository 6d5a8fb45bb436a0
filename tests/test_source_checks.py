"""Source checks over ``src/emocons`` that a linter would make, by ``ast`` scan."""

import ast
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
READ_CALLS = {"open", "read_text", "read_bytes"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _file_reads(tree: ast.Module):
    """(enclosing function, line) of every call to open() or a .open/.read_text/.read_bytes."""

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in READ_CALLS and (isinstance(f, ast.Attribute) or name == "open"):
                    yield func, child.lineno
            yield from walk(child, func)

    return list(walk(tree, None))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "atomic.py"], ids=lambda p: p.name)
def test_files_are_read_only_through_atomic(path):
    reads = [
        (func, line)
        for func, line in _file_reads(_parse(path))
        if (path.name, func) not in OWN_READS
    ]
    assert reads == [], f"{path.name} reads files itself; use atomic.open_text or read_json"


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
    assert _file_reads(tree) == [("f", 4), ("f", 4)]
    assert _unused_imports(tree) == ["load", "os"]
