"""Every name a package module imports is used there or re-exported,
every name a module exports exists, no module checks an invariant with
`assert`, the CLI picks the output format in one place, and the CLI
reads no private name of the package.

A stand-in for a linter's unused-import rule: each module of
`src/moser_ladder/` is parsed with `ast`, and every name bound by an
import must be read somewhere in the module or listed in its `__all__`.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "moser_ladder"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line, `from __future__` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = read | _exported(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in kept}
    assert unused == {}, f"{path.name}: imported but never used"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    # a deleted definition left in `__all__` breaks `from ... import *`
    name = "moser_ladder" + ("" if path.stem == "__init__"
                             else f".{path.stem}")
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == [], f"{path.name}: exported but not defined"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    # an invariant is checked with a raise: an assert vanishes under
    # `python -O`, and an AssertionError would escape the CLI's exit codes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _uses_by_function(tree: ast.Module, is_use) -> dict[str, int]:
    """Top-level function (or "<module>") -> how many nodes in it pass
    `is_use`."""
    out: dict[str, int] = {}
    for top in tree.body:
        name = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        count = sum(1 for node in ast.walk(top) if is_use(node))
        if count:
            out[name] = out.get(name, 0) + count
    return out


def test_cli_picks_the_format_only_in_emit():
    # every command hands its three renderings to `_emit`; a command
    # that reads args.format or writes CSV itself brings back its own
    # per-format branches
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = _uses_by_function(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "format"
        and isinstance(node.value, ast.Name) and node.value.id == "args"))
    csv_calls = _uses_by_function(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_emit_csv"))
    assert list(reads) == ["_emit"]
    assert list(csv_calls) == ["_emit"]


def test_cli_reads_no_private_name():
    # the CLI only formats what the library returns: it imports no
    # `_`-prefixed name from the package and reads no `_`-prefixed
    # attribute of the modules it calls
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names
                if alias.name.startswith("_") and alias.name != "__version__"]
    read = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id in ("sweeps", "ps", "gcdlab", "cachemod")]
    assert imported + read == []
