"""Every name a package module imports is used there or re-exported,
every name a module exports exists, every parameter a function takes is
read in its body, every export of `_primes` is read by another module,
no module but `_primes` calls `primorial` or memoizes with `functools`,
no module checks an invariant with `assert`, the CLI
picks the output format in one place, the CLI reads no private name of
the package, and the package's lazy modules give the same names as
eager ones would.

A stand-in for a linter's unused-import rule: each module of
`src/moser_ladder/` is parsed with `ast`, and every name bound by an
import must be read somewhere in the module or listed in its `__all__`.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moser_ladder

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


def _functions(scope: ast.AST, prefix: str = ""):
    """(qualified name, node, is a method) of every function and lambda
    in scope, nested ones included."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            name = prefix + getattr(node, "name", "<lambda>")
            yield name, node, isinstance(scope, ast.ClassDef)
            yield from _functions(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def _unread_allowed(module: str) -> dict[str, set[str]]:
    """Parameters a body may leave unread: every row runner takes
    (k, spec), the one signature `_ROW_RUNNERS[check](k, spec)` calls,
    and the fork pool takes `max_workers` as the executor it stands in
    for does."""
    if module != "sweeps":
        return {}
    from moser_ladder import sweeps

    allowed = {"_ForkPool.__init__": {"max_workers"}}
    for check in sweeps._CHECKS.values():
        code = check.runner.__code__
        allowed[check.runner.__name__] = set(
            code.co_varnames[:code.co_argcount])
    return allowed


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a method's receiver and a catch-all *args or **kwargs are not
    # counted: a protocol such as `__exit__` fixes them
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _unread_allowed(path.stem)
    unread = {}
    for name, node, is_method in _functions(tree):
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs][is_method:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        missing = set(params) - read - allowed.get(name, set())
        if missing:
            unread[f"{name} (line {node.lineno})"] = sorted(missing)
    assert unread == {}, f"{path.name}: parameters never read"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    # an invariant is checked with a raise: an assert vanishes under
    # `python -O`, and an AssertionError would escape the CLI's exit codes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_every_primes_export_is_read_by_another_module():
    # `_primes` is the package's private arithmetic layer: a name it
    # exports that no other module imports or reads as `_primes.<name>`
    # serves only tests, and is dead code
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "_primes":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("_primes", "moser_ladder._primes")):
                read.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "_primes"):
                read.add(node.attr)
    tree = ast.parse((PACKAGE / "_primes.py").read_text())
    assert sorted(_exported(tree) - read) == []


def test_only_primes_calls_primorial():
    # `primorial_gcds` is the one way to a gcd with a primorial: a module
    # that calls `primorial` itself restates it
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "_primes"
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "primorial"
                  or getattr(node.func, "attr", None) == "primorial")]
    assert calls == []


def test_only_primes_memoizes_with_functools():
    # the package keeps what a sweep slice shares by one rule,
    # `powersum._latest`, and nothing of it outlives the slice; only
    # `_primes` memoizes with `functools`, for its primorials, which
    # outlive sweeps by design as its sieve does, so a second memo rule
    # cannot come back unnoticed
    memo = {"cache", "lru_cache"}
    uses = [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "_primes"
            for node in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path)))
            if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                and memo & {alias.name for alias in node.names})
            or (isinstance(node, ast.Attribute) and node.attr in memo
                and getattr(node.value, "id", None) == "functools")]
    assert uses == []


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


_DEFINING = ("bernoulli", "cache", "powersum", "gcdlab", "sweeps")


def test_star_import_binds_each_name_to_its_definition():
    modules = [importlib.import_module(f"moser_ladder.{stem}")
               for stem in _DEFINING]
    bound: dict = {}
    exec("from moser_ladder import *", bound)
    for name in moser_ladder.__all__:
        if name == "__version__":
            assert bound[name] is moser_ladder.__version__
            continue
        owners = [m for m in modules if name in m.__all__]
        assert len(owners) == 1, name
        assert bound[name] is getattr(owners[0], name), name
    # the package binds `bernoulli` to the function, not to its module
    assert moser_ladder.bernoulli is modules[0].bernoulli
    assert callable(moser_ladder.bernoulli)
    assert set(moser_ladder.__all__) <= set(dir(moser_ladder))


def test_the_lazy_modules_run_on_first_use():
    # in a fresh interpreter: importing the package runs none of the five,
    # and import_module runs one and returns the registered module
    code = """
import importlib, sys, types
import moser_ladder
lazy = {name for name, module in sys.modules.items()
        if name.startswith("moser_ladder") and type(module) is not types.ModuleType}
if lazy != {"moser_ladder._primes", "moser_ladder.cache", "moser_ladder.powersum",
            "moser_ladder.gcdlab", "moser_ladder.sweeps"}:
    raise SystemExit(f"lazy modules {sorted(lazy)}")
registered = sys.modules["moser_ladder.sweeps"]
sweeps = importlib.import_module("moser_ladder.sweeps")
if not (sweeps is registered is moser_ladder.sweeps
        and type(sweeps) is types.ModuleType
        and sweeps.verify_all is moser_ladder.verify_all):
    raise SystemExit("import_module gave another sweeps")
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert (out.returncode, out.stderr) == (0, "")


@pytest.mark.parametrize("name, runs", [
    ("cache_load", {"cache"}),
    ("power_sum", {"powersum"}),
    ("gcd_ratio", {"powersum", "gcdlab"}),
    ("verify_all", {"powersum", "gcdlab", "sweeps", "_primes"}),
])
def test_a_package_name_runs_only_its_module_and_its_imports(name, runs):
    code = f"""
import sys, types
import moser_ladder
moser_ladder.{name}
ran = {{name.removeprefix("moser_ladder.") for name, module in sys.modules.items()
       if name.startswith("moser_ladder.") and type(module) is types.ModuleType}}
sys.stderr.write(" ".join(sorted(ran - {{"bernoulli"}})))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert set(out.stderr.split()) == runs


def _state_writes(tree: ast.Module, module: str) -> set[str]:
    """`module.function: name` for each name a function rebinds at module
    level: every name of a `global` statement, and every attribute of an
    imported module that it assigns or deletes."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}

    def own(node: ast.AST):
        # the nodes of one function, not those of the functions nested in it
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                yield child
                yield from own(child)

    out = set()
    for name, node, _ in _functions(tree):
        for inner in own(node):
            if isinstance(inner, ast.Global):
                out.update(f"{module}.{name}: {g}" for g in inner.names)
            elif (isinstance(inner, ast.Attribute)
                    and isinstance(inner.ctx, (ast.Store, ast.Del))
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id in modules):
                out.add(f"{module}.{name}: {inner.value.id}.{inner.attr}")
    return out


def test_module_state_is_written_only_where_listed():
    # the package's scopes: the Bernoulli table, the sieve, and the slice
    # that keeps each shared builder's latest result; a new one is added
    # here on purpose, not by a stray `global`
    writes = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        writes |= _state_writes(tree, path.stem)
    assert writes == {
        "bernoulli._extend_even: _SEIDEL",
        "_primes.primes_up_to: _sieve_cache",
        "_primes.primes_up_to: _sieve_cache_limit",
        "sweeps._run_slice: ps._SLICE",
    }
