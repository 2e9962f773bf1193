"""The benchmark's hooks into the package stay valid.

`bench/trace_driver.py` wraps package functions by (module, attribute)
and every `sweeps._ROW_RUNNERS` entry, from outside the package. A
renamed kernel would make its traced runs fail or go quiet, so these
tests read the driver's source with `ast` (without importing it) and
check its names against the package.
"""

import ast
import importlib
from pathlib import Path

from moser_ladder import sweeps

TRACE_DRIVER = Path(__file__).resolve().parents[1] / "bench" / "trace_driver.py"


def _driver() -> ast.Module:
    return ast.parse(TRACE_DRIVER.read_text(encoding="utf-8"))


def _trace_targets() -> list[tuple[str, str]]:
    for node in _driver().body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS list in the trace driver")


def test_every_trace_target_exists():
    targets = _trace_targets()
    assert len(targets) >= 10
    for module, attr in targets:
        mod = importlib.import_module(f"moser_ladder.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"


def test_module_attributes_the_driver_reads_exist():
    # aliases bound as `name = sys.modules["moser_ladder.X"]`
    tree = _driver()
    aliases = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.slice, ast.Constant)):
            aliases[node.targets[0].id] = node.value.slice.value
    assert set(aliases.values()) >= {"moser_ladder.sweeps",
                                     "moser_ladder.bernoulli"}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert used
    for alias, attr in used:
        module = importlib.import_module(aliases[alias])
        assert hasattr(module, attr), f"{aliases[alias]}.{attr}"


def test_row_runners_cover_exactly_the_checks():
    assert len(sweeps._ROW_RUNNERS) == len(sweeps.CHECK_ORDER)
    assert set(sweeps._ROW_RUNNERS) == set(sweeps.CHECK_ORDER)
