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


def test_row_runners_are_looked_up_per_row(monkeypatch):
    # the driver swaps entries after import; a sweep must call the swapped
    # entry for every row, not a runner bound when the module loaded
    calls = []
    real = sweeps._ROW_RUNNERS["gcd-ladder"]

    def counted(k, spec):
        calls.append(k)
        return real(k, spec)

    monkeypatch.setitem(sweeps._ROW_RUNNERS, "gcd-ladder", counted)
    spec = sweeps.GridSpec(k_min=2, k_max=8, m_max=20, checks=("gcd-ladder",))
    assert sweeps.run_sweep(spec, jobs=1)["checks"][0]["rows"] == 4
    assert calls == [2, 4, 6, 8]


def test_every_row_carries_integer_counts():
    # the driver's cell count of a row is passes + fails + inapplicable
    spec = sweeps.GridSpec(k_min=10, k_max=10, m_max=20, trial_bound=100)
    for check in sweeps.CHECK_ORDER:
        k = sweeps._rows_for(check, spec)[0]
        row = sweeps._ROW_RUNNERS[check](k, spec)
        counts = (row.passes, row.fails, row.inapplicable)
        assert [type(n) for n in counts] == [int] * 3, check
        assert sum(counts) > 0, check
