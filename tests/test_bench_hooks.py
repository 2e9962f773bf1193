"""The benchmark's hooks into the package stay valid.

`bench/trace_driver.py` wraps package functions by (module, attribute)
and every `sweeps._ROW_RUNNERS` entry, from outside the package. A
renamed kernel would make its traced runs fail or go quiet, so these
tests read the driver's source with `ast` (without importing it) and
check its names against the package; one test runs the driver itself.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import moser_ladder
from moser_ladder import cli, sweeps
from pins import PINS, canonical

TRACE_DRIVER = Path(__file__).resolve().parents[1] / "bench" / "trace_driver.py"
BENCH_RUN = TRACE_DRIVER.with_name("run.py")


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


def test_bench_pins_the_recorded_extended_digest():
    # the benchmark judges each audit pass against its own copy of the
    # `extended` digest: a pin re-recorded without it would pass here and
    # fail every benchmark run as incorrect
    for node in ast.parse(BENCH_RUN.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["PINNED_REPORT_SHA256"]):
            pinned = ast.literal_eval(node.value)
            break
    else:
        raise AssertionError("no PINNED_REPORT_SHA256 in bench/run.py")
    assert pinned == json.loads(PINS.read_text(encoding="utf-8"))["extended"]


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


def test_cache_and_bernoulli_layers_are_live(tmp_path, monkeypatch, capsys):
    # swap every cache/bernoulli target the way the driver's `install`
    # does (each reference to it in every package module) and count
    # calls: a layer whose function a command no longer reaches through
    # that name would read 0 in the benchmark
    bmod = importlib.import_module("moser_ladder.bernoulli")
    modules = [m for name, m in sys.modules.items()
               if name == "moser_ladder" or name.startswith("moser_ladder.")]
    called: set[str] = set()

    def counted(fn, attr):
        def wrapper(*args, **kwargs):
            called.add(attr)
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr in _trace_targets():
        if module_name not in ("cache", "bernoulli"):
            continue
        original = getattr(importlib.import_module(
            f"moser_ladder.{module_name}"), attr)
        swapped = counted(original, attr)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, swapped)

    cache = str(tmp_path / "bern.cache")
    for run, want in (("cold", ("_extend_even", "snapshot_bernoulli",
                                "cache_store")),
                      ("warm", ("cache_load", "warm_bernoulli",
                                "seed_even_values"))):
        monkeypatch.setattr(bmod, "_EVEN", [(1, 1)])
        monkeypatch.setattr(bmod, "_SEIDEL", [])
        called.clear()
        assert cli.main(["bern", "20", "--cache", cache]) == 0
        assert capsys.readouterr() == ("-174611/330\n", "")
        assert set(want) <= called, (run, called)


@pytest.mark.parametrize("command", [
    "bern 20 --seedless",
    "verify --grid 2-6:20 --seedless --format json",
])
def test_trace_driver_runs_the_cli_unchanged(command, tmp_path):
    # the driver reads sys.modules["moser_ladder.sweeps"] right after
    # `import moser_ladder.cli` and wraps functions in every package
    # module: a traced run prints what an untraced one prints, and its
    # spans cover the table build and every row of the sweep
    src = str(Path(moser_ladder.__file__).resolve().parents[1])
    spans = tmp_path / "spans.jsonl"

    def run(*head):
        return subprocess.run(
            [sys.executable, *head, *command.split()], capture_output=True,
            text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))

    traced = run(str(TRACE_DRIVER), str(spans), "r", "all")
    plain = run("-m", "moser_ladder.cli")
    assert (traced.returncode, traced.stderr) == (0, "")
    assert plain.returncode == 0
    names = Counter(json.loads(line)["name"] for line in
                    spans.read_text(encoding="utf-8").splitlines())
    assert names["bernoulli.table"] > 0
    if command.startswith("bern"):
        assert traced.stdout == plain.stdout
        return
    reports = [json.loads(out) for out in (traced.stdout, plain.stdout)]
    assert canonical(reports[0]) == canonical(reports[1])
    rows = {f"sweeps.row.{c['name']}": c["rows"] for c in reports[1]["checks"]
            if c["rows"]}
    # size-bounds starts at k = 10, so this grid has no row of it
    assert len(rows) == len(sweeps.CHECK_ORDER) - 1
    assert {name: n for name, n in names.items()
            if name.startswith("sweeps.row.")} == rows
