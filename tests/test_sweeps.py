"""Sweep engine: determinism, accounting, profile composition."""

import gc
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from moser_ladder import gcdlab, powersum, sweeps
from moser_ladder.sweeps import (
    CHECK_ORDER,
    PROFILES,
    GridSpec,
    _pool_size,
    _rows_for,
    max_bernoulli_index,
    run_grids,
    run_sweep,
    verify_all,
)


# Report digests pinned at the release that first recorded them, in the
# canonical form of `verify --format json` without wall_time_s: sorted
# keys, indent 2, trailing newline. A deliberate report change (or a
# version bump, which changes tool_version) re-records them and says so
# in CHANGES.md.
QUICK_DIGEST = "5b31de8a1ed3ddb0a748be845836190278d3e60ca192ccc4c0dc481c5bd051d6"
EXTENDED_DIGEST = (
    "59e4aa8d35c8f801334c09f390a0e93791b2fcc58e4caaa9f0fadb52bf79873c"
)
# `quick` with S_k(m) knocked off its true value at a few cells (see
# test_counterexample_text_is_pinned): every m-cell check fails somewhere,
# so this pins the counterexample strings, not only the counts.
FAILING_QUICK_DIGEST = (
    "5ce9c2f38af48a296560d2877f711037b898044a8513b0367303ed62fb7cffc0"
)


def _digest(report: dict) -> str:
    body = {key: value for key, value in report.items() if key != "wall_time_s"}
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stripped(report) -> str:
    text = json.dumps(report, sort_keys=True, indent=2)
    return "\n".join(
        line for line in text.splitlines() if "wall_time_s" not in line
    )


def test_check_order_is_stable():
    assert CHECK_ORDER[0] == "bernoulli-structure"
    assert len(CHECK_ORDER) == len(set(CHECK_ORDER)) == 16


_EVEN_TO_12 = [2, 4, 6, 8, 10, 12]
_ALL_TO_13 = list(range(1, 14))
_EVEN_4_TO_10 = [4, 6, 8, 10]
_ALL_3_TO_11 = list(range(3, 12))


@pytest.mark.parametrize("spec, want", [
    (GridSpec(k_min=1, k_max=13, m_max=5), {
        "bernoulli-structure": _EVEN_TO_12,
        "faulhaber-naive": _ALL_TO_13,
        "telescoping": _ALL_TO_13,
        "s1-s3-identity": [0],
        "ratio-search": _ALL_TO_13,
        "em-scan": _ALL_TO_13,
        "gcd-ladder": _EVEN_TO_12,
        "congruences": _EVEN_TO_12,
        "divisibility-equivalence": _EVEN_TO_12,
        "trivial-gcd-iff": _EVEN_TO_12,
        "special-values": _EVEN_TO_12,
        "min-max": _EVEN_TO_12,
        "cross-gcd": [4, 6, 8, 10, 12],
        "crossover-bracket": _EVEN_TO_12,
        "size-bounds": [10, 12],
        "numerator-scan": _EVEN_TO_12,
    }),
    (GridSpec(k_min=3, k_max=11, m_max=5), {
        "bernoulli-structure": _EVEN_4_TO_10,
        "faulhaber-naive": _ALL_3_TO_11,
        "telescoping": _ALL_3_TO_11,
        "s1-s3-identity": [0],
        "ratio-search": _ALL_3_TO_11,
        "em-scan": _ALL_3_TO_11,
        "gcd-ladder": _EVEN_4_TO_10,
        "congruences": _EVEN_4_TO_10,
        "divisibility-equivalence": _EVEN_4_TO_10,
        "trivial-gcd-iff": _EVEN_4_TO_10,
        "special-values": _EVEN_4_TO_10,
        "min-max": _EVEN_4_TO_10,
        "cross-gcd": _EVEN_4_TO_10,
        "crossover-bracket": _EVEN_4_TO_10,
        "size-bounds": [10],
        "numerator-scan": _EVEN_4_TO_10,
    }),
])
def test_rows_per_check_are_pinned(spec, want):
    # the k of every row, per check: odd k_min and k_max, and each
    # check's own smallest k (2, 4 for cross-gcd, 10 for size-bounds)
    assert list(want) == list(CHECK_ORDER)
    assert {check: list(_rows_for(check, spec)) for check in CHECK_ORDER} == want


def test_max_bernoulli_index_covers_every_read(monkeypatch):
    # pool workers are seeded, and verify writes the cache, up to
    # max_bernoulli_index: a row that read B_k past it would grow the memo
    bmod = importlib.import_module("moser_ladder.bernoulli")
    grids = [
        PROFILES["quick"],
        PROFILES["standard"],
        [GridSpec(k_max=15, m_max=20, checks=("crossover-bracket",))],
        [GridSpec(k_max=15, m_max=200, checks=("ratio-search",))],
        [GridSpec(k_max=15, m_max=20, checks=("telescoping",))],
    ]
    assert [max_bernoulli_index(specs) for specs in grids] == [
        12, 40, 2, 2, 14]
    for specs in grids:
        monkeypatch.setattr(bmod, "_EVEN", [Fraction(1)])
        monkeypatch.setattr(bmod, "_TANGENT", [])
        monkeypatch.setattr(powersum, "_COEFFS", {})
        bmod.bernoulli(max_bernoulli_index(specs))
        filled = len(bmod._EVEN)
        assert run_grids(specs, None, 1)["totals"]["fail"] == 0
        assert len(bmod._EVEN) == filled, specs


def test_profiles_cover_every_check_once():
    for name, specs in PROFILES.items():
        seen = [c for spec in specs for c in spec.checks]
        assert sorted(seen) == sorted(set(seen)), name
        assert set(seen) == set(CHECK_ORDER), name


def test_quick_profile_all_pass():
    d = verify_all("quick")
    assert d["totals"]["fail"] == 0
    assert d["totals"]["pass"] > 0
    assert d["profile"] == "quick"
    assert d["schema_version"] == "1"
    for check in d["checks"]:
        assert check["counterexamples"] == [], check["name"]


def test_quick_profile_known_findings():
    report = verify_all("quick")
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["ratio-search"]["hits"] == [
        {"k": 1, "m": 3, "quotient": "2"},
        {"k": 3, "m": 3, "quotient": "4"},
    ]
    assert by_name["em-scan"]["hits"] == [{"k": 1, "m": 3}]


def test_quick_report_digest_is_pinned():
    assert _digest(verify_all("quick")) == QUICK_DIGEST


def test_extended_report_digest_is_pinned():
    # the integer congruence, square-factor and min/max kernels run on
    # the extended grid far past the quick one; about 1 s in-process
    assert _digest(verify_all("extended")) == EXTENDED_DIGEST


def test_extended_report_digest_is_pinned_in_parallel(monkeypatch):
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 3)
    assert _digest(verify_all("extended", jobs=2)) == EXTENDED_DIGEST
    assert _digest(verify_all("extended", jobs=3)) == EXTENDED_DIGEST


# offsets added to S_k(m) at (k, m), one table per route the rows read:
# the closed form and the running sums; and a shift of the running sums
# at every m >= 2 of a k, which knocks whole rows off. The shift of 836
# makes 11^3 divide S_12(11); the offset there is 11^3 so that it still
# does, and divisibility-equivalence fails at that cell.
_CLOSED_OFFSETS = {(3, 20): 1, (4, 12): -2, (10, 60): 7}
_RUNNING_OFFSETS = {(4, 12): 3, (6, 30): 1, (10, 5): 25, (12, 11): 11**3,
                    (12, 100): 10**6}
_RUNNING_SHIFTS = {6: 4, 12: 836}


def _perturb_sums(monkeypatch):
    real_running = powersum.running_sums
    real_closed = powersum.power_sums

    def running(k, m_max):
        for m, s in real_running(k, m_max):
            if m >= 2:
                s += _RUNNING_SHIFTS.get(k, 0)
            yield m, s + _RUNNING_OFFSETS.get((k, m), 0)

    def closed(k, ms):
        ms = list(ms)
        return [s + _CLOSED_OFFSETS.get((k, m), 0)
                for m, s in zip(ms, real_closed(k, ms))]

    monkeypatch.setattr(powersum, "running_sums", running)
    monkeypatch.setattr(powersum, "power_sums", closed)


def _assert_pinned_failures(d: dict) -> None:
    failing = {c["name"] for c in d["checks"] if c["fail"]}
    assert failing == {"faulhaber-naive", "telescoping", "gcd-ladder",
                       "congruences", "divisibility-equivalence",
                       "trivial-gcd-iff"}
    # the ladder's consecutive-gcd cell reads S(m+1) from the closed form,
    # so a running-sum S off its value makes it fail
    ladder = next(c for c in d["checks"] if c["name"] == "gcd-ladder")
    assert sum(ce["cell"] == "consecutive-gcd"
               for ce in ladder["counterexamples"]) == 96
    assert _digest(d) == FAILING_QUICK_DIGEST


def test_counterexample_text_is_pinned(monkeypatch):
    _perturb_sums(monkeypatch)
    _assert_pinned_failures(verify_all("quick"))


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="workers see the perturbed sums only when forked")
def test_counterexample_text_is_pinned_in_parallel(monkeypatch):
    # counterexamples from both workers' slices merge in the serial order
    _perturb_sums(monkeypatch)
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 2)
    _assert_pinned_failures(verify_all("quick", jobs=2))


def test_extended_builds_each_closed_form_once(monkeypatch):
    # faulhaber-naive, telescoping, gcd-ladder and trivial-gcd-iff share
    # one column of closed forms per k: 48 k times m = 1..301 (14,448),
    # plus 152 for the witnesses of special-values and min-max (two sums
    # per gcd_ratio). Every closed form is a point of `power_sums`;
    # `power_sum` is its one-point case.
    real = powersum.power_sums
    calls = []

    def counted(k, ms):
        ms = list(ms)
        calls.extend((k, m) for m in ms)
        return real(k, ms)

    monkeypatch.setattr(powersum, "power_sums", counted)
    assert _digest(verify_all("extended")) == EXTENDED_DIGEST
    assert len(calls) == 14_600


_M_CELL_CHECKS = ("faulhaber-naive", "telescoping", "gcd-ladder",
                  "congruences", "divisibility-equivalence",
                  "trivial-gcd-iff")


def _tasks(specs: list[GridSpec]) -> list[tuple[str, int, GridSpec]]:
    """The rows of `specs` in the order `run_grids` lists them."""
    return [(c, k, spec) for c in CHECK_ORDER for spec in specs
            if c in spec.checks for k in _rows_for(c, spec)]


def test_parallel_extended_builds_each_column_and_tree_once(monkeypatch):
    # a worker runs whole units, all rows of one k or all survey rows, so
    # at 2 workers the closed forms are still 14,600 points (see
    # test_extended_builds_each_closed_form_once) and the survey's
    # remainder tree is built once
    bmod = importlib.import_module("moser_ladder.bernoulli")
    real_sums, real_tree = powersum.power_sums, bmod.remainders
    points, trees = [], []

    def counted_sums(k, ms):
        ms = list(ms)
        points.extend((k, m) for m in ms)
        return real_sums(k, ms)

    def counted_tree(p, block):
        trees.append(len(block))
        return real_tree(p, block)

    monkeypatch.setattr(powersum, "power_sums", counted_sums)
    monkeypatch.setattr(bmod, "remainders", counted_tree)
    specs = PROFILES["extended"]
    sweeps.bernoulli(max_bernoulli_index(specs))  # as `run_grids` does
    tasks = _tasks(specs)
    slices = sweeps._slices(tasks, sweeps._units(tasks), 2)
    for at in slices:
        # each worker starts with no survey gcds, as one forked by the CLI
        monkeypatch.setattr(bmod, "_SURVEY_GCDS", (0, []))
        sweeps._run_slice([tasks[i] for i in at])
    assert len(points) == 14_600
    assert len(trees) == 1
    assert sorted(i for at in slices for i in at) == list(range(len(tasks)))
    where: dict = {}
    for n, at in enumerate(slices):
        for i in at:
            check, k, _ = tasks[i]
            unit = "survey" if check == "numerator-scan" else k
            where.setdefault(unit, set()).add(n)
    assert all(len(slice_of) == 1 for slice_of in where.values())


def test_heaviest_slice_comes_first():
    # the parent runs slice 0 itself, so it takes the largest share
    for profile in ("quick", "standard", "extended"):
        tasks = _tasks(PROFILES[profile])
        for workers in (2, 3):
            slices = sweeps._slices(tasks, sweeps._units(tasks), workers)
            loads = [sum(sweeps._CHECKS[c].weight(k, spec)
                         for c, k, spec in map(tasks.__getitem__, at))
                     for at in slices]
            assert loads == sorted(loads, reverse=True), (profile, workers)


def test_column_is_gone_after_a_slice(monkeypatch):
    spec = GridSpec(k_min=2, k_max=6, m_max=30, checks=_M_CELL_CHECKS)
    tasks = [(c, k, spec) for c in spec.checks for k in _rows_for(c, spec)]
    assert sweeps._column is None
    rows = sweeps._run_slice(tasks)
    assert sweeps._column is None
    assert [(r.check, r.k) for r in rows] == [(c, k) for c, k, _ in tasks]
    # also when a row raises
    seen = []

    def broken(k, spec):
        seen.append(sweeps._column)
        raise RuntimeError("row failed")

    monkeypatch.setitem(sweeps._ROW_RUNNERS, "trivial-gcd-iff", broken)
    with pytest.raises(RuntimeError, match="row failed"):
        sweeps._run_slice(tasks)
    assert isinstance(seen[0], dict)
    assert sweeps._column is None


def test_nothing_sized_by_m_max_survives_a_sweep():
    # the column, the factor lists and the m^k tables live only while a
    # slice runs: a second `extended` sweep, once the first has filled
    # the caches that persist (Bernoulli table, sieve, primorial, survey
    # gcds, Faulhaber coefficients), leaves no memory behind
    verify_all("extended")
    assert (sweeps._column, sweeps._sweep, powersum._TABLES) == (
        None, None, None)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verify_all("extended")
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one m^k table of `extended` alone holds some 10^5 bytes
    assert left < 4096
    assert (sweeps._column, sweeps._sweep, powersum._TABLES) == (
        None, None, None)


def test_consecutive_gcds_are_taken_from_the_two_sums(monkeypatch):
    # the ladder's consecutive cell and trivial-gcd-iff read
    # gcd(S(m), S(m+1)) of the two sums themselves, never a rung
    pairs = []

    def recorded(a, b):
        pairs.append((a, b))
        return math.gcd(a, b)

    def no_rung(*args):
        raise AssertionError("a rung was read")

    monkeypatch.setattr(sweeps, "gcd", recorded)
    monkeypatch.setattr(gcdlab, "_gcd_with_power", no_rung)
    ms = range(2, 41)
    sweeps._consecutive_gcds(10, ms)
    assert pairs == [(powersum.power_sum(10, m), powersum.power_sum(10, m + 1))
                     for m in ms]


def test_no_row_reads_the_naive_sum(monkeypatch):
    # the rows reach S_k(m) by the closed form and the running sums only;
    # `power_sum_naive` stays an oracle, read by no row
    def no_naive(*args):
        raise AssertionError("the naive sum was read")

    monkeypatch.setattr(powersum, "power_sum_naive", no_naive)
    assert _digest(verify_all("quick")) == QUICK_DIGEST


def test_direct_row_after_a_perturbed_sweep_reads_true_sums(monkeypatch):
    spec = GridSpec(k_min=2, k_max=12, m_max=100, checks=_M_CELL_CHECKS)
    with monkeypatch.context() as patch:
        _perturb_sums(patch)
        assert run_sweep(spec)["totals"]["fail"] > 0
    for check in _M_CELL_CHECKS:
        for k in _rows_for(check, spec):
            row = sweeps._ROW_RUNNERS[check](k, spec)
            assert (row.fails, row.counterexamples) == (0, []), (check, k)


def test_repeat_runs_identical():
    assert _stripped(verify_all("quick")) == _stripped(verify_all("quick"))


def test_job_count_does_not_change_report():
    assert _stripped(verify_all("quick", jobs=1)) == _stripped(
        verify_all("quick", jobs=2)
    )


def _recording_pool(monkeypatch, cpus: int) -> list:
    """Swap in a pool class that logs ("workers", n) when built and
    ("map", slice count) per map call, with `cpus` CPUs available."""
    log = []

    class RecordingPool(sweeps.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log.append(("workers", kwargs["max_workers"]))
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            log.append(("map", len(iterables[0])))
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: cpus)
    return log


def test_pool_is_built_from_the_module_attribute(monkeypatch):
    # the benchmark's trace driver times the pool by assigning a subclass
    # to sweeps.ProcessPoolExecutor; the sweep must build that class and
    # hand it one slice of rows per worker, in a single map call
    log = _recording_pool(monkeypatch, 2)
    parallel = verify_all("quick", jobs=2)
    assert log == [("workers", 2), ("map", 2)]
    assert _stripped(parallel) == _stripped(verify_all("quick", jobs=1))
    # the rows of one k are one unit, which one worker runs in-process
    run_sweep(GridSpec(k_min=4, k_max=4, m_max=20,
                       checks=("gcd-ladder", "congruences")), jobs=2)
    assert log == [("workers", 2), ("map", 2)]


def test_uneven_slices_merge_in_order(monkeypatch):
    # 25 rows in 13 units, one per k: the slices differ in length at 2
    # and at 3 workers
    spec = GridSpec(k_max=13, m_max=40,
                    checks=("ratio-search", "gcd-ladder", "special-values"))
    log = _recording_pool(monkeypatch, 3)
    reports = {jobs: run_sweep(spec, jobs=jobs) for jobs in (1, 2, 3)}
    assert sum(c["rows"] for c in reports[1]["checks"]) == 25
    assert log == [("workers", 2), ("map", 2), ("workers", 3), ("map", 3)]
    assert _stripped(reports[2]) == _stripped(reports[1])
    assert _stripped(reports[3]) == _stripped(reports[1])


# The sweep's own pool forks. A `concurrent.futures` executor assigned to
# `sweeps.ProcessPoolExecutor`, as here, is the only way left to run the
# rows in a spawned worker.
class _SpawnPool(ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs,
                         mp_context=multiprocessing.get_context("spawn"))


def test_spawned_workers_build_their_own_table(monkeypatch):
    # a spawned worker starts from a fresh import, with no initializer:
    # it builds the Bernoulli table it reads on first use
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", _SpawnPool)
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 2)
    assert _stripped(verify_all("quick", jobs=2)) == _stripped(
        verify_all("quick", jobs=1))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
@pytest.mark.parametrize("fault, error", [
    ("child-dies", RuntimeError),
    ("parent-fails", ValueError),
    ("parent-interrupted", KeyboardInterrupt),
])
def test_failed_sweep_leaves_no_process(monkeypatch, fault, error):
    # jobs - 1 children are forked; whichever side fails, the sweep
    # raises only once every child is gone, killed if still running
    parent, real_fork, real_slice = os.getpid(), os.fork, sweeps._run_slice
    forked = []

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def run(tasks):
        if os.getpid() != parent:
            if fault == "child-dies":
                os._exit(1)
            time.sleep(30)  # still running when the parent raises
        elif fault != "child-dies":
            raise error("parent slice")
        return real_slice(tasks)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(sweeps, "_run_slice", run)
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 3)
    spec = GridSpec(k_min=2, k_max=6, m_max=20, checks=("gcd-ladder",))
    start = time.monotonic()
    with pytest.raises(error):
        run_sweep(spec, jobs=3)
    assert time.monotonic() - start < 10
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_pool_size_is_bounded(monkeypatch):
    # called directly: a huge --jobs must never reach a real pool;
    # with neither an affinity set nor a CPU count, the sweep is serial
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(8, 100) == 1
    cpus = 4
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: cpus)
    assert _pool_size(10**6, 10**6) == cpus
    assert _pool_size(10**6, 3) == min(3, cpus)
    assert _pool_size(1, 10**6) == 1
    # without os.fork there is no pool at all
    monkeypatch.delattr(os, "fork")
    assert _pool_size(10**6, 10**6) == 1


def test_accounting_totals_match_check_sums():
    d = verify_all("quick")
    for key in ("pass", "fail", "inapplicable"):
        assert d["totals"][key] == sum(c[key] for c in d["checks"])


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        verify_all("exhaustive")


def test_custom_grid_sweep():
    spec = GridSpec(k_min=2, k_max=8, m_min=2, m_max=40,
                    checks=("gcd-ladder", "trivial-gcd-iff"))
    d = run_sweep(spec)
    assert d["profile"] is None
    assert [c["name"] for c in d["checks"]] == [
        "gcd-ladder", "trivial-gcd-iff"]
    assert d["totals"]["fail"] == 0
    ladder = d["checks"][0]
    assert ladder["rows"] == 4  # even k in 2..8
    # six cells per (k, m): three closed forms, consecutive, monotone,
    # residual-primes
    assert ladder["pass"] == 4 * 39 * 6


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(k_max=0, m_max=5).validate()
    with pytest.raises(ValueError):
        run_sweep(GridSpec(k_max=5, m_max=5), jobs=0)
    with pytest.raises(ValueError):
        GridSpec(k_max=5, m_max=5, checks=("no-such-check",)).validate()
    with pytest.raises(ValueError):
        run_sweep(GridSpec(k_max=5, m_max=5, checks=("no-such-check",)))


def test_min_max_rows_widen_window():
    # the per-k window grows to cover both witnesses even when the grid
    # m_max is far below them
    spec = GridSpec(k_min=12, k_max=12, m_max=10, checks=("min-max",))
    d = run_sweep(spec)
    assert d["totals"]["fail"] == 0
    hit = d["checks"][0]["hits"][0]
    assert hit["min_witness"] == "2730"
    assert hit["max_witness"] == "691"


def test_observational_checks_never_fail():
    spec = GridSpec(k_min=1, k_max=6, m_max=50,
                    checks=("ratio-search", "em-scan", "crossover-bracket",
                            "numerator-scan"))
    report = run_sweep(spec)
    assert report["totals"]["fail"] == 0


def test_searches_honour_m_min():
    # the ratio and equation scans count and report only m >= m_min, like
    # every other check; both scans' only hits (m = 3) fall below it here
    spec = GridSpec(k_max=3, m_min=50, m_max=100,
                    checks=("ratio-search", "em-scan"))
    d = run_sweep(spec)
    for check in d["checks"]:
        assert check["grid"]["m_min"] == 50
        assert check["pass"] == 3 * 51, check["name"]
        assert check["hits"] == [], check["name"]
    # m_min = 3 keeps the ratio hits at m = 3 and drops m = 2 from em-scan
    spec = GridSpec(k_max=3, m_min=3, m_max=10,
                    checks=("ratio-search", "em-scan"))
    by_name = {c["name"]: c for c in run_sweep(spec)["checks"]}
    assert by_name["ratio-search"]["pass"] == 3 * 8
    assert [(h["k"], h["m"]) for h in by_name["ratio-search"]["hits"]] == [
        (1, 3), (3, 3)]
    assert by_name["em-scan"]["pass"] == 3 * 8
    assert by_name["em-scan"]["hits"] == [{"k": 1, "m": 3}]


def test_extended_survey_tests_primality_only_without_a_proper_factor(
        monkeypatch):
    # the survey's primorial gcd g settles every |N_k| with 1 < g < |N_k|
    # as composite; is_prime runs for the other 22 of the 125 numerators
    calls = []
    is_prime = sweeps.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(sweeps, "is_prime", counted)
    grid = PROFILES["extended"][-1]
    assert grid.checks == ("numerator-scan",)
    report = run_sweep(grid)
    assert report["checks"][0]["rows"] == 125
    assert len(calls) == 22
