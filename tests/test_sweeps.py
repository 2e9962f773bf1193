"""Sweep engine: determinism, accounting, profile composition."""

import gc
import importlib
import math
import multiprocessing
import os
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from moser_ladder import gcdlab, powersum, sweeps
from moser_ladder._primes import primorial
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
from pins import canonical, digest, perturb_sums, pinned


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
        12, 40, 14, 2, 14]
    for specs in grids:
        monkeypatch.setattr(bmod, "_EVEN", [(1, 1)])
        monkeypatch.setattr(bmod, "_SEIDEL", [])
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
    assert digest(verify_all("quick")) == pinned("quick")


def test_extended_report_digest_is_pinned():
    # the integer congruence, square-factor and min/max kernels run on
    # the extended grid far past the quick one; about 1 s in-process
    assert digest(verify_all("extended")) == pinned("extended")


def test_extended_report_digest_is_pinned_in_parallel(monkeypatch):
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 3)
    assert digest(verify_all("extended", jobs=2)) == pinned("extended")
    assert digest(verify_all("extended", jobs=3)) == pinned("extended")


def test_profile_reports_match_the_schema():
    # every profile's report, wall time included, against the schema that
    # `--help-schema` prints; jsonschema is in the `test` extra
    import jsonschema

    assert list(PROFILES) == ["quick", "standard", "extended"]
    for profile in PROFILES:
        jsonschema.validate(verify_all(profile), sweeps.REPORT_SCHEMA)


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
    assert digest(d) == pinned("perturbed-quick")


def test_counterexample_text_is_pinned(monkeypatch):
    perturb_sums(monkeypatch)
    _assert_pinned_failures(verify_all("quick"))


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="workers see the perturbed sums only when forked")
def test_counterexample_text_is_pinned_in_parallel(monkeypatch):
    # counterexamples from both workers' slices merge in the serial order
    perturb_sums(monkeypatch)
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 2)
    _assert_pinned_failures(verify_all("quick", jobs=2))


def test_extended_builds_each_closed_form_once(monkeypatch):
    # faulhaber-naive, telescoping, gcd-ladder and trivial-gcd-iff share
    # one column of closed forms per k: 48 k times m = 1..301 (14,448),
    # plus 160 for the witnesses: 80 `gcd_ratio` calls of special-values
    # and min-max, two sums each, and 40 for the crossover certificates
    # (c - 1 and c at 20 k). Every closed form is a point of `power_sums`;
    # `power_sum` is its one-point case.
    real = powersum.power_sums
    calls = []

    def counted(k, ms):
        ms = list(ms)
        calls.extend((k, m) for m in ms)
        return real(k, ms)

    monkeypatch.setattr(powersum, "power_sums", counted)
    assert digest(verify_all("extended")) == pinned("extended")
    assert len(calls) == 14_648


_M_CELL_CHECKS = ("faulhaber-naive", "telescoping", "gcd-ladder",
                  "congruences", "divisibility-equivalence",
                  "trivial-gcd-iff")


def _tasks(specs: list[GridSpec]) -> list[tuple[str, int, GridSpec]]:
    """The rows of `specs` in the order `run_grids` lists them."""
    return [(c, k, spec) for c in CHECK_ORDER for spec in specs
            if c in spec.checks for k in _rows_for(c, spec)]


def test_parallel_extended_builds_each_column_and_tree_once(monkeypatch):
    # a worker runs whole units, all rows of one k or all survey rows, so
    # at 2 workers the closed forms are still 14,648 points (see
    # test_extended_builds_each_closed_form_once) and the survey's
    # primorial gcds are taken once, over the survey's 121 numerators > 1
    # however far the table reaches (here k = 1000, as after a warm cache)
    primes = importlib.import_module("moser_ladder._primes")
    real_sums, real_gcds = powersum.power_sums, primes.primorial_gcds
    points, surveys = [], []

    def counted_sums(k, ms):
        ms = list(ms)
        points.extend((k, m) for m in ms)
        return real_sums(k, ms)

    def counted_gcds(ns, bound):  # the survey's calls, not one-number ones
        if sys._getframe(1).f_code.co_name == "numerator_survey":
            surveys.append(len(ns))
        return real_gcds(ns, bound)

    monkeypatch.setattr(powersum, "power_sums", counted_sums)
    monkeypatch.setattr(primes, "primorial_gcds", counted_gcds)
    specs = PROFILES["extended"]
    sweeps.bernoulli(max(1000, max_bernoulli_index(specs)))
    tasks = _tasks(specs)
    slices = sweeps._slices(tasks, sweeps._units(tasks), 2)
    for at in slices:
        sweeps._run_slice([tasks[i] for i in at])
    assert len(points) == 14_648
    assert surveys == [121]
    assert sorted(i for at in slices for i in at) == list(range(len(tasks)))
    where: dict = {}
    for n, at in enumerate(slices):
        for i in at:
            check, k, _ = tasks[i]
            unit = "survey" if check == "numerator-scan" else k
            where.setdefault(unit, set()).add(n)
    assert all(len(slice_of) == 1 for slice_of in where.values())


_SURVEY = GridSpec(k_min=2, k_max=60, m_max=1, checks=("numerator-scan",))
_STRUCTURE = GridSpec(k_min=2, k_max=400, m_max=1,
                      checks=("bernoulli-structure",))
# grids whose rows interleave by k in a slice, each set with the shared
# builds one slice of it makes at --jobs 1
_OVERLAPS = {
    "surveys-60-50": ([_SURVEY, _SURVEY._replace(k_max=50)], {"survey": 2}),
    "surveys-60-50-40": ([_SURVEY, _SURVEY._replace(k_max=50),
                          _SURVEY._replace(k_max=40)], {"survey": 3}),
    "surveys-two-bounds": ([_SURVEY, _SURVEY._replace(k_max=50,
                                                      trial_bound=1000)],
                           {"survey": 2}),
    "structure-400-300": ([_STRUCTURE, _STRUCTURE._replace(k_max=300)],
                          {"vsc": 2}),
    # the grids of test_grids_sharing_k_but_not_m_range_sweep_as_if_alone
    "m-ranges": ([GridSpec(k_max=8, m_max=40),
                  GridSpec(k_max=8, m_min=5, m_max=60)],
                 {"survey": 1, "vsc": 1, "column": 16, "factor lists": 2}),
}


def _shared_builds(tasks: list[tuple[str, int, GridSpec]]) -> Counter:
    """One build of the survey, the von Staudt-Clausen table, the
    closed-form column and the factor lists for each value of the
    arguments that the rows of `tasks` pass them."""
    need = set()
    for check, k, spec in tasks:
        if check == "numerator-scan":
            need.add(("survey", (_rows_for(check, spec), spec.trial_bound)))
        elif check == "bernoulli-structure":
            need.add(("vsc", (spec.k_max,)))
        elif check == "congruences":
            need.add(("factor lists", (spec.m_max,)))
        elif check in ("faulhaber-naive", "telescoping", "gcd-ladder",
                       "trivial-gcd-iff"):
            need.add(("column", (k, range(spec.m_min, spec.m_max + 2))))
    return Counter(need)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("specs, totals", list(_OVERLAPS.values()),
                         ids=list(_OVERLAPS))
def test_overlapping_grids_build_each_shared_list_once_per_slice(
        monkeypatch, specs, totals, jobs):
    # a slice runs the rows of all its grids in k order, so rows of grids
    # with other k_max, trial bounds or m ranges alternate; each shared
    # builder keeps a result for each value of its arguments other than k,
    # so it builds each once per slice (where one result per builder was
    # kept, the surveys to 60 and 50 ran 51 surveys, the structure grids
    # built 301 tables, and the two m ranges 48 closed-form columns, 16 of
    # them distinct, and factor lists with 400 factorize calls for 100 m).
    # Each slice of a --jobs 2 split is run here, not only the parent's.
    built = []

    def counted(name, real):
        def run(*args):
            built.append((name, args))
            return real(*args)
        return run

    real_sums = powersum.power_sums

    def sums(k, ms):
        if isinstance(ms, range):  # only `_closed_forms` passes a range
            built.append(("column", (k, ms)))
        return real_sums(k, ms)

    monkeypatch.setattr(sweeps, "numerator_survey",
                        counted("survey", sweeps.numerator_survey))
    monkeypatch.setattr(sweeps, "_vsc_prime_table",
                        counted("vsc", sweeps._vsc_prime_table))
    monkeypatch.setattr(sweeps, "_factor_lists",
                        counted("factor lists", sweeps._factor_lists))
    monkeypatch.setattr(powersum, "power_sums", sums)
    tasks = _tasks(specs)
    slices = sweeps._slices(tasks, sweeps._units(tasks), jobs)
    assert len(slices) == jobs
    for at in slices:
        built.clear()
        rows = sweeps._run_slice([tasks[i] for i in at])
        assert all(row.fails == 0 for row in rows)
        assert Counter(built) == _shared_builds([tasks[i] for i in at])
        if jobs == 1:
            assert Counter(name for name, _ in built) == totals
    assert powersum._SLICE is None


def test_heaviest_slice_comes_first():
    # the parent runs slice 0 itself, so it takes the largest share
    for profile in ("quick", "standard", "extended"):
        tasks = _tasks(PROFILES[profile])
        for workers in (2, 3):
            slices = sweeps._slices(tasks, sweeps._units(tasks), workers)
            loads = [sum(sweeps._weight(sweeps._CHECKS[c], k, spec)
                         for c, k, spec in map(tasks.__getitem__, at))
                     for at in slices]
            assert loads == sorted(loads, reverse=True), (profile, workers)


def test_a_row_with_tables_over_m_weighs_its_m_max():
    # min-max scans 2 <= m <= m_max and builds its sums from m = 1 whatever
    # the grid's m_min, so a window of 11 m weighs the whole prefix
    check = sweeps._CHECKS["min-max"]
    window = GridSpec(k_min=12, k_max=12, m_min=290, m_max=300,
                      checks=("min-max",))
    assert sweeps._weight(check, 12, window) == sweeps._weight(
        check, 12, window._replace(m_min=1)) == 300 * (12 + 8)


def test_column_is_gone_after_a_slice(monkeypatch):
    spec = GridSpec(k_min=2, k_max=6, m_max=30, checks=_M_CELL_CHECKS)
    tasks = [(c, k, spec) for c in spec.checks for k in _rows_for(c, spec)]
    assert powersum._SLICE is None
    rows = sweeps._run_slice(tasks)
    assert powersum._SLICE is None
    assert [(r.check, r.k) for r in rows] == [(c, k) for c, k, _ in tasks]
    # also when a row raises; until then the slice keeps what the rows
    # before it built
    seen = []

    def broken(k, spec):
        seen.append(powersum._SLICE)
        raise RuntimeError("row failed")

    monkeypatch.setitem(sweeps._ROW_RUNNERS, "trivial-gcd-iff", broken)
    with pytest.raises(RuntimeError, match="row failed"):
        sweeps._run_slice(tasks)
    assert isinstance(seen[0], dict) and seen[0]
    assert powersum._SLICE is None


def test_nothing_sized_by_m_max_survives_a_sweep():
    # the lists a slice shares (sums, gcds, factor lists, m^k tables, the
    # Faulhaber coefficients, the survey) live only while it runs: a second
    # `extended` sweep, once the first has filled the caches that persist
    # (Bernoulli table, sieve, primorial), leaves no memory behind; nor
    # does a survey to k = 250 after one to k = 10 at the same bound,
    # where a memo of survey gcds would grow from 5 entries to 125
    survey = GridSpec(k_min=2, k_max=250, m_max=1, trial_bound=77_777,
                      checks=("numerator-scan",))
    primorial(survey.trial_bound)
    sweeps.bernoulli(250)
    verify_all("extended")
    run_sweep(survey._replace(k_max=10))
    assert powersum._SLICE is None
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_sweep(survey)
        gc.collect()
        survey_left = tracemalloc.get_traced_memory()[0] - before
        verify_all("extended")
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one m^k table of `extended` alone holds some 10^5 bytes, and 125
    # survey gcds in a list some 3,300
    assert left < 4096
    assert survey_left < 1024
    assert powersum._SLICE is None


def test_the_faulhaber_memo_keeps_one_k():
    # rows run k by k and no caller reads an old k again, so a slice keeps
    # one k's coefficients, and they go when it ends: a sweep to k = 200
    # after one to k = 20 leaves nothing, where the coefficients of
    # k = 200 hold some 13 kB and a memo of every k would keep 0.87 MB
    spec = GridSpec(k_max=20, m_max=10, checks=("faulhaber-naive",))
    sweeps.bernoulli(200)
    run_sweep(spec)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_sweep(spec._replace(k_max=200))
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024
    assert left < 1024
    assert powersum._SLICE is None


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
    assert digest(verify_all("quick")) == pinned("quick")


def test_direct_row_after_a_perturbed_sweep_reads_true_sums(monkeypatch):
    spec = GridSpec(k_min=2, k_max=12, m_max=100, checks=_M_CELL_CHECKS)
    with monkeypatch.context() as patch:
        perturb_sums(patch)
        assert run_sweep(spec)["totals"]["fail"] > 0
    for check in _M_CELL_CHECKS:
        for k in _rows_for(check, spec):
            row = sweeps._ROW_RUNNERS[check](k, spec)
            assert (row.fails, row.counterexamples) == (0, []), (check, k)


def test_repeat_runs_identical():
    assert canonical(verify_all("quick")) == canonical(verify_all("quick"))


def test_job_count_does_not_change_report():
    assert canonical(verify_all("quick", jobs=1)) == canonical(
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
    assert canonical(parallel) == canonical(verify_all("quick", jobs=1))
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
    assert canonical(reports[2]) == canonical(reports[1])
    assert canonical(reports[3]) == canonical(reports[1])


@pytest.mark.parametrize("perturbed", [False, True])
def test_grids_sharing_k_but_not_m_range_sweep_as_if_alone(monkeypatch,
                                                           perturbed):
    # a slice keeps each shared list by its arguments: the rows of one k
    # of two grids with other m ranges alternate in a slice and rebuild
    # each other's lists, and each grid's checks still report what the
    # grid swept alone reports; perturbed sums give failing cells
    if perturbed:
        perturb_sums(monkeypatch)
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 2)
    specs = [GridSpec(k_max=8, m_max=40),
             GridSpec(k_max=8, m_min=5, m_max=60)]
    alone = [run_sweep(spec)["checks"] for spec in specs]
    assert any(c["counterexamples"] for c in alone[1]) == perturbed
    for jobs in (1, 2):
        both = run_grids(specs, None, jobs)["checks"]
        assert both[0::2] == alone[0], jobs
        assert both[1::2] == alone[1], jobs


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
    assert canonical(verify_all("quick", jobs=2)) == canonical(
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


def test_survey_bound_binds_only_grids_that_run_the_survey():
    with pytest.raises(ValueError, match="survey index must be <= 1500"):
        GridSpec(k_max=1502, m_max=1, checks=("numerator-scan",)).validate()
    GridSpec(k_max=1502, m_max=1,
             checks=("bernoulli-structure", "size-bounds")).validate()


def test_min_max_rows_widen_window():
    # both witnesses are evaluated even when the grid's m_max is far below
    # them
    spec = GridSpec(k_min=12, k_max=12, m_max=10, checks=("min-max",))
    d = run_sweep(spec)
    assert d["totals"]["fail"] == 0
    hit = d["checks"][0]["hits"][0]
    assert hit["min_witness"] == "2730"
    assert hit["max_witness"] == "691"


def test_tables_over_m_stop_at_the_grid_m_max(monkeypatch):
    # GridSpec.validate bounds these tables by the grid's m_max, so no
    # row may build one past it, min-max's prefix included
    real = powersum._powers
    bounds = set()

    def recorded(k, m_max):
        bounds.add(m_max)
        return real(k, m_max)

    monkeypatch.setattr(powersum, "_powers", recorded)
    checks = tuple(c for c, e in sweeps._CHECKS.items() if e.tables_m)
    assert "min-max" in checks
    report = run_sweep(GridSpec(k_min=2, k_max=12, m_max=50, checks=checks))
    assert report["totals"]["fail"] == 0
    assert bounds == {50}


def test_min_max_row_without_a_certificate_asserts_the_minimum_and_prefix():
    # 7^2 divides N_98, below the default trial bound: the two minimum
    # cells still run, and so does the prefix's closed form, gated off
    # m = 7; the three that speak of every m are inapplicable
    spec = GridSpec(k_min=98, k_max=98, m_max=10, checks=("min-max",))
    [check] = run_sweep(spec)["checks"]
    assert (check["pass"], check["fail"], check["inapplicable"]) == (3, 0, 3)
    assert [hit["certified"] for hit in check["hits"]] == [False]


def test_observational_checks_never_fail():
    spec = GridSpec(k_min=1, k_max=6, m_max=50,
                    checks=("ratio-search", "em-scan", "crossover-bracket",
                            "numerator-scan"))
    report = run_sweep(spec)
    assert report["totals"]["fail"] == 0


def test_a_search_fails_the_cell_of_each_wrong_or_missing_hit(
        monkeypatch):
    # each scanned m is one cell: a hit other than (1, 3) for em-scan, or
    # (1, 3, 2) and (3, 3, 4) for ratio-search, fails the cell of its m,
    # and so does a known hit on the grid that the scan misses
    real = powersum.em_solutions
    monkeypatch.setattr(powersum, "em_solutions", lambda k, lo, hi: [
        *real(k, lo, hi), *([5] if k == 4 else [])])
    monkeypatch.setattr(powersum, "ratio_hits", lambda k, lo, hi: iter(()))
    ratio, em = run_sweep(GridSpec(
        k_max=4, m_max=10, checks=("ratio-search", "em-scan")))["checks"]
    assert (ratio["pass"], ratio["fail"], ratio["hits"]) == (4 * 8 - 2, 2, [])
    assert [(c["k"], c["m"], c["observed"], c["predicted"])
            for c in ratio["counterexamples"]] == [
        (1, 3, "no hit", "{'k': 1, 'm': 3, 'quotient': '2'}"),
        (3, 3, "no hit", "{'k': 3, 'm': 3, 'quotient': '4'}")]
    assert (em["pass"], em["fail"]) == (4 * 9 - 1, 1)
    assert em["counterexamples"] == [{
        "check": "em-scan", "k": 4, "m": 5,
        "observed": "{'k': 4, 'm': 5}", "predicted": "no hit"}]


@pytest.mark.parametrize("shift", (-1, 1))
def test_a_crossover_one_m_off_fails_its_certificate(monkeypatch, shift):
    # S_k(c - 1) < (c - 1)^k and S_k(c) >= c^k, from the closed form, hold
    # at the true crossover c alone
    real = powersum.crossover
    monkeypatch.setattr(powersum, "crossover", lambda k: real(k) + shift)
    [check] = run_sweep(GridSpec(k_min=2, k_max=6, m_max=1,
                                 checks=("crossover-bracket",)))["checks"]
    assert (check["pass"], check["fail"]) == (0, 3)
    assert [c["cell"] for c in check["counterexamples"]] == ["certificate"] * 3


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
    primes = importlib.import_module("moser_ladder._primes")
    calls = []
    is_prime = primes.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(primes, "is_prime", counted)
    grid = PROFILES["extended"][-1]
    assert grid.checks == ("numerator-scan",)
    report = run_sweep(grid)
    assert report["checks"][0]["rows"] == 125
    assert len(calls) == 22


def test_structure_rows_read_one_vsc_table(monkeypatch):
    # the bernoulli-structure rows of a slice take D_k's von Staudt-Clausen
    # product from one table to the grid's k_max, not one table per row
    bmod = importlib.import_module("moser_ladder.bernoulli")
    tops = []
    table = bmod._vsc_prime_table

    def counted(top):
        tops.append(top)
        return table(top)

    monkeypatch.setattr(bmod, "_vsc_prime_table", counted)
    monkeypatch.setattr(sweeps, "_vsc_prime_table", counted, raising=False)
    report = run_sweep(GridSpec(k_min=2, k_max=400, m_max=1,
                                checks=("bernoulli-structure",)), jobs=1)
    assert report["checks"][0]["rows"] == 200
    assert report["totals"]["fail"] == 0
    assert tops == [400]
    assert powersum._SLICE is None
