"""CLI surface: formats, exit codes, stream separation."""

import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import moser_ladder
from moser_ladder import cache as cachemod
from moser_ladder import cli, sweeps
from moser_ladder.bernoulli import bernoulli
from pins import canonical


SRC = str(Path(moser_ladder.__file__).resolve().parents[1])


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "moser_ladder.cli", *args],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), **kwargs,
    )


def test_bern_plain():
    out = run_cli("bern", "2", "--seedless")
    assert out.returncode == 0
    assert out.stdout == "1/6\n"
    assert out.stderr == ""


def test_bern_negative_value():
    out = run_cli("bern", "4", "--seedless")
    assert out.stdout == "-1/30\n"


def test_bern_odd_index():
    out = run_cli("bern", "7", "--seedless")
    assert out.stdout == "0\n"


def test_bern_json():
    out = run_cli("bern", "12", "--format", "json", "--seedless")
    data = json.loads(out.stdout)
    assert data == {"k": 12, "numerator": "-691", "denominator": "2730",
                    "value": "-691/2730"}


def test_bern_csv():
    out = run_cli("bern", "2", "--format", "csv", "--seedless")
    assert out.stdout == "k,numerator,denominator\n2,1,6\n"


def test_powersum_closed_and_naive_agree():
    closed = run_cli("powersum", "10", "5", "--seedless")
    naive = run_cli("powersum", "10", "5", "--naive")
    assert closed.stdout == naive.stdout == "1108650\n"


def test_gk_plain():
    out = run_cli("gk", "10", "5", "--seedless")
    assert out.returncode == 0
    assert out.stdout == "5\n"


def test_gk_fraction_rendering():
    out = run_cli("gk", "2", "6", "--seedless")
    assert out.stdout == "1/6\n"


def test_ladder_marks_m4_no_formula():
    out = run_cli("ladder", "10", "5", "--seedless")
    assert out.returncode == 0
    assert "no formula" in out.stdout
    assert "m^4" in out.stdout
    assert "residual" in out.stdout


def test_ladder_csv_shape():
    out = run_cli("ladder", "10", "5", "--format", "csv", "--seedless")
    lines = out.stdout.splitlines()
    assert lines[0] == "rung,observed,predicted"
    assert lines[1] == "m,5,5"
    assert lines[4] == "m^4,25,no formula"


def test_search_ratio_json():
    out = run_cli("search", "ratio", "--kmax", "3", "--mmax", "10",
                  "--format", "json", "--seedless")
    data = json.loads(out.stdout)
    assert data["hits"] == [
        {"k": 1, "m": 3, "quotient": "2"},
        {"k": 3, "m": 3, "quotient": "4"},
    ]


def test_search_em_csv_header():
    out = run_cli("search", "em", "--kmax", "5", "--mmax", "50",
                  "--format", "csv", "--seedless")
    assert out.stdout == "k,m\n1,3\n"


def test_scan_numerators_plain():
    out = run_cli("scan", "numerators", "--kmax", "12", "--seedless")
    assert out.returncode == 0
    assert "k=10" in out.stdout and "prime=yes" in out.stdout


def _count_survey_blocks(monkeypatch) -> list[int]:
    """Record how many numbers each `primorial_gcds` call of
    `numerator_survey` takes from here on; the square-factor searches of
    single numbers call it too, with one number each."""
    primes = importlib.import_module("moser_ladder._primes")
    real = primes.primorial_gcds
    blocks = []

    def counted(ns, bound):
        if sys._getframe(1).f_code.co_name == "numerator_survey":
            blocks.append(len(ns))
        return real(ns, bound)

    monkeypatch.setattr(primes, "primorial_gcds", counted)
    return blocks


def test_scan_builds_one_survey_tree_on_a_fresh_table(monkeypatch, capsys):
    # the survey grows the table to --kmax, so the numerators to k = 250
    # share one primorial_gcds call, not one call each: the 121 of the 125
    # with |N_k| > 1 (|N_k| = 1 at k = 2, 4, 6 and 8 needs no gcd)
    bmod = importlib.import_module("moser_ladder.bernoulli")
    argv = ["scan", "numerators", "--kmax", "250", "--trial-bound", "100000",
            "--format", "json", "--seedless"]
    assert cli.main(argv) == 0
    warm = capsys.readouterr().out
    blocks = _count_survey_blocks(monkeypatch)
    monkeypatch.setattr(bmod, "_EVEN", [(1, 1)])
    monkeypatch.setattr(bmod, "_SEIDEL", [])
    assert cli.main(argv) == 0
    assert blocks == [121]
    assert capsys.readouterr().out == warm


def test_survey_block_stops_at_its_top_after_a_warm_load(
        tmp_path, monkeypatch, capsys):
    # a k <= 1000 cache seeds the memo far past the survey's k = 250; the
    # survey still takes one block of its own 121 numerators > 1, not
    # every numerator of the memo that fits the primorial's bits
    cache = tmp_path / "bern.cache"
    cachemod.cache_store(cachemod.snapshot_bernoulli(1000), cache)
    blocks = _count_survey_blocks(monkeypatch)
    assert cli.main(["verify", "extended", "--cache", str(cache)]) == 0
    assert "result: OK" in capsys.readouterr().out
    assert blocks == [121]


def test_scan_and_the_sweep_share_one_survey(capsys):
    # `scan` only formats `numerator_survey`: its records are the
    # `numerator-scan` hits of a sweep over the same k, also when the
    # sweep's blocks start at a later first k
    assert cli.main(["scan", "numerators", "--kmax", "250", "--trial-bound",
                     "100000", "--format", "json", "--seedless"]) == 0
    scanned = json.loads(capsys.readouterr().out)["numerators"]
    [survey] = [c for c in sweeps.verify_all("extended")["checks"]
                if c["name"] == "numerator-scan"]
    assert scanned == survey["hits"]
    assert cli.main(["scan", "numerators", "--kmax", "120", "--trial-bound",
                     "1000", "--format", "json", "--seedless"]) == 0
    scanned = json.loads(capsys.readouterr().out)["numerators"]
    [survey] = sweeps.run_sweep(sweeps.GridSpec(
        k_min=60, k_max=120, m_max=1, checks=("numerator-scan",),
        trial_bound=1000))["checks"]
    assert survey["hits"] == [r for r in scanned if r["k"] >= 60]


def test_survey_of_unit_numerators_builds_no_primorial(monkeypatch, capsys):
    # |N_k| = 1 for every even k <= 8: no gcd to take, so no primorial of
    # 10^6 (and no sieve of it) is built
    calls = []
    for name, module in list(sys.modules.items()):
        real = getattr(module, "primorial", None)
        if name.startswith("moser_ladder") and callable(real):
            monkeypatch.setattr(module, "primorial",
                                lambda n, real=real: calls.append(n) or real(n))
    assert cli.main(["scan", "numerators", "--kmax", "8", "--trial-bound",
                     "1000000", "--seedless"]) == 0
    assert capsys.readouterr().out.count("square-factor=none below") == 4
    assert calls == []


def test_verify_quick_exits_zero():
    out = run_cli("verify", "quick", "--seedless")
    assert out.returncode == 0
    assert "result: OK" in out.stdout


def test_verify_grid_json():
    out = run_cli("verify", "--grid", "2-6:30",
                  "--checks", "gcd-ladder", "--format", "json", "--seedless")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["profile"] is None
    assert data["totals"]["fail"] == 0


def test_min_max_prefix_passes_past_a_square_prime_above_the_bound():
    # 103^2 | N_228: a trial bound of 100 misses it, so the row stays
    # certified, but the prefix's closed form is gated on the primes
    # p <= m_max with p^2 | N and skips m = 103 instead of failing there
    out = run_cli("verify", "--grid", "228-228:103", "--checks", "min-max",
                  "--trial-bound", "100", "--seedless")
    assert out.returncode == 0
    assert "result: OK" in out.stdout
    assert re.search(r"^min-max +pass 6 +fail 0 +inapplicable 0 ",
                     out.stdout, re.M)


def test_usage_error_non_integer():
    out = run_cli("bern", "six", "--seedless")
    assert out.returncode == 2
    assert out.stdout == ""


def test_usage_error_domain():
    # the library's ValueError text, as the CLI prints it
    for argv, message in (
            (["gk", "3", "5"], "gcd_ratio needs even k >= 2, got 3"),
            (["ladder", "10", "1"], "gcd_ladder needs m >= 2, got 1"),
            (["search", "ratio", "--kmax", "0", "--mmax", "5"],
             "search_ratio needs k_max >= 1, m_max >= 3")):
        out = run_cli(*argv, "--seedless")
        assert (out.returncode, out.stdout) == (2, ""), argv
        assert out.stderr == f"error: {message}\n", argv


def test_usage_error_no_command():
    out = run_cli()
    assert out.returncode == 2
    assert out.stdout == ""


def test_usage_error_verify_needs_one_mode():
    out = run_cli("verify", "--seedless")
    assert out.returncode == 2
    out = run_cli("verify", "quick", "--grid", "2:5", "--seedless")
    assert out.returncode == 2
    out = run_cli("verify", "quick", "--jobs", "0", "--seedless")
    assert out.returncode == 2
    # --checks and --trial-bound shape a --grid; a profile rejects them,
    # an empty check name is an unknown check, shown quoted, and a bad
    # trial bound is bad whatever the checks
    for argv in (["quick", "--checks", "gcd-ladder"],
                 ["quick", "--trial-bound", "1"],
                 ["quick", "--trial-bound", "10000"],
                 ["--grid", "2-6:20", "--checks", ""],
                 ["--grid", "2-6:20", "--checks", "gcd-ladder,,min-max"],
                 ["--grid", "2-6:20", "--trial-bound", "0"],
                 ["--grid", "2-6:20", "--checks", "gcd-ladder",
                  "--trial-bound", "0"],
                 ["--grid", "12"],
                 ["--grid", "2-x:5"],
                 ["--grid", "2-6:y"]):
        out = run_cli("verify", *argv, "--seedless")
        assert (out.returncode, out.stdout) == (2, ""), argv
        assert out.stderr.startswith("error: "), argv
        if argv[0] == "--grid" and "--trial-bound" in argv:
            assert out.stderr == ("error: trial_bound must be >= 2, "
                                  "got 0\n"), argv
        elif argv[0] == "--grid" and "--checks" in argv:
            assert out.stderr == "error: unknown checks: ''\n", argv


def test_trial_bound_below_2_runs_no_row(monkeypatch, capsys):
    calls = []

    def counted(runner):
        def row(k, spec):
            calls.append(k)
            return runner(k, spec)
        return row

    for check, runner in list(sweeps._ROW_RUNNERS.items()):
        monkeypatch.setitem(sweeps._ROW_RUNNERS, check, counted(runner))

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    def no_sieve(n):
        raise AssertionError("a prime sieve was built")

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", no_pool)
    primes = importlib.import_module("moser_ladder._primes")
    monkeypatch.setattr(primes, "primorial", no_sieve)
    monkeypatch.setattr(primes, "primes_up_to", no_sieve)
    for bound, text in (("1", ">= 2, got 1"),
                        ("1000001", "<= 1000000, got 1000001")):
        error = f"error: trial_bound must be {text}\n"
        for jobs in ("1", "2"):
            assert cli.main(["verify", "--grid", "2-12:100", "--trial-bound",
                             bound, "--seedless", "--jobs", jobs]) == 2
            assert capsys.readouterr() == ("", error)
        assert calls == []
        # the numerator survey rejects it with the same text, also when
        # --kmax 1 leaves it no row
        for kmax in ("4", "1"):
            assert cli.main(["scan", "numerators", "--kmax", kmax,
                             "--trial-bound", bound, "--seedless"]) == 2
            assert capsys.readouterr() == ("", error)


def test_m_bound_runs_no_row(monkeypatch, capsys):
    # every check that tables m rejects an m_max past powersum.MAX_M as a
    # usage error before any row runs; the searches and the k-only checks
    # build no table over m and take any m_max
    def no_row(k, spec):
        raise AssertionError("a row ran")

    for check, entry in sweeps._CHECKS.items():
        if entry.tables_m:
            monkeypatch.setitem(sweeps._ROW_RUNNERS, check, no_row)
    tables_m = [c for c, entry in sweeps._CHECKS.items() if entry.tables_m]
    assert len(tables_m) == 8
    for check in tables_m:
        assert cli.main(["verify", "--grid", "2-2:1000000000", "--checks",
                         check, "--seedless"]) == 2, check
        assert capsys.readouterr() == ("", "error: a table over m needs "
                                       "1 <= m_max <= 100000, got "
                                       "1000000000\n"), check
    assert cli.main(["verify", "--grid", "1-400:1000000000000", "--checks",
                     "ratio-search,em-scan", "--seedless"]) == 0
    assert capsys.readouterr().out.endswith("result: OK\n")


@pytest.mark.parametrize("argv", [
    ["bern", "10002"],
    ["bern", "10001"],
    ["powersum", "10002", "5"],
    ["gk", "10002", "5"],
    ["ladder", "10002", "5"],
    ["scan", "numerators", "--kmax", "10002"],
    ["verify", "--grid", "10002:10"],
    # its rows read B_k at even k <= 10^4 only; the grid is refused whole
    ["verify", "--grid", "10001:10", "--checks", "bernoulli-structure",
     "--jobs", "2"],
    # the searches read no B_k, but each of their walks takes m^k afresh
    # to the crossover, so crossover-bracket's bound binds them too
    ["search", "ratio", "--kmax", "10001", "--mmax", "3"],
    ["search", "em", "--kmax", "10002", "--mmax", "3"],
    ["verify", "--grid", "10002:10", "--checks", "ratio-search,em-scan"],
    ["verify", "--grid", "10001:3", "--checks", "s1-s3-identity"],
], ids=" ".join)
def test_index_past_max_k_is_a_usage_error(argv, monkeypatch, capsys):
    # B_k past bernoulli.MAX_K = 10^4 is refused before the table grows,
    # and a search's k before the first walk: exit 2, one error line,
    # nothing on stdout, well within a second
    bmod = importlib.import_module("moser_ladder.bernoulli")

    def no_growth(*args):
        raise AssertionError("the Bernoulli table grew or a walk ran")

    monkeypatch.setattr(bmod, "_extend_even", no_growth)
    monkeypatch.setattr(cli.ps, "_walk", no_growth)
    t0 = time.perf_counter()
    assert cli.main([*argv, "--seedless"]) == 2
    assert time.perf_counter() - t0 < 1
    k = next(a for a in argv if a.startswith("1000")).partition(":")[0]
    assert capsys.readouterr() == (
        "", f"error: Bernoulli index must be <= 10000, got {k}\n")


@pytest.mark.parametrize("argv", [
    ["scan", "numerators", "--kmax", "1502"],
    ["verify", "--grid", "2-1502:1", "--checks", "numerator-scan"],
    ["verify", "--grid", "1502:10", "--jobs", "2"],
], ids=" ".join)
def test_survey_past_max_survey_k_is_a_usage_error(argv, monkeypatch,
                                                   capsys):
    # the numerator survey runs Miller-Rabin on |N_k| itself, so it stops
    # at bernoulli.MAX_SURVEY_K = 1500, well below MAX_K: exit 2, one error
    # line, nothing on stdout, before the table grows
    bmod = importlib.import_module("moser_ladder.bernoulli")
    assert bmod.MAX_SURVEY_K + 2 == 1502

    def no_growth(half):
        raise AssertionError("the Bernoulli table grew")

    monkeypatch.setattr(bmod, "_extend_even", no_growth)
    t0 = time.perf_counter()
    assert cli.main([*argv, "--seedless"]) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr() == (
        "", "error: numerator survey index must be <= 1500, got 1502\n")


def test_past_max_k_what_reads_no_bernoulli_number_runs(capsys):
    # the naive power sum reads no B_k, so MAX_K does not bound it; the
    # searches read none either, and run to MAX_K, the bound of the walks
    # of m^k (see test_index_past_max_k_is_a_usage_error)
    assert cli.main(["powersum", "10002", "3", "--naive", "--seedless"]) == 0
    assert capsys.readouterr().out == f"{1 + 2**10002}\n"
    assert cli.main(["verify", "--grid", "10000-10000:10", "--checks",
                     "ratio-search,em-scan", "--seedless"]) == 0
    assert capsys.readouterr().out.endswith("result: OK\n")


@pytest.mark.parametrize("argv", [
    ["gk", "1000", "5"],
    ["ladder", "1000", "5"],
    ["powersum", "1000", "50"],
], ids=" ".join)
def test_a_query_builds_the_faulhaber_coefficients_once(argv, monkeypatch,
                                                        capsys):
    # nothing keeps the coefficients of k outside a sweep slice, so g(m)
    # and the ladder take S_k(m) and S_k(m+1) from one `power_sums` call;
    # a second build would cost some 20 ms at k = 1000
    real = cli.ps._faulhaber_coeffs
    built = []

    def counted(k):
        built.append(k)
        return real(k)

    monkeypatch.setattr(cli.ps, "_faulhaber_coeffs", counted)
    assert cli.main([*argv, "--seedless"]) == 0
    assert capsys.readouterr().err == ""
    assert built == [1000]


def test_io_error_corrupt_cache(tmp_path):
    bad = tmp_path / "bad.cache"
    bad.write_bytes(b"not a cache file")
    out = run_cli("bern", "2", "--cache", str(bad))
    assert out.returncode == 3
    assert out.stdout == ""
    assert "error" in out.stderr


@pytest.mark.parametrize("argv, answer", [
    (["bern", "12"], "-691/2730\n"),
    (["powersum", "5", "7"], "12201\n"),
    (["gk", "10", "5"], "5\n"),
    (["ladder", "10", "5", "--format", "csv"], "rung,observed,predicted\n"),
    (["scan", "numerators", "--kmax", "4"], "k=2 digits=1 prime=no "),
])
def test_query_survives_an_unwritable_cache(tmp_path, capsys, argv, answer):
    # the cache's parent is a regular file, so the write after the answer
    # fails; the query warns on stderr and still exits 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main([*argv, "--cache", str(blocker / "bern.cache")]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(answer)
    assert err.startswith("warning: cache not written: ")
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == ""


def test_verify_survives_an_unwritable_cache(tmp_path, capsys):
    # the report is printed before the cache write, so a failed write
    # costs a warning, not the finished audit
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["verify", "quick", "--format", "json",
                     "--cache", str(blocker / "x.cache")]) == 0
    out, err = capsys.readouterr()
    assert cli.main(["verify", "quick", "--format", "json",
                     "--seedless"]) == 0
    seedless, _ = capsys.readouterr()
    assert canonical(json.loads(out)) == canonical(json.loads(seedless))
    assert err.startswith("warning: cache not written: ")
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == ""
    # a writable path still gets the table the sweep used
    cache = tmp_path / "bern.cache"
    assert cli.main(["verify", "quick", "--cache", str(cache)]) == 0
    assert capsys.readouterr().err == ""
    entries = cachemod.cache_load(cache).entries
    assert sorted(entries) == list(range(2, 13, 2))


@pytest.mark.parametrize("argv, k_max", [
    (["bern", "7"], None),
    (["powersum", "9", "5"], 8),
    (["gk", "10", "5"], 10),
    (["ladder", "12", "5"], 12),
    (["scan", "numerators", "--kmax", "9"], 8),
    (["verify", "--grid", "1-30:50", "--checks", "ratio-search"], 2),
    (["verify", "quick"], 12),
    (["search", "em", "--kmax", "3", "--mmax", "10"], None),
    (["powersum", "9", "5", "--naive"], None),
    (["verify", "--grid", "2-30:1", "--checks", "crossover-bracket"], 30),
])
def test_cache_entries_per_command(tmp_path, capsys, argv, k_max):
    # each command leaves exactly the even prefix 2..k_max of the table,
    # in the v1 format; the commands that read no B_k leave no file
    cache = tmp_path / "bern.cache"
    assert cli.main([*argv, "--cache", str(cache)]) == 0
    assert capsys.readouterr().err == ""
    if k_max is None:
        assert not cache.exists()
        return
    assert sorted(cachemod.cache_load(cache).entries) == list(
        range(2, k_max + 1, 2))
    want = tmp_path / "want.cache"
    cachemod.cache_store(cachemod.snapshot_bernoulli(k_max), want)
    assert cache.read_bytes() == want.read_bytes()


def _cache_to(path: Path, k_max: int, skip: tuple = ()) -> bytes:
    """Write the v1 cache of the even k in 2..k_max, less `skip`, and
    return its bytes."""
    cachemod.cache_store(cachemod.CacheStore(
        {k: nd for k, nd in cachemod.snapshot_bernoulli(k_max).entries.items()
         if k not in skip}), path)
    return path.read_bytes()


def test_warm_query_writes_nothing(tmp_path, monkeypatch, capsys):
    # a cache that holds every entry the query used is read and checked,
    # never rewritten: no store call, same bytes, same mtime
    cache = tmp_path / "bern.cache"
    before = _cache_to(cache, 40)
    mtime = cache.stat().st_mtime_ns
    stores = []
    monkeypatch.setattr(cachemod, "cache_store",
                        lambda *args: stores.append(args))
    assert cli.main(["bern", "20", "--cache", str(cache)]) == 0
    assert capsys.readouterr() == ("-174611/330\n", "")
    assert stores == []
    assert cache.read_bytes() == before
    assert cache.stat().st_mtime_ns == mtime


@pytest.mark.parametrize("argv", [
    ["bern", "20"], ["gk", "10", "5"], ["verify", "quick"],
])
def test_warm_query_cannot_fail_on_a_write(tmp_path, monkeypatch, capsys,
                                           argv):
    # with nothing to write, a failing store is never reached: no warning
    cache = tmp_path / "bern.cache"
    _cache_to(cache, 40)

    def refuse(store, path):
        raise OSError("read-only file system")

    monkeypatch.setattr(cachemod, "cache_store", refuse)
    assert cli.main([*argv, "--cache", str(cache)]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


def test_cache_with_a_gap_is_rewritten(tmp_path, capsys):
    # only the gap-free prefix 2..10 seeds the memo, so a query at k = 20
    # still writes the full prefix 2..20
    cache = tmp_path / "bern.cache"
    _cache_to(cache, 20, skip=(12,))
    assert sorted(cachemod.cache_load(cache).entries) == [
        2, 4, 6, 8, 10, 14, 16, 18, 20]
    assert cli.main(["bern", "20", "--cache", str(cache)]) == 0
    assert capsys.readouterr() == ("-174611/330\n", "")
    assert cache.read_bytes() == _cache_to(tmp_path / "want.cache", 20)


def test_cache_is_extended_past_its_top(tmp_path, capsys):
    cache = tmp_path / "bern.cache"
    _cache_to(cache, 20)
    assert cli.main(["bern", "30", "--cache", str(cache)]) == 0
    assert capsys.readouterr() == ("8615841276005/14322\n", "")
    assert cache.read_bytes() == _cache_to(tmp_path / "want.cache", 30)


def test_seedless_and_cache_paths_agree(tmp_path, capsys):
    # a cold cache, a warm cache and no cache give the same report
    cache = str(tmp_path / "warm.cache")
    reports = []
    for flags in (["--cache", cache], ["--cache", cache], ["--seedless"]):
        assert cli.main(["verify", "quick", "--format", "json", *flags]) == 0
        reports.append(canonical(json.loads(capsys.readouterr().out)))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("argv", [
    ["bern", "12", "--jobs", "0"],
    ["powersum", "5", "7", "--jobs", "2"],
    ["search", "em", "--kmax", "3", "--mmax", "10", "--jobs", "1"],
    ["verify", "quick", "--prefix-limit", "100"],
])
def test_misplaced_or_removed_flags_are_usage_errors(argv):
    # --jobs belongs to verify alone; --prefix-limit is gone
    out = run_cli(*argv, "--seedless")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "unrecognized arguments" in out.stderr


def test_internal_fault_exits_4(monkeypatch, capsys):
    # a broken invariant (here a Faulhaber cancellation failure) is not a
    # usage error
    def broken(k, m):
        raise ArithmeticError(f"faulhaber cancellation failed at k={k}")

    monkeypatch.setattr(cli.ps, "power_sum", broken)
    assert cli.main(["powersum", "5", "7", "--seedless"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: faulhaber cancellation failed at k=5\n"


@pytest.mark.parametrize("exc, text", [
    (TypeError("unsupported operand"), "unsupported operand"),
    (MemoryError(), "MemoryError"),  # no message: the class names it
], ids=["TypeError", "MemoryError"])
def test_unexpected_exception_exits_4(monkeypatch, capsys, exc, text):
    # any exception the program does not expect is an internal fault, not
    # a traceback with exit 1 ("checks failed")
    def broken(k, ms):
        raise exc

    monkeypatch.setattr(cli.ps, "power_sums", broken)
    assert cli.main(["verify", "--grid", "2-4:10", "--checks", "telescoping",
                     "--seedless"]) == 4
    assert capsys.readouterr() == ("", f"internal error: {text}\n")


_REAL_PAIR = cli.ps.bernoulli_pair
_TEST_PID = os.getpid()


@pytest.mark.parametrize("module, name, fake, argv, text", [
    # gcd(S, m^k) one too large at k = 10, m = 5, so gcd(S, m^3) no
    # longer divides it and the ladder's nesting check trips
    ("gcdlab", "gcd", lambda a, b: math.gcd(a, b) + (b == 5**10),
     ["ladder", "10", "5"], "does not divide"),
    # B_3 = 1 breaks the Faulhaber coefficients' odd-index check
    ("ps", "bernoulli_pair", lambda j: (1, 1) if j == 3 else _REAL_PAIR(j),
     ["powersum", "5", "7"], "odd-index Bernoulli"),
    # the same fault in a forked worker only: the parent runs its own
    # slice cleanly, and the child's error must reach the exit code
    pytest.param(
        "ps", "bernoulli_pair",
        lambda j: ((1, 1) if j == 3 and os.getpid() != _TEST_PID
                   else _REAL_PAIR(j)),
        ["verify", "quick", "--jobs", "2"], "odd-index Bernoulli",
        marks=pytest.mark.skipif(not hasattr(os, "fork"),
                                 reason="workers are forked")),
], ids=["ladder-nesting", "faulhaber-odd-index", "faulhaber-odd-index-worker"])
def test_tripped_invariant_exits_4(monkeypatch, capsys, module, name, fake,
                                   argv, text):
    # an invariant check that trips is an internal fault, not a usage
    # error or an escaped traceback (exit 1, "checks failed")
    monkeypatch.setattr(getattr(cli, module), name, fake)
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 2)
    assert cli.main([*argv, "--seedless"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ") and text in err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_dead_sweep_worker_exits_4(monkeypatch, capsys):
    # a child that exits without sending its rows is an internal fault:
    # one stderr line and exit 4, not a traceback with exit 1 ("checks
    # failed")
    parent, real_slice = os.getpid(), sweeps._run_slice

    def run(tasks):
        if os.getpid() != parent:
            os._exit(1)
        return real_slice(tasks)

    monkeypatch.setattr(sweeps, "_run_slice", run)
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 2)
    assert cli.main(["verify", "quick", "--seedless", "--jobs", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: sweep worker ")
    assert err.endswith(" exited without a result\n")
    assert len(err.splitlines()) == 1


def test_search_leaves_the_cache_alone(tmp_path):
    # searches use running sums only, so a corrupt cache is neither read
    # nor rewritten, and a fresh path is not created
    bad = tmp_path / "bad.cache"
    bad.write_bytes(b"not a cache file")
    out = run_cli("search", "ratio", "--kmax", "3", "--mmax", "10",
                  "--cache", str(bad))
    assert out.returncode == 0
    assert out.stdout == "k=1 m=3 quotient=2\nk=3 m=3 quotient=4\n"
    assert bad.read_bytes() == b"not a cache file"
    fresh = tmp_path / "fresh.cache"
    out = run_cli("search", "em", "--kmax", "3", "--mmax", "10",
                  "--cache", str(fresh))
    assert out.returncode == 0
    assert not fresh.exists()


def test_verify_failure_is_reported(monkeypatch, capsys):
    # the closed form is off by one at a single cell
    real_sums = cli.ps.power_sums
    monkeypatch.setattr(cli.ps, "power_sums", lambda k, ms: [
        s + (k == 3 and m == 7) for m, s in zip(ms, real_sums(k, ms))])

    def real(k, m):
        return real_sums(k, (m,))[0]

    code = cli.main(["verify", "--grid", "1-4:2-10", "--checks",
                     "faulhaber-naive", "--seedless", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert (check["pass"], check["fail"]) == (4 * 9 - 1, 1)
    want = {"check": "faulhaber-naive", "k": 3, "m": 7,
            "observed": str(real(3, 7) + 1), "predicted": str(real(3, 7))}
    assert check["counterexamples"] == [want]
    lines = err.splitlines()
    assert len(lines) == 1
    prefix = "counterexample: "
    assert lines[0].startswith(prefix)
    assert json.loads(lines[0][len(prefix):]) == want
    assert lines[0] == prefix + json.dumps(want, sort_keys=True)
    # the same lines go to stderr whatever the format of stdout
    for fmt in ("plain", "csv"):
        assert cli.main(["verify", "--grid", "1-4:2-10", "--checks",
                         "faulhaber-naive", "--seedless", "--format",
                         fmt]) == 1
        assert capsys.readouterr().err == err


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "bern.cache"
    first = run_cli("bern", "20", "--cache", str(cache))
    assert first.returncode == 0
    assert cache.exists()
    header = cache.read_text("ascii").splitlines()[0]
    assert header == "moser-ladder-cache v1"
    again = run_cli("bern", "20", "--cache", str(cache))
    assert again.stdout == first.stdout == "-174611/330\n"


def _decimal(n: int) -> str:
    # Decimal converts and prints without int -> str's digit limit
    return str(Decimal(n))


def test_naive_powersum_prints_past_the_digit_limit():
    # S_1500(3000) has 5216 digits, past the 4300 that Python's int -> str
    # conversion allows by default
    out = run_cli("powersum", "1500", "3000", "--naive")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == _decimal(sum(i**1500 for i in range(3000))) + "\n"


def test_cache_holds_values_past_the_digit_limit(tmp_path):
    # k = 2064 is the first even k whose |N_k| is past 4300 digits: the
    # query writes the cache after its answer, and a warm bern reads it back
    cache = tmp_path / "bern.cache"
    first = run_cli("gk", "2064", "5", "--cache", str(cache))
    assert (first.returncode, first.stdout, first.stderr) == (0, "1/5\n", "")
    written = cache.read_bytes()
    warm = run_cli("bern", "2064", "--cache", str(cache))
    assert (warm.returncode, warm.stderr) == (0, "")
    b = bernoulli(2064)
    assert warm.stdout == f"{_decimal(b.numerator)}/{b.denominator}\n"
    assert cache.read_bytes() == written


def _rewrite_entry(cache: Path, old: str, new: str) -> None:
    """Replace one record line of a cache file and re-sign it."""
    header, *records, _digest = cache.read_text("ascii").splitlines()
    payload = "".join(line + "\n" for line in records)
    assert old in payload
    payload = payload.replace(old, new)
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    cache.write_text(header + "\n" + payload + digest + "\n", "ascii")


def test_poisoned_cache_exits_3(tmp_path):
    cache = tmp_path / "bern.cache"
    assert run_cli("bern", "12", "--cache", str(cache)).returncode == 0
    _rewrite_entry(cache, "12\t-691\t2730\n", "12\t-697\t2730\n")
    out = run_cli("bern", "12", "--cache", str(cache))
    assert out.returncode == 3
    assert out.stdout == ""
    assert "k=12" in out.stderr
    # N_8 + D_8 passes von Staudt-Clausen on load, and Adams' theorem
    # names no prime at k = 8; growing the memo past k = 8 recomputes it
    # from the Genocchi numbers and finds the edit
    cache = tmp_path / "grow.cache"
    assert run_cli("bern", "20", "--cache", str(cache)).returncode == 0
    _rewrite_entry(cache, "8\t-1\t30\n", "8\t29\t30\n")
    out = run_cli("bern", "30", "--cache", str(cache))
    assert out.returncode == 3
    assert out.stdout == ""
    assert "k=8" in out.stderr


def test_edit_that_adams_theorem_catches_exits_3_on_load(tmp_path):
    # N_10 + D_10 = 71 passes von Staudt-Clausen, but 10 = 2 * 5 with
    # 4 not dividing 10, so 5 | N_10 (Adams): the load rejects it even for
    # a command that stays inside the table
    cache = tmp_path / "bern.cache"
    assert run_cli("bern", "20", "--cache", str(cache)).returncode == 0
    _rewrite_entry(cache, "10\t5\t66\n", "10\t71\t66\n")
    out = run_cli("bern", "10", "--cache", str(cache))
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == (
        "error: cache entry for k=10 has numerator 71, which fails Adams' "
        "theorem at p=5: 5 divides k but not N_k\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bad_cache_behind_a_tripped_invariant_exits_3(
        tmp_path, monkeypatch, capsys, jobs):
    # N_8 + D_8 loads, and verify quick never grows the k <= 20 table,
    # so the edit first shows as a failed Faulhaber cancellation; the
    # seeded entries are then recomputed, and the cache is blamed
    bmod = importlib.import_module("moser_ladder.bernoulli")
    cache = tmp_path / "bern.cache"
    cachemod.cache_store(cachemod.snapshot_bernoulli(20), cache)
    _rewrite_entry(cache, "8\t-1\t30\n", "8\t29\t30\n")
    monkeypatch.setattr(bmod, "_EVEN", [(1, 1)])
    monkeypatch.setattr(bmod, "_SEIDEL", [])
    monkeypatch.setattr(sweeps, "_available_cpus", lambda: 2)
    argv = ["verify", "quick", "--cache", str(cache), "--jobs", jobs]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: memo entry for k=8 disagrees ")
    assert len(err.splitlines()) == 1


def test_tripped_invariant_with_a_sound_cache_exits_4(
        tmp_path, monkeypatch, capsys):
    # the seeded entries are recomputed and agree: the fault is the
    # program's
    def broken(k, spec):
        raise ArithmeticError("faulhaber cancellation failed")

    cache = tmp_path / "bern.cache"
    cachemod.cache_store(cachemod.snapshot_bernoulli(20), cache)
    monkeypatch.setitem(sweeps._ROW_RUNNERS, "telescoping", broken)
    assert cli.main(["verify", "quick", "--cache", str(cache)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: faulhaber cancellation failed\n"


def test_tripped_invariant_with_a_cache_to_max_k_exits_4(
        tmp_path, monkeypatch, capsys):
    # a memo seeded to MAX_K (20 here) has no index past it to recompute
    # the seeded entries with, so the fault is reported as the program's
    def broken(k, spec):
        raise ArithmeticError("faulhaber cancellation failed")

    bmod = importlib.import_module("moser_ladder.bernoulli")
    cache = tmp_path / "bern.cache"
    cachemod.cache_store(cachemod.snapshot_bernoulli(20), cache)
    monkeypatch.setattr(bmod, "MAX_K", 20)
    monkeypatch.setattr(cli, "MAX_K", 20)
    monkeypatch.setitem(sweeps._ROW_RUNNERS, "telescoping", broken)
    assert cli.main(["verify", "quick", "--cache", str(cache)]) == 4
    assert capsys.readouterr() == (
        "", "internal error: faulhaber cancellation failed\n")


def test_query_loads_the_cache_once(tmp_path, monkeypatch, capsys):
    loads = []
    real_load = cli.cachemod.cache_load
    monkeypatch.setattr(cli.cachemod, "cache_load",
                        lambda path: loads.append(path) or real_load(path))
    cache = str(tmp_path / "bern.cache")
    assert cli.main(["bern", "20", "--cache", cache]) == 0  # no file yet
    assert cli.main(["bern", "20", "--cache", cache]) == 0
    assert loads == [cache]
    assert capsys.readouterr().out == "-174611/330\n" * 2


def test_help_schema():
    out = run_cli("--help-schema")
    assert out.returncode == 0
    schema = json.loads(out.stdout)
    assert schema["properties"]["schema_version"]["const"] == "1"


@pytest.mark.parametrize("argv, code", [
    ("--help-schema", 0),
    ("--help-schema bern 10", 0),
    ("bern 10 --help-schema --seedless", 2),
])
def test_help_schema_is_a_top_level_flag(argv, code):
    # argparse reads it: before a command it prints the schema, after one
    # it is an unknown argument of that command
    out = run_cli(*argv.split())
    assert out.returncode == code
    if code == 0:
        assert json.loads(out.stdout) == sweeps.REPORT_SCHEMA
        assert out.stderr == ""
    else:
        assert out.stdout == ""
        assert "unrecognized arguments: --help-schema" in out.stderr


def test_schema_required_keys_match_a_real_report(capsys):
    assert cli.main(["--help-schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert cli.main(["verify", "--grid", "2-6:20", "--format", "json",
                     "--seedless"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(schema["required"]) == sorted(report)
    props = schema["properties"]
    assert sorted(props["totals"]["required"]) == sorted(report["totals"])
    item = props["checks"]["items"]
    assert len(report["checks"]) == len(sweeps.CHECK_ORDER)
    for check in report["checks"]:
        assert sorted(item["required"]) == sorted(check), check["name"]
        assert sorted(item["properties"]["grid"]["required"]) == sorted(
            check["grid"]), check["name"]


def test_version_flag():
    out = run_cli("--version")
    assert out.returncode == 0
    assert out.stdout.startswith("moser-ladder ")


def test_pyproject_states_the_package_version():
    # the package metadata states what `--version` and the report's
    # tool_version print; a regex, since tomllib needs Python 3.11
    text = (Path(SRC).parent / "pyproject.toml").read_text()
    stated = re.findall(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert stated == [moser_ladder.__version__]


# Modules a cold start must not load: the process pool (only --jobs > 1
# builds one), dataclasses, and hashlib and csv (only a cache write and
# --format csv use them). json, which only verify and --format json use,
# is checked per command below, and so are the lazy modules: the package
# registers them on import, but each runs only when a command calls it.
_HEAVY_MODULES = ("dataclasses", "concurrent.futures", "multiprocessing",
                  "hashlib", "csv")
_LAZY_MODULES = {"moser_ladder.powersum", "moser_ladder.gcdlab",
                 "moser_ladder.sweeps"}
# lazy too, but run by queries as well: `_primes` for a prime, `cache`
# for a cache file
_PRIMES, _CACHE = "moser_ladder._primes", "moser_ladder.cache"
_ON_DEMAND = _LAZY_MODULES | {_PRIMES, _CACHE}
# what `fractions` loads: the Bernoulli memo holds integer pairs, so
# neither the import nor a `bern` query needs it
_FRACTIONS = {"fractions", "decimal", "numbers"}


def _modules_added_by(statement: str) -> tuple[list[str], set[str]]:
    """Modules that `statement` adds to sys.modules in a fresh
    interpreter, over those the bare interpreter already holds, and the
    `moser_ladder` modules that ran: a lazy module is a plain module only
    once it has run, and `type()` does not make it run."""
    code = ("import sys, types\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "ran = [name for name, module in sys.modules.items()\n"
            "       if name.startswith('moser_ladder')\n"
            "       and type(module) is types.ModuleType]\n"
            "sys.stderr.write(' '.join(sorted(set(sys.modules) - before))\n"
            "                 + '\\n' + ' '.join(ran))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC),
                         check=True)
    added, ran = out.stderr.split("\n")[-2:]
    return added.split(), set(ran.split())


def test_cold_import_skips_heavy_modules():
    added, ran = _modules_added_by("import moser_ladder.cli")
    assert "moser_ladder.cli" in added
    assert not [m for m in added if m in _HEAVY_MODULES]
    assert _ON_DEMAND <= set(added)
    assert ran == {"moser_ladder", "moser_ladder.bernoulli", "moser_ladder.cli"}
    assert "json" not in added
    assert not _FRACTIONS & set(added)


def test_warm_query_loads_only_hashlib(tmp_path):
    # a warm cache costs a read and a hash: beyond what the same query
    # loads without a cache (argparse's gettext adds locale to both), it
    # adds only hashlib, and never a writer's or the pool's modules
    cache = tmp_path / "bern.cache"
    _cache_to(cache, 40)
    query = ("from moser_ladder.cli import main\n"
             "assert main(['bern', '20'{}]) == 0")
    seedless, seedless_ran = _modules_added_by(query.format(", '--seedless'"))
    warm, warm_ran = _modules_added_by(
        query.format(f", '--cache', {str(cache)!r}"))
    assert set(warm) - set(seedless) <= {"hashlib", "_hashlib", "_blake2"}
    assert not {"tempfile", "shutil", "pickle", "csv"} & set(warm)
    cold = set(_modules_added_by("import moser_ladder.cli")[0])
    assert set(seedless) - cold <= {"locale", "_locale"}
    # a bern query compiles none of the lazy modules and writes no JSON
    assert not _LAZY_MODULES & (seedless_ran | warm_ran)
    assert "json" not in set(seedless) | set(warm)
    # nor loads `fractions`, with a fresh cache, a warm one or none
    fresh, _ = _modules_added_by(
        query.format(f", '--cache', {str(tmp_path / 'fresh.cache')!r}"))
    assert not _FRACTIONS & (set(seedless) | set(warm) | set(fresh))


@pytest.mark.parametrize("command, runs", [
    ("powersum 10 5", {"moser_ladder.powersum"}),
    ("gk 10 5", {"moser_ladder.powersum", "moser_ladder.gcdlab"}),
    ("ladder 10 5", {"moser_ladder.powersum", "moser_ladder.gcdlab"}),
    ("verify quick", _LAZY_MODULES | {_PRIMES}),
    ("verify quick --format json", _LAZY_MODULES | {_PRIMES}),
    ("bern 10 --cache verify", set()),
    ("scan numerators --kmax 20", {_PRIMES}),
    ("bern 10 --cache FRESH", {_CACHE}),
    ("bern 10 --cache WARM", {_CACHE, _PRIMES}),
])
def test_a_command_runs_only_the_modules_it_calls(command, runs, tmp_path):
    # a command runs `--seedless` unless it names a cache file: FRESH
    # does not exist yet, WARM holds the even k <= 20
    files = {"FRESH": tmp_path / "fresh.cache", "WARM": tmp_path / "warm.cache"}
    _cache_to(files["WARM"], 20)
    words = command.split()
    argv = [str(files.get(word, word)) for word in words]
    if not files.keys() & set(words):
        argv.append("--seedless")
    added, ran = _modules_added_by(
        "from moser_ladder.cli import main\n"
        f"assert main({argv!r}) == 0")
    assert ran & _ON_DEMAND == runs
    assert ("json" in added) == command.startswith("verify")
    if command.startswith("bern"):
        assert not _FRACTIONS & set(added)


def test_a_usage_error_runs_no_cache_module():
    # `main` sorts errors by classes that `bernoulli` defines, so a
    # --seedless usage error never compiles `cache` to read an except
    _, ran = _modules_added_by(
        "from moser_ladder.cli import main\n"
        "assert main(['bern', '-1', '--seedless']) == 2")
    assert _CACHE not in ran


def test_serial_verify_never_loads_the_pool():
    added, _ = _modules_added_by(
        "from moser_ladder.cli import main\n"
        "assert main(['verify', 'quick', '--seedless', '--jobs', '1']) == 0")
    assert "moser_ladder.sweeps" in added
    assert not [m for m in added if m in _HEAVY_MODULES]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_parallel_verify_loads_no_executor():
    # the fork pool needs neither concurrent.futures nor multiprocessing;
    # pickle, which only the parallel path imports, shows that it ran
    added, _ = _modules_added_by(
        "from moser_ladder import sweeps\n"
        "sweeps._available_cpus = lambda: 2\n"
        "def stripped(jobs):\n"
        "    report = sweeps.verify_all('quick', jobs=jobs)\n"
        "    del report['wall_time_s']\n"
        "    return report\n"
        "assert stripped(2) == stripped(1)")
    assert "pickle" in added
    assert "concurrent.futures" not in added
    assert "multiprocessing" not in added


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_workers_inherit_every_module_they_run():
    # a module still lazy when the pool forks would be compiled and run
    # again in every worker
    _modules_added_by(
        "import os, types\n"
        "lazy = []\n"
        "os.register_at_fork(before=lambda: lazy.extend(\n"
        "    name for name, module in sys.modules.items()\n"
        "    if name.startswith('moser_ladder')\n"
        "    and type(module) is not types.ModuleType))\n"
        "from moser_ladder import sweeps\n"
        "sweeps._available_cpus = lambda: 2\n"
        "sweeps.verify_all('quick', jobs=2)\n"
        "assert set(lazy) <= {'moser_ladder.cache'}, lazy")
