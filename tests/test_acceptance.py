"""Acceptance gate: one test per shipping criterion, in order.

Each test prints a single CRITERION line on success (visible with -s);
under plain pytest the per-test PASSED/FAILED verdicts carry the same
information. Budgets are wall-clock and asserted where stated.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import moser_ladder
from moser_ladder._primes import factorize
from moser_ladder.bernoulli import (
    _vsc_prime_table,
    bernoulli,
    denominator,
    divides_rational,
    exact_log_abs,
    numerator,
    numerator_bound_check,
    numerator_survey,
    size_estimate,
    square_free_status,
)
from moser_ladder.gcdlab import (
    CROSS_GCD_OFFSETS,
    _congruence_cells,
    _diff_numerator,
    _ladder_rungs,
    cross_gcd_check,
    gcd_ratio,
    min_max_scan,
)
from moser_ladder.powersum import (
    crossover,
    em_scan,
    power_sum,
    power_sum_naive,
    search_ratio,
)
from pins import canonical, digest, pinned


def _report(n: int, text: str) -> None:
    print(f"CRITERION {n:2d} PASS: {text}", flush=True)


def test_criterion_01_bernoulli_structure():
    t0 = time.perf_counter()
    vsc = _vsc_prime_table(100)
    for k in range(2, 101, 2):
        assert denominator(k) == prod(vsc[k // 2]), k
        assert (-1) ** (k // 2 + 1) * numerator(k) > 0, k
        assert (2 * (2**k - 1)) % denominator(k) == 0, k
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(1, f"denominator, sign, 2(2^k-1) rule for even k <= 100 "
               f"({elapsed:.2f}s)")


def test_criterion_02_faulhaber_vs_naive():
    t0 = time.perf_counter()
    for k in range(1, 21):
        for m in range(1, 201):
            assert power_sum(k, m) == power_sum_naive(k, m), (k, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(2, f"closed form equals direct summation on 20 x 200 grid "
               f"({elapsed:.2f}s)")


def test_criterion_03_integral_ratio_hits():
    t0 = time.perf_counter()
    hits = [(h.k, h.m, h.quotient) for h in search_ratio(20, 1000)]
    elapsed = time.perf_counter() - t0
    assert hits == [(1, 3, 2), (3, 3, 4)]
    assert elapsed < 120
    _report(3, f"integral-ratio search k <= 20, m <= 1000 finds exactly "
               f"(1,3)->2 and (3,3)->4 ({elapsed:.2f}s)")


def test_criterion_04_power_sum_equation_scan():
    t0 = time.perf_counter()
    solutions = em_scan(20, 1000)
    elapsed = time.perf_counter() - t0
    assert solutions == [(1, 3)]
    assert elapsed < 120
    _report(4, f"S_k(m) = m^k scan k <= 20, m <= 1000 finds only (1, 3) "
               f"({elapsed:.2f}s)")


def test_criterion_05_gcd_ladder_closed_forms():
    t0 = time.perf_counter()
    failures = 0
    for k in range(2, 41, 2):
        n_abs, d = abs(numerator(k)), denominator(k)
        s = 1  # S_k(2), built incrementally: independent of the closed form
        for m in range(2, 301):
            s_next = s + m**k
            p1, p2, p3 = _ladder_rungs(k, m, s, gcd(s, s_next), m**k,
                                       n_abs, d)[5:8]
            if gcd(s, m) != p1:
                failures += 1
            if gcd(s, m * m) != p2:
                failures += 1
            if gcd(s, m**3) != p3:
                failures += 1
            s = s_next
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 300
    _report(5, f"ladder closed forms for m, m^2, m^3 over even k <= 40, "
               f"m <= 300, zero failures ({elapsed:.2f}s)")


def test_criterion_06_special_value_witnesses():
    t0 = time.perf_counter()
    for k in range(10, 41, 2):
        d = denominator(k)
        n_abs = abs(numerator(k))
        assert gcd_ratio(k, d) == Fraction(1, d), k
        # witness evaluation is polynomial in log m, so no index in this
        # range needs skipping; the largest witness is |N_40| ~ 2.6e20
        assert gcd_ratio(k, n_abs) == n_abs, k
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(6, f"g_k(D_k) = 1/D_k and g_k(|N_k|) = |N_k| for even "
               f"10 <= k <= 40, no skips ({elapsed:.2f}s)")


def test_criterion_07_min_times_max():
    t0 = time.perf_counter()
    for k in range(2, 49, 2):
        status = square_free_status(k, 10_000)
        assert status.kind in ("trivial", "no-square-factor-below"), k
        res = min_max_scan(k, 300)
        assert res.certified, k
        assert res.product == abs(bernoulli(k)), k
        assert res.product_matches_abs_b, k
    elapsed = time.perf_counter() - t0
    _report(7, f"min times max of g equals |B_k| for even 2 <= k <= 48, "
               f"square-free clear below 10^4 ({elapsed:.2f}s)")


def test_criterion_08_prime_numerator_prefix():
    t0 = time.perf_counter()
    flagged = {r["k"] for r in numerator_survey(range(2, 49, 2), 100_000)
               if r["prime"]}
    elapsed = time.perf_counter() - t0
    assert flagged == {10, 12, 14, 16, 18, 36, 42}
    assert elapsed < 10
    _report(8, f"prime numerators among even k <= 48 are exactly "
               f"{sorted(flagged)} ({elapsed:.2f}s)")


def test_criterion_09_square_factor_prefix():
    t0 = time.perf_counter()
    found = {}
    for k in (50, 98, 150, 196, 228):
        p = square_free_status(k, 100_000).prime
        assert p is not None, f"k={k} has no square factor below 10^5"
        found[k] = p
    assert found == {50: 5, 98: 7, 150: 5, 196: 7, 228: 103}
    assert numerator(50) % 25 == 0  # the flagged factor, by division
    elapsed = time.perf_counter() - t0
    _report(9, f"square factors at k in (50, 98, 150, 196, 228) are "
               f"{found}, 25 | N_50 confirmed ({elapsed:.2f}s)")


def test_criterion_10_congruence_suite():
    t0 = time.perf_counter()
    failures = 0
    for k in range(2, 41, 2):
        b = bernoulli(k)
        n, d = b.numerator, b.denominator
        s = 1  # S_k(2)
        for m in range(2, 301):
            # the running sum through the kernel that the sweep row reads:
            # the mod-m^r cells, then the prime-local ones
            num = _diff_numerator(m, s, n, d)
            for _, _, applicable, holds in _congruence_cells(
                    k, m, num, factorize(m).items(), n, d):
                if applicable and not holds:
                    failures += 1
            for r in (1, 2):
                lhs = s % m ** (r + 1) == 0
                rhs = divides_rational(m, r, b)
                if lhs != rhs:
                    failures += 1
            s += m**k
    elapsed = time.perf_counter() - t0
    assert failures == 0
    _report(10, f"modulus-power and prime-local congruences plus the "
                f"divisibility biconditional, even k <= 40, m <= 300, "
                f"zero failures ({elapsed:.2f}s)")


def test_criterion_11_cross_numerator_gcds():
    t0 = time.perf_counter()
    cells = 0
    for k in range(4, 61, 2):
        for s in CROSS_GCD_OFFSETS:
            if k - s < 2:
                continue
            assert cross_gcd_check(k, s).ok, (k, s)
            cells += 1
    elapsed = time.perf_counter() - t0
    _report(11, f"cross-numerator gcd factor divides k, square-free, "
                f"avoids both denominators: {cells} cells, even k <= 60 "
                f"({elapsed:.2f}s)")


def test_criterion_12_analytic_bounds():
    t0 = time.perf_counter()
    for k in range(10, 201, 2):
        exact = exact_log_abs(k)
        assert abs(size_estimate(k) - exact) / abs(exact) <= 1e-9, k
        assert numerator_bound_check(k), k
    exceptions = [(k, crossover(k)) for k in range(2, 41, 2)
                  if not (k < crossover(k) < 2 * k)]
    # bracket misses are reported, not asserted away; the frozen list
    assert exceptions == [(2, 5), (4, 8)]
    elapsed = time.perf_counter() - t0
    _report(12, f"size estimate within 1e-9, numerator bound holds for "
                f"even 10 <= k <= 200; crossover bracket exceptions "
                f"{exceptions} ({elapsed:.2f}s)")


def test_criterion_13_deterministic_reports():
    t0 = time.perf_counter()
    src = str(Path(moser_ladder.__file__).resolve().parents[1])

    def run(jobs: str) -> dict:
        out = subprocess.run(
            [sys.executable, "-m", "moser_ladder.cli", "verify", "standard",
             "--jobs", jobs, "--format", "json", "--seedless"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 0, out.stderr
        data = json.loads(out.stdout)
        assert data["totals"]["fail"] == 0
        # stdout is the canonical form plus wall_time_s
        assert out.stdout == json.dumps(data, sort_keys=True, indent=2) + "\n"
        return data

    one, eight = run("1"), run("8")
    assert canonical(one) == canonical(eight)
    assert digest(one) == pinned("standard")
    elapsed = time.perf_counter() - t0
    _report(13, f"verify standard --jobs 1 and --jobs 8 byte-identical "
                f"after dropping wall time ({elapsed:.2f}s)")
