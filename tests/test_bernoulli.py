"""Bernoulli core: values, structure probes, size estimates."""

import importlib
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, gcd, isqrt, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from moser_ladder._primes import factorize, is_prime
from moser_ladder.bernoulli import (
    SQUARE_FREE_ESCALATION,
    SquareFreeStatus,
    bernoulli,
    bernoulli_pair,
    denominator,
    divides_rational,
    exact_log_abs,
    numerator,
    numerator_bound_check,
    numerator_survey,
    seed_even_values,
    size_estimate,
    square_free_status,
)

# the package rebinds the name `bernoulli` to the function
bmod = importlib.import_module("moser_ladder.bernoulli")
cachemod = importlib.import_module("moser_ladder.cache")

# (N_k, D_k) in lowest terms for even k, frozen from an independent
# evaluation of the defining recurrence over all indices (no even-only
# shortcut, no shared code with the module under test).
EVEN_TABLE = {
    2: (1, 6),
    4: (-1, 30),
    6: (1, 42),
    8: (-1, 30),
    10: (5, 66),
    12: (-691, 2730),
    14: (7, 6),
    16: (-3617, 510),
    18: (43867, 798),
    20: (-174611, 330),
    22: (854513, 138),
    24: (-236364091, 2730),
    30: (8615841276005, 14322),
    36: (-26315271553053477373, 1919190),
    40: (-261082718496449122051, 13530),
    42: (1520097643918070802691, 1806),
    48: (-5609403368997817686249127547, 46410),
    50: (495057205241079648212477525, 66),
    60: (-1215233140483755572040304994079820246041491, 56786730),
}


def _reference_all_index(k_max: int) -> list[Fraction]:
    # the defining recurrence sum_{j<=n} C(n+1, j) B_j = 0, every index
    b = [Fraction(1)]
    for n in range(1, k_max + 1):
        acc = sum(comb(n + 1, j) * b[j] for j in range(n))
        b.append(Fraction(-acc, n + 1))
    return b


def _even_recurrence(k_max: int) -> list[Fraction]:
    # B_0, B_2, ..., B_kmax from the defining recurrence solved for B_n;
    # only j even and j = 1 survive in sum_{j<=n} C(n+1, j) B_j = 0
    even = [Fraction(1)]
    for n in range(2, k_max + 1, 2):
        acc = comb(n + 1, 1) * Fraction(-1, 2)
        for i, b in enumerate(even):
            acc += comb(n + 1, 2 * i) * b
        even.append(-acc / (n + 1))
    return even


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty memo for one test; the module's own is restored after it."""
    monkeypatch.setattr(bmod, "_EVEN", [(1, 1)])
    monkeypatch.setattr(bmod, "_SEIDEL", [])


def _tangent_oracle(k_max: int) -> list[Fraction]:
    # B_0, B_2, ..., B_kmax from the tangent numbers T_n (Brent & Harvey,
    # arXiv:1108.0286, Algorithm TangentNumbers), a route independent of
    # the engine's Genocchi triangle:
    # B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))
    half = k_max // 2
    t = [0, 1]
    for n in range(2, half + 1):
        t.append((n - 1) * t[n - 1])
    for j in range(2, half + 1):
        for i in range(j, half + 1):
            t[i] = (i - j) * t[i - 1] + (i - j + 2) * t[i]
    return [Fraction(1)] + [
        Fraction((-1) ** (n - 1) * 2 * n * t[n], 4**n * (4**n - 1))
        for n in range(1, half + 1)]


def _pairs(values: list[Fraction]) -> list[tuple[int, int]]:
    return [(b.numerator, b.denominator) for b in values]


def test_genocchi_engine_matches_even_recurrence(fresh_memo):
    # ascending queries grow the table two rows at a time
    want = _even_recurrence(500)
    assert [bernoulli(k) for k in range(0, 501, 2)] == want
    assert bmod._EVEN == _pairs(want)


def test_genocchi_engine_matches_tangent_numbers(fresh_memo):
    # every even k <= 1000, the benchmark's whole K range
    bernoulli(1000)
    assert bmod._EVEN == _pairs(_tangent_oracle(1000))


def test_kept_row_ends_in_the_genocchi_numbers(fresh_memo):
    # |G_2n| of Seidel's triangle, read off the kept row after each step
    last = []
    for k in range(2, 17, 2):
        bernoulli(k)
        assert len(bmod._SEIDEL) == k // 2
        last.append(bmod._SEIDEL[-1])
    assert last == [1, 1, 3, 17, 155, 2073, 38227, 929569]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(steps=st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_growth_in_steps_matches_one_build(steps):
    # from a fresh memo, ascending queries that grow the table by random
    # numbers of rows leave what one build to the last of them leaves
    tops = [2 * half for half in accumulate(steps)]
    tables = []
    for queries in (tops, tops[-1:]):
        with mock.patch.object(bmod, "_EVEN", [(1, 1)]), \
                mock.patch.object(bmod, "_SEIDEL", []):
            for k in queries:
                bernoulli(k)
            tables.append((bmod._EVEN, bmod._SEIDEL))
    assert tables[0] == tables[1]
    assert len(tables[0][0]) == tops[-1] // 2 + 1


def test_extension_checks_seeded_entries(fresh_memo):
    # N_12 + D_12 passes both von Staudt-Clausen tests on load; the
    # Genocchi numbers catch it when the table grows past k = 12
    pairs = [(k, EVEN_TABLE[k]) for k in range(2, 13, 2)]
    pairs[-1] = (12, (-691 + 2730, 2730))
    assert seed_even_values(pairs) == 12
    assert bernoulli(12) == Fraction(2039, 2730)  # served as seeded
    assert bmod._SEIDEL == []
    with pytest.raises(bmod.CacheError,
                       match="^memo entry for k=12 disagrees "):
        bernoulli(14)
    assert len(bmod._EVEN) == 7
    assert bmod._EVEN[6] == (2039, 2730)


@cache
def _fresh_build() -> list[tuple[int, int]]:
    """The memo a fresh table builds to k = 1000."""
    with mock.patch.object(bmod, "_EVEN", [(1, 1)]), \
            mock.patch.object(bmod, "_SEIDEL", []):
        bernoulli(1000)
        return bmod._EVEN


@settings(derandomize=True, max_examples=25, deadline=None)
@given(halves=st.integers(1, 499).flatmap(
    lambda half: st.tuples(st.just(half), st.integers(half + 1, 500))))
@example(halves=(499, 500))
def test_memo_pairs_are_lowest_terms_and_extend_a_seed(halves):
    # the pair is B_k in lowest terms with D > 0, and a memo seeded from a
    # cache to k, then grown past it, holds the pairs a fresh build holds
    half, top = halves
    k = 2 * half
    for j in (k, 2 * top):
        n, d = numerator(j), denominator(j)
        assert bernoulli(j) == Fraction(n, d)
        assert gcd(n, d) == 1 and d > 0
    built = _fresh_build()
    entries = {2 * i: built[i] for i in range(1, half + 1)}
    with mock.patch.object(bmod, "_EVEN", [(1, 1)]), \
            mock.patch.object(bmod, "_SEIDEL", []):
        assert cachemod.warm_bernoulli(cachemod.CacheStore(entries)) == k
        assert bmod._SEIDEL == []
        bernoulli(2 * top)
        assert bmod._EVEN == built[:top + 1]


def test_pair_at_every_index():
    assert bernoulli_pair(0) == (1, 1)
    assert bernoulli_pair(1) == (-1, 2)
    for k in range(61):
        b = bernoulli(k)
        assert bernoulli_pair(k) == (b.numerator, b.denominator), k
    for k in range(3, 61, 2):
        assert bernoulli_pair(k) == (0, 1)
    with pytest.raises(ValueError, match="^Bernoulli index must be >= 0, "):
        bernoulli_pair(-1)


def test_matches_defining_recurrence_every_index():
    ref = _reference_all_index(24)
    for k in range(25):
        assert bernoulli(k) == ref[k], k


def test_frozen_table():
    for k, (n, d) in EVEN_TABLE.items():
        assert bernoulli(k) == Fraction(n, d)
        assert numerator(k) == n
        assert denominator(k) == d


def test_first_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)


def test_odd_indices_vanish():
    for k in range(3, 61, 2):
        assert bernoulli(k) == 0


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_index_past_max_k_rejected_before_the_table_grows():
    top = len(bmod._EVEN)
    for k in (bmod.MAX_K + 1, bmod.MAX_K + 2):
        with pytest.raises(ValueError, match=f"^Bernoulli index must be "
                                             f"<= 10000, got {k}$"):
            bernoulli_pair(k)
    with pytest.raises(ValueError):
        numerator_survey(range(2, bmod.MAX_K + 3, 2), 100)
    assert len(bmod._EVEN) == top


def test_seed_stops_at_max_k(fresh_memo, monkeypatch):
    # entries past MAX_K are ignored like entries past a gap
    monkeypatch.setattr(bmod, "MAX_K", 10)
    assert seed_even_values(EVEN_TABLE.items()) == 10
    assert bmod._EVEN == [(1, 1)] + [EVEN_TABLE[k] for k in range(2, 11, 2)]


def test_vsc_denominator_examples():
    # D_k is the product of row k/2 of the von Staudt-Clausen table
    table = bmod._vsc_prime_table(12)
    assert prod(table[1]) == 6
    assert prod(table[4]) == 30
    assert prod(table[6]) == 2730


def test_vsc_matches_actual_denominator():
    table = bmod._vsc_prime_table(500)
    for k in range(2, 501, 2):
        assert denominator(k) == prod(table[k // 2])


def test_vsc_routes_agree():
    # the one-pass sieve that the structure row and the cache loader read
    # and the oracle, the per-k divisor route over the pairs (d, k/d),
    # d <= sqrt k, find the same primes, the sieve's in ascending order,
    # at every even k the package accepts
    top = bmod.MAX_K
    table = bmod._vsc_prime_table(top)
    assert len(table) == top // 2 + 1 and table[0] == []
    for k in range(2, top + 1, 2):
        divisors = {d for d in range(1, isqrt(k) + 1) if k % d == 0}
        divisors |= {k // d for d in divisors}
        assert table[k // 2] == sorted(d + 1 for d in divisors
                                       if is_prime(d + 1)), k


def test_sign_pattern():
    for k in range(2, 81, 2):
        assert (-1) ** (k // 2 + 1) * numerator(k) > 0


def test_numerator_denominator_need_even_k():
    for bad in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            numerator(bad)
        with pytest.raises(ValueError):
            denominator(bad)


def _prime(k: int) -> bool:
    # at bound 1000 the survey's primorial gcd is |N_k| for k = 10, 12 and
    # the proper factor 283 for k = 20
    return numerator_survey(range(k, k + 1), 1000)[0]["prime"]


def test_unit_numerator_prefix():
    for k in (2, 4, 6, 8):
        assert abs(numerator(k)) == 1
        assert not _prime(k)


def test_prime_numerator_examples():
    assert _prime(10)
    assert _prime(12)
    assert not _prime(20)  # 174611 = 283 * 617


def test_square_free_status_kinds():
    assert square_free_status(2, 100) == SquareFreeStatus("trivial")
    assert square_free_status(12, 100) == SquareFreeStatus(
        "no-square-factor-below", bound=100)
    assert square_free_status(50, 100) == SquareFreeStatus(
        "square-factor", prime=5)
    assert [square_free_status(k, 100).certified for k in (2, 12, 50)] == [
        True, True, False]


@pytest.mark.parametrize("bound", [1, bmod.MAX_TRIAL_BOUND + 1])
def test_trial_bound_out_of_range_is_rejected(bound):
    # checked before |N_k| is looked at, so the trivial N_2 = 1 too, and
    # before a survey looks at its k, so a survey of no k too
    with pytest.raises(ValueError, match=f"got {bound}$"):
        square_free_status(2, bound)
    for ks in (range(2, 3), range(0)):
        with pytest.raises(ValueError, match=f"got {bound}$"):
            numerator_survey(ks, bound)


def _hunt(k: int, bound: int = 10**5) -> tuple:
    [r] = numerator_survey(range(k, k + 1), bound)
    return r["square_factor"], r["flagged_at_bound"], r["clear_below"]


def test_square_factor_hunt():
    assert _hunt(50) == ("5", 10, None)
    assert _hunt(98) == ("7", 10, None)
    assert _hunt(12) == (None, None, 100_000)
    assert _hunt(2) == (None, None, 100_000)
    # a bound above the ladder's top rung is searched as one more rung
    assert _hunt(12, 200_000) == (None, None, 200_000)
    assert _hunt(50, 200_000) == ("5", 10, None)
    # so is a bound between two rungs: the search reaches it, not the
    # rung below it
    assert _hunt(12, 50) == (None, None, 50)
    assert _hunt(46, 50) == (None, None, 50)


def test_square_factor_is_real():
    p = square_free_status(50, 10**5).prime
    assert numerator(50) % (p * p) == 0


def test_escalation_ladder_is_sorted():
    assert list(SQUARE_FREE_ESCALATION) == sorted(SQUARE_FREE_ESCALATION)
    assert SQUARE_FREE_ESCALATION[-1] == 100_000


def test_size_estimate_default_terms():
    for k in range(10, 201, 2):
        rel = abs(size_estimate(k) - exact_log_abs(k)) / abs(exact_log_abs(k))
        assert rel < 1e-9, k


def test_numerator_bound():
    for k in range(10, 201, 2):
        assert numerator_bound_check(k), k


def test_divides_rational():
    assert not divides_rational(2, 1, Fraction(1, 6))
    assert divides_rational(5, 1, Fraction(5, 66))
    assert divides_rational(1, 1, Fraction(7, 3))
    assert divides_rational(4, 2, Fraction(16, 3))
    assert not divides_rational(4, 2, Fraction(8, 3))


def test_divides_rational_integer_case():
    # on integers it reduces to plain divisibility by m^r
    assert divides_rational(6, 2, Fraction(72))
    assert not divides_rational(6, 2, Fraction(48))


def test_seed_even_values_round_trip():
    pairs = [(k, EVEN_TABLE[k]) for k in range(2, 21, 2)]
    assert seed_even_values(pairs) == 20


def test_seed_rejects_bad_denominator():
    with pytest.raises(ValueError):
        seed_even_values([(2, (1, 12))])


def test_seed_rejects_wrong_value():
    bernoulli(2)  # ensure the memo already covers the index
    # 7/6 = (N_2 + D_2)/D_2 passes both von Staudt-Clausen tests, so only
    # the comparison with the memo rejects it
    with pytest.raises(bmod.CacheError,
                       match="^cache entry for k=2 disagrees with computed"):
        seed_even_values([(2, (7, 6))])


def test_seed_rejects_numerator_failing_vsc(fresh_memo):
    # B_12 = -691/2730 with the numerator edited to -697
    pairs = [(k, EVEN_TABLE[k]) for k in range(2, 13, 2)]
    pairs[-1] = (12, (-697, 2730))
    with pytest.raises(ValueError, match="k=12 .*von Staudt-Clausen"):
        seed_even_values(pairs)


def test_seed_rejects_numerator_failing_adams(fresh_memo):
    # N_10 + D_10 = 71 passes von Staudt-Clausen; 5 exactly divides 10 and
    # 4 does not, so Adams' theorem says 5 | N_10
    pairs = [(k, EVEN_TABLE[k]) for k in range(2, 13, 2)]
    pairs[4] = (10, (5 + 66, 66))
    with pytest.raises(bmod.CacheError,
                       match="^cache entry for k=10 .* Adams' theorem at p=5"):
        seed_even_values(pairs)
    assert bmod._EVEN == [(1, 1)] + [EVEN_TABLE[k] for k in range(2, 9, 2)]


def test_adams_theorem_on_the_table():
    # the loader's sieve pass names the prime powers that factorize(k)
    # gives, p^e exactly dividing k with p odd and (p-1) not dividing k,
    # and each divides N_k of a fresh Genocchi build: 496 statements at
    # 413 of the 500 even k <= 1000
    table = bmod._adams_prime_powers(1000)
    built = _fresh_build()
    assert len(table) == 501 and table[0] == []
    for k in range(2, 1001, 2):
        want = [(p, p**e) for p, e in sorted(factorize(k).items())
                if p > 2 and k % (p - 1)]
        assert table[k // 2] == want, k
        assert all(built[k // 2][0] % q == 0 for _, q in want), k
    assert sum(map(bool, table)) == 413
    assert sum(map(len, table)) == 496


def test_survey_past_max_survey_k_raises_before_the_table_grows(
        monkeypatch):
    top = bmod.MAX_SURVEY_K + 2

    def no_growth(half):
        raise AssertionError("the Bernoulli table grew")

    monkeypatch.setattr(bmod, "_extend_even", no_growth)
    with pytest.raises(ValueError, match=f"must be <= 1500, got {top}$"):
        numerator_survey(range(2, top + 1, 2), 100)


def test_seed_stops_at_gap():
    assert seed_even_values([(2, (1, 6)), (6, (1, 42))]) == 2
