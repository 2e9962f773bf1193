"""Bernoulli core: values, structure probes, size estimates."""

import importlib
from fractions import Fraction
from math import comb

import pytest

from moser_ladder.bernoulli import (
    SquareFreeStatus,
    bernoulli,
    bernoulli_record,
    denominator,
    divides_rational,
    even_value_pairs,
    exact_log_abs,
    numerator,
    numerator_bound_check,
    seed_even_values,
    size_estimate,
    square_free_status,
    vsc_denominator,
)
from moser_ladder.sweeps import SQUARE_FREE_ESCALATION, numerator_survey

# the package rebinds the name `bernoulli` to the function
bmod = importlib.import_module("moser_ladder.bernoulli")

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
    monkeypatch.setattr(bmod, "_EVEN", [Fraction(1)])
    monkeypatch.setattr(bmod, "_TANGENT", [])


def test_tangent_engine_matches_even_recurrence(fresh_memo):
    # ascending queries grow the table one column at a time
    assert [bernoulli(k) for k in range(0, 501, 2)] == _even_recurrence(500)


def test_extension_checks_seeded_entries(fresh_memo):
    # N_12 + D_12 passes both von Staudt-Clausen tests on load; the tangent
    # numbers catch it when the table grows past k = 12
    pairs = [(k, EVEN_TABLE[k]) for k in range(2, 13, 2)]
    pairs[-1] = (12, (-691 + 2730, 2730))
    assert seed_even_values(pairs) == 12
    assert bernoulli(12) == Fraction(2039, 2730)  # served as seeded
    assert bmod._TANGENT == []
    with pytest.raises(ValueError, match="k=12"):
        bernoulli(14)
    assert len(bmod._EVEN) == 7
    assert bmod._EVEN[6] == Fraction(2039, 2730)


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


def test_record_fields():
    rec = bernoulli_record(12)
    assert (rec.k, rec.numerator, rec.denominator) == (12, -691, 2730)
    assert rec.value == Fraction(-691, 2730)


def test_vsc_denominator_examples():
    assert vsc_denominator(2) == 6
    assert vsc_denominator(8) == 30
    assert vsc_denominator(12) == 2730


def test_vsc_matches_actual_denominator():
    for k in range(2, 501, 2):
        assert denominator(k) == vsc_denominator(k)


def test_vsc_routes_agree():
    # the cache loader's one-pass sieve and the per-k divisor route find
    # the same primes, the sieve's in ascending order
    table = bmod._vsc_prime_table(2000)
    assert len(table) == 1001 and table[0] == []
    for k in range(2, 2001, 2):
        assert table[k // 2] == sorted(bmod._vsc_primes(k)), k


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
    return numerator_survey(k, 1000)["prime"]


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
    # checked before |N_k| is looked at, so the trivial N_2 = 1 too
    for search in (square_free_status, numerator_survey):
        with pytest.raises(ValueError, match=f"got {bound}$"):
            search(2, bound)


def _hunt(k: int, bound: int = 10**5) -> tuple:
    r = numerator_survey(k, bound)
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


def test_size_estimate_small_index():
    # zeta converges slowly at k = 2; the term count here keeps the
    # partial-sum tail below 1e-5 of the exact value
    est = size_estimate(2, zeta_terms=200_000)
    exact = exact_log_abs(2)
    assert abs(est - exact) / abs(exact) < 1e-5


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
    pairs = even_value_pairs(20)
    assert pairs[0] == (2, (1, 6))
    assert seed_even_values(pairs) == 20


def test_seed_rejects_bad_denominator():
    with pytest.raises(ValueError):
        seed_even_values([(2, (1, 12))])


def test_seed_rejects_wrong_value():
    bernoulli(2)  # ensure the memo already covers the index
    with pytest.raises(ValueError):
        seed_even_values([(2, (5, 6))])


def test_seed_rejects_numerator_failing_vsc(fresh_memo):
    # B_12 = -691/2730 with the numerator edited to -697
    pairs = [(k, EVEN_TABLE[k]) for k in range(2, 13, 2)]
    pairs[-1] = (12, (-697, 2730))
    with pytest.raises(ValueError, match="k=12 .*von Staudt-Clausen"):
        seed_even_values(pairs)


def test_seed_stops_at_gap():
    assert seed_even_values([(2, (1, 6)), (6, (1, 42))]) == 2
