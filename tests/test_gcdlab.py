"""Gcd structure of consecutive power sums: ladders, congruences,
extremes, cross-index gcds."""

from fractions import Fraction
from math import gcd, lcm

import pytest

from moser_ladder import powersum
from moser_ladder.bernoulli import (
    bernoulli,
    denominator,
    divides_rational,
    numerator,
)
from moser_ladder.gcdlab import (
    CROSS_GCD_OFFSETS,
    _extreme_witnesses,
    _ladder_rungs,
    congruence_check,
    cross_gcd_check,
    gcd_ladder,
    gcd_ratio,
    min_max_scan,
    prime_local_congruences,
)
from moser_ladder.powersum import power_sum


def _brute_ratio(k: int, m: int) -> Fraction:
    return Fraction(gcd(power_sum(k, m), power_sum(k, m + 1)), m)


def test_gcd_ratio_examples():
    assert gcd_ratio(2, 6) == Fraction(1, 6)
    assert gcd_ratio(10, 5) == 5
    assert gcd_ratio(12, 691) == 691


def test_gcd_ratio_matches_brute_force():
    for k in (2, 6, 10):
        for m in range(2, 40):
            assert gcd_ratio(k, m) == _brute_ratio(k, m), (k, m)


def test_gcd_ratio_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gcd_ratio(3, 5)
    with pytest.raises(ValueError):
        gcd_ratio(2, 1)


def test_equivalent_definition_via_mk():
    # gcd(S(m), S(m+1)) = gcd(S(m), m^k) since the sums differ by m^k
    for k in (2, 8):
        for m in range(2, 30):
            s = power_sum(k, m)
            assert gcd(s, power_sum(k, m + 1)) == gcd(s, m**k)


def test_predicted_gcds_match_observed():
    for k in (2, 4, 10, 14):
        for m in range(2, 50):
            s = power_sum(k, m)
            lad = gcd_ladder(k, m)
            assert gcd(s, m) == lad.predicted_m1
            assert gcd(s, m * m) == lad.predicted_m2
            assert gcd(s, m**3) == lad.predicted_m3


def test_ladder_at_10_5():
    lad = gcd_ladder(10, 5)
    observed = (lad.observed_m1, lad.observed_m2, lad.observed_m3,
                lad.observed_m4, lad.observed_mk)
    assert observed == (5, 25, 25, 25, 25)
    assert lad.residual == 1
    assert (lad.observed_m1, lad.observed_m2, lad.observed_m3) == (
        lad.predicted_m1, lad.predicted_m2, lad.predicted_m3)
    assert lad.monotone
    assert lad.ok


def test_ladder_small_k_has_no_residual_rung():
    lad = gcd_ladder(2, 6)
    assert lad.residual == 1
    assert lad.ok


def test_residual_factor():
    lad = gcd_ladder(10, 5)
    assert lad.residual == 1 and lad.residual_primes_divide_numerator
    for m in range(2, 30):
        assert gcd_ladder(12, m).residual_primes_divide_numerator, m
    # no real cell has gcd(S, m^k) > gcd(S, m^3) at desk scale, so a
    # synthetic S = 5^6 * 7 at k = 10, m = 5 gives the residual 5^3; its
    # prime divides |N| = 5 (stripped by the loop) but not |N| = 7
    s = 5**6 * 7
    for n_abs, ok in ((5, True), (7, False)):
        rungs = _ladder_rungs(10, 5, s, gcd(s, s + 5**10), 5**10, n_abs, 66)
        assert rungs[8:11] == (125, ok, True), n_abs


def test_m4_explore_low_k_equals_m3():
    # for k = 2 and k = 4 the k-th rung collapses onto the cube rung
    for k in (2, 4):
        for lad in (gcd_ladder(k, m) for m in range(2, 21)):
            assert lad.observed_m4 == lad.observed_m3
            assert lad.observed_mk == lad.observed_m4


def test_congruence_applicable_cases():
    v = congruence_check(10, 5, 3)
    assert v.applicable and v.holds

    v = congruence_check(4, 6, 2)
    assert not v.applicable  # gcd(D_4, 6) > 1 blocks the m^2 gate

    v = congruence_check(2, 7, 1)
    assert v.applicable and v.holds


def test_congruence_grid():
    for k in (2, 4, 6, 10, 12):
        for m in range(2, 40):
            for r in (1, 2, 3):
                v = congruence_check(k, m, r)
                if v.applicable:
                    assert v.holds, (k, m, r)


def test_prime_local_congruences():
    verdicts = prime_local_congruences(10, 50)
    assert verdicts
    for v in verdicts:
        if v.applicable:
            assert v.holds


def test_divisibility_equivalence_grid():
    # m^(r+1) | S_k(m) iff m^r | B_k (p-adically)
    for k in (2, 6, 10):
        for m in range(2, 60):
            for r in (1, 2):
                lhs = power_sum(k, m) % m ** (r + 1) == 0
                assert lhs == divides_rational(m, r, bernoulli(k)), (k, m, r)


def test_trivial_gcd_iff_grid():
    # g(m) = 1 iff gcd(D N, m) = 1
    for k in (2, 8, 12):
        dn = denominator(k) * abs(numerator(k))
        for m in range(2, 60):
            assert (gcd_ratio(k, m) == 1) == (gcd(dn, m) == 1), (k, m)


def test_min_max_small_window():
    res = min_max_scan(2, 50)
    assert (res.min_value, res.min_witness) == (Fraction(1, 6), 6)
    assert (res.max_value, res.max_witness) == (1, 5)
    # |N_2| = 1: the maximum's witness is the first m coprime to D_2 = 6
    assert _extreme_witnesses(2) == (6, Fraction(1, 6), 5, 1)
    assert res.certified
    assert res.product == Fraction(1, 6)
    assert res.product_matches_abs_b
    # m_max = 1 scans no m past the seed g(2) = 1/2 (S_k(2) = 1 at every k)
    for k in (2, 10, 12, 48):
        res = min_max_scan(k, 1)
        assert (res.prefix_min, res.prefix_min_at) == (Fraction(1, 2), 2)
        assert (res.prefix_max, res.prefix_max_at) == (Fraction(1, 2), 2)


def test_min_max_k8():
    res = min_max_scan(8, 50)
    assert (res.min_value, res.min_witness) == (Fraction(1, 30), 30)
    assert (res.max_value, res.max_witness) == (1, 7)
    assert _extreme_witnesses(8) == _extreme_witnesses(4) == (
        30, Fraction(1, 30), 7, 1)


def test_min_max_k10():
    res = min_max_scan(10, 100)
    assert (res.min_value, res.min_witness) == (Fraction(1, 66), 66)
    assert (res.max_value, res.max_witness) == (5, 5)
    assert _extreme_witnesses(10) == (66, Fraction(1, 66), 5, 5)
    assert res.product_matches_abs_b


def test_min_max_beyond_prefix():
    # D_12 = 2730 and |N_12| = 691 lie past the prefix 2 <= m <= 100
    res = min_max_scan(12, 100)
    assert (res.min_value, res.min_witness) == (Fraction(1, 2730), 2730)
    assert (res.max_value, res.max_witness) == (691, 691)
    assert _extreme_witnesses(12) == (2730, Fraction(1, 2730), 691, 691)
    assert res.prefix_min_at <= 100 and res.prefix_max_at <= 100
    assert res.prefix_closed_form_agrees


def test_witnesses_build_the_faulhaber_coefficients_once(monkeypatch):
    # both witnesses' sums come from one closed-form call and the prefix
    # reads the running sums, so outside a slice each call builds the
    # coefficients once (one lcm of the B_j denominators per build)
    bernoulli(200)
    builds = []

    def counted(*args):
        builds.append(args)
        return lcm(*args)

    monkeypatch.setattr(powersum, "lcm", counted)
    min_max_scan(200, 10)
    assert len(builds) == 1
    builds.clear()
    _extreme_witnesses(48)
    assert len(builds) == 1


def test_cross_gcd_offsets():
    assert CROSS_GCD_OFFSETS == (2, 4, 6, 8, 10, 14)


# every (k, s) with a nontrivial common factor C of the k-th and s-th
# numerator pair among even k <= 60, frozen from a direct scan
CROSS_GCD_NONTRIVIAL = {
    (10, 2): 5, (10, 6): 5, (14, 2): 7, (14, 8): 7, (22, 2): 11,
    (26, 2): 13, (26, 14): 13, (28, 4): 7, (28, 10): 7, (30, 2): 5,
    (30, 6): 5, (30, 10): 5, (30, 14): 5, (34, 2): 17, (38, 2): 19,
    (44, 4): 11, (44, 14): 11, (46, 2): 23, (50, 2): 5, (50, 6): 5,
    (50, 10): 5, (50, 14): 5, (52, 4): 13, (56, 2): 7, (56, 8): 7,
    (56, 14): 7, (58, 2): 29,
}


def test_cross_gcd_nontrivial_cells():
    seen = {}
    for k in range(4, 61, 2):
        for s in CROSS_GCD_OFFSETS:
            if k - s < 2:
                continue
            v = cross_gcd_check(k, s)
            assert v.ok, (k, s)
            if v.c > 1:
                seen[(k, s)] = v.c
    assert seen == CROSS_GCD_NONTRIVIAL


def test_cross_gcd_factor_divides_k():
    v = cross_gcd_check(10, 2)
    assert v.c == 5
    assert v.divides_k
    assert v.ok
