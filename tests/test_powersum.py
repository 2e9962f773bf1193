"""Power sums: closed form vs naive, scans, crossover."""

import pytest

from moser_ladder.powersum import (
    RatioHit,
    crossover,
    em_scan,
    power_sum,
    power_sum_naive,
    ratio_hits,
    running_sums,
    search_ratio,
)
from moser_ladder.sweeps import GridSpec, run_sweep

# hand-checkable values; the sum runs over 1..m-1
KNOWN_SUMS = [
    (1, 3, 3),
    (3, 4, 36),
    (10, 5, 1108650),
    (2, 1, 0),
    (7, 2, 1),
]


def test_known_sums_naive():
    for k, m, want in KNOWN_SUMS:
        assert power_sum_naive(k, m) == want


def test_known_sums_closed_form():
    for k, m, want in KNOWN_SUMS:
        assert power_sum(k, m) == want


def test_closed_form_equals_naive_grid():
    for k in range(1, 21):
        for m in range(1, 61):
            assert power_sum(k, m) == power_sum_naive(k, m), (k, m)


def test_square_pyramid_formula():
    for m in range(1, 101):
        assert power_sum(2, m) == (m - 1) * m * (2 * m - 1) // 6


def test_boundary_values():
    for k in range(1, 30):
        assert power_sum(k, 1) == 0
        assert power_sum(k, 2) == 1


def test_telescoping():
    for k in (1, 2, 5, 12):
        for m in range(1, 40):
            assert power_sum(k, m + 1) - power_sum(k, m) == m**k


def test_running_sums_match_closed_form():
    got = running_sums(7, 30)
    assert len(got) == 31 and got[1] == 0
    for m in range(1, 31):
        assert got[m] == power_sum(7, m)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        power_sum(0, 5)
    with pytest.raises(ValueError):
        power_sum(3, 0)
    with pytest.raises(ValueError):
        power_sum_naive(-1, 5)


def test_ratio_integral_examples():
    assert list(ratio_hits(1, 3, 3)) == [RatioHit(1, 3, 2)]
    assert list(ratio_hits(3, 3, 3)) == [RatioHit(3, 3, 4)]
    assert list(ratio_hits(2, 3, 3)) == []


def test_search_ratio_known_hits():
    assert search_ratio(3, 10) == [RatioHit(1, 3, 2), RatioHit(3, 3, 4)]


def test_search_ratio_wide_window():
    # no further hits appear up to k <= 12, m <= 400
    assert search_ratio(12, 400) == [RatioHit(1, 3, 2), RatioHit(3, 3, 4)]


def test_em_scan_trivial_solution_only():
    assert em_scan(12, 400) == [(1, 3)]


def test_crossover_frozen_values():
    # smallest m with S_k(m) >= m^k, frozen from a direct scan
    expected = {
        2: 5, 4: 8, 6: 11, 8: 14, 10: 16, 12: 19, 14: 22, 16: 25,
        18: 28, 20: 31, 22: 34, 24: 37, 26: 40, 28: 42, 30: 45,
        32: 48, 34: 51, 36: 54, 38: 57, 40: 60,
    }
    for k, want in expected.items():
        assert crossover(k) == want, k


def test_crossover_definition():
    # k = 1 reaches S_k(m) = m^k exactly, at m = 3
    for k in (1, 2, 5, 9, 14):
        c = crossover(k)
        assert power_sum(k, c) >= c**k
        assert power_sum(k, c - 1) < (c - 1) ** k


def test_crossover_bracket_exceptions():
    # open-interval misses of (k, 2k) among even k <= 40, frozen
    outside = [
        k for k in range(2, 41, 2) if not (k < crossover(k) < 2 * k)
    ]
    assert outside == [2, 4]


def test_s1_s3_identity():
    # S_3(m) = S_1(m)^2 for 1 <= m <= 500, by the sweep's running-sum row
    spec = GridSpec(k_max=1, m_max=500, checks=("s1-s3-identity",))
    check = run_sweep(spec)["checks"][0]
    assert (check["pass"], check["fail"]) == (500, 0)
