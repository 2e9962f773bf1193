"""Property tests: each integer-only kernel against the route it replaced,
on random inputs well past the profile grids. Derandomized, so a run is
reproducible; the example counts keep the whole file to a few seconds."""

from fractions import Fraction
from math import gcd, prod
from unittest import mock

from hypothesis import given, settings, strategies as st

from moser_ladder import gcdlab
from moser_ladder._primes import factorize, is_prime, primes_up_to
from moser_ladder.bernoulli import (
    SquareFreeStatus,
    _smallest_square_prime,
    bernoulli,
    denominator,
    divides_rational,
    find_square_factor,
    numerator,
    square_free_status,
)
from moser_ladder.powersum import power_sum

FAST = settings(derandomize=True, max_examples=150, deadline=None)


def _even(max_k: int):
    return st.integers(1, max_k // 2).map(lambda h: 2 * h)


# ---- congruences: integer kernel vs divides_rational on the Fraction diff


@FAST
@given(k=_even(60), m=st.integers(1, 10**6), c=st.integers(-3, 3),
       j=st.integers(0, 3))
def test_congruence_kernel_matches_fraction_route(k, m, c, j):
    # S + c m^j moves the sum off the congruence for some (c, j), so both
    # verdicts are exercised
    s = power_sum(k, m) + c * m**j
    b = bernoulli(k)
    diff = Fraction(s) - b * m
    num = gcdlab._diff_numerator(k, m, s)
    assert num == diff.numerator
    factors = factorize(m).items()
    want = [
        ("mod-m^1", True, divides_rational(m, 1, diff)),
        ("mod-m^2", k >= 4 and gcd(b.denominator, m) == 1,
         divides_rational(m, 2, diff)),
        ("mod-m^3", k >= 6 and divides_rational(m, 1, b),
         divides_rational(m, 3, diff)),
    ]
    for p, mult in factors:
        want.append((f"mod-p^(2r) p={p}", k >= 4 and b.denominator % p != 0,
                     divides_rational(p, 2 * mult, diff)))
        want.append((f"mod-p^(3r) p={p}", k >= 6 and divides_rational(p, 1, b),
                     divides_rational(p, 3 * mult, diff)))
    assert list(gcdlab._congruence_cells(k, m, num, factors)) == want
    # the public verdicts read the same cells
    for r, (_, applicable, holds) in enumerate(want[:3], start=1):
        v = gcdlab.congruence_check(k, m, r, diff=diff)
        assert (v.applicable, v.holds) == (applicable, holds)
    if m >= 2:
        local = gcdlab.prime_local_congruences(k, m, diff=diff)
        assert [(v.applicable, v.holds) for v in local] == [
            cell[1:] for cell in want[3:]]


# ---- square factors: one primorial gcd vs plain p^2 trial division


def _trial_square_factor(n: int, bound: int) -> int | None:
    return next((p for p in primes_up_to(bound) if n % (p * p) == 0), None)


def _escalate_by_trial(k: int, bounds) -> tuple[int, int] | None:
    n = abs(numerator(k))
    if n == 1:
        return None
    for bound in bounds:
        p = _trial_square_factor(n, bound)
        if p is not None:
            return p, bound
    return None


_SMALL_PRIMES = st.sampled_from(primes_up_to(300))


@FAST
@given(squares=st.lists(_SMALL_PRIMES, max_size=3),
       rest=st.lists(_SMALL_PRIMES, max_size=6),
       cofactor=st.integers(1, 10**30), bound=st.integers(2, 400))
def test_smallest_square_prime_matches_trial_division(squares, rest, cofactor,
                                                      bound):
    n = prod(p * p for p in squares) * prod(rest) * cofactor
    assert _smallest_square_prime(n, bound) == _trial_square_factor(n, bound)


# every even k <= 300 whose numerator has a square factor p^2, p <= 3000,
# and bounds that can equal or just miss those p
_SQUARE_K = st.sampled_from((50, 98, 150, 196, 228, 242, 250, 284))
_BOUND = st.one_of(st.integers(2, 3000),
                   st.sampled_from((4, 5, 6, 7, 10, 11, 36, 37, 102, 103)))


@FAST
@given(k=st.one_of(_even(300), _SQUARE_K), bound=_BOUND,
       bounds=st.lists(_BOUND, min_size=1, max_size=5))
def test_square_factor_search_matches_trial_division(k, bound, bounds):
    n = abs(numerator(k))
    p = _trial_square_factor(n, bound)
    if n == 1:
        want = SquareFreeStatus.trivial()
    elif p is None:
        want = SquareFreeStatus.clear_below(bound)
    else:
        want = SquareFreeStatus.square_factor(p)
    assert square_free_status(k, bound) == want
    # any order of bounds, as the bound-by-bound loop takes them
    want = _escalate_by_trial(k, bounds)
    assert find_square_factor(k, tuple(bounds)) == want


# ---- factorize: the product is n and every key is prime


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


_BIG_PART = st.one_of(
    st.just(1),
    st.integers(10**10, 10**13).map(_next_prime),  # prime cofactor > 10^10
    st.tuples(st.integers(10**5, 10**7), st.integers(10**5, 10**7)).map(
        lambda ab: _next_prime(ab[0]) * _next_prime(ab[1])),  # needs rho
)


@FAST
@given(small=st.integers(1, 10**9), big=_BIG_PART)
def test_factorize_product_and_primality(small, big):
    n = small * big
    f = factorize(n)
    assert prod(p**e for p, e in f.items()) == n
    assert all(is_prime(p) and e >= 1 for p, e in f.items())
    assert list(f) == sorted(f)


# ---- min/max prefix: cross-multiplied integers vs the Fraction scan


def _fraction_prefix(k: int, limit: int, certified: bool, g):
    """The prefix loop as it was, on Fractions, with gcd function g."""
    n_abs, d = abs(numerator(k)), denominator(k)
    lo = hi = None
    lo_at = hi_at = 0
    agrees = True if certified else None
    s = 1
    for m in range(2, limit + 1):
        s_next = s + m**k
        v = Fraction(g(s, s_next), m)
        if lo is None or v < lo:
            lo, lo_at = v, m
        if hi is None or v > hi:
            hi, hi_at = v, m
        if certified and v != Fraction(g(n_abs, m), g(d, m)):
            agrees = False
        s = s_next
    return lo, lo_at, hi, hi_at, agrees


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=_even(60), prefix=st.integers(2, 300), skew=st.integers(0, 40))
def test_min_max_prefix_matches_fraction_scan(k, prefix, skew):
    # skew > 1 doubles the gcds whose arguments fall in one residue class,
    # in both scans alike, so new extremes and closed-form disagreements
    # appear on purpose
    def g(a, b):
        value = gcd(a, b)
        return 2 * value if skew > 1 and (a + 3 * b) % skew == 1 else value

    window = max(denominator(k), abs(numerator(k)))
    with mock.patch.object(gcdlab, "gcd", g):
        res = gcdlab.min_max_scan(k, window, prefix_limit=prefix,
                                  trial_bound=100)
    got = (res.prefix_min, res.prefix_min_at, res.prefix_max,
           res.prefix_max_at, res.prefix_closed_form_agrees)
    assert got == _fraction_prefix(k, res.prefix_limit, res.certified, g)
