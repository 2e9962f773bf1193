"""Property tests: each integer-only kernel against the route it replaced,
on random inputs well past the profile grids. Derandomized, so a run is
reproducible; the example counts keep the whole file to a few seconds."""

import importlib
import io
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, gcd, lcm, prod
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from moser_ladder import cache as cachemod
from moser_ladder import cli, gcdlab, powersum, sweeps
from moser_ladder._primes import (
    factorize,
    is_prime,
    primes_up_to,
    primorial,
    primorial_gcds,
)
from moser_ladder.bernoulli import (
    SQUARE_FREE_ESCALATION,
    SquareFreeStatus,
    _divides_nd,
    _smallest_square_prime,
    bernoulli,
    denominator,
    divides_rational,
    numerator,
    numerator_survey,
    square_free_status,
)
from moser_ladder.powersum import (
    em_solutions,
    power_sum,
    power_sum_naive,
    ratio_hits,
    running_sums,
)

FAST = settings(derandomize=True, max_examples=150, deadline=None)

bmod = importlib.import_module("moser_ladder.bernoulli")
primes_mod = importlib.import_module("moser_ladder._primes")


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
    n, d = b.numerator, b.denominator
    num = gcdlab._diff_numerator(m, s, n, d)
    assert num == diff.numerator
    factors = factorize(m).items()
    want = [
        ("mod-m^1", None, True, divides_rational(m, 1, diff)),
        ("mod-m^2", None, k >= 4 and gcd(b.denominator, m) == 1,
         divides_rational(m, 2, diff)),
        ("mod-m^3", None, k >= 6 and divides_rational(m, 1, b),
         divides_rational(m, 3, diff)),
    ]
    for p, mult in factors:
        want.append(("mod-p^(2r)", p, k >= 4 and b.denominator % p != 0,
                     divides_rational(p, 2 * mult, diff)))
        want.append(("mod-p^(3r)", p, k >= 6 and divides_rational(p, 1, b),
                     divides_rational(p, 3 * mult, diff)))
    assert list(gcdlab._congruence_cells(k, m, num, factors, n, d)) == want
    # the public verdicts read the same cells with S from the closed form:
    # a shift c m^3 moves no verdict (none reaches past m^3 or p^(3 mult))
    if c == 0 or j == 3:
        for r, (_, _, applicable, holds) in enumerate(want[:3], start=1):
            v = gcdlab.congruence_check(k, m, r)
            assert (v.applicable, v.holds) == (applicable, holds)
        if m >= 2:
            local = gcdlab.prime_local_congruences(k, m)
            assert [(v.applicable, v.holds) for v in local] == [
                cell[2:] for cell in want[3:]]


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
@given(k=st.one_of(_even(300), _SQUARE_K), bound=_BOUND)
def test_square_factor_search_matches_trial_division(k, bound):
    n = abs(numerator(k))
    p = _trial_square_factor(n, bound)
    if n == 1:
        want = SquareFreeStatus("trivial")
    elif p is None:
        want = SquareFreeStatus("no-square-factor-below", bound=bound)
    else:
        want = SquareFreeStatus("square-factor", prime=p)
    assert square_free_status(k, bound) == want
    # the survey's one search against the bound-by-bound loop over the
    # escalation ladder's rungs below the bound, then the bound itself
    bounds = tuple(b for b in SQUARE_FREE_ESCALATION if b < bound) + (bound,)
    [survey] = numerator_survey(range(k, k + 1), bound)
    got = survey["square_factor"], survey["flagged_at_bound"]
    hit = _escalate_by_trial(k, bounds)
    assert got == ((None, None) if hit is None else (str(hit[0]), hit[1]))
    assert survey["clear_below"] == (bounds[-1] if hit is None else None)


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


def _fraction_prefix(k: int, m_max: int, g, rung):
    """The prefix loop as it was, on Fractions, with gcd function g for the
    closed form and its gate and a = gcd(S, S_next) = gcd(S, m^k) taken as
    rung(S, m, k) at every m, as the scan takes it. The closed form is
    compared wherever g(m, sq) = 1, sq = gcd(N/h, h) with h = gcd(N, P)
    and P the primorial of m_max, the product of the primes p <= m_max
    with p^2 | N, taken with the real gcd as `bernoulli._square_part`
    takes it for the scan. m = 2 is evaluated even at m_max = 1, where
    the scan reports its seed g(2) = 1/2 and compares nothing."""
    n_abs, d = abs(numerator(k)), denominator(k)
    h = gcd(n_abs, primorial(m_max))
    sq = gcd(n_abs // h, h)
    lo = hi = None
    lo_at = hi_at = 0
    agrees = True
    s = 1
    for m in range(2, max(m_max, 2) + 1):
        s_next = s + m**k
        v = Fraction(rung(s, m, k), m)
        if lo is None or v < lo:
            lo, lo_at = v, m
        if hi is None or v > hi:
            hi, hi_at = v, m
        if (m <= m_max and g(m, sq) == 1
                and v != Fraction(g(n_abs, m), g(d, m))):
            agrees = False
        s = s_next
    return lo, lo_at, hi, hi_at, agrees


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=_even(60), m_max=st.integers(1, 300), skew=st.integers(0, 40))
def test_min_max_prefix_matches_fraction_scan(k, m_max, skew):
    # skew > 1 doubles the values that fall in one residue class, in both
    # scans alike, so new extremes and closed-form disagreements appear on
    # purpose: every gcd of the closed form and of its gate g(m, sq) keyed
    # on its arguments, and the prefix gcd a = gcd(S, S_next) = gcd(S, m^k) keyed
    # on (a, m). The scan seeds its extremes with g(2) = 1/2 (S_k(2) = 1),
    # so a is skewed from m = 3.
    def skewed(a, m):
        return (2 * a if skew > 1 and m > 2 and (a + 3 * m) % skew == 1
                else a)

    def g(a, b):
        value = gcd(a, b)
        return 2 * value if skew > 1 and (a + 3 * b) % skew == 1 else value

    def rung(s, m, k):
        return skewed(gcd(s, m**k), m)

    # the witnesses are read with the real gcd: under g the search for an
    # m coprime to D_k need not end when |N_k| = 1
    witnesses = gcdlab._extreme_witnesses(k)
    with mock.patch.object(gcdlab, "gcd", g), \
            mock.patch.object(gcdlab, "_gcd_with_power", rung), \
            mock.patch.object(gcdlab, "_extreme_witnesses",
                              lambda k: witnesses):
        res = gcdlab.min_max_scan(k, m_max, trial_bound=100)
    got = (res.prefix_min, res.prefix_min_at, res.prefix_max,
           res.prefix_max_at, res.prefix_closed_form_agrees)
    assert got == _fraction_prefix(k, m_max, g, rung)


# m with many repeated primes, so s = c m^j shares deep rungs with m^k
_SMOOTH_M = st.sampled_from((4, 12, 72, 360, 1024, 2310, 3**7, 2**5 * 5**3))


@FAST
@given(c=st.integers(0, 10**40), j=st.integers(0, 70),
       m=st.one_of(st.integers(2, 10**4), _SMOOTH_M), k=st.integers(1, 60))
def test_gcd_with_power_matches_direct_gcd(c, j, m, k):
    # the min-max prefix's stable-rung gcd against the one gcd it replaces
    s = c * m**j
    assert gcdlab._gcd_with_power(s, m, k) == gcd(s, m**k)
    assert gcdlab._gcd_with_power(s + 1, m, k) == gcd(s + 1, m**k)


# ---- survey primality: the primorial gcd's verdict vs is_prime


@FAST
@given(k=_even(250), bound=st.one_of(
    st.integers(2, 10**5), st.sampled_from((2, 10, 1000, 10**5))))
def test_survey_primality_matches_is_prime(k, bound):
    [survey] = numerator_survey(range(k, k + 1), bound)
    assert survey["prime"] == is_prime(abs(numerator(k)))


# ---- gcd ladder: one integer kernel vs the record-per-cell route


def _nests_as_it_was(k, g1, g2, g3, g4, gk) -> bool:
    tail = gk % g4 == 0 if k >= 4 else True
    return g2 % g1 == 0 and g3 % g2 == 0 and g4 % g3 == 0 and tail


def _ladder_as_it_was(k: int, m: int, s: int, s_next: int) -> tuple:
    """The ladder fields and monotone flag as they were computed before
    the kernel: closed forms through numerator()/denominator() per call,
    the chain tested rung by rung."""
    n_abs, d = abs(numerator(k)), denominator(k)
    g1, g2, g3 = gcd(s, m), gcd(s, m * m), gcd(s, m**3)
    g4, gk = gcd(s, m**4), gcd(s, m**k)
    e = gk // g3 if k >= 4 else 1
    residual = e
    g = gcd(residual, n_abs)
    while g > 1:
        residual //= g
        g = gcd(residual, n_abs)
    q = m // gcd(d, m)
    return (g1, g2, g3, g4, gk, q, q * gcd(n_abs, m), q * gcd(n_abs, m * m),
            e, residual == 1, gcd(s, s_next) == gk,
            _nests_as_it_was(k, g1, g2, g3, g4, gk))


@FAST
@given(k=_even(60), m=st.integers(2, 10**6), c=st.integers(-3, 3),
       j=st.integers(0, 5), c_next=st.integers(-1, 1))
def test_ladder_kernel_matches_direct_gcds(k, m, c, j, c_next):
    # c m^j moves S off the closed forms for some (c, j); c_next breaks
    # S(m+1) = S(m) + m^k, so the consecutive rung is exercised too
    s = power_sum(k, m) + c * m**j
    s_next = s + m**k + c_next * m
    ladder = gcdlab._ladder_from_sums(k, m, s, s_next)
    b = bernoulli(k)
    rungs = gcdlab._ladder_rungs(k, m, s, gcd(s, s_next), m**k,
                                 abs(b.numerator), b.denominator)
    want = _ladder_as_it_was(k, m, s, s_next)
    assert rungs + (gcdlab._rungs_nest(k, *rungs[:5]),) == want
    assert (ladder.k, ladder.m) == (k, m)
    assert (ladder.observed_m1, ladder.observed_m2, ladder.observed_m3,
            ladder.observed_m4, ladder.observed_mk, ladder.predicted_m1,
            ladder.predicted_m2, ladder.predicted_m3, ladder.residual,
            ladder.residual_primes_divide_numerator,
            ladder.consecutive_matches, ladder.monotone) == want


@settings(derandomize=True, max_examples=200, deadline=None)
@given(k=_even(60), g=st.tuples(*[st.integers(1, 50)] * 5))
def test_ladder_nesting_is_tested_rung_by_rung(k, g):
    # arbitrary rungs, most of which do not nest (true gcds always do)
    assert gcdlab._rungs_nest(k, *g) == _nests_as_it_was(k, *g)


# ---- divisibility: the integer core vs p-adic valuations


def _valuation(p: int, n: int) -> int:
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def _divides_by_valuations(m: int, r: int, b: Fraction) -> bool:
    """m^r | b p-adically: v_p(N) - v_p(D) >= r v_p(m) at every prime
    p | m, with m factored here by trial division."""
    primes, rest, p = [], m, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            rest //= p ** _valuation(p, rest)
        p += 1
    primes += [rest] if rest > 1 else []
    return b == 0 or all(
        _valuation(p, b.numerator) - _valuation(p, b.denominator)
        >= r * _valuation(p, m) for p in primes)


@FAST
@given(m=st.integers(1, 10**6), r=st.integers(1, 4),
       n=st.integers(-10**30, 10**30), d=st.integers(1, 10**12),
       scale=st.integers(1, 10**6), shared=st.integers(0, 2))
def test_divides_core_matches_valuations(m, r, n, d, scale, shared):
    # scale^r multiples make the true verdict common as well; d * m^shared
    # leaves primes of m in the denominator, which the core never reads
    b = Fraction(n * scale**r, d * m**shared)
    assert _divides_nd(m, r, b.numerator) == _divides_by_valuations(m, r, b)


@FAST
@given(k=_even(250), m=st.integers(1, 10**6), r=st.integers(1, 3))
def test_divides_core_on_bernoulli_numbers(k, m, r):
    b = bernoulli(k)
    # m | N_k for about one m in a hundred here, so try a divisor of N_k
    for q in (m, gcd(m, b.numerator)):
        assert _divides_nd(q, r, b.numerator) == (
            _divides_by_valuations(q, r, b))


# ---- trivial gcd: g = 1 as gcd(S, S_next) == m, vs the Fraction g


@FAST
@given(k=_even(60), m=st.integers(2, 10**6), c=st.integers(-2, 2),
       j=st.integers(0, 3))
def test_trivial_gcd_integer_test_matches_fraction(k, m, c, j):
    s = power_sum(k, m) + c * m**j
    for s_next in (s + m**k, s + m**k + c * m):
        a = gcd(s, s_next)
        assert (a == m) == (Fraction(a, m) == 1)


def _trivial_gcd_row_as_it_was(k: int, spec: sweeps.GridSpec, offset: int):
    """The row on Fractions: S(m) from the naive sum shifted by `offset`,
    then m^k added step by step, S(m+1) from the closed form."""
    dn = denominator(k) * abs(numerator(k))
    m_lo = max(2, spec.m_min)
    s = powersum.power_sum_naive(k, m_lo) + offset
    out = []
    for m in range(m_lo, spec.m_max + 1):
        g = Fraction(gcd(s, power_sum(k, m + 1)), m)
        c = gcd(dn, m)
        out.append(((g == 1) == (c == 1), f"g = {g}, gcd(D N, m) = {c}"))
        s += m**k
    return out


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=_even(40), m_min=st.integers(1, 200), span=st.integers(0, 200),
       offset=st.integers(-50, 50))
def test_trivial_gcd_row_matches_fraction_row(k, m_min, span, offset):
    # the offset shifts every running-sum S of the row, and not the
    # closed-form S(m+1), so many cells fail
    spec = sweeps.GridSpec(k_min=k, k_max=k, m_min=m_min, m_max=m_min + span)
    real = powersum.running_sums

    def shifted(k, m_max):
        return [s + offset for s in real(k, m_max)]

    with mock.patch.object(powersum, "running_sums", shifted):
        row = sweeps._row_trivial_gcd(k, spec)
    want = _trivial_gcd_row_as_it_was(k, spec, offset)
    assert row.passes == sum(ok for ok, _ in want)
    assert [c["observed"] for c in row.counterexamples] == [
        text for ok, text in want if not ok]


# ---- the lists a slice shares: each vs the route it stands for


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(1, 60), m_min=st.integers(1, 400),
       span=st.integers(0, 399), shared=st.booleans())
def test_column_lists_match_their_direct_routes(k, m_min, span, shared):
    m_max = min(400, m_min + span)
    assert powersum._powers(k, m_max) == [j**k for j in range(m_max + 1)]
    ms = range(m_min, m_max + 1)
    ladder_ms = range(max(2, m_min), m_max + 1)
    # in a slice the second read, with the arguments the rows pass and
    # through the memo as the rows read it, returns what the first built;
    # outside a slice each read builds afresh
    factor_lists = powersum._latest(sweeps._factor_lists, per_k=False)
    with mock.patch.object(powersum, "_SLICE", {} if shared else None):
        reads = []
        for _ in range(2):
            got = [powersum._powers(k, m_max), factor_lists(m_max),
                   running_sums(k, m_max), sweeps._closed_forms(k, ms),
                   sweeps._consecutive_gcds(k, ms)]
            powers, factors, sums, closed, gcds = got
            assert powers == [j**k for j in range(m_max + 1)]
            assert factors == [list(factorize(j).items()) if j else []
                               for j in range(m_max + 1)]
            # each list holds its value at m at index m
            assert sums[0] == 0
            assert [b - a for a, b in zip(sums, sums[1:])] == powers[:m_max]
            assert sums[m_min:] == [power_sum_naive(k, m) for m in ms]
            assert len(closed) == m_max + 2
            assert closed[m_min:] == [power_sum(k, m)
                                      for m in range(m_min, m_max + 2)]
            assert len(gcds) == m_max + 1
            assert gcds[ladder_ms.start:] == [
                gcd(power_sum(k, m), power_sum(k, m + 1)) for m in ladder_ms]
            reads.append(got)
        assert [a is b for a, b in zip(*reads)] == [shared] * 5


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(1, 60), m_max=st.integers(1, 400), data=st.data())
def test_tables_over_m_hold_the_value_at_m_at_index_m(k, m_max, data):
    # the index rule of the `powersum` docstring, for the running sums and
    # the sweep's closed forms and consecutive gcds alike
    m_min = data.draw(st.integers(1, m_max))
    m = data.draw(st.integers(m_min, m_max))
    ms = range(m_min, m_max + 1)
    assert running_sums(k, m_max)[m] == power_sum(k, m)
    closed = sweeps._closed_forms(k, ms)
    assert closed[m] == power_sum(k, m)
    assert closed[m_max + 1] == power_sum(k, m_max + 1)
    if m >= max(2, m_min):
        assert sweeps._consecutive_gcds(k, ms)[m] == gcd(
            power_sum(k, m), power_sum(k, m + 1))


# ---- power sums: even-coefficient Horner vs the naive sum and the
# ---- full Horner over every coefficient


def _power_sum_full_horner(k: int, m: int) -> int:
    """The closed form as it was: Horner in m over all k + 1 coefficients,
    zeros at odd j >= 3 included."""
    bs = [bernoulli(j) for j in range(k + 1)]
    scale_l = lcm(*(b.denominator for b in bs))
    acc = 0
    for j in range(k + 1):
        acc = acc * m + comb(k + 1, j) * (
            bs[j].numerator * (scale_l // bs[j].denominator))
    quot, rem = divmod(acc * m, scale_l * (k + 1))
    assert rem == 0
    return quot


@FAST
@given(k=st.integers(1, 80), m=st.integers(1, 3000))
def test_power_sum_matches_naive_sum(k, m):
    assert power_sum(k, m) == power_sum_naive(k, m)


@FAST
@given(k=st.integers(1, 80), m=st.integers(1, 10**12))
def test_power_sum_matches_full_horner(k, m):
    assert power_sum(k, m) == _power_sum_full_horner(k, m)


# ---- searches: stopping at the crossover vs scanning every m


def _ratio_hits_unbounded(k: int, m_min: int, m_max: int):
    s = 1 + 2**k  # S_k(3)
    for m in range(3, m_max + 1):
        mk = m**k
        if m >= m_min and mk >= s and (s + mk) % s == 0:
            yield m, (s + mk) // s
        s += mk


def _em_solutions_unbounded(k: int, m_min: int, m_max: int):
    s = 1  # S_k(2)
    for m in range(2, m_max + 1):
        mk = m**k
        if m >= m_min and s == mk:
            yield m
        s += mk


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(1, 60), m_min=st.integers(1, 5000),
       m_max=st.integers(3, 5000))
@example(k=1, m_min=1, m_max=10)  # the only hits: (1, 3) in both scans
@example(k=3, m_min=3, m_max=5000)  # and (3, 3) in the ratio scan
def test_searches_stopping_at_the_crossover_lose_nothing(k, m_min, m_max):
    assert [(h.m, h.quotient) for h in ratio_hits(k, m_min, m_max)] == list(
        _ratio_hits_unbounded(k, m_min, m_max))
    assert list(em_solutions(k, m_min, m_max)) == list(
        _em_solutions_unbounded(k, m_min, m_max))


@FAST
@given(k=st.integers(1, 200), m=st.integers(2, 10**5))
def test_sum_over_m_to_the_k_strictly_increases(k, m):
    # S_k(m) / m^k < S_k(m+1) / (m+1)^k, cross-multiplied
    assert power_sum(k, m) * (m + 1)**k < power_sum(k, m + 1) * m**k


def _power_sum_mod(k: int, m: int, p: int) -> int:
    """S_k(m) mod p, summed term by term mod p: no Bernoulli number."""
    return sum(pow(j, k, p) for j in range(m)) % p


@settings(derandomize=True, max_examples=100, deadline=None)
@given(k=st.integers(1, 120), m=st.integers(1, 10**30 - 1),
       p=st.sampled_from(primes_up_to(100)))
@example(k=1, m=10**30 - 1, p=2)
@example(k=96, m=97 * 10**27, p=97)  # r = 0, and (p - 1) | k
def test_power_sum_far_past_the_grids_matches_periodicity_mod_p(k, m, p):
    # j^k mod p has period p in j, so S_k(qp + r) = q S_k(p) + S_k(r)
    # (mod p): the closed form at m < 10^30 against p + r small terms
    q, r = divmod(m, p)
    assert power_sum(k, m) % p == (
        q * _power_sum_mod(k, p, p) + _power_sum_mod(k, r, p)) % p


# ---- the per-cell statements the sweep rows check, far past every grid


@settings(derandomize=True, max_examples=300, deadline=None)
@given(k=_even(60), m=st.integers(2, 10**12), base=st.sampled_from("mDN"),
       c=st.integers(1, 30))
@example(k=12, m=2, base="N", c=1)  # m = 691 divides B_12
@example(k=50, m=5, base="m", c=1)  # 5^2 | N_50, the one square for k <= 60
def test_ladder_and_equivalences_far_past_the_grids(k, m, base, c):
    # m is free, or a small multiple of D_k or |N_k| so the gates open
    b = bernoulli(k)
    d, n_abs = b.denominator, abs(b.numerator)
    if base != "m":
        m = max(2, c * (d if base == "D" else n_abs))
    assert gcdlab.gcd_ladder(k, m).ok, (k, m)
    s = power_sum(k, m)
    for r in (1, 2):
        # m^(r+1) | S_k(m) iff m^r | B_k (p-adically)
        assert (s % m ** (r + 1) == 0) == divides_rational(m, r, b), (k, m, r)
    # g(m) = 1 iff gcd(D N, m) = 1
    assert (gcdlab.gcd_ratio(k, m) == 1) == (gcd(d * n_abs, m) == 1), (k, m)


# ---- the tables a sweep builds once: the latest m^k table, closed-form
# ---- columns, batched survey gcds sized by the survey's top


_BOUNDS = st.sampled_from((0, 1, 2, 7, 60, 300))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(1, 40), _BOUNDS), min_size=1,
                      max_size=12))
@example(calls=[(k, 300) for k in range(1, 13)])
@example(calls=[(k, 60) for k in (2, 4, 8, 9, 3, 5, 40, 41)])
@example(calls=[(3, 60), (3, 7), (3, 60)])
def test_powers_after_any_sequence_of_calls(calls):
    # in a slice each call returns the direct route's table, an immediate
    # repeat returns the kept object, and only the latest table of each
    # bound is kept; outside a slice nothing is kept
    with mock.patch.object(powersum, "_SLICE", {}):
        latest: dict = {}
        for k, bound in calls:
            got = powersum._powers(k, bound)
            assert got == [j**k for j in range(bound + 1)], (k, bound)
            assert powersum._powers(k, bound) is got
            latest[bound] = k
            assert len({build for build, _ in powersum._SLICE}) == 1
            kept = {rest: held for (_, rest), held in powersum._SLICE.items()}
            assert {rest: held_k for rest, (held_k, _) in kept.items()} == {
                (b,): b_k for b, b_k in latest.items()}
            assert kept[bound,][1] is got
    for k, bound in calls:
        got = powersum._powers(k, bound)
        assert got == [j**k for j in range(bound + 1)]
        assert powersum._powers(k, bound) is not got
    assert powersum._SLICE is None


def test_a_kept_result_goes_before_the_next_build():
    # a builder of one k called with another k lets its old result go
    # before it builds, so a slice never holds two of one builder's lists
    # for the same other arguments
    held = []

    def build(n):
        held.append(any(key[0] is build for key in powersum._SLICE))
        return [n]

    latest = powersum._latest(build)
    with mock.patch.object(powersum, "_SLICE", {}):
        assert [latest(1), latest(1), latest(2), latest(1)] == [
            [1], [1], [2], [1]]
    assert held == [False, False, False]


def test_a_builder_of_no_k_keeps_each_result_until_the_slice_ends():
    # a grid's factor lists, von Staudt-Clausen table and survey are built
    # once per slice, however the rows of two grids interleave
    built = []

    def build(top, bound):
        built.append((top, bound))
        return [top, bound]

    latest = powersum._latest(build, per_k=False)
    with mock.patch.object(powersum, "_SLICE", {}):
        got = [latest(60, 7), latest(50, 7), latest(60, 7), latest(60, 8),
               latest(50, 7)]
        assert got[0] is got[2] and got[1] is got[4]
        assert len(powersum._SLICE) == 3
    assert built == [(60, 7), (50, 7), (60, 8)]
    assert latest(60, 7) is not latest(60, 7)


@FAST
@given(k=st.integers(1, 60), ms=st.lists(st.integers(1, 600), max_size=20))
def test_power_sums_match_naive_sums(k, ms):
    want = [power_sum_naive(k, m) for m in ms]
    assert powersum.power_sums(k, ms) == want
    assert powersum.power_sums(k, iter(ms)) == want
    assert [power_sum(k, m) for m in ms] == want


@FAST
@given(ns=st.lists(st.one_of(st.integers(1, 10**400), st.integers(1, 10**40)),
                   max_size=40),
       bound=st.integers(2, 3000))
@example(ns=[10**400 - 1, 6, 35, 10**400 + 1, 2**64 * 3**5], bound=1000)
def test_primorial_gcds_match_direct_gcds(ns, bound):
    # primorial(3000) has about 4300 bits, so a list of numbers up to
    # 10^400 falls into several blocks
    p = primorial(bound)
    assert primorial_gcds(ns, bound) == [gcd(n, p) for n in ns]


_TRIAL_BOUNDS = st.one_of(st.integers(2, 10**5),
                          st.sampled_from((2, 10, 1000, 10**5)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(bound=_TRIAL_BOUNDS, lo=_even(250), hi=_even(250), grown=_even(500),
       other=_TRIAL_BOUNDS)
@example(bound=10**5, lo=2, hi=250, grown=500, other=10)
@example(bound=10, lo=250, hi=48, grown=100, other=10**5)
def test_batched_survey_gcds_match_direct_gcds(bound, lo, hi, grown, other):
    # a survey of the even k in [lo, hi], after the table has grown to
    # `grown`, takes its gcds in one call over exactly its own numerators
    # > 1, none past its top however far the table reaches; each gcd is
    # the direct one, at this bound and at another, wherever the blocks
    # fall
    ks = range(min(lo, hi), max(lo, hi) + 1, 2)
    bernoulli(grown)
    big = [n for n in (abs(numerator(k)) for k in ks) if n > 1]
    real = primes_mod.primorial_gcds
    calls = []

    def counted(ns, b):
        calls.append(ns)
        return real(ns, b)

    with mock.patch.object(primes_mod, "primorial_gcds", counted):
        numerator_survey(ks, bound)
    assert calls == [big]
    for b in (bound, other):
        want = [gcd(n, primorial(b)) for n in big]
        assert primorial_gcds(big, b) == want, b
        for cut in range(0, len(big) + 1, max(1, len(big) // 4)):
            assert (primorial_gcds(big[:cut], b)
                    + primorial_gcds(big[cut:], b)) == want, (b, cut)


def test_min_max_prefix_matches_definition():
    # the prefix takes a = gcd(S, S_next) as the first stable rung
    # gcd(S, m^j); against a scan that takes a = gcd(S, S + m^k) itself
    # at every m <= 4096, even k <= 60, and compares the closed form at
    # every m that no p with p^2 | N divides (5^2 | N_50)
    for k in range(2, 61, 2):
        n_abs, d = abs(numerator(k)), denominator(k)
        sq = prod(p for p in primes_up_to(4096) if n_abs % (p * p) == 0)
        res = gcdlab.min_max_scan(k, 4096)
        lo = hi = Fraction(1, 2)
        lo_at = hi_at = 2
        agrees = True
        s = 1
        for m in range(2, 4097):
            s_next = s + m**k
            v = Fraction(gcd(s, s_next), m)
            if v < lo:
                lo, lo_at = v, m
            if v > hi:
                hi, hi_at = v, m
            if gcd(m, sq) == 1 and v != Fraction(gcd(n_abs, m), gcd(d, m)):
                agrees = False
            s = s_next
        assert (res.prefix_min, res.prefix_min_at, res.prefix_max,
                res.prefix_max_at, res.prefix_closed_form_agrees) == (
            lo, lo_at, hi, hi_at, agrees), k
        assert agrees, k


# ---- the cache a command leaves: exactly the even prefix of its k


@settings(derandomize=True, max_examples=40, deadline=None)
@given(top=st.integers(0, 30).map(lambda h: 2 * h), past=st.integers(0, 8),
       odd=st.integers(0, 39).map(lambda h: 2 * h + 1),
       k=st.integers(1, 80))
@example(top=0, past=0, odd=1, k=1)
@example(top=20, past=0, odd=21, k=21)
@example(top=20, past=0, odd=21, k=22)
@example(top=20, past=8, odd=3, k=40)
def test_cache_rewrite_is_the_even_prefix_of_the_query(top, past, odd, k):
    # a file with the gap-free even prefix 2..top, then a gap at top + 2,
    # one entry past it, one at an odd k and one at k = 0; an odd query
    # (B_k = 0 reads no entry) or an even one the prefix reaches leaves the
    # file untouched, and any other leaves exactly the even prefix 2..k
    store = cachemod.snapshot_bernoulli(top)
    for j in (top + 4 + 2 * past, odd, 0):
        b = bernoulli(j)
        store.entries[j] = (b.numerator, b.denominator)
    with tempfile.TemporaryDirectory() as tmp:
        path, want = Path(tmp) / "bern.cache", Path(tmp) / "want.cache"
        cachemod.cache_store(store, path)
        before, mtime = path.read_bytes(), path.stat().st_mtime_ns
        with redirect_stdout(io.StringIO()):
            assert cli.main(["bern", str(k), "--cache", str(path)]) == 0
        if k % 2 or k <= top:
            assert path.read_bytes() == before
            assert path.stat().st_mtime_ns == mtime
        else:
            cachemod.cache_store(cachemod.snapshot_bernoulli(k), want)
            assert path.read_bytes() == want.read_bytes()
