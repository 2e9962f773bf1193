"""Gcd structure of power sums: the normalized gcd of consecutive sums,
its closed forms in terms of Bernoulli numerators and denominators, the
congruences S_k(m) = B_k m (mod m^r) with their applicability gates, and
the min/max scan for the extremes of the normalized gcd.

Notation used throughout: S = S_k(m), N = numerator(k), D = denominator(k),
g(m) = gcd(S_k(m), S_k(m+1)) / m.

The hot loops run on integers only, with N and D read once per k by the
callers that loop over m. One kernel, `_ladder_rungs`, computes a gcd
ladder cell: every observed rung is its own gcd (of S with m, m^2, m^3,
m^4 and m^k, with m^k passed in from the caller's table), never derived
from another rung, so the ladder's nesting stays a real check, which
`monotone` reports and nothing raises; the residual is gk / gcd(gk, g3)
for gk = gcd(S, m^k) and g3 = gcd(S, m^3) (gk / g3 where they nest); the
consecutive rung gcd(S, S_k(m+1)) comes in as an argument, taken by the
caller directly from the two sums (the sweep takes S_k(m+1) from the
closed form and S from the running sums, so the cell ties two routes, and
shares the gcd with the trivial-gcd row); the closed forms are gcds of m
with N and D. It alone decides the verdict, `monotone` and `ok`, which
`_ladder_from_sums` and `gcd_ladder` store and the sweep row reads. A
congruence cell carries S - B_k m as the integer X = D S - N m over D,
reduced once per (k, m); its p-adic divisibility tests and its gates
are integer tests on that numerator and on N and D. One kernel,
`_congruence_cells`, decides every congruence cell of one m and returns
them as a list: `congruence_check`, `prime_local_congruences` and the
sweep row all read it. The min/max prefix keeps g(m) = a/m unreduced and
compares by cross-multiplication; `Fraction`s are built only for
reported values. Its a = gcd(S, S_k(m+1)) = gcd(S, m^k) is the first
stable rung gcd(S, m^j), from `_gcd_with_power` at every m, on moduli of
a few words; the ladder does not read it, so its rungs stay
independent. The prefix reads S_k(m) from `powersum.running_sums`, the
list the sweep's rows share. `_extreme_witnesses` picks the extremes'
two witnesses and evaluates g at both, for min/max and special-values.

The prefix's closed form holds pointwise: at even k, g(m) = gcd(N, m) /
gcd(D, m) for each m >= 2 that no prime p with p^2 | N divides. At p | m,
e = v_p(m), v_p(D) <= 1 (von Staudt-Clausen) and v_p(N) <= 1 make the right
side's valuation t = v_p(B_k m), and the congruences give v_p(S - B_k m) >
t: if p | D, t = e - 1 and S = B_k m (mod m); if p | N, t = e + 1, k >= 6
and S = B_k m (mod p^(3e)); else t = e and S = B_k m (mod p^(2e)) at k >= 4,
while S_2(m) = m(m - 1)(2m - 1)/6 has v_p = e. So v_p(S) = t <= ke.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd
from typing import Iterable, NamedTuple

from . import _primes, powersum
from .bernoulli import (
    TRIAL_BOUND,
    SquareFreeStatus,
    _require_even,
    _square_part,
    bernoulli_pair,
    denominator,
    numerator,
    square_free_status,
)

__all__ = [
    "gcd_ratio",
    "GcdLadder",
    "gcd_ladder",
    "CongruenceVerdict",
    "congruence_check",
    "PrimeLocalVerdict",
    "prime_local_congruences",
    "MinMaxResult",
    "min_max_scan",
    "CrossGcdVerdict",
    "CROSS_GCD_OFFSETS",
    "cross_gcd_check",
]


def gcd_ratio(k: int, m: int) -> Fraction:
    """g(m) = gcd(S_k(m), S_k(m+1)) / m, both sums evaluated directly.

    Even k >= 2, m >= 2. Always a positive rational whose denominator
    divides m.
    """
    _require_even(k, "gcd_ratio")
    if m < 2:
        raise ValueError(f"gcd_ratio needs m >= 2, got {m}")
    return Fraction(gcd(*powersum.power_sums(k, (m, m + 1))), m)


class GcdLadder(NamedTuple):
    """Observed gcd(S, m^r) for r in 1, 2, 3, 4, k next to the closed-form
    predictions that exist (r <= 3). The m^4 and m^k columns have no closed
    form; the m^k column instead carries the residual-factor constraint
    e = gk / gcd(gk, g3), with gk = gcd(S, m^k) and g3 = gcd(S, m^3),
    every prime of which must divide N. `monotone` (each rung divides the
    next) and `ok` (every cell holds) are stored, as `_ladder_rungs`
    decides them for the `gcd-ladder` row: a broken nesting is reported
    by `monotone`, never raised."""

    k: int
    m: int
    observed_m1: int
    observed_m2: int
    observed_m3: int
    observed_m4: int
    observed_mk: int
    predicted_m1: int
    predicted_m2: int
    predicted_m3: int
    residual: int
    residual_primes_divide_numerator: bool
    consecutive_matches: bool
    monotone: bool
    ok: bool


def _rungs_nest(k: int, g1: int, g2: int, g3: int, g4: int, gk: int) -> bool:
    """Each observed rung divides the next: gcd(S, m) | gcd(S, m^2) | ... |
    gcd(S, m^4), and | gcd(S, m^k) once k >= 4 (below that, m^k does not
    extend the chain)."""
    return (g2 % g1 == 0 and g3 % g2 == 0 and g4 % g3 == 0
            and (k < 4 or gk % g4 == 0))


def _ladder_rungs(
    k: int, m: int, s: int, consecutive: int, mk: int, n_abs: int, d: int
) -> tuple[int, int, int, int, int, int, int, int, int, bool, bool, bool,
           bool]:
    """The GcdLadder fields after k and m, in field order, for S = s,
    gcd(S, S_k(m+1)) = consecutive and m^k = mk, given |N| and D of B_k.

    Each observed rung is its own direct gcd; none is derived from
    another, and `consecutive` must be the gcd of the two sums, taken
    directly. The closed forms for the m, m^2 and m^3 rungs are
    q = m / gcd(D, m), q gcd(N, m) and q gcd(N, m^2). The residual e =
    gk / gcd(gk, g3) is gk / g3 where the rungs nest and 1 at k = 2;
    every prime of e divides N iff e | N^j, j = e.bit_length(). The last
    field, `ok`, is the cell's verdict: the three closed forms, the
    consecutive gcd, the nesting (reported by `monotone`, never raised)
    and the residual primes all hold.
    """
    m2 = m * m
    g1, g2, g3, g4 = gcd(s, m), gcd(s, m2), gcd(s, m2 * m), gcd(s, m2 * m2)
    gk = gcd(s, mk)
    e = gk // gcd(gk, g3)
    p1 = m // gcd(d, m)
    p2, p3 = p1 * gcd(n_abs, m), p1 * gcd(n_abs, m2)
    residual_ok = pow(n_abs, e.bit_length(), e) == 0
    consecutive_ok = consecutive == gk
    monotone = _rungs_nest(k, g1, g2, g3, g4, gk)
    return (g1, g2, g3, g4, gk, p1, p2, p3, e, residual_ok, consecutive_ok,
            monotone, g1 == p1 and g2 == p2 and g3 == p3 and consecutive_ok
            and monotone and residual_ok)


def _ladder_from_sums(k: int, m: int, s: int, s_next: int) -> GcdLadder:
    n, d = bernoulli_pair(k)
    return GcdLadder(k, m, *_ladder_rungs(k, m, s, gcd(s, s_next), m**k,
                                          abs(n), d))


def gcd_ladder(k: int, m: int) -> GcdLadder:
    """Full ladder record at one (k, m); sums from one closed-form call."""
    _require_even(k, "gcd_ladder")
    if m < 2:
        raise ValueError(f"gcd_ladder needs m >= 2, got {m}")
    return _ladder_from_sums(k, m, *powersum.power_sums(k, (m, m + 1)))


class CongruenceVerdict(NamedTuple):
    """Outcome of S_k(m) = B_k m (mod m^r) in the p-adic sense.

    `applicable` records whether the precondition for this r was checked
    and held; `holds` is the observed truth of the congruence either way,
    so vacuous cells stay visible.
    """

    k: int
    m: int
    r: int
    applicable: bool
    holds: bool


def _diff_numerator(m: int, s: int, n: int, d: int) -> int:
    """Numerator of S - B_k m in lowest terms, for S = S_k(m) and
    B_k = n/d: the integer X = D S - N m over D, reduced once."""
    x = d * s - n * m
    return x // gcd(x, d)


def _congruence_cells(
    k: int, m: int, num: int, factors: Iterable[tuple[int, int]],
    n: int, d: int,
) -> list[tuple[str, int | None, bool, bool]]:
    """[(label, p, applicable, holds)] of every congruence cell at (k, m),
    given B_k = n/d and the numerator `num` of S_k(m) - B_k m in lowest
    terms: "mod-m^r" for r = 1, 2, 3 with p None, then "mod-p^(2r)" and
    "mod-p^(3r)" for each (p, mult) of `factors` (prime p, p^mult || m).
    The sweep row names a failing prime-local cell "<label> p=<p>".

    Integers only. q^e divides a reduced fraction p-adically iff q^e
    divides its numerator, for q = m or q = p: a prime of q that divided
    the denominator could not divide the numerator. The gates read N and
    D: a level-2 cell needs k >= 4 and q coprime to D, a level-3 cell
    needs k >= 6, q coprime to D and q | N (that is, q | B_k p-adically).
    """
    unit = gcd(d, m) == 1
    m2 = m * m
    cells = [("mod-m^1", None, True, num % m == 0),
             ("mod-m^2", None, k >= 4 and unit, num % m2 == 0),
             ("mod-m^3", None, k >= 6 and unit and n % m == 0,
              num % (m2 * m) == 0)]
    for p, mult in factors:
        unit = d % p != 0
        pm = p**mult
        pm2 = pm * pm
        cells.append(("mod-p^(2r)", p, k >= 4 and unit, num % pm2 == 0))
        cells.append(("mod-p^(3r)", p, k >= 6 and unit and n % p == 0,
                      num % (pm2 * pm) == 0))
    return cells


def congruence_check(k: int, m: int, r: int) -> CongruenceVerdict:
    """Check S_k(m) = B_k m (mod m^r) for r in 1, 2, 3, with S_k(m) from
    the closed form.

    Applicability gates: r = 1 needs k >= 2 only; r = 2 needs k >= 4 and
    gcd(D, m) = 1; r = 3 needs k >= 6 and m | B_k (p-adically).
    """
    _require_even(k, "congruence_check")
    if m < 1:
        raise ValueError(f"congruence_check needs m >= 1, got {m}")
    if r not in (1, 2, 3):
        raise ValueError(f"congruence_check supports r in 1..3, got {r}")
    n, d = bernoulli_pair(k)
    num = _diff_numerator(m, powersum.power_sum(k, m), n, d)
    _, _, applicable, holds = _congruence_cells(k, m, num, (), n, d)[r - 1]
    return CongruenceVerdict(k, m, r, applicable, holds)


class PrimeLocalVerdict(NamedTuple):
    """Prime-local congruence at p with p^mult || m.

    level 2: S_k(m) = B_k m (mod p^(2 mult)) when k >= 4 and p does not
    divide D. level 3: mod p^(3 mult) when k >= 6 and p | B_k.
    """

    k: int
    m: int
    p: int
    mult: int
    level: int
    applicable: bool
    holds: bool


def prime_local_congruences(k: int, m: int) -> list[PrimeLocalVerdict]:
    """Level 2 and 3 prime-local verdicts for every prime power in m, with
    S_k(m) from the closed form."""
    _require_even(k, "prime_local_congruences")
    if m < 2:
        raise ValueError(f"prime_local_congruences needs m >= 2, got {m}")
    n, d = bernoulli_pair(k)
    num = _diff_numerator(m, powersum.power_sum(k, m), n, d)
    factors = _primes.factorize(m).items()
    cells = iter(_congruence_cells(k, m, num, factors, n, d)[3:])
    out = []
    for p, mult in factors:
        for level in (2, 3):
            _, _, applicable, holds = next(cells)
            out.append(
                PrimeLocalVerdict(k, m, p, mult, level, applicable, holds))
    return out


def _gcd_with_power(s: int, m: int, k: int) -> int:
    """gcd(s, m^k) for s >= 0, m >= 2 and k >= 1, from the rungs
    a_j = gcd(s, m^j), each a gcd of s mod m^j with m^j: moduli of a few
    words, where gcd(s, s + m^k) would run on two sums of full size.

    The rungs divide each other, and once a_j = a_(j+1) they are constant
    for every larger j. For each prime p | m, with e = v_p(m) >= 1,
    v_p(a_j) = min(v_p(s), j e); equality at j and j + 1 forces
    v_p(s) <= j e, so v_p(a_i) = v_p(s) for every i >= j. The answer is a_j
    at the first stable j, or a_k if no rung below k is stable. One
    reduction of s mod m^2 serves the first two rungs, which settle
    nearly every m of the min/max prefix. The gcd ladder does not call
    this: its nesting and consecutive-gcd cells need every rung computed
    on its own.
    """
    mj = m * m
    r = s % mj
    a = gcd(r, m)
    if k == 1:
        return a
    j, nxt = 2, gcd(r, mj)
    while nxt != a and j < k:
        a = nxt
        mj *= m
        j += 1
        nxt = gcd(s % mj, mj)
    return nxt


def _extreme_witnesses(k: int) -> tuple[int, Fraction, int, Fraction]:
    """(D, g(D), m, g(m)) with m = |N|, or the first m >= 2 coprime to D
    when |N| = 1 (g = 1 there too); both values by definition, any size."""
    d, n_abs = denominator(k), abs(numerator(k))
    m = n_abs if n_abs >= 2 else next(j for j in count(2) if gcd(d, j) == 1)
    s_d, s_d1, s_m, s_m1 = powersum.power_sums(k, (d, d + 1, m, m + 1))
    return d, Fraction(gcd(s_d, s_d1), d), m, Fraction(gcd(s_m, s_m1), m)


class MinMaxResult(NamedTuple):
    """Extremes of g over every m >= 2, from a brute-force prefix and both
    witnesses: D, and |N| or, when |N| = 1, the first m coprime to D.

    The prefix 2 <= m <= m_max and both witnesses are evaluated by
    definition (module docstring), whatever their size, and the prefix is
    compared with g(m) = gcd(N, m)/gcd(D, m) wherever that is proven, at
    every k. Past the prefix the square-free closed form bounds g between
    1/D and |N| pointwise, so the witness values are the exact extremes
    whenever `certified` is set, which governs these claims alone: it reads
    `square_free.certified`, the one rule, true when the search found no
    square factor below the trial bound. The minimum needs no square-free
    input: g(m) >= 1/gcd(D, m) unconditionally, so min_value is exact
    whenever the witness attains it. When `certified` is false, max_value
    is only a lower bound for the true supremum and the scan reports, never
    asserts.
    """

    k: int
    square_free: SquareFreeStatus
    min_value: Fraction
    min_witness: int
    max_value: Fraction
    max_witness: int
    product: Fraction
    product_matches_abs_b: bool
    prefix_min: Fraction
    prefix_min_at: int
    prefix_max: Fraction
    prefix_max_at: int
    prefix_closed_form_agrees: bool

    @property
    def certified(self) -> bool:
        return self.square_free.certified


def min_max_scan(k: int, m_max: int,
                 trial_bound: int = TRIAL_BOUND) -> MinMaxResult:
    """The extremes of g over every m >= 2 and their smallest witnesses,
    from `_extreme_witnesses`; the prefix is reported, never read for them.

    The brute-force prefix covers 2 <= m <= m_max, the grid's m range, and
    is seeded with g(2) = 1/2; m_max is bounded like every table over m
    (`powersum.MAX_M`).
    """
    _require_even(k, "min_max_scan")
    running = powersum.running_sums(k, m_max)
    n_abs = abs(numerator(k))
    d = denominator(k)
    status = square_free_status(k, trial_bound)
    sq = _square_part(n_abs, m_max)  # the primes p <= m_max with p^2 | N

    # brute-force prefix by definition, cross-checked against the closed
    # form at every m coprime to sq (exact: the primes of m are <= m_max).
    # g(m) = a/m is kept unreduced and compared by cross-multiplication;
    # strict comparisons keep the first witness of each extreme.
    lo_a = hi_a = 1  # g(2) = gcd(S_k(2), S_k(3)) / 2 = 1/2
    prefix_min_at = prefix_max_at = 2
    closed_agrees = True
    for m in range(2, m_max + 1):
        a = _gcd_with_power(running[m], m, k)  # gcd(S, S + m^k) = gcd(S, m^k)
        if a * prefix_min_at < lo_a * m:
            lo_a, prefix_min_at = a, m
        if a * prefix_max_at > hi_a * m:
            hi_a, prefix_max_at = a, m
        if a * gcd(d, m) != gcd(n_abs, m) * m and gcd(m, sq) == 1:
            closed_agrees = False

    min_witness, min_value, max_witness, max_value = _extreme_witnesses(k)
    product = min_value * max_value
    return MinMaxResult(k, status, min_value, min_witness, max_value,
                        max_witness, product, product == Fraction(n_abs, d),
                        Fraction(lo_a, prefix_min_at), prefix_min_at,
                        Fraction(hi_a, prefix_max_at), prefix_max_at,
                        closed_agrees)


# offsets s for the numerator/denominator cross gcd; these are the even s
# whose B_s numerator is a unit or a single prime small enough that the
# divisibility statement has content at desk scale
CROSS_GCD_OFFSETS = (2, 4, 6, 8, 10, 14)


class CrossGcdVerdict(NamedTuple):
    """C = gcd(|N_k|, D_(k-s)) and the structure claimed for it:
    C | k; if C > 1 then C is square-free and each of its primes divides
    neither D_s nor the numerator of B_k / k in lowest terms."""

    k: int
    s: int
    c: int
    divides_k: bool
    c_square_free: bool
    prime_checks: tuple[tuple[int, bool, bool], ...]

    @property
    def ok(self) -> bool:
        return (
            self.divides_k
            and self.c_square_free
            and all(a and b for _, a, b in self.prime_checks)
        )


def cross_gcd_check(k: int, s: int) -> CrossGcdVerdict:
    """Verify the cross-index gcd structure at one (k, s)."""
    _require_even(k, "cross_gcd_check")
    if s not in CROSS_GCD_OFFSETS:
        raise ValueError(f"s must be one of {CROSS_GCD_OFFSETS}, got {s}")
    if k - s < 2:
        raise ValueError(f"needs k - s >= 2, got k={k}, s={s}")
    n_abs = abs(numerator(k))
    c = gcd(n_abs, denominator(k - s))
    divides_k = k % c == 0
    if c == 1:
        return CrossGcdVerdict(k, s, c, divides_k, True, ())
    facs = _primes.factorize(c)
    c_square_free = all(e == 1 for e in facs.values())
    d_s = denominator(s)
    # |numerator of B_k / k| in lowest terms: N is prime to D
    n_over_k = n_abs // gcd(n_abs, k)
    checks = tuple((p, d_s % p != 0, n_over_k % p != 0) for p in facs)
    return CrossGcdVerdict(k, s, c, divides_k, c_square_free, checks)
