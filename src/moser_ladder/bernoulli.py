"""Exact Bernoulli numbers and the structure of their numerators and
denominators.

Even-index values come from the tangent numbers T_n (Brent & Harvey,
"Fast computation of Bernoulli, tangent and secant numbers",
arXiv:1108.0286): T_1..T_n take O(n^2) products of a small integer by a
big one, and B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)). Values are
memoized across calls. Convention: B_1 = -1/2. Denominators are
cross-checkable against the von Staudt-Clausen product, which is exposed
separately so the two routes stay independent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from ._primes import is_prime, primes_up_to, primorial, remainders

__all__ = [
    "bernoulli",
    "MemoPoisonedError",
    "bernoulli_record",
    "BernoulliRecord",
    "vsc_denominator",
    "numerator",
    "denominator",
    "SquareFreeStatus",
    "square_free_status",
    "size_estimate",
    "exact_log_abs",
    "numerator_bound_check",
    "divides_rational",
    "seed_even_values",
    "even_value_pairs",
]

_B1 = Fraction(-1, 2)

# _EVEN[i] = B_{2i}; grown on demand, never shrunk. Safe to share across
# threads only because entries are immutable and appends are GIL-atomic;
# parallel sweeps precompute the needed range up front instead of racing.
_EVEN: list[Fraction] = [Fraction(1)]

# Column n = len(_TANGENT) of the Brent-Harvey tangent triangle: the value
# at position n after each of the algorithm's n passes, from
# _TANGENT[0] = (n-1)! to _TANGENT[-1] = T_n. _EVEN agrees with the tangent
# numbers up to B_2n; entries past it were seeded, not computed.
_TANGENT: list[int] = []


class MemoPoisonedError(ValueError):
    """A seeded memo entry disagrees with the tangent numbers (a bad cache)."""


def _extend_even(half: int) -> None:
    """Grow the memo to B_{2 half}, checking any seeded entries on the way.

    The tangent triangle is advanced one column at a time, so growing the
    table in steps costs the same O(half^2) products as one build. A seeded
    entry that disagrees raises MemoPoisonedError.
    """
    global _TANGENT
    if half < len(_EVEN):
        return
    while len(_TANGENT) < half:
        prev = _TANGENT
        n = len(prev) + 1
        t = (n - 1) * prev[0] if prev else 1  # (n-1)!
        col = [t]
        for i in range(1, n - 1):
            t = (n - i - 1) * prev[i] + (n - i + 1) * t
            col.append(t)
        if n > 1:
            t *= 2  # the last pass adds 0 * T_{n-1}
            col.append(t)
        four_n = 4**n
        value = Fraction((-1) ** (n - 1) * 2 * n * t, four_n * (four_n - 1))
        if n < len(_EVEN):
            if _EVEN[n] != value:
                raise MemoPoisonedError(
                    f"memo entry for k={2 * n} disagrees with the tangent "
                    f"numbers (seeded from a bad cache?)"
                )
        else:
            _EVEN.append(value)
        _TANGENT = col


def bernoulli(k: int) -> Fraction:
    """B_k as an exact Fraction in lowest terms.

    Raises ValueError for k < 0.
    """
    if k < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {k}")
    if k == 1:
        return _B1
    if k % 2:
        return Fraction(0)
    _extend_even(k // 2)
    return _EVEN[k // 2]


class BernoulliRecord(NamedTuple):
    """B_k = numerator/denominator in lowest terms, denominator > 0."""

    k: int
    numerator: int
    denominator: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def bernoulli_record(k: int) -> BernoulliRecord:
    b = bernoulli(k)
    return BernoulliRecord(k, b.numerator, b.denominator)


def _require_even(k: int, what: str) -> None:
    if k < 2 or k % 2:
        raise ValueError(f"{what} needs even k >= 2, got {k}")


def _vsc_primes(k: int) -> list[int]:
    """Primes p with (p-1) | k, from the divisor pairs (d, k/d), d <= sqrt k."""
    divisors = set()
    for d in range(1, isqrt(k) + 1):
        if k % d == 0:
            divisors.update((d, k // d))
    return [d + 1 for d in divisors if is_prime(d + 1)]


def _vsc_prime_table(top: int) -> list[list[int]]:
    """t[k/2] = the primes p with (p-1) | k, ascending, for every even
    k <= top: one pass over the primes p <= top + 1, each marking the
    even multiples of p - 1, instead of `_vsc_primes`' divisors of each k."""
    table: list[list[int]] = [[] for _ in range(top // 2 + 1)]
    for p in primes_up_to(top + 1):
        step = max(p - 1, 2)  # p = 2: (p-1) | k for every even k
        for k in range(step, top + 1, step):
            table[k // 2].append(p)
    return table


def vsc_denominator(k: int) -> int:
    """von Staudt-Clausen denominator: product of primes p with (p-1) | k.

    Independent of the tangent numbers; used to cross-check denominator(k).
    """
    _require_even(k, "vsc_denominator")
    return math.prod(_vsc_primes(k))


def numerator(k: int) -> int:
    """Signed numerator N_k of B_k, even k >= 2 only."""
    _require_even(k, "numerator")
    return bernoulli(k).numerator


def denominator(k: int) -> int:
    """Denominator D_k > 0 of B_k, even k >= 2 only."""
    _require_even(k, "denominator")
    return bernoulli(k).denominator


class SquareFreeStatus(NamedTuple):
    """Outcome of a bounded square-factor search on |N_k|.

    kind is one of "trivial" (|N_k| = 1), "square-factor" (prime field set),
    or "no-square-factor-below" (bound field set). A bounded search cannot
    certify square-freeness, only the absence of small square factors.
    """

    kind: str
    bound: int | None = None
    prime: int | None = None

    @property
    def certified(self) -> bool:
        """No square factor found, so the closed form g(m) = gcd(N, m) /
        gcd(D, m) is taken to hold: the one rule for certification."""
        return self.kind != "square-factor"


# Largest square-factor trial bound accepted: the primorial and the prime
# sieve of a bound grow with it (at 10^6, about 0.4 s and 21 MB).
MAX_TRIAL_BOUND = 10**6


def _check_trial_bound(trial_bound: int) -> None:
    if not 2 <= trial_bound <= MAX_TRIAL_BOUND:
        side = ">= 2" if trial_bound < 2 else f"<= {MAX_TRIAL_BOUND}"
        raise ValueError(f"trial_bound must be {side}, got {trial_bound}")


def _smallest_square_prime(n: int, bound: int,
                           g: int | None = None) -> int | None:
    """Smallest prime p <= bound with p^2 | n, for n >= 1.

    One gcd with the primorial finds g, the product of the primes <= bound
    that divide n (a caller that already holds g passes it); since g is
    square-free, gcd(n / g, g) is the product of those with p^2 | n. Only
    its smallest prime is then looked for.
    """
    if g is None:
        g = gcd(n, primorial(bound))
    sq = gcd(n // g, g)
    if sq == 1:
        return None
    return next(p for p in primes_up_to(bound) if sq % p == 0)


# (bound, gcds): gcds[k/2 - 1] = gcd(|N_k|, primorial(bound)) for the even
# k the numerator survey has reached at that bound; one bound at a time.
_SURVEY_GCDS: tuple[int, list[int]] = (0, [])


def _primorial_gcd(k: int, bound: int) -> int:
    """gcd(|N_k|, primorial(bound)) for even k >= 2, from batched gcds.

    A miss grows the table to k and takes the gcds of the next numerators
    of the table in blocks, each block from one remainder tree of the
    primorial (`_primes.remainders`): a block runs from the first k not
    yet covered while the product of its |N| stays within the
    primorial's bits, where one tree costs less than a long division of
    the primorial per numerator. On `extended` (bound 10^5, a
    143,816-bit primorial) the 125 numerators to k = 250 are one block.
    """
    global _SURVEY_GCDS
    if _SURVEY_GCDS[0] != bound:
        _SURVEY_GCDS = (bound, [])
    gcds = _SURVEY_GCDS[1]
    if len(gcds) < k // 2:
        _extend_even(k // 2)
        p = primorial(bound)
        budget = p.bit_length()
        while len(gcds) < k // 2:
            block, bits = [], 0
            for b in _EVEN[len(gcds) + 1:]:
                n = abs(b.numerator)
                bits += n.bit_length()
                if block and bits > budget:
                    break
                block.append(n)
            gcds += map(gcd, block, remainders(p, block))
    return gcds[k // 2 - 1]


def _square_free_search(
    k: int, trial_bound: int, batched: bool = False
) -> tuple[SquareFreeStatus, int, int]:
    """The one square-factor search on N_k: its status, |N_k| and
    g = gcd(|N_k|, primorial(trial_bound)), the product of the primes <= the
    bound that divide |N_k| (1 when |N_k| = 1, which needs no gcd). g is
    one gcd here, or with `batched` (the numerator survey, which asks for
    every even k in turn) read from `_primorial_gcd`."""
    _check_trial_bound(trial_bound)
    n = abs(numerator(k))
    if n == 1:
        return SquareFreeStatus("trivial"), n, 1
    g = (_primorial_gcd(k, trial_bound) if batched
         else gcd(n, primorial(trial_bound)))
    p = _smallest_square_prime(n, trial_bound, g)
    if p is None:
        return (SquareFreeStatus("no-square-factor-below", bound=trial_bound),
                n, g)
    return SquareFreeStatus("square-factor", prime=p), n, g


def square_free_status(k: int, trial_bound: int) -> SquareFreeStatus:
    """Search |N_k| for a square factor p^2 over the primes p <= trial_bound.

    Integer-only and without trial division of |N_k|: the primes <= the
    bound that divide |N_k| come from one gcd with their product (the
    primorial, cached per bound), and p^2 is tested for those alone.
    Reports the smallest such p, as a trial division in ascending p would.
    """
    return _square_free_search(k, trial_bound)[0]


def size_estimate(k: int, zeta_terms: int = 64) -> float:
    """log |B_k| from the Euler product formula with a truncated zeta sum.

    Uses |B_k| = 2 zeta(k) k! / (2 pi)^k. With the default 64 terms the
    result matches the exact log within 1e-9 relative for even k >= 10.
    """
    _require_even(k, "size_estimate")
    if zeta_terms < 1:
        raise ValueError(f"zeta_terms must be >= 1, got {zeta_terms}")
    # sum ascending in n; terms shrink fast, rounding is negligible here
    zeta = math.fsum(n ** -float(k) for n in range(1, zeta_terms + 1))
    return (
        math.log(2)
        + math.log(zeta)
        + math.lgamma(k + 1)
        - k * math.log(2 * math.pi)
    )


def exact_log_abs(k: int) -> float:
    """log |B_k| evaluated from the exact value (reference for size_estimate)."""
    _require_even(k, "exact_log_abs")
    b = bernoulli(k)
    return math.log(abs(b.numerator)) - math.log(b.denominator)


# Comparing a transcendental bound in floats: the observed slack is at least
# ~8.9 in log terms on the checked range, so a fixed margin orders of
# magnitude above float error is safe. If the gap ever lands inside the
# margin the check conservatively reports False.
_BOUND_MARGIN = 1e-6


def numerator_bound_check(k: int) -> bool:
    """|N_k| < (2 pi / 3) (k / pi)^(k-1), and D_k | 2(2^k - 1).

    The size bound is compared in logs with a safety margin; the
    divisibility is exact integer arithmetic.
    """
    _require_even(k, "numerator_bound_check")
    lhs = math.log(abs(numerator(k)))
    rhs = math.log(2 * math.pi / 3) + (k - 1) * (math.log(k) - math.log(math.pi))
    if not lhs + _BOUND_MARGIN < rhs:
        return False
    return (2 * (2**k - 1)) % denominator(k) == 0


def divides_rational(m: int, r: int, b: Fraction | int) -> bool:
    """p-adic divisibility m^r | b for a rational b.

    True iff ord_p(b) >= r * ord_p(m) for every prime p | m. Equivalent,
    without factoring m: b's denominator is coprime to m and m^r divides
    b's numerator (m^r carries exactly the exponents r * ord_p(m)).
    """
    if m < 1:
        raise ValueError(f"divides_rational needs m >= 1, got {m}")
    if r < 1:
        raise ValueError(f"divides_rational needs r >= 1, got {r}")
    b = Fraction(b)
    return _divides_nd(m, r, b.numerator, b.denominator)


def _divides_nd(m: int, r: int, n: int, d: int) -> bool:
    """Integer core of divides_rational: m^r | n/d p-adically, for n/d in
    lowest terms with d > 0 and m, r >= 1. Hot loops call it with N_k and
    D_k read once per k."""
    return gcd(m, d) == 1 and n % m**r == 0


def seed_even_values(pairs: list[tuple[int, tuple[int, int]]]) -> int:
    """Warm the memo from (k, (N_k, D_k)) pairs.

    Pairs must supply a gap-free even prefix 2, 4, 6, ... to be usable; the
    memo holds B_0, B_2, ... by position. Entries beyond the first gap are
    ignored. Each accepted entry must satisfy von Staudt-Clausen: D_k is the
    product of the primes p with (p-1) | k, and N_k + sum D_k/p = 0 mod D_k.
    A violation, or disagreement with a value already in the memo, raises
    ValueError rather than poisoning the memo. An edit to N_k by a multiple
    of D_k passes both tests; it is caught when the memo is next extended
    past k. Entries are checked in ascending k, so the first violation
    reported is the lowest. Returns the largest k actually seeded (0 if
    none).
    """
    table = {k: nd for k, nd in pairs}
    top = 0
    while top + 2 in table:
        top += 2
    vsc = _vsc_prime_table(top)
    for k in range(2, top + 1, 2):
        n, d = table[k]
        primes = vsc[k // 2]
        if d != math.prod(primes):
            raise ValueError(
                f"cache entry for k={k} has denominator {d}, "
                f"von Staudt-Clausen says {math.prod(primes)}"
            )
        if (n + sum(d // p for p in primes)) % d:
            raise ValueError(
                f"cache entry for k={k} has numerator {n}, which fails "
                f"von Staudt-Clausen modulo {d}"
            )
        half = k // 2
        value = Fraction(n, d)
        if half < len(_EVEN):
            if _EVEN[half] != value:
                raise ValueError(
                    f"cache entry for k={k} disagrees with computed value"
                )
        elif half == len(_EVEN):
            _EVEN.append(value)
    return top


def even_value_pairs(k_max: int) -> list[tuple[int, tuple[int, int]]]:
    """(k, (N_k, D_k)) for even 2 <= k <= k_max, computing as needed."""
    out = []
    for k in range(2, k_max + 1, 2):
        b = bernoulli(k)
        out.append((k, (b.numerator, b.denominator)))
    return out
