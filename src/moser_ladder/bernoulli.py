"""Exact Bernoulli numbers and the structure of their numerators and
denominators.

Even-index values come from the Genocchi numbers G_2n, read off
Seidel's triangle (Dumont & Viennot, Ann. Discrete Math. 6 (1980)): each
pair of rows is two prefix sums, O(n^2) additions in all and no
multiplications, and B_2n = (-1)^(n-1) |G_2n| / (2 (4^n - 1)). Values
are memoized across calls as integer pairs (N_k, D_k); nothing else is.
`bernoulli_pair`, `numerator` and `denominator` read the pair, and
`bernoulli` builds a `Fraction` from it on each call, importing
`fractions` only then, so a query that prints N_k and D_k never loads
it. Convention: B_1 = -1/2. No index past MAX_K is read. The von
Staudt-Clausen primes come from one sieve table, `_vsc_prime_table`,
which never reads the Genocchi numbers: the `bernoulli-structure` sweep
row cross-checks D_k with it, and `seed_even_values` checks entries
seeded from the cache file with it and with Adams' theorem, and they are
checked against the Genocchi numbers too when the memo grows past them.
Bad cache data raises CacheError, defined here because this module
always loads. The square-factor searches read the primes p with
p^2 | n from `_square_part`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import accumulate
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from . import _primes

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "bernoulli",
    "bernoulli_pair",
    "CacheError",
    "numerator",
    "denominator",
    "SquareFreeStatus",
    "square_free_status",
    "SQUARE_FREE_ESCALATION",
    "numerator_survey",
    "size_estimate",
    "exact_log_abs",
    "numerator_bound_check",
    "divides_rational",
    "seed_even_values",
]

# _EVEN[i] = (N_2i, D_2i), B_2i in lowest terms with D_2i > 0; grown on
# demand, never shrunk. `sweeps.run_grids` fills it to the grids' largest
# k before it forks, and the workers inherit it.
_EVEN: list[tuple[int, int]] = [(1, 1)]

# Row 2n - 1 of Seidel's triangle, n = len(_SEIDEL): its n entries end in
# |G_2n|. _EVEN agrees with the Genocchi numbers up to B_2n; entries past
# it were seeded, not computed.
_SEIDEL: list[int] = []

# The largest Bernoulli index the package reads: B_k past it raises
# ValueError before the table grows. Row k - 1 of Seidel's triangle holds
# k/2 integers of up to |G_k| bits (about 10^5 at k = 10^4), so a build
# costs about k^3 bit operations: to 10^4 it took 94 s of CPU and peaked
# at 242 MB RSS (2 cores, Python 3.11.7).
MAX_K = 10**4

# The largest k the numerator survey reads: past the trial bound it runs
# Miller-Rabin on |N_k| itself, one base of which took 0.57 s at k = 1000
# and 7.0 s at k = 2000. Surveying every even k <= 1500 at the default
# trial bound took 25 s in a fresh process, to 2000 it took 67 s, past the
# 60 s allowed (2 cores, Python 3.11.7; 18 and 21 MB peak RSS).
MAX_SURVEY_K = 1500


class CacheError(ValueError):
    """Bad cache data: a file that cannot be loaded, or an entry that
    fails von Staudt-Clausen or Adams' theorem or disagrees with the
    Genocchi numbers; the message names the fault."""


def _extend_even(half: int) -> None:
    """Grow the memo to B_{2 half}, checking any seeded entries on the way.

    Seidel's triangle is advanced two rows at a time: the suffix sums of
    row 2n - 1 give row 2n reversed, and its prefix sums, with the last
    one repeated, give row 2n + 1. So growing the table in steps costs the
    same O(half^2) additions as one build. Each new pair is reduced by one
    gcd of |G_2n| with 2 (4^n - 1). A seeded entry that disagrees raises
    CacheError.
    """
    global _SEIDEL
    if half < len(_EVEN):
        return
    while len(_SEIDEL) < half:
        if _SEIDEL:
            even = list(accumulate(reversed(_SEIDEL)))  # row 2n, reversed
            row = list(accumulate(reversed(even)))
            row.append(row[-1])
        else:
            row = [1]  # row 1; the step above needs a row to sum
        n = len(row)
        d = 2 * (4**n - 1)
        g = gcd(row[-1], d)
        value = ((-1) ** (n - 1) * (row[-1] // g), d // g)
        if n < len(_EVEN):
            if _EVEN[n] != value:
                raise CacheError(
                    f"memo entry for k={2 * n} disagrees with the Genocchi "
                    f"numbers (seeded from a bad cache?)"
                )
        else:
            _EVEN.append(value)
        _SEIDEL = row


def _check_index(k: int) -> None:
    if not 0 <= k <= MAX_K:
        side = ">= 0" if k < 0 else f"<= {MAX_K}"
        raise ValueError(f"Bernoulli index must be {side}, got {k}")


def _check_survey_index(k: int) -> None:
    if k > MAX_SURVEY_K:
        raise ValueError(
            f"numerator survey index must be <= {MAX_SURVEY_K}, got {k}")


def bernoulli_pair(k: int) -> tuple[int, int]:
    """(N_k, D_k), B_k in lowest terms with D_k > 0, for every k >= 0:
    the memo's pair at even k, (-1, 2) at k = 1 and (0, 1) at odd k >= 3.
    The cheap read of B_k: it builds no Fraction.

    Raises ValueError for k < 0 or k > MAX_K.
    """
    _check_index(k)
    if k % 2:
        return (-1, 2) if k == 1 else (0, 1)
    _extend_even(k // 2)
    return _EVEN[k // 2]


def bernoulli(k: int) -> Fraction:
    """B_k as an exact Fraction in lowest terms, built from
    `bernoulli_pair(k)` on each call.

    Raises ValueError for k < 0 or k > MAX_K.
    """
    from fractions import Fraction  # here: the pairs alone never load it

    return Fraction(*bernoulli_pair(k))


def _require_even(k: int, what: str) -> None:
    if k < 2 or k % 2:
        raise ValueError(f"{what} needs even k >= 2, got {k}")


def _vsc_prime_table(top: int) -> list[list[int]]:
    """t[k/2] = the primes p with (p-1) | k, ascending, for every even
    k <= top: one pass over the primes p <= top + 1, each marking the
    even multiples of p - 1. The one von Staudt-Clausen route, whose row
    product is D_k: `seed_even_values` reads it, and so does the
    `bernoulli-structure` sweep row, one table per sweep slice."""
    table: list[list[int]] = [[] for _ in range(top // 2 + 1)]
    for p in _primes.primes_up_to(top + 1):
        step = max(p - 1, 2)  # p = 2: (p-1) | k for every even k
        for k in range(step, top + 1, step):
            table[k // 2].append(p)
    return table


def _adams_prime_powers(top: int) -> list[list[tuple[int, int]]]:
    """t[k/2] = the pairs (p, p^e), p ascending, of the odd primes p with
    p^e exactly dividing k and (p-1) not dividing k, for every even
    k <= top: one pass over the odd primes p <= top/2, each reading the
    even multiples of p. Adams' theorem (J. C. Adams, 1878) says p^e | N_k
    for each pair."""
    table: list[list[tuple[int, int]]] = [[] for _ in range(top // 2 + 1)]
    for p in _primes.primes_up_to(top // 2)[1:]:
        for k in range(2 * p, top + 1, 2 * p):
            if k % (p - 1):
                q = p
                while k % (q * p) == 0:
                    q *= p
                table[k // 2].append((p, q))
    return table


def numerator(k: int) -> int:
    """Signed numerator N_k of B_k, even k >= 2 only."""
    _require_even(k, "numerator")
    return bernoulli_pair(k)[0]


def denominator(k: int) -> int:
    """Denominator D_k > 0 of B_k, even k >= 2 only."""
    _require_even(k, "denominator")
    return bernoulli_pair(k)[1]


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
        """No square factor found, so g(m) = gcd(N, m)/gcd(D, m) is taken to
        hold past min/max's prefix: the one rule for certification."""
        return self.kind != "square-factor"


# Default and largest square-factor trial bound: the primorial and the prime
# sieve of a bound grow with it (at 10^6, about 0.4 s and 21 MB).
TRIAL_BOUND = 10_000
MAX_TRIAL_BOUND = 10**6


def _check_trial_bound(trial_bound: int) -> None:
    if not 2 <= trial_bound <= MAX_TRIAL_BOUND:
        side = ">= 2" if trial_bound < 2 else f"<= {MAX_TRIAL_BOUND}"
        raise ValueError(f"trial_bound must be {side}, got {trial_bound}")


def _square_part(n: int, bound: int, g: int | None = None) -> int:
    """Product of the primes p <= bound with p^2 | n, for n >= 1: g =
    gcd(n, primorial(bound)) (a caller that holds it passes it) is the
    square-free product of those with p | n, so it is gcd(n / g, g)."""
    if g is None:
        [g] = _primes.primorial_gcds([n], bound)
    return gcd(n // g, g)


def _smallest_square_prime(n: int, bound: int,
                           g: int | None = None) -> int | None:
    """Smallest prime p <= bound with p^2 | n, for n >= 1: the smallest
    prime of `_square_part`, looked for only when it is not 1."""
    sq = _square_part(n, bound, g)
    if sq == 1:
        return None
    return next(p for p in _primes.primes_up_to(bound) if sq % p == 0)


def square_free_status(k: int, trial_bound: int) -> SquareFreeStatus:
    """Search |N_k| for a square factor p^2 over the primes p <= trial_bound.

    Integer-only and without trial division of |N_k|: the primes <= the
    bound that divide |N_k| come from one gcd with their product (the
    primorial, cached per bound), and p^2 is tested for those alone.
    Reports the smallest such p, as a trial division in ascending p would.
    """
    _check_trial_bound(trial_bound)
    n = abs(numerator(k))
    if n == 1:
        return SquareFreeStatus("trivial")
    p = _smallest_square_prime(n, trial_bound)
    if p is None:
        return SquareFreeStatus("no-square-factor-below", bound=trial_bound)
    return SquareFreeStatus("square-factor", prime=p)


# Documented escalation ladder for hunting square factors; k = 228 flags
# at 1000. A trial bound that is not a rung is searched as one more rung.
SQUARE_FREE_ESCALATION = (10, 100, 1000, 10_000, 100_000)


def numerator_survey(ks: range, trial_bound: int) -> list[dict]:
    """Survey records of |N_k| for each even k >= 2 in ks, in order:
    digit count, primality, and a square factor p^2 hunted over the
    escalating trial bounds up to trial_bound, with the bound that flagged
    it or, if none did, the largest bound searched clear. The bounds are
    the ladder's rungs below trial_bound, then trial_bound itself. One
    search at trial_bound finds the smallest such p; the bound reported is
    the first one >= p, the pair that searching bound by bound would give.

    The bound is checked first, even for an empty ks, then the largest k
    against MAX_K and MAX_SURVEY_K, before the table grows. One
    `primorial_gcds` call over the survey's own |N_k| > 1 gives each
    g = gcd(|N_k|, primorial(bound)), and `_smallest_square_prime` the
    square factor; nothing outlives the call. Primality reads the same g: if
    1 < g < |N_k|, g is a proper factor and |N_k| is composite, so the
    primality test (deterministic at desk scale, see _primes) runs only
    when g is 1 or |N_k|."""
    _check_trial_bound(trial_bound)
    _check_index(max(ks, default=0))
    _check_survey_index(max(ks, default=0))
    bounds = tuple(b for b in SQUARE_FREE_ESCALATION
                   if b < trial_bound) + (trial_bound,)
    ns = [abs(numerator(k)) for k in ks]
    gcds = iter(_primes.primorial_gcds([n for n in ns if n > 1], trial_bound))
    records = []
    for k, n in zip(ks, ns):
        g = next(gcds) if n > 1 else 1
        p = _smallest_square_prime(n, trial_bound, g)
        records.append({
            "k": k,
            "digits": len(str(n)),
            "prime": g in (1, n) and _primes.is_prime(n),
            "square_factor": None if p is None else str(p),
            "flagged_at_bound": (None if p is None
                                 else next(b for b in bounds if b >= p)),
            "clear_below": trial_bound if p is None else None,
        })
    return records


# terms of the truncated zeta sum of size_estimate
_ZETA_TERMS = 64


def size_estimate(k: int) -> float:
    """log |B_k| from the Euler product formula with a truncated zeta sum.

    Uses |B_k| = 2 zeta(k) k! / (2 pi)^k with the first `_ZETA_TERMS`
    terms of zeta(k); the result matches the exact log within 1e-9
    relative for even k >= 10.
    """
    _require_even(k, "size_estimate")
    # sum ascending in n; terms shrink fast, rounding is negligible here
    zeta = math.fsum(n ** -float(k) for n in range(1, _ZETA_TERMS + 1))
    return (
        math.log(2)
        + math.log(zeta)
        + math.lgamma(k + 1)
        - k * math.log(2 * math.pi)
    )


def exact_log_abs(k: int) -> float:
    """log |B_k| evaluated from the exact value (reference for size_estimate)."""
    _require_even(k, "exact_log_abs")
    n, d = bernoulli_pair(k)
    return math.log(abs(n)) - math.log(d)


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
    without factoring m: m^r divides b's numerator (m^r carries exactly
    the exponents r * ord_p(m)). In lowest terms, a prime of m that
    divides the numerator cannot divide the denominator.
    """
    if m < 1:
        raise ValueError(f"divides_rational needs m >= 1, got {m}")
    if r < 1:
        raise ValueError(f"divides_rational needs r >= 1, got {r}")
    from fractions import Fraction  # here: the pairs alone never load it

    b = Fraction(b)
    return _divides_nd(m, r, b.numerator)


def _divides_nd(m: int, r: int, n: int) -> bool:
    """Integer core of divides_rational: m^r | n/d p-adically, for n/d in
    lowest terms and m, r >= 1. Hot loops call it with N_k read once per
    k. d is not needed: m^r | n puts every prime of m in n, so none of
    them divides d."""
    return n % m**r == 0


def seed_even_values(pairs: Iterable[tuple[int, tuple[int, int]]]) -> int:
    """Warm the memo from (k, (N_k, D_k)) pairs.

    Pairs must supply a gap-free even prefix 2, 4, 6, ... to be usable; the
    memo holds B_0, B_2, ... by position. Entries beyond the first gap or
    MAX_K, at odd k or at k = 0 are ignored. Each accepted entry must satisfy
    von Staudt-Clausen: D_k is the product of the primes p with (p-1) | k, and
    N_k + sum D_k/p = 0 mod D_k. Those tests leave N_k prime to D_k (each
    p | D_k has N_k = -D_k/p, a unit, mod p), so the pair is in lowest
    terms, and equal pairs are equal values. It must satisfy Adams'
    theorem too: p^e | N_k for each pair of `_adams_prime_powers`.
    A violation, or disagreement with a value already in the memo, raises
    CacheError rather than poisoning the memo. An edit to N_k by a multiple
    of D_k passes the von Staudt-Clausen tests. Adams' theorem catches it
    at every k where it names a prime, since no such p divides D_k; at the
    other k it is caught when the memo is next extended past k. Entries are
    checked in ascending k, so the first violation reported is the lowest.
    Returns the largest k actually seeded (0 if none).
    """
    table = {k: nd for k, nd in pairs}
    top = 0
    while top + 2 in table and top + 2 <= MAX_K:
        top += 2
    vsc = _vsc_prime_table(top)
    adams = _adams_prime_powers(top)
    for k in range(2, top + 1, 2):
        n, d = table[k]
        primes = vsc[k // 2]
        if d != math.prod(primes):
            raise CacheError(
                f"cache entry for k={k} has denominator {d}, "
                f"von Staudt-Clausen says {math.prod(primes)}"
            )
        if (n + sum(d // p for p in primes)) % d:
            raise CacheError(
                f"cache entry for k={k} has numerator {n}, which fails "
                f"von Staudt-Clausen modulo {d}"
            )
        for p, q in adams[k // 2]:
            if n % q:
                raise CacheError(
                    f"cache entry for k={k} has numerator {n}, which fails "
                    f"Adams' theorem at p={p}: {q} divides k but not N_k"
                )
        half = k // 2
        value = (n, d)
        if half < len(_EVEN):
            if _EVEN[half] != value:
                raise CacheError(
                    f"cache entry for k={k} disagrees with computed value"
                )
        elif half == len(_EVEN):
            _EVEN.append(value)
    return top

