"""Exact power sums S_k(m) = 1^k + 2^k + ... + (m-1)^k and the searches
built on them: integer consecutive-sum ratios, the S_k(m) = m^k equation,
and the crossover index where S_k(m) first reaches m^k.

The closed form is evaluated Horner-style over a single common denominator
so every intermediate stays an integer; the final division must be exact,
and an inexact one raises ArithmeticError. B_j = 0 for odd j >= 3, so
only the even-index coefficients and the one at j = 1 are nonzero:
Horner runs in m^2 over the even ones, which halves the big-integer
products. `power_sums` evaluates a whole column of m at one k in one
loop, with the coefficients read once; `power_sum` is its one-point case.
`power_sum_naive` sums every term afresh, an oracle no sweep row reads.

`running_sums` is the other route: m^k added one m at a time, with no
Bernoulli numbers. It reads `_powers`, which lists m^k for every m up to
a bound. The index rule: every table over m, here and in the sweep, is
one list with its value at m at index m, padded below its first m. One
memo rule, `_latest`, keeps what a sweep slice shares: while a slice
runs (`_SLICE` is a dict), each shared builder keeps its latest result
for each value of its arguments other than k. A builder of one k
(`_faulhaber_coeffs`, `_powers`, `running_sums`, the sweep's closed
forms and consecutive gcds) drops the old k's result before it builds
the next; one of no k (the sweep's factor lists, von Staudt-Clausen
table and survey) keeps each result until the slice ends. Outside a
slice every call builds afresh, so nothing a slice shares outlives it.

The searches filter one walk, `_walk`, which yields (m, S_k(m), m^k)
from m = 2 up to and including the crossover; `crossover` returns its
last m. Stopping there loses nothing. For m >= 2,

    S_k(m) / m^k = sum_{i=1}^{m-1} (1 - i/m)^k

strictly increases with m: every term grows with m, and the step to m + 1
adds the positive term i = m. The ratio S_k(m+1)/S_k(m) = 1 + m^k/S_k(m)
is an integer > 1 only if m^k >= S_k(m), and S_k(m) = m^k needs equality;
so once S_k(m) >= m^k, S_k(m') > m'^k at every m' > m, and neither can
hold past m.
"""

from __future__ import annotations

from itertools import accumulate, count
from math import comb, lcm
from typing import Callable, Iterable, Iterator, NamedTuple

from .bernoulli import _check_index, bernoulli_pair

__all__ = [
    "power_sum",
    "power_sums",
    "power_sum_naive",
    "running_sums",
    "RatioHit",
    "ratio_hits",
    "search_ratio",
    "em_solutions",
    "em_scan",
    "crossover",
]

# (builder, arguments other than k) -> (k, result), k None for a builder
# of no k, while `sweeps._run_slice` runs a slice; None otherwise.
_SLICE: dict | None = None


def _latest(build: Callable, per_k: bool = True) -> Callable:
    """Decorator: the memo rule of the module docstring, for a builder
    whose first argument is k, or of no k with per_k false."""
    def latest(*args):
        if _SLICE is None:
            return build(*args)
        k, rest = (args[0], args[1:]) if per_k else (None, args)
        if (build, rest) not in _SLICE or _SLICE[build, rest][0] != k:
            _SLICE.pop((build, rest), None)  # drop the old k's result first
            _SLICE[build, rest] = k, build(*args)
        return _SLICE[build, rest][1]
    latest.__name__, latest.__doc__ = build.__name__, build.__doc__
    return latest


# (scale, (c_0, c_1, c_2), tail): S_k(m) = (sum_j c_j m^(k+1-j)) / scale
# with c_j = C(k+1, j) * L * B_j and scale = L * (k+1), L the lcm of the
# B_j denominators. All integers, so Horner needs no rational arithmetic.
# c_j = 0 for odd j >= 3, so the sum is a polynomial in x = m^2 over the
# even j, times m when k is even, once c_1 m^k rides with c_2 m^(k-1) as
# (c_1 m + c_2) m^(k-1). tail is c_4, c_6, ... up to c_k, with a 0 for
# j = k + 1 when k is odd (c_2 = 0 at k = 1 for the same reason). Kept by
# `_latest`: one build costs ~90 evaluations at k = 1000.
@_latest
def _faulhaber_coeffs(k: int) -> tuple[int, tuple[int, int, int],
                                       tuple[int, ...]]:
    _check_index(k)  # before B_0..B_k grow the table
    bs = [bernoulli_pair(j) for j in range(k + 1)]
    scale_l = lcm(*(d for _, d in bs))
    coeffs = [comb(k + 1, j) * (n * (scale_l // d))
              for j, (n, d) in enumerate(bs)]
    if any(coeffs[3::2]):
        raise ArithmeticError(f"odd-index Bernoulli number nonzero below k={k}")
    even = coeffs[0::2] + [0] * (k % 2)
    return (scale_l * (k + 1), (coeffs[0], coeffs[1], even[1]),
            tuple(even[2:]))


def _check_km(k: int, m: int) -> None:
    if k < 1:
        raise ValueError(f"power sum needs k >= 1, got {k}")
    if m < 1:
        raise ValueError(f"power sum needs m >= 1, got {m}")


# the largest bound of a table over m (`_powers`, `running_sums` and the
# sweep rows and min/max prefix built on them): one big integer per m
MAX_M = 10**5


def _check_m_max(m_max: int) -> None:
    if not 1 <= m_max <= MAX_M:
        raise ValueError(f"a table over m needs 1 <= m_max <= {MAX_M}, "
                         f"got {m_max}")


def power_sums(k: int, ms: Iterable[int]) -> list[int]:
    """[S_k(m) for m in ms] via the Bernoulli closed form, one Horner
    evaluation per m in one loop. Exact, integer results."""
    _check_km(k, 1)
    scale, (c0, c1, c2), tail = _faulhaber_coeffs(k)
    out = []
    for m in ms:
        if m < 1:
            _check_km(k, m)
        x = m * m
        acc = c0 * x + c1 * m + c2
        for c in tail:
            acc = acc * x + c
        quot, rem = divmod(acc if k % 2 else acc * m, scale)
        if rem:
            raise ArithmeticError(
                f"faulhaber cancellation failed at k={k}, m={m}: "
                f"remainder {rem} of scale {scale}"
            )
        out.append(quot)
    return out


def power_sum(k: int, m: int) -> int:
    """S_k(m) via the Bernoulli closed form. Exact, integer result."""
    return power_sums(k, (m,))[0]


def power_sum_naive(k: int, m: int) -> int:
    """S_k(m) by direct summation. Oracle route, no Bernoulli numbers."""
    _check_km(k, m)
    return sum(j**k for j in range(1, m))


@_latest
def _powers(k: int, m_max: int) -> list[int]:
    """[m**k for m in range(m_max + 1)]."""
    return [m**k for m in range(m_max + 1)]


@_latest
def running_sums(k: int, m_max: int) -> list[int]:
    """S_k(m) at index m, 0 <= m <= m_max, by incremental summation over
    the `_powers` table of k at bound m_max: the route to S_k(m) of the
    sweep rows and the min/max prefix."""
    _check_km(k, 1)
    _check_m_max(m_max)
    return list(accumulate(_powers(k, m_max)[:m_max], initial=0))


class RatioHit(NamedTuple):
    """A pair with integral consecutive-sum ratio S_k(m+1)/S_k(m)."""

    k: int
    m: int
    quotient: int


def _walk(k: int) -> Iterator[tuple[int, int, int]]:
    """Yield (m, S_k(m), m^k) for m = 2, 3, ... up to and including the
    crossover, the first m with S_k(m) >= m^k (see the module docstring)."""
    s = 1  # S_k(2)
    for m in count(2):
        mk = m**k
        yield m, s, mk
        if s >= mk:
            return
        s += mk


def ratio_hits(k: int, m_min: int, m_max: int) -> Iterator[RatioHit]:
    """Integral-ratio pairs at one k with max(3, m_min) <= m <= m_max.

    The quotient is 1 + m^k / S_k(m) > 1, so integrality forces
    m^k >= S_k(m); the scan ends at the crossover (`_walk`).
    """
    m_min = max(3, m_min)
    for m, s, mk in _walk(k):
        if m > m_max:
            return
        if m >= m_min and mk % s == 0:
            yield RatioHit(k, m, 1 + mk // s)


def search_ratio(k_max: int, m_max: int) -> list[RatioHit]:
    """All integral-ratio pairs with 1 <= k <= k_max, 3 <= m <= m_max,
    in (k, m) order."""
    if k_max < 1 or m_max < 3:
        raise ValueError("search_ratio needs k_max >= 1, m_max >= 3")
    _check_index(k_max)  # crossover-bracket's bound: each walk takes m^k
    return [hit for k in range(1, k_max + 1) for hit in ratio_hits(k, 3, m_max)]


def em_solutions(k: int, m_min: int, m_max: int) -> Iterator[int]:
    """Every m with S_k(m) = m^k in max(2, m_min) <= m <= m_max, ascending.

    The scan ends at the crossover (`_walk`): no m past it solves the
    equation.
    """
    for m, s, mk in _walk(k):
        if m > m_max:
            return
        if m >= m_min and s == mk:
            yield m


def em_scan(k_max: int, m_max: int) -> list[tuple[int, int]]:
    """All (k, m) with S_k(m) = m^k in 1 <= k <= k_max, 2 <= m <= m_max.

    Odd k included deliberately; the scan confirms rather than assumes
    which parities can solve the equation.
    """
    if k_max < 1 or m_max < 2:
        raise ValueError("em_scan needs k_max >= 1, m_max >= 2")
    _check_index(k_max)
    return [(k, m) for k in range(1, k_max + 1) for m in em_solutions(k, 2, m_max)]


def crossover(k: int) -> int:
    """Smallest m >= 2 with S_k(m) >= m^k.

    Always terminates: S_k(m) grows like m^(k+1)/(k+1) and overtakes m^k.
    """
    if k < 1:
        raise ValueError(f"crossover needs k >= 1, got {k}")
    for m, _, _ in _walk(k):
        pass
    return m
