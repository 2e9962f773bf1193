"""Prime arithmetic helpers: sieve, smallest-prime-factor table,
primorials, a remainder tree, primality, small factorization.

Everything here is deterministic for the input sizes this package meets.
Miller-Rabin with the 12-prime base set is a proven primality test below
3.317e24; above that a strong Lucas test is added (BPSW), which has no
known counterexample at any size.
"""

from __future__ import annotations

import math
from itertools import compress
from math import gcd, isqrt

__all__ = [
    "primes_up_to",
    "smallest_prime_factors",
    "factor_with_table",
    "primorial",
    "remainders",
    "is_prime",
    "factorize",
]

# Proven deterministic Miller-Rabin base set for n < 3,317,044,064,679,887,385,961,981
# (Sorenson and Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_LIMIT = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_sieve_cache: list[int] = []
_sieve_cache_limit = 0
_primorial_cache: dict[int, int] = {}

# primes per leaf of the primorial's product tree
_PRIMORIAL_CHUNK = 8

# factorize trial-divides by every prime up to this bound
_TRIAL_LIMIT = 100_000


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending. Cached; the cache only grows."""
    global _sieve_cache, _sieve_cache_limit
    if n < 2:
        return []
    if n > _sieve_cache_limit:
        flags = bytearray([1]) * (n + 1)
        flags[0:2] = b"\x00\x00"
        for i in range(2, isqrt(n) + 1):
            if flags[i]:
                flags[i * i :: i] = b"\x00" * len(range(i * i, n + 1, i))
        _sieve_cache = list(compress(range(n + 1), flags))
        _sieve_cache_limit = n
    if n == _sieve_cache_limit:
        return _sieve_cache
    # answer a smaller query from the cached sieve
    from bisect import bisect_right

    return _sieve_cache[: bisect_right(_sieve_cache, n)]


def smallest_prime_factors(n: int) -> list[int]:
    """Table t with t[i] the smallest prime factor of i for 2 <= i <= n
    (t[0] = 0, t[1] = 1). Not cached: one table serves a whole sweep row.

    The primes p <= sqrt(n) mark their multiples from p^2 on, largest p
    first, so the last mark a composite gets is its smallest prime factor
    (which is at most its square root). Primes keep t[i] = i.
    """
    table = list(range(n + 1))
    for p in reversed(primes_up_to(isqrt(n))):
        table[p * p :: p] = [p] * len(range(p * p, n + 1, p))
    return table


def factor_with_table(
    n: int, table: list[int]
) -> list[tuple[int, int]]:
    """(prime, multiplicity) pairs of 1 <= n < len(table), ascending, read
    off a smallest_prime_factors table; the items of factorize(n)."""
    out = []
    while n > 1:
        p = table[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def primorial(n: int) -> int:
    """Product of all primes <= n: chunks of a few primes, each a product
    of a few words, then multiplied pairwise up a balanced tree. Cached,
    one entry per distinct n."""
    got = _primorial_cache.get(n)
    if got is None:
        primes = primes_up_to(n)
        level = [math.prod(primes[i : i + _PRIMORIAL_CHUNK])
                 for i in range(0, len(primes), _PRIMORIAL_CHUNK)] or [1]
        while len(level) > 1:
            level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
        got = _primorial_cache[n] = level[0]
    return got


def remainders(n: int, moduli: list[int]) -> list[int]:
    """[n % q for q in moduli], moduli positive, from one remainder tree
    (Bernstein, "How to find smooth parts of integers", 2004): the moduli
    are multiplied pairwise up a product tree, n is reduced modulo the
    root, and each remainder again modulo the two products below it. A
    large n meets one long division by the root instead of one per
    modulus, and the divisions further down are on numbers no larger
    than the root."""
    tree = [moduli]
    while len(tree[-1]) > 1:
        level = tree[-1]
        tree.append([math.prod(level[i : i + 2])
                     for i in range(0, len(level), 2)])
    rems = [n]
    for level in reversed(tree):
        rems = [rems[i // 2] % q for i, q in enumerate(level)]
    return rems


def _miller_rabin(n: int, base: int) -> bool:
    """True if n is a strong probable prime to the given base."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable prime test with Selfridge parameters.

    Assumes n is odd, > 2, not a perfect square, with no tiny factors.
    """
    # Method A: first D in 5, -7, 9, -11, ... with Jacobi(D/n) = -1.
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4

    # factor n + 1 = t * 2^s with t odd
    t = n + 1
    s = 0
    while t % 2 == 0:
        t //= 2
        s += 1

    # compute U_t, V_t mod n by binary ladder (P = 1)
    u, v = 1, 1
    qk = q % n
    inv2 = (n + 1) // 2  # inverse of 2 mod odd n
    for bit in bin(t)[3:]:
        # double: index k -> 2k
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            # increment: 2k -> 2k + 1
            u, v = (u + v) * inv2 % n, (d * u + v) * inv2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Trial division by the primes up to 47 decides n < 53^2; then
    deterministic below 3.317e24 (proven Miller-Rabin base set), and
    Miller-Rabin plus strong Lucas (BPSW) above that."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 53 * 53:  # no prime factor <= 47, so none <= sqrt(n)
        return True
    if not all(_miller_rabin(n, b) for b in _MR_BASES):
        return False
    if n < _MR_PROVEN_LIMIT:
        return True
    r = isqrt(n)
    if r * r == n:
        return False
    return _strong_lucas(n)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (rho, Floyd cycle detection)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}.

    Trial division by the primes up to min(sqrt n, 10^5), stopping once
    p^2 exceeds what is left. Every prime factor of the cofactor c then
    exceeds the last trial prime, so c <= (trial limit)^2 (in particular
    any c <= 10^10) is prime without a primality test; only a larger c
    goes to is_prime and Pollard rho.
    """
    if n < 1:
        raise ValueError(f"factorize wants n >= 1, got {n}")
    out: dict[int, int] = {}
    limit = min(isqrt(n) + 1, _TRIAL_LIMIT)
    for p in primes_up_to(limit):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if 1 < n <= limit * limit:
        out[n] = 1
    elif n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return dict(sorted(out.items()))
