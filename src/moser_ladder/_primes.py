"""Prime arithmetic helpers: sieve, primorials and gcds with them,
primality, factorization.

Everything here is deterministic for the input sizes this package meets.
Miller-Rabin to the first 13 prime bases is a proven primality test below
3.317e24; above that a strong Lucas test is added (BPSW), which has no
known counterexample at any size.
"""

from __future__ import annotations

import math
from itertools import compress
from math import gcd, isqrt

__all__ = [
    "primes_up_to",
    "primorial",
    "primorial_gcds",
    "is_prime",
    "factorize",
]

# The first 13 primes: a proven Miller-Rabin base set below the limit
# (Sorenson and Webster, Math. Comp. 86 (2017)); 12 are not enough.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_sieve_cache: list[int] = []
_sieve_cache_limit = 0
_primorial_cache: dict[int, int] = {}

# primes per leaf of the primorial's product tree
_PRIMORIAL_CHUNK = 8

# factorize trial-divides by every prime up to this bound
_TRIAL_LIMIT = 100_000

# Floyd steps one _pollard_rho call may take over all its constants
_RHO_STEPS = 2**22


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


def primorial_gcds(ns: list[int], bound: int) -> list[int]:
    """[gcd(n, primorial(bound)) for n in ns], n >= 1, in greedy blocks:
    a block takes the next n while the product M of its n stays within
    the primorial's bits, and one gcd g = gcd(M, P) with the primorial P
    serves the whole block, since gcd(n, g) = gcd(n, P) for each n that
    divides M. That costs less than a long division of the primorial per
    n. An empty ns builds no primorial."""
    if not ns:
        return []
    p = primorial(bound)
    blocks, bits = [[]], 0
    for n in ns:
        bits += n.bit_length()
        if blocks[-1] and bits > p.bit_length():
            blocks.append([])
            bits = n.bit_length()
        blocks[-1].append(n)
    gcds = []
    for block in blocks:
        g = gcd(math.prod(block), p)
        gcds += [gcd(n, g) for n in block]
    return gcds


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
    """A nontrivial factor of composite odd n (rho, Floyd cycle detection),
    within `_RHO_STEPS` steps over all constants c."""
    steps = 0
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            steps += 1
            if steps > _RHO_STEPS:
                raise ArithmeticError(f"rho ran out of steps on {n}")
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
    goes to is_prime and Pollard rho, which raises ArithmeticError naming
    a composite it cannot split in `_RHO_STEPS` steps, rather than hang.
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
