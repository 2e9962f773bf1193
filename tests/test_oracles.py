"""Oracles from other codebases: Bernoulli numbers against mpmath, and
primality and factoring against sympy, on random inputs. Neither library
shares code with this package, so agreement is independent evidence.
Both are test dependencies (`pip install .[test]`)."""

import importlib
import random
from fractions import Fraction
from functools import reduce
from operator import mul
from unittest import mock

import mpmath
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moser_ladder._primes import factorize, is_prime
from moser_ladder.bernoulli import bernoulli, bernoulli_pair

bmod = importlib.import_module("moser_ladder.bernoulli")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(half=st.integers(0, 500))
@example(half=500)
def test_bernoulli_matches_mpmath(half):
    k = 2 * half
    assert bernoulli(k) == Fraction(*mpmath.bernfrac(k)), k


def test_bernoulli_matches_mpmath_to_2000():
    # where the table is largest; in a fresh memo, so the module's own
    # table is left as it was (the build to 2000 takes about 0.5 s)
    with mock.patch.object(bmod, "_EVEN", [(1, 1)]), \
            mock.patch.object(bmod, "_SEIDEL", []):
        for k in (1002, 1234, 1500, 1776, 1998, 2000):
            n, d = map(int, mpmath.bernfrac(k))
            assert bernoulli_pair(k) == (n, d), k
            assert bernoulli(k) == Fraction(n, d), k


# n < 2^256 of every bit length alike; plain `st.integers` draws small n
_BELOW_2_256 = st.integers(1, 256).flatmap(
    lambda bits: st.integers(2**(bits - 1), 2**bits - 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=_BELOW_2_256)
# 0, a Carmichael number, and strong pseudoprimes to the first 4, 11, 12
# and 13 prime bases
@example(n=0)
@example(n=561)
@example(n=3215031751)
@example(n=3825123056546413051)
@example(n=318665857834031151167461)
@example(n=3317044064679887385961981)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n), n


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=_BELOW_2_256.map(sympy.nextprime))
def test_is_prime_accepts_sympy_primes(n):
    assert is_prime(n), n


# factors past the trial-division limit (10^5), so Pollard rho splits them
_RHO_PRIMES = st.integers(10**5, 2**31 - 2).map(sympy.nextprime)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(primes=st.lists(_RHO_PRIMES, min_size=2, max_size=3))
def test_factorize_matches_sympy(primes):
    n = reduce(mul, primes)
    assert factorize(n) == sympy.factorint(n), primes


def test_factorize_matches_sympy_below_2_40():
    # 40 products of 2-4 primes below 2^40 from a fixed seed, the small
    # ones spread over bit lengths 2-26; 27 take one prime past 2^26, none
    # takes two, so rho (19 calls) splits each composite cofactor in about
    # 2^13 steps. sympy.factorint takes about 0.1 s for all 40 (2 cores,
    # Python 3.11.7), factorize about 0.08 s
    rng = random.Random(2010)
    for _ in range(40):
        primes = [sympy.prevprime(rng.randrange(3, 2**rng.randint(2, 26) + 1))
                  for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.75:
            primes[-1] = sympy.prevprime(rng.randrange(2**26, 2**40))
        n = reduce(mul, primes)
        assert factorize(n) == sympy.factorint(n), primes
