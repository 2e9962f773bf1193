"""Prime helpers: primorials and factorization."""

from math import prod

import pytest

from moser_ladder import _primes
from moser_ladder._primes import factorize, primes_up_to, primorial


def test_primorial_small_values():
    assert [primorial(n) for n in range(8)] == [1, 1, 2, 6, 6, 30, 30, 210]
    assert primorial(1000) == prod(primes_up_to(1000))


def test_sieve_keeps_its_limit(monkeypatch):
    # each limit sieved afresh, prime limits included
    for n in [*range(60), 997, 1000]:
        monkeypatch.setattr(_primes, "_sieve_cache", [])
        monkeypatch.setattr(_primes, "_sieve_cache_limit", 0)
        want = [p for p in range(2, n + 1)
                if all(p % q for q in range(2, p))]
        assert primes_up_to(n) == want, n


def test_is_prime_matches_the_sieve():
    primes = set(primes_up_to(10**5))
    assert [n for n in range(10**5) if _primes.is_prime(n)] == sorted(primes)


def _count_is_prime(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = _primes.is_prime
    monkeypatch.setattr(_primes, "is_prime",
                        lambda n: calls.append(n) or real(n))
    return calls


def test_prime_below_trial_square_needs_no_primality_test(monkeypatch):
    # trial division reaches sqrt(n), so the cofactor left is prime
    calls = _count_is_prime(monkeypatch)
    assert factorize(9_999_999_967) == {9_999_999_967: 1}
    assert factorize(2**5 * 99_991 * 9_999_999_967) == {
        2: 5, 99_991: 1, 9_999_999_967: 1}
    assert calls == []


def test_semiprime_past_trial_bound_goes_through_rho(monkeypatch):
    # both factors exceed the 10^5 trial bound: the cofactor is composite
    # and is split by rho, then each half is proven prime
    calls = _count_is_prime(monkeypatch)
    rho = []
    real_rho = _primes._pollard_rho
    monkeypatch.setattr(_primes, "_pollard_rho",
                        lambda n: rho.append(n) or real_rho(n))
    n = 100_003 * 100_019
    assert factorize(n) == {100_003: 1, 100_019: 1}
    assert rho == [n]
    assert sorted(calls) == [100_003, 100_019, n]


def test_rho_raises_when_its_step_budget_runs_out(monkeypatch):
    # the semiprime above needs 275 steps; ten are not enough
    monkeypatch.setattr(_primes, "_RHO_STEPS", 10)
    n = 100_003 * 100_019
    with pytest.raises(ArithmeticError, match=str(n)):
        factorize(n)


def test_strong_pseudoprime_to_the_first_twelve_prime_bases():
    # the smallest strong pseudoprime to the bases 2..37: base 41 rejects it
    n = 318665857834031151167461
    assert all(_primes._miller_rabin(n, b)
               for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not _primes.is_prime(n)
    assert factorize(n) == {399165290221: 1, 798330580441: 1}


def test_past_the_proven_limit_the_lucas_test_decides():
    # the proven limit is itself a strong pseudoprime to all 13 bases:
    # only the strong Lucas test rejects it
    n = _primes._MR_PROVEN_LIMIT
    assert all(_primes._miller_rabin(n, b) for b in _primes._MR_BASES)
    assert not _primes.is_prime(n)
    assert _primes.is_prime(2**89 - 1)
    # a prime n = 1 mod 4: n + 1 is twice an odd number, so the strong
    # Lucas test can only accept at U_t = 0 or V_t = 0; Proth's theorem
    # certifies n
    n = 3 * 2**189 + 1
    assert pow(5, (n - 1) // 2, n) == n - 1
    assert _primes._strong_lucas(n)
    assert _primes.is_prime(n)
