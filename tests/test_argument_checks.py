"""Each library entry point rejects an argument outside its domain with a
ValueError that names the bad value, and the function where the bound is
its own; a bound the package shares, such as `bernoulli.MAX_K`, has one
message."""

import re
from fractions import Fraction

import pytest

from moser_ladder._primes import factorize
from moser_ladder.bernoulli import divides_rational
from moser_ladder.gcdlab import (
    congruence_check,
    cross_gcd_check,
    gcd_ladder,
    min_max_scan,
    prime_local_congruences,
)
from moser_ladder.powersum import (
    crossover,
    em_scan,
    running_sums,
    search_ratio,
)
from moser_ladder.sweeps import GridSpec

B = Fraction(1, 6)

CASES = [
    (gcd_ladder, (10, 1), "gcd_ladder needs m >= 2, got 1"),
    (congruence_check, (10, 0, 1), "congruence_check needs m >= 1, got 0"),
    (congruence_check, (10, 5, 4),
     "congruence_check supports r in 1..3, got 4"),
    (prime_local_congruences, (10, 1),
     "prime_local_congruences needs m >= 2, got 1"),
    (cross_gcd_check, (20, 3),
     "s must be one of (2, 4, 6, 8, 10, 14), got 3"),
    (cross_gcd_check, (10, 10), "needs k - s >= 2, got k=10, s=10"),
    (divides_rational, (0, 1, B), "divides_rational needs m >= 1, got 0"),
    (divides_rational, (2, 0, B), "divides_rational needs r >= 1, got 0"),
    (factorize, (0,), "factorize wants n >= 1, got 0"),
    (crossover, (0,), "crossover needs k >= 1, got 0"),
    (search_ratio, (0, 5), "search_ratio needs k_max >= 1, m_max >= 3"),
    (em_scan, (3, 1), "em_scan needs k_max >= 1, m_max >= 2"),
    # each walk of the searches takes m^k afresh to the crossover, so their
    # k is bounded like the Bernoulli index, and checked before any walk
    (search_ratio, (10_001, 3),
     "Bernoulli index must be <= 10000, got 10001"),
    (em_scan, (10_002, 2), "Bernoulli index must be <= 10000, got 10002"),
    (GridSpec(k_max=10_001, m_max=3, checks=(
        "ratio-search", "em-scan", "s1-s3-identity")).validate, (),
     "Bernoulli index must be <= 10000, got 10001"),
    (min_max_scan, (10, 0),
     "a table over m needs 1 <= m_max <= 100000, got 0"),
    (min_max_scan, (10, 100_001),
     "a table over m needs 1 <= m_max <= 100000, got 100001"),
    (running_sums, (2, 100_001),
     "a table over m needs 1 <= m_max <= 100000, got 100001"),
]


@pytest.mark.parametrize("call, args, message", CASES,
                         ids=[f"{f.__name__}{a}" for f, a, _ in CASES])
def test_out_of_domain_arguments_raise_value_error(call, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)
