"""Every check can fail: a catalogue of named faults, each pinned to the
checks of `verify quick` that it fails.

Each fault patches one module attribute, and fresh copies of the memos
it touches, through monkeypatch, and the Faulhaber memo is emptied
before and after each fault, so no wrong value outlives its test.
The run goes through `cli.main` as a user's would. Its outcome is the
names of the checks that report a failure (exit 1), `()` for a clean
run (exit 0), or "exit 4" where a broken arithmetic invariant stops the
sweep first. A fault that no check catches is pinned as `()`, so a
check that starts to catch it shows up here, and must show that it ran:
`_wrap` counts the calls of what it patches, and a `()` fault needs at
least one, or a patch the run never reads would pass. Three are `()`: the
ladder's consecutive gcd taken from its m^k rung is the same number
(gcd(S(m), S(m+1)) = gcd(S(m), m^k)), so only the routes' independence
is lost; `numerator-scan` only observes, so a wrong primality flag in
its survey fails nothing; and no row of `quick` asks whether 91 is
prime.
"""

import importlib
import json
from math import gcd

import pytest

from moser_ladder import _primes, cli, gcdlab, sweeps

bmod = importlib.import_module("moser_ladder.bernoulli")
ps = importlib.import_module("moser_ladder.powersum")


def _fresh_table(monkeypatch) -> None:
    """A fresh Bernoulli memo, the table built to k = 12 (all that `quick`
    reads), for a fault to change; monkeypatch puts back the old one."""
    monkeypatch.setattr(bmod, "_EVEN", [(1, 1)])
    monkeypatch.setattr(bmod, "_SEIDEL", [])
    bmod.bernoulli(12)


def _wrap(monkeypatch, module, name, fault) -> list:
    """Replace module.name by fault(real, *args) and return the list that
    each call appends its arguments to."""
    real = getattr(module, name)
    calls = []

    def wrapped(*args):
        calls.append(args)
        return fault(real, *args)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def closed_form_plus_one(mp):
    def bumped(real, k, ms):
        ms = list(ms)
        return [s + (k == 6 and m == 50) for m, s in zip(ms, real(k, ms))]
    _wrap(mp, ps, "power_sums", bumped)


def gcd_with_power_returns_rung_1(mp):
    mp.setattr(gcdlab, "_gcd_with_power", lambda s, m, k: gcd(s, m))


def size_estimate_off(mp):
    _wrap(mp, sweeps, "size_estimate",
          lambda real, k: real(k) * (1 + 1e-6))


def power_table_entry_plus_one(mp):
    def bumped(real, k, m_max):
        out = list(real(k, m_max))
        if k == 4 and m_max >= 50:
            out[50] += 1
        return out
    _wrap(mp, ps, "_powers", bumped)


def crossover_one_early(mp):
    _wrap(mp, ps, "crossover", lambda real, k: real(k) - 1)


def crossover_one_late(mp):
    _wrap(mp, ps, "crossover", lambda real, k: real(k) + 1)


def ratio_hits_returns_nothing(mp):
    mp.setattr(ps, "ratio_hits", lambda k, m_min, m_max: iter(()))


def em_solutions_invents_4_5(mp):
    _wrap(mp, ps, "em_solutions", lambda real, k, m_min, m_max: [
        *real(k, m_min, m_max), *([5] if k == 4 else [])])


def consecutive_gcd_doubled_at_7(mp):
    def doubled(real, k, ms):
        gcds = list(real(k, ms))  # a copy: the slice shares the real list
        if 7 in ms:
            gcds[7] *= 2
        return gcds
    _wrap(mp, sweeps, "_consecutive_gcds", doubled)


def consecutive_gcd_from_mk_rung(mp):
    def from_rung(_real, k, ms):
        lo = max(2, ms.start)
        powers = ps._powers(k, ms.stop - 1)
        sums = ps.running_sums(k, ms.stop - 1)
        return [None] * lo + [gcd(sums[m], powers[m])
                              for m in range(lo, ms.stop)]
    return _wrap(mp, sweeps, "_consecutive_gcds", from_rung)


def is_prime_91(mp):
    return _wrap(mp, _primes, "is_prime", lambda real, n: n == 91 or real(n))


def numerator_plus_denominator_at_10(mp):
    _fresh_table(mp)
    n, d = bmod._EVEN[5]
    bmod._EVEN[5] = (n + d, d)  # N_10 + D_10 over D_10


def denominator_off(mp):
    _wrap(mp, sweeps, "_vsc_prime_table",
          lambda real, top: [row + [5] for row in real(top)])


def divides_reads_m_to_r_plus_1(mp):
    mp.setattr(sweeps, "_divides_nd", lambda m, r, n: n % m**(r + 1) == 0)


def witness_values_doubled(mp):
    def doubled(real, k):
        d, at_d, m, at_m = real(k)
        return d, 2 * at_d, m, 2 * at_m
    _wrap(mp, gcdlab, "_extreme_witnesses", doubled)


def cross_gcd_claims_c_divides_no_k(mp):
    _wrap(mp, gcdlab, "cross_gcd_check",
          lambda real, k, s: real(k, s)._replace(divides_k=False))


def congruence_cells_flip(mp):
    _wrap(mp, gcdlab, "_congruence_cells", lambda real, *args: [
        (label, p, applicable, not holds)
        for label, p, applicable, holds in real(*args)])


def running_sums_plus_one(mp):
    def bumped(real, k, m_max):
        sums = list(real(k, m_max))  # a copy: the slice shares the real list
        if k == 3 and m_max >= 20:
            sums[20] += 1
        return sums
    _wrap(mp, ps, "running_sums", bumped)


def survey_calls_every_numerator_prime(mp):
    return _wrap(mp, sweeps, "numerator_survey", lambda real, ks, bound: [
        {**record, "prime": True} for record in real(ks, bound)])


def numerator_bound_fails_at_12(mp):
    _wrap(mp, sweeps, "numerator_bound_check",
          lambda real, k: k != 12 and real(k))


def _failing_checks(capsys) -> tuple[str, ...] | str:
    code = cli.main(["verify", "quick", "--seedless", "--format", "json"])
    out = capsys.readouterr().out
    if code in (0, 1):
        report = json.loads(out)
        failing = tuple(c["name"] for c in report["checks"] if c["fail"])
        assert (code == 1) == bool(failing)
        return failing
    return f"exit {code}"


FAULTS = [
    (closed_form_plus_one, ("faulhaber-naive", "telescoping", "gcd-ladder")),
    (gcd_with_power_returns_rung_1, ("min-max",)),
    (size_estimate_off, ("size-bounds",)),
    (power_table_entry_plus_one, "exit 4"),
    (crossover_one_early, ("crossover-bracket",)),
    (crossover_one_late, ("crossover-bracket",)),
    (ratio_hits_returns_nothing, ("ratio-search",)),
    (em_solutions_invents_4_5, ("em-scan",)),
    (consecutive_gcd_from_mk_rung, ()),
    (is_prime_91, ()),
    (numerator_plus_denominator_at_10, "exit 4"),
    (denominator_off, ("bernoulli-structure",)),
    (divides_reads_m_to_r_plus_1, ("divisibility-equivalence",)),
    (consecutive_gcd_doubled_at_7, ("gcd-ladder", "trivial-gcd-iff")),
    (witness_values_doubled, ("special-values", "min-max")),
    (cross_gcd_claims_c_divides_no_k, ("cross-gcd",)),
    (congruence_cells_flip, ("congruences",)),
    (running_sums_plus_one, ("faulhaber-naive", "s1-s3-identity")),
    (survey_calls_every_numerator_prime, ()),
    (numerator_bound_fails_at_12, ("size-bounds",)),
]


def test_quick_fails_no_check_without_a_fault(capsys):
    assert _failing_checks(capsys) == ()


@pytest.mark.parametrize("fault, fails", FAULTS,
                         ids=[fault.__name__ for fault, _ in FAULTS])
def test_each_fault_fails_exactly_its_checks(fault, fails, monkeypatch,
                                             capsys):
    calls = fault(monkeypatch)
    assert _failing_checks(capsys) == fails
    if fails == ():
        assert calls, "the fault never ran"


def test_every_check_but_numerator_scan_catches_a_fault():
    caught = {check for _, fails in FAULTS if isinstance(fails, tuple)
              for check in fails}
    assert set(sweeps.CHECK_ORDER) - caught == {"numerator-scan"}
