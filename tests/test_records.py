"""Result records are named tuples: read-only, equal by value, picklable.

The frozen records (`SquareFreeStatus`, `GcdLadder`, `CongruenceVerdict`,
`PrimeLocalVerdict`, `MinMaxResult`, `CrossGcdVerdict`, `RatioHit`,
`GridSpec`) are `typing.NamedTuple`s.
Grids travel to pool workers and rows come back, so both must pickle.
"""

import pickle

import pytest

from moser_ladder import gcdlab, powersum, sweeps
from moser_ladder.bernoulli import square_free_status

RECORDS = {
    "SquareFreeStatus": lambda: square_free_status(12, 100),
    "GcdLadder": lambda: gcdlab.gcd_ladder(10, 5),
    "CongruenceVerdict": lambda: gcdlab.congruence_check(10, 6, 1),
    "PrimeLocalVerdict": lambda: gcdlab.prime_local_congruences(10, 12)[0],
    "MinMaxResult": lambda: gcdlab.min_max_scan(12, 3000),
    "CrossGcdVerdict": lambda: gcdlab.cross_gcd_check(20, 2),
    "RatioHit": lambda: next(powersum.ratio_hits(1, 3, 10)),
    "GridSpec": lambda: sweeps.GridSpec(k_max=12, m_max=100, k_min=2),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_read_only_and_equal_by_value(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a).startswith(f"{name}({a._fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)


def test_records_keep_defaults_and_properties():
    spec = sweeps.GridSpec(k_max=12, m_max=100)
    assert (spec.k_min, spec.m_min, spec.checks) == (1, 1, sweeps.CHECK_ORDER)
    lad = gcdlab.gcd_ladder(10, 5)
    assert (lad.observed_m1, lad.observed_m2, lad.observed_m3) == (
        lad.predicted_m1, lad.predicted_m2, lad.predicted_m3)
    assert lad.ok
    status = square_free_status(12, 100)
    assert (status.kind, status.bound, status.prime) == (
        "no-square-factor-below", 100, None)


def test_grid_spec_survives_pickle():
    spec = sweeps.PROFILES["quick"][1]
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert type(copy) is sweeps.GridSpec


def test_row_survives_pickle():
    row = sweeps._ROW_RUNNERS["faulhaber-naive"](4, sweeps.GridSpec(
        k_max=4, m_max=20))
    row.cell(False, 1, 2, m=7)  # one counterexample to carry across
    copy = pickle.loads(pickle.dumps(row))
    assert type(copy) is sweeps._Row
    assert vars(copy) == vars(row)
    assert (copy.passes, copy.fails) == (20, 1)
