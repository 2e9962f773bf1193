"""Layer-separation checks on traced runs: each workload bypasses the
layers it is meant to bypass, and the exact counters repeat between traced
passes. These start real passes, about 40 s in all on two cores.

Recorded on the seed code (Python 3.11, 2 cores): bernoulli.table_s is
about 3% of wall_s on audit-serial and audit-parallel and about 90% on
bernoulli-cold; every cache.* time is 0 on both audits; audit-serial opens
no pool span.
"""

import pytest

import run

SEED = 1
MIN_RUN = 0.1  # seconds: the minimum passes of each kind


@pytest.fixture(scope="module")
def traced():
    return {name: run.run_workload(name, SEED, MIN_RUN, trace=True)
            for name in ("audit-serial", "audit-parallel", "bernoulli-cold")}


def _value(result, name):
    return result.metrics[name]["value"]


@pytest.mark.parametrize("name", ["audit-serial", "audit-parallel",
                                  "bernoulli-cold"])
def test_traced_run_is_correct_and_counters_repeat(traced, name):
    result = traced[name]
    assert result.correct and result.failed == 0
    assert result.record["counters_repeat"]


@pytest.mark.parametrize("name", ["audit-serial", "audit-parallel"])
def test_audits_bypass_the_table_and_the_cache(traced, name):
    # the untraced wall time is the shorter one, so this overstates the
    # table's share rather than understating it
    result = traced[name]
    share = _value(result, "bernoulli.table_s") / result.record["untraced_wall_s"]
    assert share < 0.10
    cache_times = [m for m in result.metrics
                   if m.startswith("cache.") and m.endswith(".s")]
    assert len(cache_times) == 4
    assert all(_value(result, m) == 0 for m in cache_times)
    assert _value(result, "cache.file_bytes") == 0


def test_cold_bernoulli_is_mostly_the_table(traced):
    # tracing only lengthens a pass, so the share of the traced pass's own
    # wall time is a lower bound on the share of an untraced one
    result = traced["bernoulli-cold"]
    assert result.record["table_share_of_traced_wall"] > 0.80
    assert _value(result, "powersum.power_sum.calls") == 0
    assert _value(result, "cache.file_bytes") > 0


def test_only_the_parallel_audit_uses_the_pool(traced):
    serial, parallel = traced["audit-serial"], traced["audit-parallel"]
    assert _value(serial, "sweeps.pool_s") == 0
    assert _value(serial, "sweeps.parallel_efficiency") == 0
    assert _value(parallel, "sweeps.pool_s") > 0
    assert 0 < _value(parallel, "sweeps.parallel_efficiency") <= 1.5


def test_audits_report_every_check_from_the_row_pass(traced):
    serial, parallel = traced["audit-serial"], traced["audit-parallel"]
    cells = [m for m in serial.metrics if m.endswith(".cells")]
    assert len(cells) == 16
    assert all(_value(serial, m) == _value(parallel, m) > 0 for m in cells)
    assert serial.record["serial_row_sum_s"] > 0
