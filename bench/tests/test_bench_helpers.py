"""Tests of the benchmark's own helpers: span self time, report digests,
the tangent-number reference, the v1 cache fixture and failure accounting.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
from reference import (bernoulli_table, read_v1_cache, report_digest,
                       tangent_numbers, write_v1_cache)

REPO = run.ROOT


def _span(idx, start, end, parent=-1, name="x"):
    return {"id": idx, "name": name, "start": start, "end": end,
            "parent": parent, "run": "r"}


def test_self_time_nested_spans():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 2.0, 3.0, 1)]
    own = layers.self_times(spans)
    assert own == {0: pytest.approx(7.0), 1: pytest.approx(2.0),
                   2: pytest.approx(1.0)}


def test_self_time_overlapping_and_overhanging_children():
    # children [1, 4] and [3, 6] overlap; [9, 12] runs past the parent's end
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0),
             _span(2, 3.0, 6.0, 0), _span(3, 9.0, 12.0, 0)]
    assert layers.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_merges_unsorted_intervals():
    assert layers.covered(0.0, 10.0, [(5, 7), (1, 2), (6, 8)]) == 4.0
    assert layers.covered(0.0, 1.0, []) == 0.0


def test_report_digest_ignores_only_wall_time():
    report = {"checks": [{"name": "a", "pass": 3}],
              "totals": {"fail": 0, "inapplicable": 0, "pass": 3},
              "wall_time_s": 1.25}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    slower = json.dumps(dict(report, wall_time_s=9.5), sort_keys=True, indent=2)
    assert report_digest(text) == report_digest(slower)
    del report["wall_time_s"]
    canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert report_digest(text) == hashlib.sha256(canonical.encode()).hexdigest()
    assert report_digest(text) == report_digest(canonical)
    report["totals"]["pass"] = 4
    assert report_digest(text) != report_digest(json.dumps(report))


def test_tangent_numbers_known_values():
    assert tangent_numbers(6) == [0, 1, 2, 16, 272, 7936, 353792]


def test_bernoulli_reference_known_values():
    table = bernoulli_table(60)
    assert sorted(table) == list(range(2, 61, 2))
    assert table[2] == Fraction(1, 6)
    assert table[12] == Fraction(-691, 2730)
    assert table[60] == Fraction(
        -1215233140483755572040304994079820246041491, 56786730)


def test_bernoulli_reference_agrees_with_the_recurrence():
    from moser_ladder import bernoulli

    table = bernoulli_table(200)
    assert all(table[k] == bernoulli(k) for k in table)


def test_v1_fixture_round_trips_through_cache_load(tmp_path):
    from moser_ladder.cache import cache_load

    table = bernoulli_table(80)
    path = tmp_path / "fixture.cache"
    write_v1_cache(table, path)
    want = {k: (b.numerator, b.denominator) for k, b in table.items()}
    assert cache_load(path).entries == want
    assert read_v1_cache(path) == want


def test_v1_reader_rejects_a_tampered_record(tmp_path):
    path = tmp_path / "fixture.cache"
    write_v1_cache(bernoulli_table(12), path)
    path.write_text(path.read_text().replace("-691\t2730", "-697\t2730"))
    with pytest.raises(ValueError, match="checksum"):
        read_v1_cache(path)


def test_k_sequence_stays_in_range_and_spreads(tmp_path):
    workload = run.Bernoulli(False, 7, tmp_path)
    ks = [workload.k(i) for i in range(40)]
    assert all(k % 2 == 0 and run.K_LO <= k <= run.K_HI for k in ks)
    assert len(set(ks[:10])) == 10
    assert run.Bernoulli(False, 7, tmp_path).k(3) == ks[3]


def test_audit_check_counts_wrong_outputs_as_failures():
    audit = run.Audit(1)
    report = json.dumps({"totals": {"fail": 0}, "wall_time_s": 1.0}).encode()
    assert not audit.check(0, 0, report, Path("."))  # digest differs
    assert not audit.check(0, 1, report, Path("."))
    assert not audit.check(0, 0, b"not json", Path("."))


def test_wrong_expected_value_raises_failed_ratio(tmp_path):
    workload = run.Bernoulli(True, 5, tmp_path)
    runner = run.Runner(workload, tmp_path)
    runner.run(0)
    assert (runner.attempted, runner.failed) == (1, 0)
    k = workload.k(0)
    workload.table[k] += 1
    runner.run(0)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.catalogue()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bernoulli-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
