"""Per-layer metrics from the spans a traced pass writes.

A layer is a moser_ladder module; `_primes` reports under `primes.`
because a metric name must start with a letter or digit. Function `.s`
metrics are self time: a span's duration minus the part of it that its
child spans cover, so a time is charged to the layer that spent it.
`sweeps.<check>.s` is the inclusive time of that check's rows. A layer
that a pass never entered reads 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

CHECKS = (
    "bernoulli-structure", "faulhaber-naive", "telescoping", "s1-s3-identity",
    "ratio-search", "em-scan", "gcd-ladder", "congruences",
    "divisibility-equivalence", "trivial-gcd-iff", "special-values",
    "min-max", "cross-gcd", "crossover-bracket", "size-bounds",
    "numerator-scan",
)

# metric prefix -> span name; these report `.calls` and `.s`
_FUNCTION_METRICS = {
    "gcdlab.congruence_check": "gcdlab.congruence_check",
    "gcdlab.prime_local_congruences": "gcdlab.prime_local_congruences",
    "gcdlab.ladder": "gcdlab.ladder",
    "gcdlab.gcd_ratio": "gcdlab.gcd_ratio",
    "powersum.power_sum": "powersum.power_sum",
    "powersum.power_sum_naive": "powersum.power_sum_naive",
    "bernoulli.divides_rational": "bernoulli.divides_rational",
    "bernoulli.square_free_status": "bernoulli.square_free_status",
    "primes.factorize": "_primes.factorize",
    "primes.is_prime": "_primes.is_prime",
}
# metric prefix -> span name; these report `.s` only
_SELF_TIME_ONLY = {
    "gcdlab.min_max_scan": "gcdlab.min_max_scan",
    "gcdlab.cross_gcd_check": "gcdlab.cross_gcd_check",
    "bernoulli.seed_even_values": "bernoulli.seed_even_values",
    "primes.primes_up_to": "_primes.primes_up_to",
    "cache.cache_load": "cache.cache_load",
    "cache.warm_bernoulli": "cache.warm_bernoulli",
    "cache.cache_store": "cache.cache_store",
    "cache.snapshot_bernoulli": "cache.snapshot_bernoulli",
}


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for check in CHECKS:
        out.append((f"sweeps.{check}.s", "s", "lower"))
        out.append((f"sweeps.{check}.cells", "count", "higher"))
    out += [
        ("sweeps.row_p50_ms", "ms", "lower"),
        ("sweeps.row_max_ms", "ms", "lower"),
        ("sweeps.pool_s", "s", "lower"),
        ("sweeps.parallel_efficiency", "1", "higher"),
    ]
    for metric in _FUNCTION_METRICS:
        out.append((f"{metric}.calls", "count", "lower"))
        out.append((f"{metric}.s", "s", "lower"))
    for metric in _SELF_TIME_ONLY:
        out.append((f"{metric}.s", "s", "lower"))
    out += [
        ("powersum.power_sum.us_per_call", "us", "lower"),
        ("bernoulli.table_s", "s", "lower"),
        ("bernoulli.table_max_k", "index", "lower"),
        ("bernoulli.square_trial_divisions", "count", "lower"),
        ("primes.is_prime.in_factorize", "count", "lower"),
        ("primes.is_prime.redundant", "count", "lower"),
        ("primes.is_prime.redundant_ratio", "1", "lower"),
        ("cache.file_bytes", "B", "lower"),
        ("cli.emit_s", "s", "lower"),
        ("cli.stdout_bytes", "B", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


# Counts that must repeat exactly between traced passes of one input.
EXACT_COUNTERS = (
    ["powersum.power_sum.calls", "primes.is_prime.redundant",
     "bernoulli.square_trial_divisions"]
    + [f"sweeps.{check}.cells" for check in CHECKS]
)


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as spans:
        return [json.loads(line) for line in spans]


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"]
        - covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def pass_metrics(spans: list[dict], stdout_bytes: int,
                 cache_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the cross-pass ones
    (`sweeps.parallel_efficiency`, `trace.overhead_s`), which read 0."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    names = {span["id"]: span["name"] for span in spans}

    def self_s(span_name: str) -> float:
        return sum(own[s["id"]] for s in by_name[span_name])

    def attr_sum(span_name: str, key: str) -> int:
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[span_name])

    m: dict[str, float] = {name: 0 for name, _, _ in catalogue()}
    rows_ms = []
    for check in CHECKS:
        rows = by_name[f"sweeps.row.{check}"]
        durations = [s["end"] - s["start"] for s in rows]
        rows_ms += [1e3 * d for d in durations]
        m[f"sweeps.{check}.s"] = sum(durations)
        m[f"sweeps.{check}.cells"] = attr_sum(f"sweeps.row.{check}", "cells")
    if rows_ms:
        m["sweeps.row_p50_ms"] = statistics.median(rows_ms)
        m["sweeps.row_max_ms"] = max(rows_ms)
    m["sweeps.pool_s"] = sum(s["end"] - s["start"] for s in by_name["sweeps.pool"])

    for metric, span_name in _FUNCTION_METRICS.items():
        m[f"{metric}.calls"] = len(by_name[span_name])
        m[f"{metric}.s"] = self_s(span_name)
    for metric, span_name in _SELF_TIME_ONLY.items():
        m[f"{metric}.s"] = self_s(span_name)
    calls = m["powersum.power_sum.calls"]
    if calls:
        m["powersum.power_sum.us_per_call"] = 1e6 * m["powersum.power_sum.s"] / calls

    grown = [s for s in by_name["bernoulli.table"] if s.get("attrs")]
    m["bernoulli.table_s"] = sum(own[s["id"]] for s in grown)
    m["bernoulli.table_max_k"] = max(
        (s["attrs"]["grew_to_k"] for s in grown), default=0)
    m["bernoulli.square_trial_divisions"] = attr_sum(
        "bernoulli.square_free_status", "divisions")

    in_factorize = [s for s in by_name["_primes.is_prime"]
                    if names.get(s["parent"]) == "_primes.factorize"]
    redundant = sum(1 for s in in_factorize if s["attrs"]["proven_by_trial"])
    m["primes.is_prime.in_factorize"] = len(in_factorize)
    m["primes.is_prime.redundant"] = redundant
    if in_factorize:
        m["primes.is_prime.redundant_ratio"] = redundant / len(in_factorize)

    m["cache.file_bytes"] = cache_bytes
    m["cli.emit_s"] = self_s("cli.emit")
    m["cli.stdout_bytes"] = stdout_bytes
    return m


def serial_row_sum(metrics: dict[str, float]) -> float:
    """Summed row time of a serial pass: the work a pool divides."""
    return sum(metrics[f"sweeps.{check}.s"] for check in CHECKS)
