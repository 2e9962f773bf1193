"""Traced driver: run the moser-ladder CLI with spans around calls into
each module's public functions, recorded from outside the program.

    PYTHONPATH=src python3 bench/trace_driver.py SPANS RUN_ID all|rows ARGS...

With `all`, each function in TARGETS is wrapped in every moser_ladder
module namespace that holds a reference to it. With both scopes the sweep
row runners are wrapped in `sweeps._ROW_RUNNERS` and the process pool
class is swapped for one that records its lifetime; `rows` keeps row times
free of the cost of inner spans. Then `moser_ladder.cli.main(ARGS)` runs.
Spans stay
in memory and are written to SPANS as JSON lines when main returns; the
exit code is main's. Pool workers forked from this process inherit the
wrappers but record nothing, so only the parent process is traced.
"""

from __future__ import annotations

import json
import os
import sys
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import moser_ladder.cli

# by sys.modules: the package rebinds the name `bernoulli` to the function
_primes = sys.modules["moser_ladder._primes"]
_bernoulli = sys.modules["moser_ladder.bernoulli"]
sweeps = sys.modules["moser_ladder.sweeps"]

# Trial division in factorize covers every prime <= 10^5, so a cofactor
# <= 10^10 it hands to is_prime is already proven prime.
PROVEN_BY_TRIAL = 10**10

_spans: list[list] = []  # [name, start, end, parent index, attrs or None]
_open: list[int] = []
_enabled = True


def _disable_in_child() -> None:
    global _enabled
    _enabled = False


os.register_at_fork(after_in_child=_disable_in_child)


def begin(name: str) -> list:
    """Open a span; the clock starts after the bookkeeping."""
    span = [name, 0.0, 0.0, _open[-1] if _open else -1, None]
    _open.append(len(_spans))
    _spans.append(span)
    span[1] = perf_counter()
    return span


def end(span: list) -> None:
    span[2] = perf_counter()
    _open.pop()


def wrap(fn, name, attrs=None, pre=None):
    """Span `name` around each call of fn. attrs(args, result, before)
    gives counts to attach, where before = pre(args) taken on entry."""

    def traced(*args, **kwargs):
        if not _enabled:
            return fn(*args, **kwargs)
        before = pre(args) if pre else None
        span = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(span)
        if attrs:
            span[4] = attrs(args, result, before)
        return result

    return traced


_primes_up_to = _primes.primes_up_to


def _square_trial_divisions(args, status, _before) -> dict:
    """p^2 divisions square_free_status performed: none for |N| = 1, up to
    and including the flagged prime, else every prime <= the bound."""
    _k, bound = args
    if status.kind == "trivial":
        return {"divisions": 0}
    primes = _primes_up_to(bound)
    if status.kind == "square-factor":
        return {"divisions": bisect_right(primes, status.prime)}
    return {"divisions": len(primes)}


def _memo_len(_args) -> int:
    return len(_bernoulli._EVEN)


def _memo_growth(_args, _result, before) -> dict | None:
    after = len(_bernoulli._EVEN)
    return {"grew_to_k": 2 * (after - 1)} if after > before else None


def _row_cells(_args, row, _before) -> dict:
    return {"cells": row.passes + row.fails + row.inapplicable}


def _is_prime_arg(args, _result, _before) -> dict:
    return {"proven_by_trial": args[0] <= PROVEN_BY_TRIAL}


# (module, attribute, span name, attrs hook, pre hook)
TARGETS = [
    ("_primes", "factorize", "_primes.factorize", None, None),
    ("_primes", "is_prime", "_primes.is_prime", _is_prime_arg, None),
    ("_primes", "primes_up_to", "_primes.primes_up_to", None, None),
    ("powersum", "power_sum", "powersum.power_sum", None, None),
    ("powersum", "power_sum_naive", "powersum.power_sum_naive", None, None),
    ("bernoulli", "_extend_even", "bernoulli.table", _memo_growth, _memo_len),
    ("bernoulli", "divides_rational", "bernoulli.divides_rational", None, None),
    ("bernoulli", "square_free_status", "bernoulli.square_free_status",
     _square_trial_divisions, None),
    ("bernoulli", "seed_even_values", "bernoulli.seed_even_values", None, None),
    ("gcdlab", "congruence_check", "gcdlab.congruence_check", None, None),
    ("gcdlab", "prime_local_congruences", "gcdlab.prime_local_congruences",
     None, None),
    ("gcdlab", "_ladder_from_sums", "gcdlab.ladder", None, None),
    ("gcdlab", "gcd_ratio", "gcdlab.gcd_ratio", None, None),
    ("gcdlab", "min_max_scan", "gcdlab.min_max_scan", None, None),
    ("gcdlab", "cross_gcd_check", "gcdlab.cross_gcd_check", None, None),
    ("cache", "cache_load", "cache.cache_load", None, None),
    ("cache", "warm_bernoulli", "cache.warm_bernoulli", None, None),
    ("cache", "cache_store", "cache.cache_store", None, None),
    ("cache", "snapshot_bernoulli", "cache.snapshot_bernoulli", None, None),
    ("cli", "_emit_json", "cli.emit", None, None),
]


class TracedPool(ProcessPoolExecutor):
    """The sweep pool, with one span from construction to shutdown."""

    def __init__(self, *args, **kwargs):
        self._span = begin("sweeps.pool") if _enabled else None
        super().__init__(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        try:
            super().shutdown(*args, **kwargs)
        finally:
            if self._span is not None:
                end(self._span)
                self._span[4] = {"workers": self._max_workers}
                self._span = None


def install(scope: str) -> None:
    """Swap every reference to a target for its traced wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "moser_ladder" or name.startswith("moser_ladder.")]
    for module_name, attr, span_name, attrs, pre in (
            TARGETS if scope == "all" else []):
        original = getattr(sys.modules[f"moser_ladder.{module_name}"], attr)
        traced = wrap(original, span_name, attrs, pre)
        for module in modules:
            for key, value in vars(module).items():
                if value is original:
                    setattr(module, key, traced)
    for check, runner in sweeps._ROW_RUNNERS.items():
        sweeps._ROW_RUNNERS[check] = wrap(runner, f"sweeps.row.{check}",
                                          _row_cells)
    sweeps.ProcessPoolExecutor = TracedPool


def write_spans(path: str, run_id: str) -> None:
    """One JSON object per span: id, name, start, end, parent (-1 for a
    root), run, and attrs when the span carries counts."""
    run = json.dumps(run_id)
    with open(path, "w", encoding="utf-8") as out:
        for idx, (name, start, stop, parent, attrs) in enumerate(_spans):
            extra = f', "attrs": {json.dumps(attrs)}' if attrs else ""
            out.write(f'{{"id": {idx}, "name": "{name}", "start": {start!r}, '
                      f'"end": {stop!r}, "parent": {parent}, "run": {run}'
                      f'{extra}}}\n')


def main() -> int:
    spans_path, run_id, scope, *argv = sys.argv[1:]
    if scope not in ("all", "rows"):
        raise SystemExit(f"scope must be all or rows, got {scope!r}")
    install(scope)
    try:
        code = moser_ladder.cli.main(argv)
    finally:
        sys.stdout.flush()
        write_spans(spans_path, run_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
