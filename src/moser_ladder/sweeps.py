"""Deterministic verification sweeps over (k, m) grids.

A sweep runs a fixed set of named checks over a grid, accounting every
cell as pass, fail, or inapplicable, and collecting counterexamples and
findings (hits). Every fact about a check is one entry of the ordered
table `_CHECKS`; the check order, the rows of a grid, grid validation
and `max_bernoulli_index` are read from it. The work is a list of rows,
one per check and k; with w > 1 workers, worker i runs the strided
slice rows[i::w] in one pool call (one worker runs the whole list
in-process). Workers are seeded with the parent's Bernoulli table and
rows go back to their list positions, so the report (the dict that
`verify --format json` prints, built once from the rows) is
byte-identical at any job count. The job count is an argument of
`run_grids` and of `run_sweep`/`verify_all`, not part of a grid. Sweeps
do no file I/O: the CLI reads the Bernoulli cache before a sweep and
writes it afterwards, up to `max_bernoulli_index` of the grids.

Rows call the library's scans (`powersum` searches and running sums,
`gcdlab` ladders and congruences) rather than restating them; the
numerator survey lives here and the CLI's `scan` only formats it. The
m-cell rows reach S_k(m) by three routes, and their counterexample text
depends on which: `telescoping` reads only the closed form `power_sum`
(from Bernoulli numbers); `faulhaber-naive` compares it with
`running_sums`, which `s1-s3-identity` and `congruences` also read; and
`gcd-ladder`, `divisibility-equivalence` and `trivial-gcd-iff` call
`power_sum_naive` once, at their first m, then add m^k step by step.
These rows run integer kernels with N_k and D_k read once per row: the
gcd ladder (`gcdlab._ladder_rungs`), the congruence cells, whose m are
factored from one smallest-prime-factor table per row, and the integer
core of `divides_rational`. A passing cell is only counted; the text of
a counterexample (and any `Fraction` in it) is built only when a cell
fails.

`concurrent.futures` is imported on first use, by the module
`__getattr__`, so a sweep at jobs = 1 and every other subcommand start
without it. `run_grids` builds its pool from the module attribute
`sweeps.ProcessPoolExecutor`; the benchmark's trace driver assigns a
recording subclass there, and an assignment wins over the lazy import.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt
from typing import Callable, NamedTuple

from . import gcdlab
from . import powersum as ps
from ._primes import factor_with_table, primes_up_to, smallest_prime_factors
from ._version import __version__
from .bernoulli import (
    SQUARE_FREE_ESCALATION,
    _divides_nd,
    bernoulli,
    denominator,
    even_value_pairs,
    exact_log_abs,
    find_square_factor,
    numerator,
    numerator_bound_check,
    numerator_is_prime,
    seed_even_values,
    size_estimate,
    vsc_denominator,
)

__all__ = [
    "SCHEMA_VERSION",
    "CHECK_ORDER",
    "PROFILES",
    "GridSpec",
    "numerator_survey",
    "max_bernoulli_index",
    "run_grids",
    "run_sweep",
    "verify_all",
]

SCHEMA_VERSION = "1"

class _Row:
    """Counts, counterexamples and hits of one check at one k (None for
    the k-independent s1-s3 row)."""

    def __init__(self, check: str, k: int | None):
        self.check = check
        self.k = k
        self.passes = 0
        self.fails = 0
        self.inapplicable = 0
        self.counterexamples: list[dict] = []
        self.hits: list[dict] = []

    def cell(self, ok: bool, observed, predicted, applicable: bool = True,
             **where) -> None:
        """Account one cell: inapplicable whatever `ok` says when its gate
        is closed, else pass or fail. A failure becomes a counterexample
        at `where` (m, s and/or the cell's name), values as strings:
        exact, and safe for any JSON consumer."""
        if not applicable:
            self.inapplicable += 1
        elif ok:
            self.passes += 1
        else:
            self.fails += 1
            at = {"check": self.check}
            if self.k is not None:
                at["k"] = self.k
            self.counterexamples.append(
                {**at, **where, "observed": str(observed),
                 "predicted": str(predicted)}
            )


# ---- row runners, one per check; each covers a single k (or, for
# ---- k-independent checks, the single row key 0)


def _row_bernoulli_structure(k: int, spec: GridSpec) -> _Row:
    row = _Row("bernoulli-structure", k)
    d = denominator(k)
    v = vsc_denominator(k)
    row.cell(d == v, d, v, cell="denominator-vsc")
    n = numerator(k)
    row.cell((-1) ** (k // 2 + 1) * n > 0, n, "sign (-1)^(k/2+1)",
             cell="sign-pattern")
    row.cell((2 * (2**k - 1)) % d == 0, d, "divisor of 2(2^k-1)",
             cell="divides-2(2^k-1)")
    # direct square-free probe of D, bounded; D == vsc product of distinct
    # primes already implies square-freeness, this probes it independently
    probe = min(isqrt(d), 10_000)
    sq = next((p for p in primes_up_to(probe) if d % (p * p) == 0), None)
    row.cell(sq is None, f"square factor {sq}", "square-free",
             cell="denominator-square-free")
    return row


def _row_faulhaber(k: int, spec: GridSpec) -> _Row:
    row = _Row("faulhaber-naive", k)
    for m, s in ps.running_sums(k, spec.m_max):
        if m >= spec.m_min:
            closed = ps.power_sum(k, m)
            row.cell(closed == s, closed, s, m=m)
    return row


def _row_telescoping(k: int, spec: GridSpec) -> _Row:
    row = _Row("telescoping", k)
    prev = ps.power_sum(k, spec.m_min)
    for m in range(spec.m_min, spec.m_max + 1):
        nxt = ps.power_sum(k, m + 1)
        mk = m**k
        row.cell(nxt - prev == mk, nxt - prev, mk, m=m)
        prev = nxt
    return row


def _row_s1s3(_k: int, spec: GridSpec) -> _Row:
    row = _Row("s1-s3-identity", None)
    for (m, s1), (_, s3) in zip(ps.running_sums(1, spec.m_max),
                                ps.running_sums(3, spec.m_max)):
        if m >= spec.m_min:
            row.cell(s3 == s1 * s1, s3, s1 * s1, m=m)
    return row


# the two searches are observational: every scanned m passes, hits are
# findings


def _row_ratio_search(k: int, spec: GridSpec) -> _Row:
    row = _Row("ratio-search", k)
    row.hits = [{"k": k, "m": h.m, "quotient": str(h.quotient)}
                for h in ps.ratio_hits(k, spec.m_min, spec.m_max)]
    row.passes = len(range(max(3, spec.m_min), spec.m_max + 1))
    return row


def _row_em_scan(k: int, spec: GridSpec) -> _Row:
    row = _Row("em-scan", k)
    row.hits = [{"k": k, "m": m}
                for m in ps.em_solutions(k, spec.m_min, spec.m_max)]
    row.passes = len(range(max(2, spec.m_min), spec.m_max + 1))
    return row


_LADDER_CLOSED_FORMS = ("closed-form-m", "closed-form-m2", "closed-form-m3")


def _row_gcd_ladder(k: int, spec: GridSpec) -> _Row:
    row = _Row("gcd-ladder", k)
    b = bernoulli(k)
    n_abs, d = abs(b.numerator), b.denominator
    m_lo = max(2, spec.m_min)
    s = ps.power_sum_naive(k, m_lo)
    for m in range(m_lo, spec.m_max + 1):
        s_next = s + m**k
        (g1, g2, g3, g4, gk, p1, p2, p3, e, residual_ok,
         consecutive) = gcdlab._ladder_rungs(k, m, s, s_next, n_abs, d)
        monotone = gcdlab._rungs_nest(k, g1, g2, g3, g4, gk)
        if (g1 == p1 and g2 == p2 and g3 == p3 and consecutive and monotone
                and residual_ok):
            row.passes += 6
        else:
            for name, obs, pred in zip(_LADDER_CLOSED_FORMS, (g1, g2, g3),
                                       (p1, p2, p3)):
                row.cell(obs == pred, obs, pred, m=m, cell=name)
            row.cell(consecutive, "gcd(S(m), S(m+1)) != gcd(S(m), m^k)",
                     "equal", m=m, cell="consecutive-gcd")
            row.cell(monotone, (g1, g2, g3, g4, gk), "each divides the next",
                     m=m, cell="ladder-monotone")
            row.cell(residual_ok, e, "all primes divide the numerator",
                     m=m, cell="residual-primes")
        s = s_next
    return row


def _row_congruences(k: int, spec: GridSpec) -> _Row:
    row = _Row("congruences", k)
    b = bernoulli(k)
    n, d = b.numerator, b.denominator
    table = smallest_prime_factors(spec.m_max)
    for m, s in ps.running_sums(k, spec.m_max):
        if m < spec.m_min:
            continue
        num = gcdlab._diff_numerator(k, m, s, n, d)
        for label, p, applicable, holds in gcdlab._congruence_cells(
                k, m, num, factor_with_table(m, table), n, d):
            if not applicable:
                row.inapplicable += 1
            elif holds:
                row.passes += 1
            else:
                row.cell(False, "congruence fails", "holds", m=m,
                         cell=label if p is None else f"{label} p={p}")
    return row


def _row_div_equiv(k: int, spec: GridSpec) -> _Row:
    row = _Row("divisibility-equivalence", k)
    b = bernoulli(k)
    n, d = b.numerator, b.denominator
    m_lo = max(2, spec.m_min)
    s = ps.power_sum_naive(k, m_lo)
    for m in range(m_lo, spec.m_max + 1):
        for r in (1, 2):
            lhs = s % m ** (r + 1) == 0
            rhs = _divides_nd(m, r, n, d)
            if lhs == rhs:
                row.passes += 1
            else:
                row.cell(False, f"m^{r+1}|S is {lhs}, m^{r}|B is {rhs}",
                         "equivalent", m=m, cell=f"r={r}")
        s += m**k
    return row


def _row_trivial_gcd(k: int, spec: GridSpec) -> _Row:
    row = _Row("trivial-gcd-iff", k)
    dn = denominator(k) * abs(numerator(k))
    m_lo = max(2, spec.m_min)
    s = ps.power_sum_naive(k, m_lo)
    for m in range(m_lo, spec.m_max + 1):
        s_next = s + m**k
        a = gcd(s, s_next)  # g = a / m, so g = 1 iff a = m
        c = gcd(dn, m)
        if (a == m) == (c == 1):
            row.passes += 1
        else:
            row.cell(False, f"g = {Fraction(a, m)}, gcd(D N, m) = {c}",
                     "g = 1 iff gcd(D N, m) = 1", m=m)
        s = s_next
    return row


def _row_special_values(k: int, spec: GridSpec) -> _Row:
    row = _Row("special-values", k)
    d = denominator(k)
    n_abs = abs(numerator(k))
    got_min = gcdlab.gcd_ratio(k, d)
    row.cell(got_min == Fraction(1, d), got_min, Fraction(1, d),
             cell="value-at-D")
    if n_abs >= 2:
        m_wit = n_abs
        want = Fraction(n_abs)
    else:
        # numerator is a unit: the top value 1 is taken at the first m
        # coprime to D
        m_wit = next(m for m in range(2, d + 3) if gcd(d, m) == 1)
        want = Fraction(1)
    got_max = gcdlab.gcd_ratio(k, m_wit)
    row.cell(got_max == want, got_max, want, cell="value-at-N")
    row.hits.append(
        {"k": k, "at_D": str(got_min), "witness_D": str(d),
         "at_N": str(got_max), "witness_N": str(m_wit)}
    )
    return row


def _row_min_max(k: int, spec: GridSpec) -> _Row:
    row = _Row("min-max", k)
    d = denominator(k)
    n_abs = abs(numerator(k))
    window = max(spec.m_max, d, n_abs)
    result = gcdlab.min_max_scan(
        k,
        window,
        prefix_limit=max(2048, spec.m_max),
        trial_bound=spec.trial_bound,
    )
    row.cell(result.min_value == Fraction(1, d) and result.min_witness == d,
             f"{result.min_value} at {result.min_witness}", f"1/{d} at {d}",
             cell="min-attained")
    row.cell(result.prefix_min >= Fraction(1, d),
             f"{result.prefix_min} at {result.prefix_min_at}", f">= 1/{d}",
             cell="prefix-above-min")
    if result.certified:
        want_max = Fraction(n_abs)
        row.cell(result.max_value == want_max,
                 f"{result.max_value} at {result.max_witness}", want_max,
                 cell="max-attained")
        row.cell(result.prefix_max <= want_max,
                 f"{result.prefix_max} at {result.prefix_max_at}",
                 f"<= {want_max}", cell="prefix-below-max")
        row.cell(result.product_matches_abs_b, result.product,
                 abs(bernoulli(k)), cell="min-times-max")
        row.cell(bool(result.prefix_closed_form_agrees),
                 "disagreement on the scanned prefix",
                 "gcd(N, m)/gcd(D, m) everywhere", cell="prefix-closed-form")
    else:
        # no square-free certificate: the scan reports, never asserts
        row.inapplicable += 4
    row.hits.append(
        {"k": k, "min": str(result.min_value), "min_witness": str(result.min_witness),
         "max": str(result.max_value), "max_witness": str(result.max_witness),
         "certified": result.certified}
    )
    return row


def _row_cross_gcd(k: int, spec: GridSpec) -> _Row:
    row = _Row("cross-gcd", k)
    for s in gcdlab.CROSS_GCD_OFFSETS:
        if k - s < 2:
            continue
        v = gcdlab.cross_gcd_check(k, s)
        row.cell(v.ok,
                 f"C = {v.c}, divides_k = {v.divides_k}, "
                 f"square_free = {v.c_square_free}, "
                 f"prime_checks = {v.prime_checks}",
                 "C | k; C square-free; primes avoid D_s and "
                 "the numerator of B_k/k", s=s)
        if v.c > 1:
            row.hits.append({"k": k, "s": s, "c": str(v.c)})
    return row


def _row_crossover(k: int, spec: GridSpec) -> _Row:
    row = _Row("crossover-bracket", k)
    c = ps.crossover(k)
    inside = k < c < 2 * k
    # bracket misses are reported as findings, not failures
    row.passes += 1
    row.hits.append({"k": k, "crossover": str(c), "inside_bracket": inside})
    return row


def _row_size_bounds(k: int, spec: GridSpec) -> _Row:
    row = _Row("size-bounds", k)
    est = size_estimate(k, 64)
    exact = exact_log_abs(k)
    rel = abs(est - exact) / abs(exact)
    row.cell(rel <= 1e-9, f"relative error {rel!r}", "<= 1e-9",
             cell="log-estimate")
    row.cell(numerator_bound_check(k), "bound or divisibility fails",
             "|N| < (2 pi/3)(k/pi)^(k-1) and D | 2(2^k-1)",
             cell="numerator-bound")
    return row


def numerator_survey(k: int, trial_bound: int) -> dict:
    """Survey record of |N_k|, even k >= 2: digit count, primality, and a
    square factor p^2 hunted over the escalating trial bounds up to
    trial_bound, with the bound that flagged it or, if none did, the
    largest bound searched clear."""
    n_abs = abs(numerator(k))
    prime = numerator_is_prime(k)
    bounds = tuple(
        b for b in SQUARE_FREE_ESCALATION if b <= trial_bound
    ) or (trial_bound,)
    found = find_square_factor(k, bounds)
    return {
        "k": k,
        "digits": len(str(n_abs)),
        "prime": prime,
        "square_factor": str(found[0]) if found else None,
        "flagged_at_bound": found[1] if found else None,
        "clear_below": None if found else bounds[-1],
    }


def _row_numerator_scan(k: int, spec: GridSpec) -> _Row:
    row = _Row("numerator-scan", k)
    row.passes += 2  # primality decided, square scan completed
    row.hits.append(numerator_survey(k, spec.trial_bound))
    return row


class _Check(NamedTuple):
    """What a sweep knows of one check. k_min is the smallest k with a
    row (None: one k-independent row, key 0); reads_b means the rows read
    B_k up to the grid's k_max, so the table is built that far first."""

    runner: Callable[[int, GridSpec], _Row]
    k_min: int | None = 2
    even_k: bool = True
    reads_b: bool = True
    reads_trial_bound: bool = False


# every check, in report order
_CHECKS: dict[str, _Check] = {
    "bernoulli-structure": _Check(_row_bernoulli_structure),
    "faulhaber-naive": _Check(_row_faulhaber, 1, even_k=False),
    "telescoping": _Check(_row_telescoping, 1, even_k=False),
    "s1-s3-identity": _Check(_row_s1s3, None, reads_b=False),
    "ratio-search": _Check(_row_ratio_search, 1, even_k=False,
                           reads_b=False),
    "em-scan": _Check(_row_em_scan, 1, even_k=False, reads_b=False),
    "gcd-ladder": _Check(_row_gcd_ladder),
    "congruences": _Check(_row_congruences),
    "divisibility-equivalence": _Check(_row_div_equiv),
    "trivial-gcd-iff": _Check(_row_trivial_gcd),
    "special-values": _Check(_row_special_values),
    "min-max": _Check(_row_min_max, reads_trial_bound=True),
    "cross-gcd": _Check(_row_cross_gcd, 4),
    # reads no B_k, but its grid's k_max has always sized the table, and
    # with it the cache `verify` writes
    "crossover-bracket": _Check(_row_crossover),
    "size-bounds": _Check(_row_size_bounds, 10),
    "numerator-scan": _Check(_row_numerator_scan, reads_trial_bound=True),
}

CHECK_ORDER = tuple(_CHECKS)

# the row runner of each check, looked up per row when a row runs (the
# benchmark's trace driver wraps these entries)
_ROW_RUNNERS = {name: check.runner for name, check in _CHECKS.items()}


class GridSpec(NamedTuple):
    """One grid of work: k and m ranges plus the checks to run on them.
    Every check with cells in m keeps to m_min <= m <= m_max."""

    k_max: int
    m_max: int
    k_min: int = 1
    m_min: int = 1
    checks: tuple[str, ...] = CHECK_ORDER
    trial_bound: int = 10_000

    def validate(self) -> None:
        if self.k_min < 1 or self.k_max < self.k_min:
            raise ValueError(f"bad k range [{self.k_min}, {self.k_max}]")
        if self.m_min < 1 or self.m_max < self.m_min:
            raise ValueError(f"bad m range [{self.m_min}, {self.m_max}]")
        unknown = [c for c in self.checks if c not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        if self.trial_bound < 2 and any(
                _CHECKS[c].reads_trial_bound for c in self.checks):
            raise ValueError(
                f"trial_bound must be >= 2, got {self.trial_bound}")


def _rows_for(check: str, spec: GridSpec) -> range:
    """The k of each row of `check` on `spec`."""
    entry = _CHECKS[check]
    if entry.k_min is None:
        return range(1)
    lo = max(spec.k_min, entry.k_min)
    if entry.even_k:
        return range(lo + lo % 2, spec.k_max + 1, 2)
    return range(lo, spec.k_max + 1)


def _run_slice(tasks: list[tuple[str, int, GridSpec]]) -> list[_Row]:
    return [_ROW_RUNNERS[check](k, spec) for check, k, spec in tasks]


def __getattr__(name: str):
    # PEP 562: `ProcessPoolExecutor` is imported, and bound here, on its
    # first read; an assignment to it beforehand takes precedence
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def max_bernoulli_index(specs: list[GridSpec]) -> int:
    """Largest even k whose B_k the grids read (at least 2): the extent of
    the Bernoulli table a sweep over `specs` builds."""
    k = max([2] + [spec.k_max for spec in specs
                   if any(_CHECKS[c].reads_b for c in spec.checks)])
    return k - k % 2


def _available_cpus() -> int:
    """CPUs in this process's affinity set, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(jobs: int, n_tasks: int) -> int:
    """Worker processes for a sweep: never more than the CPUs or the tasks."""
    return min(jobs, _available_cpus(), n_tasks)


def run_grids(specs: list[GridSpec], profile: str | None,
              jobs: int) -> dict:
    """Validate and run every row, one strided slice per worker, and
    return the report `verify --format json` prints. Rows merge in list
    order, so the report is the same at any job count."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for spec in specs:
        spec.validate()
    t0 = time.perf_counter()

    k_need = max_bernoulli_index(specs)
    bernoulli(k_need)  # fill the memo before any fork
    pairs = even_value_pairs(k_need)

    checks: list[dict] = []
    tasks: list[tuple[str, int, GridSpec]] = []
    for check in CHECK_ORDER:
        for spec in specs:
            if check not in spec.checks:
                continue
            ks = _rows_for(check, spec)
            checks.append({
                "name": check,
                "grid": {"k_min": spec.k_min, "k_max": spec.k_max,
                         "m_min": spec.m_min, "m_max": spec.m_max},
                "rows": len(ks), "pass": 0, "fail": 0, "inapplicable": 0,
                "counterexamples": [], "hits": [],
            })
            tasks.extend((check, k, spec) for k in ks)

    workers = _pool_size(jobs, len(tasks))
    if workers > 1:
        # read as a module attribute, so a swapped-in pool class is used
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(
            max_workers=workers, initializer=seed_even_values, initargs=(pairs,)
        ) as pool:
            slices = [tasks[i::workers] for i in range(workers)]
            results = [None] * len(tasks)
            for i, rows in enumerate(pool.map(_run_slice, slices)):
                results[i::workers] = rows
    else:
        results = _run_slice(tasks)

    # each check takes the next `rows` results, in task order
    results = iter(results)
    for check in checks:
        for row in islice(results, check["rows"]):
            check["pass"] += row.passes
            check["fail"] += row.fails
            check["inapplicable"] += row.inapplicable
            check["counterexamples"] += row.counterexamples
            check["hits"] += row.hits

    # the job count is deliberately not in the report: reports must be
    # byte-identical across job counts
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "profile": profile,
        "checks": checks,
        "totals": {key: sum(c[key] for c in checks)
                   for key in ("pass", "fail", "inapplicable")},
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }


def run_sweep(spec: GridSpec, jobs: int = 1) -> dict:
    """Run one grid on up to `jobs` worker processes."""
    return run_grids([spec], None, jobs)


# profile -> list of grids; every check appears in exactly one grid
PROFILES: dict[str, list[GridSpec]] = {
    "quick": [
        GridSpec(k_max=12, m_max=100,
                 checks=("faulhaber-naive", "telescoping", "s1-s3-identity",
                         "ratio-search", "em-scan")),
        GridSpec(k_max=12, m_max=100, k_min=2, trial_bound=1000,
                 checks=("bernoulli-structure", "gcd-ladder", "congruences",
                         "divisibility-equivalence", "trivial-gcd-iff",
                         "special-values", "min-max", "cross-gcd",
                         "crossover-bracket", "size-bounds",
                         "numerator-scan")),
    ],
    "standard": [
        GridSpec(k_max=20, m_max=1000, checks=("ratio-search", "em-scan")),
        GridSpec(k_max=40, m_max=300,
                 checks=("faulhaber-naive", "telescoping", "s1-s3-identity")),
        GridSpec(k_max=40, m_max=300, k_min=2,
                 checks=("bernoulli-structure", "gcd-ladder", "congruences",
                         "divisibility-equivalence", "trivial-gcd-iff",
                         "special-values", "min-max", "cross-gcd",
                         "crossover-bracket", "size-bounds",
                         "numerator-scan")),
    ],
    "extended": [
        GridSpec(k_max=20, m_max=1000, checks=("ratio-search", "em-scan")),
        GridSpec(k_max=48, m_max=300,
                 checks=("faulhaber-naive", "telescoping", "s1-s3-identity")),
        GridSpec(k_max=48, m_max=300, k_min=2,
                 checks=("gcd-ladder", "congruences",
                         "divisibility-equivalence", "trivial-gcd-iff",
                         "min-max")),
        GridSpec(k_max=100, m_max=1, k_min=2, checks=("bernoulli-structure",)),
        GridSpec(k_max=40, m_max=1, k_min=10, checks=("special-values",)),
        GridSpec(k_max=60, m_max=1, k_min=2, checks=("cross-gcd",)),
        GridSpec(k_max=40, m_max=1, k_min=2, checks=("crossover-bracket",)),
        GridSpec(k_max=200, m_max=1, k_min=10, checks=("size-bounds",)),
        GridSpec(k_max=250, m_max=1, k_min=2, trial_bound=100_000,
                 checks=("numerator-scan",)),
    ],
}


def verify_all(profile: str, jobs: int = 1) -> dict:
    """Run a named profile and return the union report."""
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}, want one of {sorted(PROFILES)}"
        )
    return run_grids(PROFILES[profile], profile, jobs)
