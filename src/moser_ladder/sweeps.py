"""Deterministic verification sweeps over (k, m) grids.

A sweep runs a fixed set of named checks over a grid, accounting every
cell as pass, fail, or inapplicable, and collecting counterexamples and
findings (hits). The work is a list of rows, one per check and k; with
w > 1 workers, worker i runs the strided slice rows[i::w] in one pool
call (one worker runs the whole list in-process). Workers are seeded
with the parent's Bernoulli table and rows go back to their list
positions, so reports are byte-identical at any job count. Scans
inside rows use incremental integer sums (no Bernoulli numbers), keeping
them an independent route from the closed-form evaluator they check.
Rows call the library's scans (`powersum` searches and running sums,
`gcdlab` ladders and congruences) rather than restating them; the
numerator survey lives here and the CLI's `scan` only formats it. The
job count is an argument of `run_grids` and of `run_sweep`/`verify_all`,
not part of a grid. Sweeps do no file I/O: the CLI reads the Bernoulli
cache before a sweep and writes it afterwards, up to
`max_bernoulli_index` of the grids.

The m-cell rows run integer kernels with N_k and D_k read once per row:
the gcd ladder (`gcdlab._ladder_rungs`), the congruence cells, whose m
are factored from one smallest-prime-factor table per row, and the
integer core of `divides_rational`. A passing cell is only counted; the
text of a counterexample (and any `Fraction` in it) is built only when
a cell fails.

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
from math import gcd, isqrt
from typing import NamedTuple

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
    "CheckResult",
    "SweepReport",
    "numerator_survey",
    "max_bernoulli_index",
    "run_grids",
    "run_sweep",
    "verify_all",
]

SCHEMA_VERSION = "1"

CHECK_ORDER = (
    "bernoulli-structure",
    "faulhaber-naive",
    "telescoping",
    "s1-s3-identity",
    "ratio-search",
    "em-scan",
    "gcd-ladder",
    "congruences",
    "divisibility-equivalence",
    "trivial-gcd-iff",
    "special-values",
    "min-max",
    "cross-gcd",
    "crossover-bracket",
    "size-bounds",
    "numerator-scan",
)

# checks that read GridSpec.trial_bound, which must then be >= 2
_TRIAL_BOUND_CHECKS = frozenset({"min-max", "numerator-scan"})

# checks whose rows are even k only; the rest use every k in range
_EVEN_K_CHECKS = frozenset(CHECK_ORDER) - {
    "faulhaber-naive",
    "telescoping",
    "s1-s3-identity",
    "ratio-search",
    "em-scan",
}


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
        unknown = [c for c in self.checks if c not in CHECK_ORDER]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        if self.trial_bound < 2 and _TRIAL_BOUND_CHECKS & set(self.checks):
            raise ValueError(
                f"trial_bound must be >= 2, got {self.trial_bound}")


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
        at `where` (m, s and/or the cell's name), values as strings."""
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
                {**at, **where, "observed": _s(observed),
                 "predicted": _s(predicted)}
            )


def _s(x) -> str:
    """Report values as strings: exact, and safe for any JSON consumer."""
    return str(x)


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
    row.hits = [{"k": k, "m": h.m, "quotient": _s(h.quotient)}
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
        {"k": k, "at_D": _s(got_min), "witness_D": _s(d),
         "at_N": _s(got_max), "witness_N": _s(m_wit)}
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
        {"k": k, "min": _s(result.min_value), "min_witness": _s(result.min_witness),
         "max": _s(result.max_value), "max_witness": _s(result.max_witness),
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
            row.hits.append({"k": k, "s": s, "c": _s(v.c)})
    return row


def _row_crossover(k: int, spec: GridSpec) -> _Row:
    row = _Row("crossover-bracket", k)
    c = ps.crossover(k)
    inside = k < c < 2 * k
    # bracket misses are reported as findings, not failures
    row.passes += 1
    row.hits.append({"k": k, "crossover": _s(c), "inside_bracket": inside})
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
        "square_factor": _s(found[0]) if found else None,
        "flagged_at_bound": found[1] if found else None,
        "clear_below": None if found else bounds[-1],
    }


def _row_numerator_scan(k: int, spec: GridSpec) -> _Row:
    row = _Row("numerator-scan", k)
    row.passes += 2  # primality decided, square scan completed
    row.hits.append(numerator_survey(k, spec.trial_bound))
    return row


_ROW_RUNNERS = {
    "bernoulli-structure": _row_bernoulli_structure,
    "faulhaber-naive": _row_faulhaber,
    "telescoping": _row_telescoping,
    "s1-s3-identity": _row_s1s3,
    "ratio-search": _row_ratio_search,
    "em-scan": _row_em_scan,
    "gcd-ladder": _row_gcd_ladder,
    "congruences": _row_congruences,
    "divisibility-equivalence": _row_div_equiv,
    "trivial-gcd-iff": _row_trivial_gcd,
    "special-values": _row_special_values,
    "min-max": _row_min_max,
    "cross-gcd": _row_cross_gcd,
    "crossover-bracket": _row_crossover,
    "size-bounds": _row_size_bounds,
    "numerator-scan": _row_numerator_scan,
}


def _rows_for(check: str, spec: GridSpec) -> list[int]:
    if check == "s1-s3-identity":
        return [0]
    lo, hi = spec.k_min, spec.k_max
    if check in _EVEN_K_CHECKS:
        lo = max(lo, 2)
        if check == "size-bounds":
            lo = max(lo, 10)
        if check == "cross-gcd":
            lo = max(lo, 4)
        ks = [k for k in range(lo, hi + 1) if k % 2 == 0]
    else:
        ks = list(range(lo, hi + 1))
    return ks


def _run_slice(tasks: list[tuple[str, int, GridSpec]]) -> list[_Row]:
    return [_ROW_RUNNERS[check](k, spec) for check, k, spec in tasks]


def _worker_init(pairs) -> None:
    seed_even_values(pairs)


def __getattr__(name: str):
    # PEP 562: `ProcessPoolExecutor` is imported, and bound here, on its
    # first read; an assignment to it beforehand takes precedence
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CheckResult:
    """Aggregated outcome of one check over its grid."""

    def __init__(self, name: str, k_min: int, k_max: int, m_min: int,
                 m_max: int, rows: int):
        self.name = name
        self.k_min = k_min
        self.k_max = k_max
        self.m_min = m_min
        self.m_max = m_max
        self.rows = rows
        self.passes = 0
        self.fails = 0
        self.inapplicable = 0
        self.counterexamples: list[dict] = []
        self.hits: list[dict] = []

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "grid": {
                "k_min": self.k_min,
                "k_max": self.k_max,
                "m_min": self.m_min,
                "m_max": self.m_max,
            },
            "rows": self.rows,
            "pass": self.passes,
            "fail": self.fails,
            "inapplicable": self.inapplicable,
            "counterexamples": self.counterexamples,
            "hits": self.hits,
        }


class SweepReport:
    """Full report: per-check results plus totals, stable field order."""

    def __init__(self, profile: str | None, checks: list[CheckResult],
                 wall_time_s: float):
        self.profile = profile
        self.checks = checks
        self.wall_time_s = wall_time_s

    @property
    def total_fail(self) -> int:
        return sum(c.fails for c in self.checks)

    def as_dict(self) -> dict:
        # the job count is deliberately not serialized: reports must be
        # byte-identical across job counts
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "profile": self.profile,
            "checks": [c.as_dict() for c in self.checks],
            "totals": {
                "pass": sum(c.passes for c in self.checks),
                "fail": self.total_fail,
                "inapplicable": sum(c.inapplicable for c in self.checks),
            },
            "wall_time_s": self.wall_time_s,
        }


def max_bernoulli_index(specs: list[GridSpec]) -> int:
    """Largest even k whose B_k the grids read (at least 2): the extent of
    the Bernoulli table a sweep over `specs` builds."""
    k = 2
    for spec in specs:
        if set(spec.checks) - {"s1-s3-identity", "ratio-search", "em-scan"}:
            k = max(k, spec.k_max)
    return k if k % 2 == 0 else k - 1


def _available_cpus() -> int:
    """CPUs in this process's affinity set, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(jobs: int, n_tasks: int) -> int:
    """Worker processes for a sweep: never more than the CPUs or the tasks."""
    return min(jobs, _available_cpus(), n_tasks)


def run_grids(specs: list[GridSpec], profile: str | None,
              jobs: int) -> SweepReport:
    """Validate and run every row, one strided slice per worker. Rows
    merge in list order, so the report is the same at any job count."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for spec in specs:
        spec.validate()
    t0 = time.perf_counter()

    k_need = max_bernoulli_index(specs)
    bernoulli(k_need)  # fill the memo before any fork
    pairs = even_value_pairs(k_need)

    tasks: list[tuple[str, int, GridSpec]] = []
    bounds: list[tuple[str, GridSpec, int]] = []  # (check, spec, n_rows)
    for check in CHECK_ORDER:
        for spec in specs:
            if check not in spec.checks:
                continue
            rows = _rows_for(check, spec)
            bounds.append((check, spec, len(rows)))
            tasks.extend((check, k, spec) for k in rows)

    workers = _pool_size(jobs, len(tasks))
    if workers > 1:
        # read as a module attribute, so a swapped-in pool class is used
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(
            max_workers=workers, initializer=_worker_init, initargs=(pairs,)
        ) as pool:
            slices = [tasks[i::workers] for i in range(workers)]
            results = [None] * len(tasks)
            for i, rows in enumerate(pool.map(_run_slice, slices)):
                results[i::workers] = rows
    else:
        results = _run_slice(tasks)

    checks: list[CheckResult] = []
    idx = 0
    for check, spec, n_rows in bounds:
        cr = CheckResult(
            name=check,
            k_min=spec.k_min,
            k_max=spec.k_max,
            m_min=spec.m_min,
            m_max=spec.m_max,
            rows=n_rows,
        )
        for row in results[idx : idx + n_rows]:
            cr.passes += row.passes
            cr.fails += row.fails
            cr.inapplicable += row.inapplicable
            cr.counterexamples.extend(row.counterexamples)
            cr.hits.extend(row.hits)
        idx += n_rows
        checks.append(cr)

    wall_time_s = round(time.perf_counter() - t0, 6)
    return SweepReport(profile=profile, checks=checks, wall_time_s=wall_time_s)


def run_sweep(spec: GridSpec, jobs: int = 1) -> SweepReport:
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


def verify_all(profile: str, jobs: int = 1) -> SweepReport:
    """Run a named profile and return the union report."""
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}, want one of {sorted(PROFILES)}"
        )
    return run_grids(PROFILES[profile], profile, jobs)
