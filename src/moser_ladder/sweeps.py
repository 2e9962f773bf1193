"""Deterministic verification sweeps over (k, m) grids.

A sweep runs a fixed set of named checks over a grid, accounting every
cell as pass, fail, or inapplicable, and collecting counterexamples and
findings (hits). Every fact about a check is one entry of the ordered
table `_CHECKS`; the check order, the rows of a grid, grid validation
and `max_bernoulli_index` are read from it. The work is a list of rows,
one per check and k. `_slices` alone sets the worker count: at most the
job count and the CPUs, and one where `os.fork` does not exist. It
groups the rows into units, the rows of one k, with all numerator-scan
rows (which share one survey) as one unit of their own, deals the units
heaviest first, by a static weight per row, each to the least-loaded
slice, and keeps the w slices that got a unit, so one worker builds each
per-k list and the survey; a slice that reads the von Staudt-Clausen
table or the factor lists builds its own. A slice runs its rows k by k;
one slice runs in-process. Otherwise the parent fills the Bernoulli
table, then forks w - 1 children, which inherit it; it runs the heaviest
slice itself while each child runs one other and sends its rows back as
one pickle on a pipe of its own. Rows go back to their list positions,
so the report (the dict that `verify --format json` prints, built once
from the rows) is byte-identical at any job count. The job count is an
argument of `run_grids` and of `run_sweep`/`verify_all`, not part of a
grid. Sweeps do no file I/O: the CLI reads the Bernoulli cache before a
sweep and writes it afterwards, up to `max_bernoulli_index` of the
grids.

Rows call the library's scans (`powersum` searches and running sums,
`gcdlab` ladders and congruences, the `bernoulli` numerator survey that
the CLI's `scan` only formats) rather than restating them. The m-cell
rows reach S_k(m) by two routes, and their counterexample text depends
on which: `telescoping` reads only the closed form (`power_sums`, from
Bernoulli numbers); `faulhaber-naive` compares it with the running sums
(`running_sums`, m^k added one m at a time), which `congruences`,
`gcd-ladder` and `divisibility-equivalence` also read, and which
`s1-s3-identity` compares with S_3(m) = (m(m - 1)/2)^2 at its one k, 3:
every row reads only the lists of its own k. The rows share lists over
m, each held as the `powersum` module docstring states: the running
sums, the closed forms of the grid's m range, the consecutive gcds
gcd(S_k(m), S_k(m+1)), the m^k table and the factor lists of every m.
They also share the records of one numerator survey of the grid's k and
one von Staudt-Clausen table to its k_max (`bernoulli._vsc_prime_table`,
whose row k/2 `bernoulli-structure` multiplies into D_k).
`powersum._latest` keeps them, so each is built once per slice for each
k and each grid's other arguments; a row called on its own builds what
it reads and keeps nothing. A consecutive gcd takes S_k(m) from the
running sums and S_k(m+1) from the closed forms, so the ladder's
consecutive-gcd cell and `trivial-gcd-iff`, which reads the same gcds,
compare the two routes.
These rows run integer kernels with N_k and D_k read once per row: the
gcd ladder (`gcdlab._ladder_rungs`, given m^k from the table), the
congruence cells and the integer core of `divides_rational`. A passing
cell is only counted; the text of a counterexample (and any `Fraction`
in it) is built only when a cell fails. The min-max prefix takes
gcd(S, S_k(m+1)) = gcd(S, m^k) from its first stable rung
(`gcdlab._gcd_with_power`), which the gcd ladder does not read.

`run_grids` builds its pool from the module attribute
`sweeps.ProcessPoolExecutor`, the fork pool `_ForkPool` unless something
assigns another class with its `max_workers` argument and `map` (the
benchmark's trace driver assigns a recording `concurrent.futures`
executor). The fork pool imports `pickle` only when it forks, and
`signal` only to kill a child on an error.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from itertools import islice
from math import gcd, prod
from typing import Callable, NamedTuple

# absolute imports run these lazy modules now: forked workers inherit them
import moser_ladder.gcdlab as gcdlab
import moser_ladder.powersum as ps
from . import __version__
from ._primes import factorize
from .bernoulli import (
    TRIAL_BOUND,
    _check_index,
    _check_survey_index,
    _check_trial_bound,
    _divides_nd,
    _smallest_square_prime,
    _vsc_prime_table,
    bernoulli,
    bernoulli_pair,
    denominator,
    exact_log_abs,
    numerator,
    numerator_bound_check,
    numerator_survey,
    size_estimate,
)

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_SCHEMA",
    "CHECK_ORDER",
    "PROFILES",
    "GridSpec",
    "max_bernoulli_index",
    "run_grids",
    "run_sweep",
    "verify_all",
]

class _Row:
    """Counts, counterexamples and hits of one check at one k."""

    def __init__(self, check: str, k: int):
        self.check = check
        self.k = k
        self.passes = 0
        self.fails = 0
        self.inapplicable = 0
        self.counterexamples: list[dict] = []
        self.hits: list[dict] = []

    def cell(self, ok: bool, observed, predicted, **where) -> None:
        """Account one cell as a pass or a fail. A failure becomes a
        counterexample at `where` (m, s and/or the cell's name), values as
        strings: exact, and safe for any JSON consumer. A row whose cells
        have a gate counts the closed ones in `inapplicable` itself."""
        if ok:
            self.passes += 1
        else:
            self.fails += 1
            self.counterexamples.append(
                {"check": self.check, "k": self.k, **where,
                 "observed": str(observed), "predicted": str(predicted)}
            )


# ---- row runners, one per check; each covers a single k and reads
# ---- only that k's lists


def _row_bernoulli_structure(k: int, spec: GridSpec) -> _Row:
    row = _Row("bernoulli-structure", k)
    d = denominator(k)
    # one table of the grid's k per slice, read per call like the survey
    v = prod(ps._latest(_vsc_prime_table, per_k=False)(spec.k_max)[k // 2])
    row.cell(d == v, d, v, cell="denominator-vsc")
    n = numerator(k)
    row.cell((-1) ** (k // 2 + 1) * n > 0, n, "sign (-1)^(k/2+1)",
             cell="sign-pattern")
    row.cell((2 * (2**k - 1)) % d == 0, d, "divisor of 2(2^k-1)",
             cell="divides-2(2^k-1)")
    # direct square-free probe of D, bounded; D == vsc product of distinct
    # primes already implies square-freeness, this probes it independently
    sq = _smallest_square_prime(d, TRIAL_BOUND)
    row.cell(sq is None, f"square factor {sq}", "square-free",
             cell="denominator-square-free")
    return row


# ---- what the rows of one slice share: lists that rows read and never
# ---- change, each builder's latest kept while the slice runs (`ps._latest`)


@ps._latest
def _closed_forms(k: int, ms: range) -> list[int | None]:
    """S_k(m) from `power_sums` for m in ms and one m past it."""
    return [None] * ms.start + ps.power_sums(k, range(ms.start, ms.stop + 1))


@ps._latest
def _consecutive_gcds(k: int, ms: range) -> list[int | None]:
    """gcd(S_k(m), S_k(m+1)) for m in ms from m = 2: S_k(m) from the
    running sums, S_k(m+1) read from the closed forms of the same m range
    (the column `faulhaber-naive` builds), so the gcd ties the two
    routes."""
    lo = max(2, ms.start)
    closed, running = _closed_forms(k, ms), ps.running_sums(k, ms.stop - 1)
    return [None] * lo + list(map(gcd, running[lo:], closed[lo + 1:]))


def _factor_lists(m_max: int) -> list[list[tuple[int, int]]]:
    """(prime, multiplicity) pairs of each m at index m, 0 <= m <= m_max."""
    return [[]] + [list(factorize(m).items()) for m in range(1, m_max + 1)]


def _row_faulhaber(k: int, spec: GridSpec) -> _Row:
    row = _Row("faulhaber-naive", k)
    ms = range(spec.m_min, spec.m_max + 1)
    closed, running = _closed_forms(k, ms), ps.running_sums(k, spec.m_max)
    for m in ms:
        if closed[m] == running[m]:
            row.passes += 1
        else:
            row.cell(False, closed[m], running[m], m=m)
    return row


def _row_telescoping(k: int, spec: GridSpec) -> _Row:
    row = _Row("telescoping", k)
    ms = range(spec.m_min, spec.m_max + 1)
    closed = _closed_forms(k, ms)
    powers = ps._powers(k, spec.m_max)
    for m in ms:
        if closed[m + 1] - closed[m] == powers[m]:
            row.passes += 1
        else:
            row.cell(False, closed[m + 1] - closed[m], powers[m], m=m)
    return row


def _row_s1s3(k: int, spec: GridSpec) -> _Row:
    row = _Row("s1-s3-identity", k)  # k = 3 (`_rows_for`)
    s3 = ps.running_sums(k, spec.m_max)
    for m in range(spec.m_min, spec.m_max + 1):
        s1 = m * (m - 1) // 2
        row.cell(s3[m] == s1 * s1, s3[m], s1 * s1, m=m)
    return row


# the searches' only hits: S_1(3) = 3, and S_k(4)/S_k(3) at k = 1 and 3
_KNOWN_HITS = {"ratio-search": ({"k": 1, "m": 3, "quotient": "2"},
                                {"k": 3, "m": 3, "quotient": "4"}),
               "em-scan": ({"k": 1, "m": 3},)}


def _search_cells(row: _Row, ms: range) -> _Row:
    """One cell per scanned m of a search row: it fails where the row's
    hit at m is not the known one (invented, changed or missing)."""
    got = {h["m"]: h for h in row.hits}
    want = {h["m"]: h for h in _KNOWN_HITS[row.check]
            if h["k"] == row.k and h["m"] in ms}
    hit_at = sorted(got.keys() | want.keys())
    for m in hit_at:
        row.cell(got.get(m) == want.get(m), got.get(m, "no hit"),
                 want.get(m, "no hit"), m=m)
    row.passes += len(ms) - len(hit_at)
    return row


def _row_ratio_search(k: int, spec: GridSpec) -> _Row:
    row = _Row("ratio-search", k)
    row.hits = [{"k": k, "m": h.m, "quotient": str(h.quotient)}
                for h in ps.ratio_hits(k, spec.m_min, spec.m_max)]
    return _search_cells(row, range(max(3, spec.m_min), spec.m_max + 1))


def _row_em_scan(k: int, spec: GridSpec) -> _Row:
    row = _Row("em-scan", k)
    row.hits = [{"k": k, "m": m}
                for m in ps.em_solutions(k, spec.m_min, spec.m_max)]
    return _search_cells(row, range(max(2, spec.m_min), spec.m_max + 1))


_LADDER_CLOSED_FORMS = ("closed-form-m", "closed-form-m2", "closed-form-m3")


def _row_gcd_ladder(k: int, spec: GridSpec) -> _Row:
    row = _Row("gcd-ladder", k)
    n, d = bernoulli_pair(k)
    n_abs = abs(n)
    powers = ps._powers(k, spec.m_max)
    gcds = _consecutive_gcds(k, range(spec.m_min, spec.m_max + 1))
    running = ps.running_sums(k, spec.m_max)
    for m in range(max(2, spec.m_min), spec.m_max + 1):
        (g1, g2, g3, g4, gk, p1, p2, p3, e, residual_ok, consecutive,
         monotone, ok) = gcdlab._ladder_rungs(k, m, running[m], gcds[m],
                                              powers[m], n_abs, d)
        if ok:
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
    return row


def _row_congruences(k: int, spec: GridSpec) -> _Row:
    row = _Row("congruences", k)
    n, d = bernoulli_pair(k)
    factors = ps._latest(_factor_lists, per_k=False)(spec.m_max)
    running = ps.running_sums(k, spec.m_max)
    for m in range(spec.m_min, spec.m_max + 1):
        num = gcdlab._diff_numerator(m, running[m], n, d)
        for label, p, applicable, holds in gcdlab._congruence_cells(
                k, m, num, factors[m], n, d):
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
    n = bernoulli_pair(k)[0]
    running = ps.running_sums(k, spec.m_max)
    for m in range(max(2, spec.m_min), spec.m_max + 1):
        for r in (1, 2):
            lhs = running[m] % m ** (r + 1) == 0
            rhs = _divides_nd(m, r, n)
            if lhs == rhs:
                row.passes += 1
            else:
                row.cell(False, f"m^{r+1}|S is {lhs}, m^{r}|B is {rhs}",
                         "equivalent", m=m, cell=f"r={r}")
    return row


def _row_trivial_gcd(k: int, spec: GridSpec) -> _Row:
    row = _Row("trivial-gcd-iff", k)
    dn = denominator(k) * abs(numerator(k))
    gcds = _consecutive_gcds(k, range(spec.m_min, spec.m_max + 1))
    # a = gcd(S(m), S(m+1)) and g = a / m, so g = 1 iff a = m
    for m in range(max(2, spec.m_min), spec.m_max + 1):
        c = gcd(dn, m)
        if (gcds[m] == m) == (c == 1):
            row.passes += 1
        else:
            row.cell(False, f"g = {Fraction(gcds[m], m)}, gcd(D N, m) = {c}",
                     "g = 1 iff gcd(D N, m) = 1", m=m)
    return row


def _row_special_values(k: int, spec: GridSpec) -> _Row:
    row = _Row("special-values", k)
    d, got_min, m_wit, got_max = gcdlab._extreme_witnesses(k)
    row.cell(got_min == Fraction(1, d), got_min, Fraction(1, d),
             cell="value-at-D")
    want = Fraction(abs(numerator(k)))
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
    result = gcdlab.min_max_scan(k, spec.m_max, spec.trial_bound)
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
                 Fraction(n_abs, d), cell="min-times-max")
    else:
        # no square-free certificate: the scan reports, never asserts
        row.inapplicable += 3
    row.cell(result.prefix_closed_form_agrees,
             "disagreement on the scanned prefix",
             "gcd(N, m)/gcd(D, m) wherever no p^2 | N divides m",
             cell="prefix-closed-form")
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
    # the certificate reads the closed form, not the walk's running sums;
    # S_k(m)/m^k increases in m (`powersum`), so it covers every m < c
    below, at = ps.power_sums(k, (c - 1, c))
    row.cell(below < (c - 1)**k and at >= c**k, (below, at),
             f"S_k(c-1) < (c-1)^k and S_k(c) >= c^k at c = {c}",
             cell="certificate")
    # bracket misses are reported as findings, not failures
    row.hits.append({"k": k, "crossover": str(c),
                     "inside_bracket": k < c < 2 * k})
    return row


def _row_size_bounds(k: int, spec: GridSpec) -> _Row:
    row = _Row("size-bounds", k)
    est = size_estimate(k)
    exact = exact_log_abs(k)
    rel = abs(est - exact) / abs(exact)
    row.cell(rel <= 1e-9, f"relative error {rel!r}", "<= 1e-9",
             cell="log-estimate")
    row.cell(numerator_bound_check(k), "bound or divisibility fails",
             "|N| < (2 pi/3)(k/pi)^(k-1) and D | 2(2^k-1)",
             cell="numerator-bound")
    return row


def _row_numerator_scan(k: int, spec: GridSpec) -> _Row:
    row = _Row("numerator-scan", k)
    row.passes += 2  # primality decided, square scan completed
    ks = _rows_for("numerator-scan", spec)  # one survey of them per slice
    # `numerator_survey` is read per call, so one patched in is the one run
    survey = ps._latest(numerator_survey, per_k=False)(ks, spec.trial_bound)
    row.hits.append(survey[ks.index(k)])
    return row


class _Check(NamedTuple):
    """What a sweep knows of one check. k_min is the smallest k with a
    row (None: one row, at k = 3 on any grid); reads_b means the rows read
    B_k up to the grid's k_max, so the table is built that far first;
    tables_m means the rows build tables over m up to the grid's m_max;
    one_unit means every row of the check runs on one worker (they share
    one survey across k). A row's cost estimate, `_weight`, reads these."""

    runner: Callable[[int, GridSpec], _Row]
    k_min: int | None = 2
    even_k: bool = True
    reads_b: bool = True
    tables_m: bool = False
    one_unit: bool = False


# every check, in report order
_CHECKS: dict[str, _Check] = {
    "bernoulli-structure": _Check(_row_bernoulli_structure),
    "faulhaber-naive": _Check(_row_faulhaber, 1, even_k=False,
                              tables_m=True),
    "telescoping": _Check(_row_telescoping, 1, even_k=False, tables_m=True),
    "s1-s3-identity": _Check(_row_s1s3, None, reads_b=False, tables_m=True),
    "ratio-search": _Check(_row_ratio_search, 1, even_k=False,
                           reads_b=False),
    "em-scan": _Check(_row_em_scan, 1, even_k=False, reads_b=False),
    "gcd-ladder": _Check(_row_gcd_ladder, tables_m=True),
    "congruences": _Check(_row_congruences, tables_m=True),
    "divisibility-equivalence": _Check(_row_div_equiv, tables_m=True),
    "trivial-gcd-iff": _Check(_row_trivial_gcd, tables_m=True),
    "special-values": _Check(_row_special_values),
    "min-max": _Check(_row_min_max, tables_m=True),
    "cross-gcd": _Check(_row_cross_gcd, 4),
    "crossover-bracket": _Check(_row_crossover),
    "size-bounds": _Check(_row_size_bounds, 10),
    "numerator-scan": _Check(_row_numerator_scan, one_unit=True),
}

CHECK_ORDER = tuple(_CHECKS)

# the layout of the report `run_grids` builds, printed by `--help-schema`
SCHEMA_VERSION = "1"
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "moser-ladder verification report",
    "description": "Emitted by `verify --format json`. schema_version "
                   "identifies this layout; integers too large for common "
                   "JSON consumers are carried as decimal strings.",
    "type": "object",
    "required": ["schema_version", "tool_version", "profile", "checks",
                 "totals", "wall_time_s"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "tool_version": {"type": "string"},
        "profile": {"type": ["string", "null"]},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "grid", "rows", "pass", "fail",
                             "inapplicable", "counterexamples", "hits"],
                "properties": {
                    "name": {"enum": list(CHECK_ORDER)},
                    "grid": {
                        "type": "object",
                        "required": ["k_min", "k_max", "m_min", "m_max"],
                        "additionalProperties": {"type": "integer"},
                    },
                    "rows": {"type": "integer"},
                    "pass": {"type": "integer"},
                    "fail": {"type": "integer"},
                    "inapplicable": {"type": "integer"},
                    "counterexamples": {"type": "array",
                                        "items": {"type": "object"}},
                    "hits": {"type": "array", "items": {"type": "object"}},
                },
            },
        },
        "totals": {
            "type": "object",
            "required": ["pass", "fail", "inapplicable"],
            "additionalProperties": {"type": "integer"},
        },
        "wall_time_s": {"type": "number"},
    },
}

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
    trial_bound: int = TRIAL_BOUND

    def validate(self) -> None:
        if self.k_min < 1 or self.k_max < self.k_min:
            raise ValueError(f"bad k range [{self.k_min}, {self.k_max}]")
        if self.m_min < 1 or self.m_max < self.m_min:
            raise ValueError(f"bad m range [{self.m_min}, {self.m_max}]")
        unknown = [c for c in self.checks if c not in _CHECKS]
        if unknown:
            raise ValueError(
                f"unknown checks: {', '.join(map(repr, unknown))}")
        _check_trial_bound(self.trial_bound)
        _check_index(self.k_max)  # B_k, or the searches' walks of m^k
        if "numerator-scan" in self.checks:
            _check_survey_index(self.k_max)
        if any(_CHECKS[c].tables_m for c in self.checks):
            ps._check_m_max(self.m_max)


def _rows_for(check: str, spec: GridSpec) -> range:
    """The k of each row of `check` on `spec`."""
    entry = _CHECKS[check]
    if entry.k_min is None:
        return range(3, 4)
    lo = max(spec.k_min, entry.k_min)
    if entry.even_k:
        return range(lo + lo % 2, spec.k_max + 1, 2)
    return range(lo, spec.k_max + 1)


def _run_slice(tasks: list[tuple[str, int, GridSpec]]) -> list[_Row]:
    """Run the rows k by k, each shared builder keeping its latest result
    (`ps._latest`), and return each row at its task's position. Nothing
    the slice built outlives it."""
    rows: list = [None] * len(tasks)
    ps._SLICE = {}
    try:
        for i in sorted(range(len(tasks)), key=lambda i: tasks[i][1]):
            check, k, spec = tasks[i]
            rows[i] = _ROW_RUNNERS[check](k, spec)
    finally:
        ps._SLICE = None
    return rows


class _ForkPool:
    """A pool for one `map` call: the first item runs in this process,
    each other one in a child forked for it, which sends back
    (ok, result or exception) as one pickle on a pipe of its own and
    leaves by `os._exit`. `map` returns the results in item order or
    raises the first error in that order (this process's own first).
    Every child is reaped before `map` returns or raises; a child still
    running when `map` raises is killed first."""

    def __init__(self, max_workers: int):
        pass  # one worker per item of `map`; taken as an executor takes it

    def __enter__(self) -> _ForkPool:
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def map(self, fn: Callable, items) -> list:
        import pickle

        first, *rest = items
        children: dict = {}  # pid -> read end of its pipe, until reaped
        try:
            for item in rest:
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(fn, item, write_end)
                os.close(write_end)  # before the next fork: EOF on exit
                children[pid] = open(read_end, "rb")
            results = [fn(first)]
            for pid in list(children):
                with children[pid] as pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[pid]
                if status != 0:
                    raise RuntimeError(
                        f"sweep worker {pid} exited without a result")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results.append(value)
            return results
        finally:
            if children:  # only when raising
                import signal

                for pid, pipe in children.items():
                    pipe.close()
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _serve(fn: Callable, item, write_end: int) -> None:
    """A forked child's whole life: run fn(item), write (ok, result or
    exception) to the pipe and exit, with status 0 only once it is all
    written. Never returns, so no parent code runs in the child."""
    import pickle

    status = 1
    try:
        try:
            out = True, fn(item)
        except BaseException as exc:  # even KeyboardInterrupt: report it
            out = False, exc
        with open(write_end, "wb") as pipe:
            pickle.dump(out, pipe)
        status = 0
    finally:
        os._exit(status)


# the class `run_grids` builds its pool from; read per sweep, so a class
# assigned here (as the benchmark's trace driver does) is used
ProcessPoolExecutor = _ForkPool


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


def _weight(check: _Check, k: int, spec: GridSpec) -> int:
    """Static cost estimate of one row, for dealing rows to workers. A
    survey row stands for its share of the sieve, primorial and block gcds
    its unit takes once (for the 125 rows of `extended`, cold, on 2
    cores: 24-30 ms, serial or in the parent of a `--jobs 2` run). A row
    with tables over m builds m^k and the running sums from m = 1 to
    m_max, whatever its m_min, so it grows with m_max and with k (the size
    of S_k(m)). One unit is about 0.04 us."""
    if check.one_unit:
        return 7000
    if check.tables_m:
        return spec.m_max * (k + 8)
    return 100


def _slices(tasks: list[tuple[str, int, GridSpec]],
            jobs: int) -> list[list[int]]:
    """Deal the task positions by units a worker runs whole (the rows of
    one k, and all rows of a `one_unit` check), heaviest unit first, each
    to the least-loaded of w slices (the first on ties), w = min(jobs,
    CPUs) or 1 where the platform cannot fork; return the slices that got
    a unit, heaviest first: a pure function of the tasks and w."""
    units: dict[object, list[int]] = {}
    for i, (check, k, _spec) in enumerate(tasks):
        units.setdefault(check if _CHECKS[check].one_unit else k,
                         []).append(i)

    def weight(unit: list[int]) -> int:
        return sum(_weight(_CHECKS[check], k, spec)
                   for check, k, spec in map(tasks.__getitem__, unit))

    workers = min(jobs, _available_cpus()) if hasattr(os, "fork") else 1
    loads = [0] * workers
    slices: list[list[int]] = [[] for _ in range(workers)]
    for unit in sorted(units.values(), key=weight, reverse=True):
        i = loads.index(min(loads))
        loads[i] += weight(unit)
        slices[i] += unit
    order = sorted(range(workers), key=loads.__getitem__, reverse=True)
    return [slices[i] for i in order if slices[i]]


def run_grids(specs: list[GridSpec], profile: str | None,
              jobs: int) -> dict:
    """Validate and run every row, on one worker or, by units of one k,
    on a pool, and return the report `verify --format json` prints. Rows
    merge in list order, so the report is the same at any job count."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for spec in specs:
        spec.validate()
    t0 = time.perf_counter()

    bernoulli(max_bernoulli_index(specs))  # fill the memo before any fork

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

    slices = _slices(tasks, jobs)
    if len(slices) > 1:
        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            results = [None] * len(tasks)
            for at, rows in zip(slices, pool.map(
                    _run_slice, [[tasks[i] for i in at] for at in slices])):
                for i, row in zip(at, rows):
                    results[i] = row
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
