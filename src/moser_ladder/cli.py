"""Command-line frontend.

One binary, one subcommand per library operation. The data stream
(stdout) carries only the requested artifact; everything else goes to
stderr. Exit codes are the machine-readable outcome: 0 success, 1 check
failures, 2 usage errors, 3 I/O or cache errors, 4 internal faults (a
broken arithmetic invariant, a lost sweep worker or any uncaught error,
never a bad input; after a cache seeded the memo, a broken invariant
first recomputes the seeded entries, and a bad one is a cache error).
`main` alone decides when the Bernoulli cache is read and written, and
runs the `cache` module only for a run with a cache file: it loads an
existing file before the command runs, and after the command has printed
its answer (for verify, the report) writes the cache at most once, with
exactly the even entries 2..k of the k the command returns, so a failed
write is a stderr warning. A cache whose checked prefix already reaches
that k is not written. Bad cache data raises one class, `CacheError`.
`bern` prints the memo's (N_k, D_k) pair as `str(Fraction)` would, N/D
or N when D = 1, so a `bern` query never loads `fractions`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bernoulli import (MAX_K, TRIAL_BOUND, CacheError, bernoulli_pair,
                        numerator_survey)
from . import cache as cachemod
from . import gcdlab
from . import powersum as ps
from . import sweeps
from . import __version__

FORMATS = ("plain", "json", "csv")


def default_cache_path() -> str:
    base = os.environ.get("XDG_DATA_HOME") or str(Path.home() / ".local" / "share")
    return str(Path(base) / "moser-ladder" / "bernoulli.cache")


def _emit_json(obj) -> None:
    import json  # here, not at the top: only verify and --format json need it

    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    import csv  # here, not at the top: only --format csv needs it

    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def _emit(args, plain_lines: list, json_obj, csv_header: list[str],
          csv_rows: list[list]) -> None:
    """Print the answer in the `--format` format: the plain lines one a line
    (none for an empty answer), the JSON object, or a CSV header and rows."""
    if args.format == "json":
        _emit_json(json_obj)
    elif args.format == "csv":
        _emit_csv(csv_header, csv_rows)
    else:
        for line in plain_lines:
            print(line)


def _cache_path(args) -> str | None:
    """The cache file of this run, or None: --seedless, and the commands
    that need no Bernoulli numbers (search, powersum --naive), leave the
    cache alone."""
    no_table = args.command == "search" or getattr(args, "naive", False)
    if args.seedless or no_table:
        return None
    return args.cache or default_cache_path()


# Each cmd_* prints its answer and returns (exit code, k), k - k % 2 the
# largest even index of the Bernoulli table it read: `main` writes the
# even entries 2..k back to the cache.


def cmd_bern(args) -> tuple[int, int]:
    n, d = bernoulli_pair(args.k)
    value = f"{n}/{d}" if d != 1 else str(n)  # as str(Fraction(n, d))
    _emit(args, [value],
          {"k": args.k, "numerator": str(n), "denominator": str(d),
           "value": value},
          ["k", "numerator", "denominator"], [[args.k, n, d]])
    return 0, 0 if args.k % 2 else args.k  # odd k reads no table entry


def cmd_powersum(args) -> tuple[int, int]:
    method = ps.power_sum_naive if args.naive else ps.power_sum
    value = method(args.k, args.m)
    _emit(args, [value],
          {"k": args.k, "m": args.m, "value": str(value),
           "method": "naive" if args.naive else "closed-form"},
          ["k", "m", "value"], [[args.k, args.m, value]])
    return 0, args.k


def cmd_gk(args) -> tuple[int, int]:
    g = gcdlab.gcd_ratio(args.k, args.m)
    _emit(args, [g], {"k": args.k, "m": args.m, "value": str(g)},
          ["k", "m", "value"], [[args.k, args.m, g]])
    return 0, args.k


def cmd_ladder(args) -> tuple[int, int]:
    lad = gcdlab.gcd_ladder(args.k, args.m)
    rungs = [
        ("m", lad.observed_m1, str(lad.predicted_m1)),
        ("m^2", lad.observed_m2, str(lad.predicted_m2)),
        ("m^3", lad.observed_m3, str(lad.predicted_m3)),
        ("m^4", lad.observed_m4, "no formula"),
        ("m^k", lad.observed_mk, "see residual"),
    ]
    flags = {name: getattr(lad, name) for name in (
        "residual_primes_divide_numerator", "consecutive_matches",
        "monotone", "ok")}
    wid = max(len(str(obs)) for _, obs, _ in rungs)
    _emit(
        args,
        [f"k={lad.k} m={lad.m}",
         *(f"{rung:<4} observed {obs!s:<{wid}} predicted {pred}"
           for rung, obs, pred in rungs),
         f"residual {lad.residual}",
         *(f"{name} {str(v).lower()}" for name, v in flags.items())],
        {"k": lad.k, "m": lad.m,
         "observed": {r: str(o) for r, o, _ in rungs},
         "predicted": {r: p for r, _, p in rungs},
         "residual": str(lad.residual), **flags},
        ["rung", "observed", "predicted"], [list(r) for r in rungs],
    )
    return 0, args.k


def cmd_search(args) -> tuple[int, int]:
    if args.mode == "ratio":
        hits = [{"k": h.k, "m": h.m, "quotient": str(h.quotient)}
                for h in ps.search_ratio(args.kmax, args.mmax)]
        header = ["k", "m", "quotient"]
    else:
        hits = [{"k": k, "m": m} for k, m in ps.em_scan(args.kmax, args.mmax)]
        header = ["k", "m"]
    _emit(args,
          [" ".join(f"{name}={h[name]}" for name in header) for h in hits],
          {"mode": args.mode, "kmax": args.kmax, "mmax": args.mmax,
           "hits": hits},
          header, [[h[name] for name in header] for h in hits])
    return 0, 0


def cmd_scan(args) -> tuple[int, int]:
    rows = numerator_survey(range(2, args.kmax + 1, 2), args.trial_bound)
    plain = []
    for r in rows:
        if r["square_factor"] is not None:
            sq = f"{r['square_factor']}^2 (bound {r['flagged_at_bound']})"
        else:
            sq = f"none below {r['clear_below']}"
        plain.append(f"k={r['k']} digits={r['digits']} prime="
                     f"{'yes' if r['prime'] else 'no'} square-factor={sq}")
    header = ["k", "digits", "prime", "square_factor", "flagged_at_bound",
              "clear_below"]
    _emit(args, plain,
          {"kmax": args.kmax, "trial_bound": args.trial_bound,
           "numerators": rows},
          header, [[r[key] for key in header] for r in rows])
    return 0, args.kmax


def _parse_span(text: str, what: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("-")
    try:
        if sep:
            return int(lo), int(hi)
        return 1, int(text)
    except ValueError:
        raise ValueError(
            f"bad {what} span {text!r}, want MAX or MIN-MAX"
        ) from None


def cmd_verify(args) -> tuple[int, int]:
    if (args.profile is None) == (args.grid is None):
        raise ValueError("verify needs a profile or --grid, not both")
    if args.profile is not None:
        if args.checks is not None or args.trial_bound is not None:
            raise ValueError("--checks and --trial-bound need --grid, "
                             "not a profile")
        specs = sweeps.PROFILES[args.profile]
    else:
        kspec, sep, mspec = args.grid.partition(":")
        if not sep:
            raise ValueError(
                f"bad --grid {args.grid!r}, want KSPAN:MSPAN (e.g. 2-12:100)"
            )
        k_min, k_max = _parse_span(kspec, "k")
        m_min, m_max = _parse_span(mspec, "m")
        checks = (sweeps.CHECK_ORDER if args.checks is None
                  else tuple(args.checks.split(",")))
        trial_bound = (TRIAL_BOUND if args.trial_bound is None
                       else args.trial_bound)
        specs = [sweeps.GridSpec(
            k_min=k_min, k_max=k_max, m_min=m_min, m_max=m_max,
            checks=checks, trial_bound=trial_bound,
        )]
    d = sweeps.run_grids(specs, args.profile, args.jobs)
    t = d["totals"]
    _emit(
        args,
        [*(f"{c['name']:<26} pass {c['pass']:<8} fail {c['fail']:<4} "
           f"inapplicable {c['inapplicable']:<6} hits {len(c['hits'])}"
           for c in d["checks"]),
         f"{'total':<26} pass {t['pass']:<8} fail {t['fail']:<4} "
         f"inapplicable {t['inapplicable']}",
         "result: " + ("OK" if t["fail"] == 0 else "FAIL")],
        d,
        ["check", "k_min", "k_max", "m_min", "m_max", "rows", "pass",
         "fail", "inapplicable", "counterexamples", "hits"],
        [[c["name"], *c["grid"].values(), c["rows"], c["pass"], c["fail"],
          c["inapplicable"], len(c["counterexamples"]), len(c["hits"])]
         for c in d["checks"]],
    )
    import json

    for c in d["checks"]:
        for cex in c["counterexamples"]:
            print("counterexample: " + json.dumps(cex, sort_keys=True),
                  file=sys.stderr)
    return (0 if t["fail"] == 0 else 1), sweeps.max_bernoulli_index(specs)


def build_parser(verify: bool = True) -> argparse.ArgumentParser:
    """The CLI's parser; `verify=False` leaves out verify's arguments, so
    that a command other than verify never runs `sweeps`."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="plain",
                        help="output format (default plain)")
    common.add_argument("--cache", metavar="PATH", default=None,
                        help="Bernoulli cache file "
                             "(default: per-user data directory; "
                             "unused by search and powersum --naive)")
    common.add_argument("--seedless", action="store_true",
                        help="ignore the cache entirely, compute from scratch")

    parser = argparse.ArgumentParser(
        prog="moser-ladder",
        description="Exact Bernoulli numbers, power sums, and the gcd "
                    "structure of consecutive power sums, with verification "
                    "sweeps over (k, m) grids.",
        epilog="run with --help-schema for the JSON report schema",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--help-schema", action="store_true",
                        help="print the versioned JSON report schema and exit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("bern", parents=[common],
                       help="Bernoulli number B_k in lowest terms")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_bern)

    p = sub.add_parser("powersum", parents=[common],
                       help="power sum S_k(m) = 1^k + ... + (m-1)^k")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--naive", action="store_true",
                   help="sum term by term instead of the closed form")
    p.set_defaults(func=cmd_powersum)

    p = sub.add_parser("gk", parents=[common],
                       help="gcd(S_k(m), S_k(m+1)) / m as an exact fraction")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_gk)

    p = sub.add_parser("ladder", parents=[common],
                       help="gcds of S_k(m) with m, m^2, m^3, m^4, m^k, "
                            "observed next to the closed forms")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("search", parents=[common],
                       help="scan for integral consecutive-sum ratios or "
                            "S_k(m) = m^k solutions")
    p.add_argument("mode", choices=("ratio", "em"))
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("scan", parents=[common],
                       help="numerator survey: digits, primality, "
                            "bounded square-factor hunt")
    p.add_argument("what", choices=("numerators",))
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--trial-bound", type=int, default=TRIAL_BOUND,
                   help="largest square-factor trial bound "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification sweep and report")
    if verify:  # its profile names and check list are read from sweeps
        p.add_argument("profile", nargs="?",
                       choices=tuple(sorted(sweeps.PROFILES)),
                       help="named preset grid collection")
        p.add_argument("--grid", metavar="KSPAN:MSPAN",
                       help="custom grid, spans as MAX or MIN-MAX (e.g. 2-12:100)")
        p.add_argument("--checks", metavar="LIST",
                       help="comma-separated check names for --grid (default:"
                            f" all; known: {', '.join(sweeps.CHECK_ORDER)})")
        p.add_argument("--trial-bound", type=int, default=None,
                       help="square-factor trial bound of min-max and "
                            "numerator-scan, for --grid (default "
                            f"{TRIAL_BOUND})")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (at most the CPU count)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the command word is the first argument that is not an option: no
    # option before it takes a value
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = build_parser(verify=command == "verify")
    args = parser.parse_args(argv)
    # argv is parsed; from here ints of any size print and cache (3.10.7+)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if args.help_schema:
        _emit_json(sweeps.REPORT_SCHEMA)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    path = _cache_path(args)
    seeded = 0  # top of the gap-free even prefix seeded and checked
    try:
        if path and os.path.exists(path):
            seeded = cachemod.warm_bernoulli(cachemod.cache_load(path))
        code, k = args.func(args)
        if path and k - k % 2 > seeded:
            try:
                cachemod.cache_store(cachemod.snapshot_bernoulli(k), path)
            except OSError as exc:
                print(f"warning: cache not written: {exc}", file=sys.stderr)
        return code
    except (CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never a bad input or a failed check
        # a memo seeded to MAX_K cannot grow past its entries to check them
        if isinstance(exc, ArithmeticError) and 0 < seeded < MAX_K:
            try:  # recompute the seeded entries: was the cache at fault?
                bernoulli_pair(seeded + 2)
            except CacheError as poisoned:
                print(f"error: {poisoned}", file=sys.stderr)
                return 3
        print(f"internal error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
