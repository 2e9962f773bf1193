"""Independent references the benchmark checks the program against.

Nothing here imports moser_ladder: the Bernoulli table comes from the
Brent-Harvey tangent-number recurrence (a different algorithm from the
program's Fraction recurrence), and the cache reader and writer follow the
README's v1 format from its text, not from cache.py.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path

CACHE_HEADER = "moser-ladder-cache v1"


def tangent_numbers(n: int) -> list[int]:
    """T_0..T_n (T_0 = 0, T_1 = 1, T_2 = 2, T_3 = 16, ...).

    Brent & Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers" (arXiv:1108.0286), Algorithm TangentNumbers: O(n^2) products
    of a small integer by a big one, no division.
    """
    t = [0] * (n + 1)
    if n < 1:
        return t
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def bernoulli_table(k_max: int) -> dict[int, Fraction]:
    """{k: B_k} for even 2 <= k <= k_max.

    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).
    """
    t = tangent_numbers(k_max // 2)
    table = {}
    for n in range(1, k_max // 2 + 1):
        four_n = 4**n
        table[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * t[n],
                                four_n * (four_n - 1))
    return table


def _digest(records: str) -> str:
    return hashlib.sha256(records.encode("ascii")).hexdigest()


def write_v1_cache(table: dict[int, Fraction], path: Path) -> None:
    """Write `table` in the README's v1 format: header, one k<TAB>N<TAB>D
    record per line in ascending k, then the SHA-256 of the record lines."""
    records = "".join(
        f"{k}\t{b.numerator}\t{b.denominator}\n" for k, b in sorted(table.items())
    )
    path.write_text(CACHE_HEADER + "\n" + records + _digest(records) + "\n",
                    encoding="ascii")


def read_v1_cache(path: Path) -> dict[int, tuple[int, int]]:
    """Parse a v1 cache file into {k: (N, D)} exactly as written; raise
    ValueError on any format or checksum fault. A zero-byte file is an
    empty cache."""
    text = path.read_text(encoding="ascii")
    if text == "":
        return {}
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < 3 or lines[0] != CACHE_HEADER:
        raise ValueError(f"{path}: not a v1 cache file")
    records, checksum = lines[1:-2], lines[-2]
    if _digest("".join(r + "\n" for r in records)) != checksum:
        raise ValueError(f"{path}: checksum mismatch")
    table = {}
    last_k = -1
    for record in records:
        k, n, d = (int(field) for field in record.split("\t"))
        if k <= last_k:
            raise ValueError(f"{path}: index {k} out of order")
        last_k = k
        table[k] = (n, d)
    return table


def report_digest(report_text: str) -> str:
    """SHA-256 of a `verify --format json` report with `wall_time_s` taken
    out, re-serialised the way the CLI prints it (sorted keys, indent 2,
    trailing newline). Everything left is deterministic."""
    report = json.loads(report_text)
    report.pop("wall_time_s", None)
    canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, so a record names the code it
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(os.fsencode(path.relative_to(src)) + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
