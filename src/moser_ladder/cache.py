"""Persistent Bernoulli cache: a checksummed, line-oriented text format.

Layout:

    moser-ladder-cache v1
    2<TAB>1<TAB>6
    4<TAB>-1<TAB>30
    ...
    <sha256 hex of the record lines>

Records are `k<TAB>N_k<TAB>D_k` in decimal, strictly ascending k, LF line
endings. The final line is the SHA-256 of the payload (all record lines,
each including its LF). A zero-byte file is a valid empty cache. Anything
else malformed is rejected loudly, and the checksum catches accidental
damage such as a torn or truncated file. It does not stop every
deliberate edit that re-signs the file: N_k changed by a multiple of D_k
passes von Staudt-Clausen, and loads where Adams' theorem names no prime
for N_k (N_8 + D_8 loads, N_10 + D_10 does not; README, "Cache format").
Bad data raises `bernoulli.CacheError`, the package's one error for it.

This module holds the format and two bridges to the Bernoulli memo,
which holds the same (N_k, D_k) integer pairs, so neither bridge builds a
`Fraction`; `cli.main` alone decides when a file is read and written.

Concurrency contract: one writer or many readers. Writes go through a
temp file plus atomic rename, so readers never observe a torn file.
"""

from __future__ import annotations

import os
import sys
from math import gcd
from pathlib import Path

from .bernoulli import CacheError, bernoulli_pair, seed_even_values

__all__ = [
    "CACHE_HEADER",
    "CacheStore",
    "cache_load",
    "cache_store",
    "warm_bernoulli",
    "snapshot_bernoulli",
]

CACHE_HEADER = "moser-ladder-cache v1"


class CacheStore:
    """In-memory view of the cache: k -> (N_k, D_k), lowest terms."""

    def __init__(self, entries: dict[int, tuple[int, int]] | None = None):
        self.entries = {} if entries is None else entries


def _digest(payload: bytes) -> str:
    import hashlib  # here, not at the top: --seedless runs never hash

    return hashlib.sha256(payload).hexdigest()


def cache_load(path: str | Path) -> CacheStore:
    """Load and verify a cache file. Raises CacheError."""
    raw = Path(path).read_bytes()
    if raw == b"":
        return CacheStore()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CacheError(f"{path}: not an ascii text file") from exc
    if not text.endswith("\n"):
        raise CacheError(f"{path}: missing trailing newline")
    lines = text.split("\n")[:-1]  # not empty: text ends in LF
    if lines[0] != CACHE_HEADER:
        if lines[0].startswith("moser-ladder-cache"):
            raise CacheError(
                f"{path}: unsupported version {lines[0]!r}, want {CACHE_HEADER!r}"
            )
        raise CacheError(f"{path}: bad header {lines[0][:40]!r}")
    if len(lines) < 2:
        raise CacheError(f"{path}: missing checksum line")
    checksum = lines[-1]
    # the record lines, each with its LF: the bytes between the header's
    # LF and the checksum line (ascii, so a character is a byte)
    payload = raw[len(lines[0]) + 1:len(raw) - len(checksum) - 1]
    if _digest(payload) != checksum:
        raise CacheError(f"{path}: payload checksum mismatch")

    store = CacheStore()
    last_k = -1
    for lineno, line in enumerate(lines[1:-1], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise CacheError(f"{path}:{lineno}: want 3 tab fields")
        try:
            k, n, d = (int(p) for p in parts)
        except ValueError as exc:
            if all(p.removeprefix("-").isdigit() for p in parts):
                raise CacheError(  # only the int-to-str limit rejects these
                    f"{path}:{lineno}: field longer than the interpreter's "
                    f"{sys.get_int_max_str_digits()}-digit int limit "
                    f"(sys.set_int_max_str_digits)") from exc
            raise CacheError(f"{path}:{lineno}: non-integer field") from exc
        # last_k starts at -1, so this also rejects k < 0
        if k <= last_k:
            raise CacheError(f"{path}:{lineno}: indices not ascending")
        if d < 1:
            raise CacheError(
                f"{path}:{lineno}: cache denominator must be >= 1, got {d}")
        if gcd(abs(n), d) != 1:
            raise CacheError(
                f"{path}:{lineno}: cache entry for k={k} not in lowest terms")
        last_k = k
        store.entries[k] = (n, d)
    return store


def cache_store(store: CacheStore, path: str | Path) -> None:
    """Write the cache atomically (temp file in place, then rename)."""
    path = Path(path)
    payload = "".join(f"{k}\t{n}\t{d}\n"
                      for k, (n, d) in sorted(store.entries.items()))
    text = (CACHE_HEADER + "\n" + payload
            + _digest(payload.encode("ascii")) + "\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode("ascii"))
    os.replace(tmp, path)


def warm_bernoulli(store: CacheStore) -> int:
    """Seed the Bernoulli memo from a loaded cache.

    `seed_even_values` reads only the gap-free even prefix from k = 2 (the
    memo holds B_0, B_2, ... by position) and re-checks each entry of it
    against von Staudt-Clausen, on the denominator and on the numerator
    modulo the denominator, and against Adams' theorem on the numerator;
    failure raises CacheError. Returns the largest k seeded.
    """
    return seed_even_values(store.entries.items())


def snapshot_bernoulli(k_max: int) -> CacheStore:
    """Cache store holding exactly the even entries 2..k_max (computed as
    needed)."""
    store = CacheStore()
    for k in range(2, k_max + 1, 2):
        store.entries[k] = bernoulli_pair(k)  # in lowest terms
    return store
