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
damage such as a torn or truncated file. It does not stop a deliberate
edit that re-signs the file: a change of N_k by a multiple of D_k also
passes von Staudt-Clausen and loads (README, "Cache format").

Concurrency contract: one writer or many readers. Writes go through a
temp file plus atomic rename, so readers never observe a torn file.
"""

from __future__ import annotations

import os
from math import gcd
from pathlib import Path

from .bernoulli import even_value_pairs, seed_even_values

__all__ = [
    "CACHE_HEADER",
    "CacheError",
    "CacheVersionError",
    "CacheChecksumError",
    "CacheFormatError",
    "CacheStore",
    "cache_load",
    "cache_store",
    "warm_bernoulli",
    "snapshot_bernoulli",
    "load_and_warm",
    "store_snapshot",
]

CACHE_HEADER = "moser-ladder-cache v1"


class CacheError(Exception):
    """Base class for cache file problems."""


class CacheVersionError(CacheError):
    """Header present but not the supported format version."""


class CacheChecksumError(CacheError):
    """Payload does not match the trailing SHA-256 line."""


class CacheFormatError(CacheError):
    """Structurally malformed file or record."""


class CacheStore:
    """In-memory view of the cache: k -> (N_k, D_k), lowest terms."""

    def __init__(self, entries: dict[int, tuple[int, int]] | None = None):
        self.entries = {} if entries is None else entries

    def put(self, k: int, n: int, d: int) -> None:
        if k < 0:
            raise ValueError(f"cache index must be >= 0, got {k}")
        if d < 1:
            raise ValueError(f"cache denominator must be >= 1, got {d}")
        if gcd(abs(n), d) != 1:
            raise ValueError(f"cache entry for k={k} not in lowest terms")
        self.entries[k] = (n, d)

    def sorted_items(self) -> list[tuple[int, tuple[int, int]]]:
        return sorted(self.entries.items())

    def merge(self, other: "CacheStore") -> None:
        for k, (n, d) in other.sorted_items():
            self.put(k, n, d)


def _payload_lines(store: CacheStore) -> list[str]:
    return [f"{k}\t{n}\t{d}\n" for k, (n, d) in store.sorted_items()]


def _digest(payload: list[str]) -> str:
    import hashlib  # here, not at the top: --seedless runs never hash

    return hashlib.sha256("".join(payload).encode("ascii")).hexdigest()


def cache_load(path: str | Path) -> CacheStore:
    """Load and verify a cache file. Raises CacheError subclasses."""
    raw = Path(path).read_bytes()
    if raw == b"":
        return CacheStore()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"{path}: not an ascii text file") from exc
    if not text.endswith("\n"):
        raise CacheFormatError(f"{path}: missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise CacheFormatError(f"{path}: no header line")
    if lines[0] != CACHE_HEADER:
        if lines[0].startswith("moser-ladder-cache"):
            raise CacheVersionError(
                f"{path}: unsupported version {lines[0]!r}, want {CACHE_HEADER!r}"
            )
        raise CacheFormatError(f"{path}: bad header {lines[0][:40]!r}")
    if len(lines) < 2:
        raise CacheFormatError(f"{path}: missing checksum line")
    checksum = lines[-1]
    payload = [line + "\n" for line in lines[1:-1]]
    if _digest(payload) != checksum:
        raise CacheChecksumError(f"{path}: payload checksum mismatch")

    store = CacheStore()
    last_k = -1
    for lineno, line in enumerate(lines[1:-1], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise CacheFormatError(f"{path}:{lineno}: want 3 tab fields")
        try:
            k, n, d = (int(p) for p in parts)
        except ValueError as exc:
            raise CacheFormatError(f"{path}:{lineno}: non-integer field") from exc
        if k <= last_k:
            raise CacheFormatError(f"{path}:{lineno}: indices not ascending")
        last_k = k
        try:
            store.put(k, n, d)
        except ValueError as exc:
            raise CacheFormatError(f"{path}:{lineno}: {exc}") from exc
    return store


def cache_store(store: CacheStore, path: str | Path) -> None:
    """Write the cache atomically (temp file in place, then rename)."""
    path = Path(path)
    payload = _payload_lines(store)
    text = CACHE_HEADER + "\n" + "".join(payload) + _digest(payload) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode("ascii"))
    os.replace(tmp, path)


def warm_bernoulli(store: CacheStore) -> int:
    """Seed the Bernoulli memo from a loaded cache.

    Only the gap-free even prefix is usable (the memo holds B_0, B_2, ...
    by position). Every entry is re-checked against von Staudt-Clausen, on
    the denominator and on the numerator modulo the denominator; failure
    raises CacheFormatError. Returns the largest k seeded.
    """
    even = [(k, nd) for k, nd in store.sorted_items() if k >= 2 and k % 2 == 0]
    try:
        return seed_even_values(even)
    except ValueError as exc:
        raise CacheFormatError(str(exc)) from exc


def snapshot_bernoulli(k_max: int, base: CacheStore | None = None) -> CacheStore:
    """Cache store holding even entries 2..k_max (computed as needed),
    merged over `base` so unrelated entries survive a rewrite."""
    store = CacheStore()
    if base is not None:
        store.merge(base)
    for k, (n, d) in even_value_pairs(k_max):
        store.put(k, n, d)
    return store


def load_and_warm(path: str | Path | None) -> CacheStore | None:
    """Load the cache at `path`, if one is given and exists, and seed the
    Bernoulli memo from it. Returns the loaded store, or None if there was
    nothing to load; pass it to store_snapshot as the merge base."""
    if path is None or not os.path.exists(path):
        return None
    store = cache_load(path)
    warm_bernoulli(store)
    return store


def store_snapshot(
    path: str | Path | None, k_max: int, base: CacheStore | None
) -> None:
    """Write the even entries 2..k_max, merged over `base`, to `path`.
    Does nothing without a path or below k = 2."""
    if path is None or k_max < 2:
        return
    cache_store(snapshot_bernoulli(k_max, base), path)
