"""Cache file format: round trips, tamper detection, memo warming."""

import sys

import pytest

from moser_ladder.bernoulli import CacheError
from moser_ladder.cache import (
    CACHE_HEADER,
    CacheStore,
    cache_load,
    cache_store,
    snapshot_bernoulli,
    warm_bernoulli,
)


def _sample_store() -> CacheStore:
    return snapshot_bernoulli(12)


def test_round_trip(tmp_path):
    path = tmp_path / "bern.cache"
    store = _sample_store()
    cache_store(store, path)
    assert (sorted(cache_load(path).entries.items())
            == sorted(store.entries.items()))


def test_file_shape(tmp_path):
    path = tmp_path / "bern.cache"
    cache_store(_sample_store(), path)
    lines = path.read_text("ascii").splitlines()
    assert lines[0] == CACHE_HEADER
    assert lines[1] == "2\t1\t6"
    assert len(lines[-1]) == 64  # sha-256 hex trailer
    assert path.read_bytes().endswith(b"\n")


def test_empty_file_is_empty_store(tmp_path):
    path = tmp_path / "empty.cache"
    path.write_bytes(b"")
    assert cache_load(path).entries == {}


def test_store_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "nested" / "bern.cache"
    cache_store(_sample_store(), path)
    assert cache_load(path).entries


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        cache_load(tmp_path / "absent.cache")


def test_version_mismatch(tmp_path):
    path = tmp_path / "old.cache"
    path.write_text("moser-ladder-cache v0\n", encoding="ascii")
    with pytest.raises(CacheError, match="unsupported version '.* v0'"):
        cache_load(path)


def test_alien_header(tmp_path):
    path = tmp_path / "alien.cache"
    path.write_text("something else\n", encoding="ascii")
    with pytest.raises(CacheError, match="bad header 'something else'"):
        cache_load(path)


def test_header_only(tmp_path):
    path = tmp_path / "header.cache"
    path.write_text(CACHE_HEADER + "\n", encoding="ascii")
    with pytest.raises(CacheError, match="missing checksum line"):
        cache_load(path)


def test_checksum_detects_flip(tmp_path):
    path = tmp_path / "bern.cache"
    cache_store(_sample_store(), path)
    raw = path.read_bytes().replace(b"2\t1\t6", b"2\t5\t6", 1)
    path.write_bytes(raw)
    with pytest.raises(CacheError, match="payload checksum mismatch"):
        cache_load(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "bern.cache"
    cache_store(_sample_store(), path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + lines[-1:]))
    with pytest.raises(CacheError, match="payload checksum mismatch"):
        cache_load(path)


def test_missing_trailing_newline(tmp_path):
    path = tmp_path / "bern.cache"
    cache_store(_sample_store(), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CacheError, match="missing trailing newline"):
        cache_load(path)


def test_non_ascii_rejected(tmp_path):
    path = tmp_path / "bern.cache"
    path.write_bytes("moser-ladder-cache v1\n2\t1\té\n".encode("utf-8"))
    with pytest.raises(CacheError, match="not an ascii text file"):
        cache_load(path)


def _hand_rolled(lines: list[str]) -> bytes:
    import hashlib

    payload = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    return (CACHE_HEADER + "\n" + payload + digest + "\n").encode("ascii")


def test_malformed_record_line(tmp_path):
    path = tmp_path / "bern.cache"
    path.write_bytes(_hand_rolled(["2\t1"]))
    with pytest.raises(CacheError, match=":2: want 3 tab fields"):
        cache_load(path)


def test_non_integer_field(tmp_path):
    path = tmp_path / "bern.cache"
    path.write_bytes(_hand_rolled(["2\tx\t6"]))
    with pytest.raises(CacheError, match=":2: non-integer field"):
        cache_load(path)


def test_a_field_past_the_digit_limit_names_the_limit(tmp_path):
    # a decimal field that only the interpreter's int-to-str limit rejects;
    # an in-process cli.main earlier in the run may have lifted the limit
    path = tmp_path / "bern.cache"
    path.write_bytes(_hand_rolled(["2\t1\t6", f"4\t-1{'0' * 4400}\t30"]))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CacheError,
                           match=":3: field longer than the interpreter's "
                                 "4300-digit int limit"):
            cache_load(path)
        path.write_bytes(_hand_rolled([f"2\t1{'0' * 4400}\tx"]))
        with pytest.raises(CacheError, match=":2: non-integer field"):
            cache_load(path)
    finally:
        sys.set_int_max_str_digits(old)


def test_out_of_order_records(tmp_path):
    path = tmp_path / "bern.cache"
    path.write_bytes(_hand_rolled(["4\t-1\t30", "2\t1\t6"]))
    with pytest.raises(CacheError, match=":3: indices not ascending"):
        cache_load(path)


def test_load_validates_each_record(tmp_path):
    path = tmp_path / "bern.cache"
    for record, error in (
            ("-2\t1\t6", ":2: indices not ascending"),  # a negative index
            ("2\t1\t0", ":2: cache denominator must be >= 1, got 0"),
            ("2\t2\t12", ":2: cache entry for k=2 not in lowest terms")):
        path.write_bytes(_hand_rolled([record]))
        with pytest.raises(CacheError, match=error):
            cache_load(path)


def test_warm_bernoulli_seeds_prefix():
    assert warm_bernoulli(snapshot_bernoulli(16)) == 16


def test_warm_rejects_vsc_mismatch():
    # lowest terms, but not a Bernoulli denominator
    store = CacheStore({2: (1, 10)})
    with pytest.raises(CacheError, match="k=2 has denominator 10, .* says 6"):
        warm_bernoulli(store)


def test_warm_rejects_poisoned_numerator(tmp_path):
    # B_12 edited to -697/2730 and the checksum recomputed: the file loads,
    # but the numerator fails von Staudt-Clausen modulo D_12
    store = _sample_store()
    store.entries[12] = (-697, 2730)
    path = tmp_path / "bern.cache"
    cache_store(store, path)
    with pytest.raises(CacheError, match="k=12 .*von Staudt-Clausen"):
        warm_bernoulli(cache_load(path))


def test_warm_ignores_odd_and_gap_entries():
    # k = 3 is odd, not part of the even prefix; the gap at 4 puts k = 6
    # past its end
    store = CacheStore({2: (1, 6), 3: (1, 2), 6: (1, 42)})
    assert warm_bernoulli(store) == 2


def test_snapshot_holds_exactly_the_even_prefix():
    assert sorted(snapshot_bernoulli(9).entries.items()) == [
        (2, (1, 6)), (4, (-1, 30)), (6, (1, 42)), (8, (-1, 30))]
    assert snapshot_bernoulli(1).entries == {}
