"""Report pins: a `verify` report's canonical form and digest, the
digests pinned in `report_pins.json`, and the perturbed power sums that
make `quick` fail. The canonical form drops `wall_time_s`, the one field
that differs between runs; keys sorted, indent 2, trailing newline. A
report change (or a version bump) re-records the pins and
`cli_golden.json` from the same runs with

    PYTHONPATH=src python tests/pins.py

which prints `name: old → new` for each pin that moved, for CHANGES.md.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from moser_ladder import powersum, sweeps

PINS = Path(__file__).with_name("report_pins.json")


def canonical(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "wall_time_s"}
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def digest(report: dict) -> str:
    return hashlib.sha256(canonical(report).encode("utf-8")).hexdigest()


def pinned(name: str) -> str:
    return json.loads(PINS.read_text(encoding="utf-8"))[name]


# offsets added to S_k(m) at (k, m), one table per route the rows read:
# the closed form and the running sums; and a shift of the running sums
# at every m >= 2 of a k, which knocks whole rows off. The shift of 836
# makes 11^3 divide S_12(11); the offset there is 11^3 so that it still
# does, and divisibility-equivalence fails at that cell. Every m-cell
# check of `quick` fails, so "perturbed-quick" pins counterexample text.
_CLOSED_OFFSETS = {(3, 20): 1, (4, 12): -2, (10, 60): 7}
_RUNNING_OFFSETS = {(4, 12): 3, (6, 30): 1, (10, 5): 25, (12, 11): 11**3,
                    (12, 100): 10**6}
_RUNNING_SHIFTS = {6: 4, 12: 836}


def perturb_sums(monkeypatch) -> None:
    real_running = powersum.running_sums
    real_closed = powersum.power_sums

    def running(k, m_max):
        sums = list(real_running(k, m_max))  # a slice may share the real one
        for m in range(1, m_max + 1):
            if m >= 2:
                sums[m] += _RUNNING_SHIFTS.get(k, 0)
            sums[m] += _RUNNING_OFFSETS.get((k, m), 0)
        return sums

    def closed(k, ms):
        ms = list(ms)
        return [s + _CLOSED_OFFSETS.get((k, m), 0)
                for m, s in zip(ms, real_closed(k, ms))]

    monkeypatch.setattr(powersum, "running_sums", running)
    monkeypatch.setattr(powersum, "power_sums", closed)


def _record() -> None:
    """Rewrite both files; the `quick` pin hashes the golden JSON."""
    import pytest
    import test_cli_golden as golden

    os.environ["COLUMNS"] = "80"
    cases = {}
    for case in golden.CASES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = golden._main(case)
        cases[case] = golden._outcome(case, code, out.getvalue(),
                                      err.getvalue())
    quick = cases["verify quick --format json"]["stdout"]
    new = {"quick": hashlib.sha256(quick.encode("utf-8")).hexdigest(),
           "standard": digest(sweeps.verify_all("standard")),
           "extended": digest(sweeps.verify_all("extended"))}
    with pytest.MonkeyPatch.context() as patch:
        perturb_sums(patch)
        new["perturbed-quick"] = digest(sweeps.verify_all("quick"))
    old = json.loads(PINS.read_text(encoding="utf-8"))
    for path, data, indent in ((golden.GOLDEN, cases, 1), (PINS, new, 2)):
        path.write_text(json.dumps(data, sort_keys=True, indent=indent)
                        + "\n", encoding="utf-8")
    moved = [f"{name}: {old.get(name)} → {pin}"
             for name, pin in sorted(new.items()) if old.get(name) != pin]
    print("\n".join(moved) or "no pin moved")


if __name__ == "__main__":
    _record()
