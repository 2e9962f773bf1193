"""Golden outputs of every query subcommand in every format, and of the
help texts and a usage error.

Each case runs `cli.main` in-process with `--seedless` and compares exit
code, stdout and stderr byte for byte with `cli_golden.json`; help is
wrapped at 80 columns whatever the terminal. The
`verify --format json` report is compared in the canonical form of
`pins.py`, without its `wall_time_s`. A deliberate output change
re-records this file and the report pins together with
`PYTHONPATH=src python tests/pins.py` and says so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from moser_ladder import cli
from pins import canonical

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = (
    "bern 12",
    # B_0, B_1 and an odd k: the integer, negative and zero forms
    "bern 0",
    "bern 1",
    "bern 3",
    "powersum 10 5",
    "powersum 10 5 --naive",
    "gk 2 6",
    "ladder 10 5",
    "search ratio --kmax 3 --mmax 10",
    "search em --kmax 5 --mmax 50",
    "scan numerators --kmax 12",
    "scan numerators --kmax 50 --trial-bound 10",
    "verify quick",
    # empty results
    "search em --kmax 2 --mmax 2",
    "scan numerators --kmax 1",
)
# argparse ends these with SystemExit; verify's help and its profile
# choices read sweeps, which the parser adds only for a verify command
USAGE = ("--help", "verify --help", "bern --help", "scan --help",
         "verify bogus")
CASES = [f"{command} --format {fmt}"
         for command in COMMANDS for fmt in cli.FORMATS] + list(USAGE)


def _main(case: str) -> int:
    try:
        return cli.main([*case.split(), "--seedless"])
    except SystemExit as exc:
        return exc.code


def _outcome(case: str, code: int, out: str, err: str) -> dict:
    if case.startswith("verify ") and case.endswith(" json"):
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
        out = canonical(report)
    return {"exit": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    code = _main(case)
    assert _outcome(case, code, *capsys.readouterr()) == want


def test_golden_has_no_stale_cases():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(
        CASES)
