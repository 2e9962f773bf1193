"""Golden outputs of every query subcommand in every format, and of the
help texts and a usage error.

Each case runs `cli.main` in-process with `--seedless` and compares exit
code, stdout and stderr byte for byte with `cli_golden.json`; help is
wrapped at 80 columns whatever the terminal. The
`verify --format json` report is compared without its `wall_time_s`,
the one field that differs between runs. A deliberate output change
regenerates the file with `PYTHONPATH=src python tests/test_cli_golden.py`
and says so in CHANGES.md.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from moser_ladder import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = (
    "bern 12",
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
USAGE = ("--help", "verify --help", "bern --help", "verify bogus")
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
        del report["wall_time_s"]
        out = json.dumps(report, sort_keys=True, indent=2) + "\n"
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


def _regenerate() -> None:
    golden = {}
    os.environ["COLUMNS"] = "80"
    for case in CASES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = _main(case)
        golden[case] = _outcome(case, code, out.getvalue(), err.getvalue())
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
