"""Cold-process benchmark of the moser-ladder CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs nothing but the standard
library and the sources under src/. Every pass starts a fresh interpreter
on the documented CLI, with HOME and XDG_DATA_HOME pointing at a fresh
directory, and every pass's output is checked against a reference the
benchmark computes itself. --trace 0 reports the end-to-end metrics of
untraced passes; --trace 1 reports the per-layer metrics of a separate
traced run (bench/trace_driver.py). bench/README.md lists the workloads,
the metrics and which layer metric should move which end-to-end metric.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are a readable summary
and a JSON record of the run (Python version, nproc, commit, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from layers import (CHECKS, EXACT_COUNTERS, catalogue, pass_metrics,
                    read_spans, serial_row_sum)
from reference import (bernoulli_table, read_v1_cache, report_digest,
                       source_digest, write_v1_cache)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_DRIVER = BENCH / "trace_driver.py"

# The console script's body: a cold interpreter entering the CLI the way
# the installed `moser-ladder` command does.
CLI = [sys.executable, "-c",
       "import sys; from moser_ladder.cli import main; sys.exit(main(sys.argv[1:]))"]
SETUP = [sys.executable, "-c", "import moser_ladder.cli"]

# A fixed cold-interpreter job that no change to src/ can touch, timed
# before and after each pass. On a shared machine the speed of a cold
# process drifts by 10-15% over tens of seconds; the ratio of a pass to the
# mean of the calibrations around it drifts about half as much. Times are
# reported scaled by REFERENCE_CALIBRATION_S / that mean, i.e. in seconds
# on a machine where the calibration takes exactly that long.
CALIBRATION = [sys.executable, "-c",
               "import argparse, bisect, csv, dataclasses, fractions, "
               "hashlib, json, math, pathlib, concurrent.futures"]
REFERENCE_CALIBRATION_S = 0.1

# `verify extended` report with wall_time_s removed (reference.report_digest),
# identical at --jobs 1 and 2.
PINNED_REPORT_SHA256 = (
    "59e4aa8d35c8f801334c09f390a0e93791b2fcc58e4caaa9f0fadb52bf79873c")

MIN_PASSES = 3
MIN_SETUPS = 5
PASS_TIMEOUT_S = 60
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class Sample:
    """One cold process: wall time, user+sys and peak RSS of its tree."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def spawn(argv: list[str], pass_dir: Path) -> Sample:
    """Run argv hermetically in pass_dir; stdout and stderr go to files
    there. CPU and RSS come from wait4, so they cover this process and the
    children it reaped (pool workers); RSS is the largest single process."""
    env = dict(os.environ, HOME=str(pass_dir), XDG_DATA_HOME=str(pass_dir),
               PYTHONPATH=str(SRC))
    with open(pass_dir / "stdout", "wb") as out, \
            open(pass_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=pass_dir,
                                start_new_session=True)
        watchdog = threading.Timer(PASS_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Audit:
    """`verify extended --seedless` at a fixed job count. The profile is
    fixed, so the seed has no effect on the inputs."""

    def __init__(self, jobs: int):
        self.jobs = jobs

    def inputs(self) -> dict:
        return {"profile": "extended", "jobs": self.jobs, "seed_used": False}

    def args(self, _i: int, _pass_dir: Path) -> list[str]:
        return ["verify", "extended", "--seedless", "--format", "json",
                "--jobs", str(self.jobs)]

    def cache_file(self, pass_dir: Path) -> Path:
        return pass_dir / "moser-ladder" / "bernoulli.cache"

    def check(self, _i: int, code: int, stdout: bytes, _pass_dir: Path) -> bool:
        if code != 0:
            return False
        try:
            text = stdout.decode("utf-8")
            fails = json.loads(text)["totals"]["fail"]
        except (ValueError, KeyError, TypeError):
            return False
        return fails == 0 and report_digest(text) == PINNED_REPORT_SHA256


K_LO, K_HI = 960, 1000
_GOLDEN = (5**0.5 - 1) / 2


class Bernoulli:
    """`bern K --cache PATH` on a fresh path (cold) or on a copy of a cache
    prefilled to K_HI from the reference table (warm)."""

    def __init__(self, warm: bool, seed: int, run_dir: Path):
        self.table = bernoulli_table(K_HI)
        self.offset = random.Random(seed).random()
        self.fixture = run_dir / "fixture.cache" if warm else None
        if self.fixture:
            write_v1_cache(self.table, self.fixture)

    def k(self, i: int) -> int:
        """The even K of pass i. Passes walk a seeded golden-ratio sequence
        over [K_LO, K_HI], so a run's median pass sits near the middle of
        the range whatever the seed."""
        u = (self.offset + i * _GOLDEN) % 1.0
        return K_LO + 2 * int(u * ((K_HI - K_LO) // 2 + 1))

    def inputs(self) -> dict:
        return {"k_range": [K_LO, K_HI], "k_first": self.k(0),
                "warm_fixture_k_max": K_HI if self.fixture else None}

    def args(self, i: int, pass_dir: Path) -> list[str]:
        cache = self.cache_file(pass_dir)
        if self.fixture:
            shutil.copyfile(self.fixture, cache)
        return ["bern", str(self.k(i)), "--cache", str(cache)]

    def cache_file(self, pass_dir: Path) -> Path:
        return pass_dir / "bernoulli.cache"

    def check(self, i: int, code: int, stdout: bytes, pass_dir: Path) -> bool:
        """B_K as printed, and every entry of the cache file the run left,
        equal the reference; the file holds exactly the even prefix."""
        if code != 0:
            return False
        k = self.k(i)
        top = K_HI if self.fixture else k
        want = {j: (b.numerator, b.denominator)
                for j, b in self.table.items() if j <= top}
        try:
            printed = Fraction(stdout.decode("ascii").strip())
            written = read_v1_cache(self.cache_file(pass_dir))
        except (ValueError, ZeroDivisionError, OSError):
            return False
        return printed == self.table[k] and written == want


WORKLOADS = ("audit-serial", "audit-parallel", "bernoulli-cold",
             "bernoulli-warm")


def make_workload(name: str, seed: int, run_dir: Path):
    if name == "audit-serial":
        return Audit(1)
    if name == "audit-parallel":
        return Audit(2)
    return Bernoulli(name == "bernoulli-warm", seed, run_dir)


class Runner:
    """Passes of one workload, each in its own directory under run_dir,
    with attempted and failed operations counted."""

    def __init__(self, workload, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def _pass_dir(self) -> Path:
        self._n += 1
        path = self.run_dir / f"p{self._n}"
        path.mkdir()
        return path

    def bare(self, argv: list[str]) -> Sample:
        """A process that is not a workload pass (setup, calibration)."""
        pass_dir = self._pass_dir()
        try:
            return spawn(argv, pass_dir)
        finally:
            shutil.rmtree(pass_dir)

    def run(self, i: int, traced: str | None = None, workload=None):
        """One pass of input i, untraced or traced with scope "all" or
        "rows"; returns (sample, per-layer metrics or None)."""
        workload = workload or self.workload
        pass_dir = self._pass_dir()
        try:
            args = workload.args(i, pass_dir)
            spans = pass_dir / "spans.jsonl"
            argv = ([sys.executable, str(TRACE_DRIVER), str(spans),
                     pass_dir.name, traced, *args] if traced else CLI + args)
            sample = spawn(argv, pass_dir)
            stdout = (pass_dir / "stdout").read_bytes()
            ok = workload.check(i, sample.code, stdout, pass_dir)
            self.attempted += 1
            self.failed += not ok
            layers = None
            if traced and spans.exists():
                cache = workload.cache_file(pass_dir)
                layers = pass_metrics(read_spans(spans), len(stdout),
                                      cache.stat().st_size if cache.exists() else 0)
            return sample, layers
        finally:
            shutil.rmtree(pass_dir)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for `seconds` (at least MIN_PASSES), each followed
    by a timed cold import, with a calibration before the first pass and
    after every import. Times are scaled by REFERENCE_CALIBRATION_S / the
    mean of the calibrations around them; medians are reported, raw
    medians and quartiles go to the record."""
    deadline = time.perf_counter() + seconds
    calibrations = [runner.bare(CALIBRATION).wall_s]
    samples, setups = [], []
    while len(samples) < MIN_PASSES or time.perf_counter() < deadline:
        samples.append(runner.run(len(samples))[0])
        setups.append(runner.bare(SETUP).wall_s)
        calibrations.append(runner.bare(CALIBRATION).wall_s)
    while len(setups) < MIN_SETUPS:
        setups.append(runner.bare(SETUP).wall_s)
        calibrations.append(runner.bare(CALIBRATION).wall_s)
    scales = [2 * REFERENCE_CALIBRATION_S / (before + after)
              for before, after in zip(calibrations, calibrations[1:])]
    raw = {"wall_s": [s.wall_s for s in samples],
           "cpu_s": [s.cpu_s for s in samples],
           "setup_s": setups,
           "peak_rss_mb": [s.peak_rss_mb for s in samples],
           "calibration_s": calibrations}
    series = {name: [v * k for v, k in zip(raw[name], scales)]
              for name in ("wall_s", "cpu_s", "setup_s")}
    series["peak_rss_mb"] = raw["peak_rss_mb"]
    metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
               for name, unit in END_TO_END}
    stats = {name: {"n": len(v), "p25_p75": _quartiles(v), "max": max(v)}
             for name, v in series.items()}
    stats["raw_medians"] = {name: statistics.median(v) for name, v in raw.items()}
    return metrics, stats


def traced_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for 40% of `seconds`, then traced passes of the same
    input for the rest (at least two of each). The audits add one --jobs 1
    pass traced at row scope: it gives the sweeps.<check> and row metrics,
    and the serial row sum behind parallel_efficiency, without the cost of
    inner spans in the row times."""
    start = time.perf_counter()
    untraced, traced, layers = [], [], []
    while len(untraced) < 2 or time.perf_counter() < start + 0.4 * seconds:
        untraced.append(runner.run(0)[0].wall_s)
    base = None
    jobs = getattr(runner.workload, "jobs", 0)
    if jobs:
        base = runner.run(0, traced="rows", workload=Audit(1))[1]
    table_shares = []
    while len(traced) < 2 or time.perf_counter() < start + seconds:
        sample, metrics = runner.run(0, traced="all")
        traced.append(sample.wall_s)
        if metrics is not None:
            layers.append(metrics)
            table_shares.append(metrics["bernoulli.table_s"] / sample.wall_s)
    info = {"untraced_wall_s": statistics.median(untraced),
            "traced_wall_s": statistics.median(traced),
            "traced_passes": len(traced), "untraced_passes": len(untraced)}
    if len(layers) < 2 or (jobs and base is None):
        info["spans_missing"] = True
        return {}, info
    # the table's share of its own traced pass, free of drift between passes
    info["table_share_of_traced_wall"] = statistics.median(table_shares)
    combined = {name: statistics.median(p[name] for p in layers)
                for name, _, _ in catalogue()}
    info["counters_repeat"] = all(
        len({p[name] for p in layers}) == 1 for name in EXACT_COUNTERS)
    if base is not None:
        for name in ([f"sweeps.{c}.s" for c in CHECKS]
                     + [f"sweeps.{c}.cells" for c in CHECKS]
                     + ["sweeps.row_p50_ms", "sweeps.row_max_ms"]):
            combined[name] = base[name]
        info["serial_row_sum_s"] = serial_row_sum(base)
        if combined["sweeps.pool_s"]:
            combined["sweeps.parallel_efficiency"] = (
                info["serial_row_sum_s"] / (jobs * combined["sweeps.pool_s"]))
    combined["trace.overhead_s"] = info["traced_wall_s"] - info["untraced_wall_s"]
    units = {name: unit for name, unit, _ in catalogue()}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in combined.items()}
    return metrics, info


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    record: dict

    def line(self) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


class SetupError(RuntimeError):
    """The package cannot be imported from src/: nothing to measure."""


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    if not (SRC / "moser_ladder" / "cli.py").is_file():
        raise SetupError(f"no moser_ladder sources under {SRC}")
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload = make_workload(name, seed, run_dir)
        runner = Runner(workload, run_dir)
        # untimed first import: compiles the bytecode every later pass reuses
        if runner.bare(SETUP).code != 0:
            raise SetupError("`import moser_ladder.cli` fails")
        if trace:
            metrics, info = traced_run(runner, seconds)
            correct = (runner.failed == 0 and bool(metrics)
                       and info["counters_repeat"])
        else:
            metrics, info = timed_run(runner, seconds)
            correct = runner.failed == 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": workload.inputs(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(), "source_sha256": source_digest(SRC),
        "failed_ratio": runner.failed / runner.attempted, **info,
    }
    return Result(correct, runner.attempted, runner.failed, metrics, record)


def summary(result: Result) -> list[str]:
    r = result.record
    lines = [f"workload {r['workload']}  seed {r['seed']}  "
             f"{'traced' if r['trace'] else 'untraced'}  "
             f"python {r['python']}  nproc {r['nproc']}"]
    if not r["trace"]:
        for name, unit in END_TO_END:
            st = r[name]
            lines.append(
                f"  {name:<12} {result.metrics[name]['value']:.4f} {unit:<3} "
                f"median of {st['n']}  p25 {st['p25_p75'][0]:.4f}  "
                f"p75 {st['p25_p75'][1]:.4f}  max {st['max']:.4f}  "
                f"raw median {r['raw_medians'][name]:.4f}")
    else:
        lines.append(f"  traced wall {r['traced_wall_s']:.4f} s (median of "
                     f"{r['traced_passes']}), untraced {r['untraced_wall_s']:.4f}"
                     f" s (median of {r['untraced_passes']})")
    lines.append(f"  {'failed_ratio':<12} {r['failed_ratio']:.4f} 1   "
                 f"{result.failed} failed of {result.attempted} passes")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # on SIGTERM, unwind: the running pass is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary(result):
        print(line)
    print(json.dumps({"record": result.record}, sort_keys=True))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
