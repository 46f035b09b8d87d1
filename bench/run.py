#!/usr/bin/env python3
"""qserre benchmark: verdict latency and throughput on three workloads.

Run from the repository root:

    python3 bench/run.py --workload verify-r3 --seed 1 --seconds 20 --trace 0

Every workload runs in fresh child processes, with ``src`` on the
child's import path.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Each run checks every verdict
against its known answer.  The line before the result holds run
details: machine, load, verdict fingerprint and failed share.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CLI_WORKLOADS = {
    "verify-r3": ["verify", "all", "--rank", "3", "--lambda-max", "2",
                  "--output", "structured"],
}
STREAM = "membership-stream"
WORKLOADS = tuple(CLI_WORKLOADS) + (STREAM,)

SETUP_REPEATS = 7
MIN_ITERATIONS = 3


class BenchError(RuntimeError):
    """The benchmark could not run at all; no result is printed."""


def another_fits(durations, start, seconds, minimum=MIN_ITERATIONS):
    """Run another iteration: too few so far, or a typical one ends in time."""
    if len(durations) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


def declared_metrics():
    """(end_to_end, per_layer): metric name to unit, as BENCHMARK.json lists them."""
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        raise BenchError("cannot read BENCHMARK.json: %s" % err) from err
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def percentile(values, pct):
    """Linear-interpolated percentile, pct in (0, 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# the verdict gate for CLI workloads
# ---------------------------------------------------------------------------

def _key(suite, params):
    return json.dumps([suite, params], sort_keys=True)


def expected_keys(workload):
    """The checks a workload must report, each with a known answer of pass."""
    with open(BENCH / "expected" / ("%s.json" % workload)) as fh:
        return [_key(suite, params) for suite, params in json.load(fh)]


def fingerprint(verdicts):
    """sha256 of (suite, params, pass) triples; no timing field enters."""
    return hashlib.sha256(json.dumps(sorted(verdicts)).encode()).hexdigest()


def check_cli_output(output: str, returncode: int, want: list):
    """(attempted, failed, fingerprint, errors) for one structured CLI run.

    Every expected check must appear exactly once and pass.  A missing,
    duplicated, failing or unexpected record is one failed verdict, and
    a run that exited nonzero fails every verdict it owed.
    """
    records = []
    for line in output.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and "suite" in rec:
            records.append(rec)
    seen = Counter(_key(r["suite"], r["params"]) for r in records)
    passed = {_key(r["suite"], r["params"]) for r in records if r.get("pass") is True}
    verdicts = [_key(r["suite"], r["params"]) + ":" + str(r.get("pass")) for r in records]
    wanted = set(want)
    errors = []
    failed = 0
    for key in want:
        if seen[key] != 1 or key not in passed:
            failed += 1
            errors.append("%s: %d records, pass=%s" % (key, seen[key], key in passed))
    extra = [k for k in seen if k not in wanted]
    failed += sum(seen[k] for k in extra)
    errors.extend("unexpected record %s" % k for k in extra)
    attempted = len(want) + sum(seen[k] for k in extra)
    if returncode != 0:
        failed = attempted
        errors.insert(0, "exit code %d" % returncode)
    return attempted, failed, fingerprint(verdicts), errors[:5]


def expected_fingerprint(workload):
    return fingerprint([k + ":True" for k in expected_keys(workload)])


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a fixed hash seed makes set and dict orders, and so the arithmetic
    # done in them, the same in every run
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args):
    """Run a Python child to exit: (wall_s, cpu_s, peak_rss_mb, rc, output).

    Wall time runs from spawn to exit; CPU time and peak RSS come from
    the child's own rusage.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + list(args), cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    try:
        output = proc.stdout.read().decode(errors="replace")
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, output)


def cli_setup_seconds():
    """Interpreter start plus `import qserre.cli`, median of fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, _, rc, output = spawn(["-c", "import qserre.cli"])
        if rc != 0:
            raise BenchError("cannot import qserre.cli:\n%s" % output[-2000:])
        times.append(wall)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_cli(workload, seconds):
    """Untraced CLI iterations, each a fresh process, for about seconds."""
    setup = cli_setup_seconds()
    want = expected_keys(workload)
    argv = ["-m", "qserre.cli"] + CLI_WORKLOADS[workload]
    walls, cpus, rss, prints = [], [], [], set()
    attempted = failed = 0
    errors = []
    t_start = time.perf_counter()
    while another_fits(walls, t_start, seconds):
        wall, cpu, peak, rc, output = spawn(argv)
        a, f, fp, errs = check_cli_output(output, rc, want)
        attempted, failed = attempted + a, failed + f
        errors.extend(errs)
        prints.add(fp)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
    # structured records are printed at exit, so all verdicts of an
    # iteration arrive together: its p50 and p99 are both its wall time,
    # and each is reported as the median over iterations
    run_s = statistics.median(walls)
    metrics = {
        "run_s": run_s,
        "cpu_s": statistics.median(cpus),
        "verdicts_per_s": attempted / sum(walls),
        "verdict_ms_p50": run_s * 1000.0,
        "verdict_ms_p99": run_s * 1000.0,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": setup,
    }
    detail = {"iterations": len(walls), "fingerprints": sorted(prints),
              "expected_fingerprint": expected_fingerprint(workload),
              "errors": errors[:5]}
    return metrics, attempted, failed, detail


def run_child(args):
    """Run bench/child.py to exit; its last line is a JSON result.

    Returns (metrics, attempted, failed, detail, peak_rss_mb).
    """
    _, _, peak, rc, output = spawn([str(BENCH / "child.py")] + args)
    try:
        res = json.loads(output.strip().splitlines()[-1])
    except (IndexError, ValueError):
        res = None
    if rc != 0 or res is None:
        raise BenchError("%s exited %d:\n%s" % (args[0], rc, output[-2000:]))
    return res["metrics"], res["attempted"], res["failed"], res["detail"], peak


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def run(workload, seed, seconds, trace):
    if workload not in WORKLOADS:
        raise BenchError("unknown workload %r; choose from %s"
                         % (workload, ", ".join(WORKLOADS)))
    if not (SRC / "qserre").is_dir():
        raise BenchError("no qserre package under %s" % SRC)
    end_to_end, per_layer = declared_metrics()
    machine = {"nproc": len(os.sched_getaffinity(0)),
               "python": platform.python_version(),
               "loadavg_start": loadavg()}
    common = ["--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        values, attempted, failed, detail, _ = run_child(
            ["traced", "--workload", workload] + common)
        units = per_layer
    elif workload == STREAM:
        # one closed-loop client process; it times itself per query and pass
        values, attempted, failed, detail, peak = run_child(["stream"] + common)
        values["peak_rss_mb"] = peak
        units = end_to_end
    else:
        values, attempted, failed, detail = run_cli(workload, seconds)
        units = end_to_end
    machine["loadavg_end"] = loadavg()
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    detail = dict(detail, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, machine=machine,
                  failed_share={"value": failed / attempted, "unit": "share"})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        detail, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print("bench: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
