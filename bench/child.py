"""Child processes of the benchmark: the stream client and the traced runs.

    python3 bench/child.py stream --seed N --seconds S
    python3 bench/child.py traced --workload W --seed N --seconds S

Each prints one JSON object as its last line.  ``src`` must be on the
import path; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import time

import layertrace
import run
import stream
from qserre import cli


def stream_client(seed, seconds):
    """Set up, warm the caches with one pass, then time passes for about seconds."""
    setups = []
    for _ in range(run.SETUP_REPEATS):
        t0 = time.perf_counter()
        verifiers = stream.build_verifiers()
        setups.append(time.perf_counter() - t0)
    tally = stream.StreamTally()
    stream.run_pass(verifiers, stream.make_batch(seed, 0), tally, timed=False)
    walls, cpus = [], []
    start = time.perf_counter()
    while run.another_fits(walls, start, seconds):
        batch = stream.make_batch(seed, len(walls) + 1)
        c0 = time.process_time()
        walls.append(stream.run_pass(verifiers, batch, tally))
        cpus.append(time.process_time() - c0)
    lat = tally.latencies
    metrics = {
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "verdicts_per_s": len(lat) / sum(walls),
        "verdict_ms_p50": statistics.median(lat) * 1000.0,
        "verdict_ms_p99": run.percentile(lat, 99) * 1000.0,
        "setup_s": statistics.median(setups),
    }
    detail = {"passes": len(walls), "timed_queries": len(lat),
              "fingerprint": tally.fingerprint,
              "expected_fingerprint": tally.expected_fingerprint,
              "errors": tally.errors}
    return metrics, tally.attempted, tally.failed, detail


# ---------------------------------------------------------------------------
# traced runs: one iteration untraced, one with spans, one with qfield spans
# ---------------------------------------------------------------------------

def cli_iteration(workload):
    want = run.expected_keys(workload)
    argv = run.CLI_WORKLOADS[workload]

    def iteration():
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash fails every verdict, as in a child
            rc = 1
        return run.check_cli_output(buf.getvalue(), rc, want)
    return iteration


def stream_iteration(seed):
    """Set-up, the warm-up pass and one more pass, all with fresh caches."""
    batches = [stream.make_batch(seed, 0), stream.make_batch(seed, 1)]

    def iteration():
        verifiers = stream.build_verifiers()
        tally = stream.StreamTally()
        for batch in batches:
            stream.run_pass(verifiers, batch, tally, timed=False)
        return tally.attempted, tally.failed, tally.fingerprint, tally.errors
    return iteration


def traced_run(workload, seed, seconds):
    iteration = (stream_iteration(seed) if workload == run.STREAM
                 else cli_iteration(workload))
    spans = layertrace.Tracer(keep_spans=True)
    qfield = layertrace.Tracer()
    rounds, prints, errors = [], set(), []
    attempted = failed = 0

    def timed(tracer=None, qfield_only=False):
        nonlocal attempted, failed
        undo = layertrace.install(tracer, qfield_only) if tracer else []
        try:
            t0 = time.perf_counter()
            a, f, fp, errs = iteration()
            wall = time.perf_counter() - t0
        finally:
            layertrace.uninstall(undo)
        attempted, failed = attempted + a, failed + f
        prints.add(fp)
        errors.extend(errs)
        return wall

    start = time.perf_counter()
    durations = []
    while run.another_fits(durations, start, seconds, minimum=1):
        t_round = time.perf_counter()
        spans.reset()
        qfield.reset()
        plain = timed()
        traced = timed(spans)
        traced_qfield = timed(qfield, qfield_only=True)
        durations.append(time.perf_counter() - t_round)
        values = layertrace.layer_metrics(spans, qfield)
        values["trace.overhead_s"] = traced - plain
        values["trace.qfield_overhead_s"] = traced_qfield - plain
        rounds.append(values)
    metrics = {k: statistics.median([r[k] for r in rounds]) for k in rounds[0]}

    out = run.BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / ("%s.spans.json" % workload), "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "cpu", "parent"],
                   "trees": [{"thread": tid, "spans": tree}
                             for tid, tree in spans.kept]}, fh)
    detail = {"rounds": len(rounds), "fingerprints": sorted(prints),
              "errors": errors[:5]}
    return metrics, attempted, failed, detail


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("stream", "traced"))
    ap.add_argument("--workload", default=run.STREAM)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.mode == "stream":
        metrics, attempted, failed, detail = stream_client(args.seed, args.seconds)
    else:
        metrics, attempted, failed, detail = traced_run(args.workload, args.seed,
                                                        args.seconds)
    print(json.dumps({"metrics": metrics, "attempted": attempted,
                      "failed": failed, "detail": detail}))


if __name__ == "__main__":
    main()
