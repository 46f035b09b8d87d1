"""Tests for the benchmark's own code.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import child  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import stream  # noqa: E402


# -- the stream generator -----------------------------------------------------

def test_generator_is_deterministic_per_seed():
    assert stream.make_batch(7, 0) == stream.make_batch(7, 0)
    assert stream.make_batch(7, 1) == stream.make_batch(7, 1)
    assert stream.make_batch(7, 0) != stream.make_batch(8, 0)
    assert stream.make_batch(7, 0) != stream.make_batch(7, 1)


def test_generator_mix_and_degree():
    from qserre.exprparse import parse_expression
    from qserre.freealg import x_alphabet

    batch = stream.make_batch(3, 0, size=80)
    assert sum(member for _, _, member in batch) == 40
    assert {rank for rank, _, _ in batch} == set(stream.RANKS)
    for rank, text, _ in batch:
        poly = parse_expression(text, x_alphabet(rank), rank)
        assert not poly.is_zero
        assert poly.degree <= stream.MAX_DEGREE


def test_generated_answers_hold():
    verifiers = stream.build_verifiers()
    tally = stream.StreamTally()
    stream.run_pass(verifiers, stream.make_batch(5, 0, size=40), tally)
    assert tally.attempted == 40 and tally.failed == 0, tally.errors
    assert tally.fingerprint == tally.expected_fingerprint


# -- span arithmetic ------------------------------------------------------------

def test_self_time_on_hand_built_tree():
    spans = [
        ["verify.decide", 0.0, 10.0, 8.0, -1],
        ["rewrite.reduce", 1.0, 4.0, 3.0, 0],
        ["rewrite.reduce", 5.0, 7.0, 1.5, 0],
        ["rewrite.reduce", 2.0, 3.0, 1.0, 1],   # nested in a same-name span
        ["oracle.slice", 3.5, 4.0, 0.5, 1],
    ]
    names, layers = layertrace.span_stats(spans)
    assert names["verify.decide"] == {"calls": 1, "incl_s": 10.0,
                                      "self_s": 5.0, "self_cpu_s": 3.5}
    red = names["rewrite.reduce"]
    assert red["calls"] == 3
    assert red["self_s"] == pytest.approx((3 - 1.5) + 2 + 1)
    assert red["incl_s"] == pytest.approx(3 + 2)      # the nested one is inside
    assert names["oracle.slice"]["self_s"] == pytest.approx(0.5)
    assert layers["verify"]["wait_s"] == pytest.approx(2.0)
    assert layers["rewrite"]["wait_s"] == pytest.approx(0.5)   # outer ones only


def test_overlapping_children_are_covered_once():
    spans = [["a.x", 0.0, 10.0, 10.0, -1],
             ["b.y", 1.0, 4.0, 3.0, 0],
             ["b.y", 3.0, 6.0, 3.0, 0],
             ["b.y", 9.0, 12.0, 1.0, 0]]    # runs past its parent's end
    names, _ = layertrace.span_stats(spans)
    assert names["a.x"]["self_s"] == pytest.approx(10 - 5 - 1)


def test_tracer_nests_and_counts():
    tracer = layertrace.Tracer(keep_spans=True)

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "b.inner",
                               observe=lambda args, out: tracer.count("b.sum", out))

    def outer(x):
        return traced_inner(traced_inner(x))

    assert tracer.wrap(outer, "a.outer")(1) == 3
    assert tracer.names["a.outer"]["calls"] == 1
    assert tracer.names["b.inner"]["calls"] == 2
    assert tracer.counters["b.sum"] == 2 + 3
    (tid, tree), = tracer.kept
    assert [s[4] for s in tree] == [-1, 0, 0]


def test_install_restores_the_package():
    import qserre.cli
    from qserre import freealg, verify

    before = (qserre.cli.main, verify.big_Q, freealg.NcPoly.__mul__)
    for qfield_only in (False, True):
        undo = layertrace.install(layertrace.Tracer(), qfield_only)
        assert undo
        layertrace.uninstall(undo)
        assert (qserre.cli.main, verify.big_Q, freealg.NcPoly.__mul__) == before


# -- metric names and units -----------------------------------------------------

def test_every_declared_workload_is_implemented():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_layer_metrics_cover_every_layer_name():
    values = layertrace.layer_metrics(layertrace.Tracer(), layertrace.Tracer())
    per_layer = run.declared_metrics()[1]
    assert set(values) | {"trace.overhead_s", "trace.qfield_overhead_s"} == set(per_layer)


def test_stream_run_reports_every_metric_with_unit():
    detail, result = run.run(run.STREAM, seed=2, seconds=0.0, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.declared_metrics()[0]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["failed_share"] == {"value": 0.0, "unit": "share"}
    assert detail["fingerprint"] == detail["expected_fingerprint"]
    assert set(detail["machine"]) == {"nproc", "python", "loadavg_start", "loadavg_end"}


# -- the verdict gate -----------------------------------------------------------

def _structured(workload, flip=None):
    lines = []
    for suite, params in json.load(open(BENCH / "expected" / ("%s.json" % workload))):
        rec = {"suite": suite, "params": params, "pass": True, "millis": 1.0}
        if flip is not None and [suite, params] == flip:
            rec["pass"] = False
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def test_cli_gate_counts_each_wrong_or_missing_verdict():
    want = run.expected_keys("verify-r3")
    good = _structured("verify-r3")
    attempted, failed, fp, _ = run.check_cli_output(good, 0, want)
    assert (attempted, failed) == (96, 0)
    assert fp == run.expected_fingerprint("verify-r3")

    flip = json.load(open(BENCH / "expected" / "verify-r3.json"))[5]
    assert run.check_cli_output(_structured("verify-r3", flip), 0, want)[:2] == (96, 1)
    missing = "\n".join(good.splitlines()[1:])
    assert run.check_cli_output(missing, 0, want)[:2] == (96, 1)
    extra = good + json.dumps({"suite": "qq", "params": {}, "pass": True}) + "\n"
    assert run.check_cli_output(extra, 0, want)[:2] == (97, 1)
    assert run.check_cli_output(good, 1, want)[:2] == (96, 96)


def test_forced_wrong_verdict_counts_in_failed_share(monkeypatch):
    flip = json.load(open(BENCH / "expected" / "verify-r3.json"))[0]
    bad = _structured("verify-r3", flip)

    def fake_spawn(args):
        return 0.5, 0.5, 20.0, 0, ("" if args[0] == "-c" else bad)

    monkeypatch.setattr(run, "spawn", fake_spawn)
    detail, result = run.run("verify-r3", seed=1, seconds=0.0, trace=0)
    iterations = detail["iterations"]
    assert iterations == run.MIN_ITERATIONS
    assert result["attempted"] == 96 * iterations
    assert result["failed"] == iterations
    assert not result["correct"]
    assert detail["failed_share"]["value"] == pytest.approx(1 / 96)


def test_stream_gate_counts_wrong_verdicts(monkeypatch):
    monkeypatch.setattr(stream, "verdict_of", lambda report: "member")
    small = stream.make_batch
    monkeypatch.setattr(stream, "make_batch", lambda seed, index: small(seed, index, 20))
    metrics, attempted, failed, detail = child.stream_client(seed=4, seconds=0.0)
    assert attempted == 20 * (1 + run.MIN_ITERATIONS)
    assert failed == attempted // 2
    assert detail["fingerprint"] != detail["expected_fingerprint"]


def test_unknown_workload_missing_spec_or_package_print_nothing(tmp_path, monkeypatch, capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 1
    monkeypatch.setattr(run, "ROOT", tmp_path)     # no BENCHMARK.json there
    assert run.main(["--workload", "verify-r3", "--seed", "1", "--seconds", "1"]) == 1
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "verify-r3", "--seed", "1", "--seconds", "1"]) == 1
    assert capsys.readouterr().out == ""


def test_iterations_stop_when_the_next_would_overrun():
    start = run.time.perf_counter()
    assert run.another_fits([], start, 0.0)
    assert run.another_fits([5.0, 5.0], start, 0.0)          # below the minimum
    assert not run.another_fits([5.0, 5.0, 5.0], start, 4.0)
    assert run.another_fits([5.0, 5.0, 5.0], start, 60.0)
    assert not run.another_fits([5.0], start, 1.0, minimum=1)
