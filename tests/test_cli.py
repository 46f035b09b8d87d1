import json
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from qserre.cli import main, shared_parser
from qserre.exprparse import ParseError, parse_expression
from qserre.freealg import (
    NcPoly, SpectralWindow, big_Q, c_element, k_element, qproduct, x_alphabet,
)
from qserre.qfield import ONE, Q, QRat
from qserre.rewrite import complete, dump_rules

A2 = x_alphabet(2)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def completions(monkeypatch):
    """Every rule set a verifier completed, in order."""
    import qserre.verify
    done = []

    def spy(rules, degree):
        done.append(complete(rules, degree))
        return done[-1]
    monkeypatch.setattr(qserre.verify, "complete", spy)
    return done


# -- documentation -------------------------------------------------------------

def test_readme_names_exactly_the_shared_flags():
    # README's "Shared flags" sentence lists every flag of the shared
    # parser and, beside verify's window flags, nothing else
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.search(r"Shared flags:(.*?)\.\s", readme, re.S).group(1)
    named = set(re.findall(r"--[a-z-]+", sentence))
    shared = {opt for action in shared_parser()._actions
              for opt in action.option_strings}
    assert shared <= named
    assert named - shared == {"--lambda", "--mu", "--nu", "--lambda-max"}


# -- startup -------------------------------------------------------------------

def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: 10-13 ms of
    # startup; fractions and decimal about 2.8 ms more
    src = str(pathlib.Path(__file__).parents[1] / "src")
    probe = ("import sys; sys.path.insert(0, %r); import qserre.cli; "
             "print([m for m in ('dataclasses', 'fractions', 'decimal') "
             "if m in sys.modules])" % src)
    got = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, check=True)
    assert got.stdout == "[]\n"


# -- expression parsing -------------------------------------------------------

def test_parse_word_product():
    p = parse_expression("x2*x1*x1", A2)
    assert p == NcPoly.monomial(A2, (1, 0, 0))


def test_parse_juxtaposition_is_multiplication():
    assert parse_expression("x1 x2 x1", A2) == NcPoly.monomial(A2, (0, 1, 0))


def test_parse_forms():
    assert parse_expression("P(x1; 1, 1)", A2) == NcPoly.unit(A2)
    assert parse_expression("P(x1; 0, 2)", A2) == \
        qproduct(A2, "x1", SpectralWindow(2, 0))
    assert parse_expression("K()", A2) == k_element(A2)
    assert parse_expression("C() - q*K()", A2) == \
        c_element(A2) - k_element(A2).scale(Q)
    assert parse_expression("Q(2)", A2, 2) == big_Q(A2, 2, SpectralWindow(2, 0))
    assert parse_expression("Q(2, 1)", A2, 2) == \
        big_Q(A2, 2, SpectralWindow(2, 1))


def test_parse_scalars_and_powers():
    p = parse_expression("(1+q)/q * x1^2", A2)
    x1 = NcPoly.generator(A2, "x1")
    assert p == (x1 * x1).scale((ONE + Q) / Q)
    assert parse_expression("q^0", A2) == NcPoly.unit(A2)
    assert parse_expression("s^2", A2) == NcPoly.unit(A2, Q)
    assert parse_expression("2^3", A2) == NcPoly.unit(A2, QRat(8))


def test_parse_errors_carry_positions():
    for text in ("x1 +", "x9", "P(x1; 2, 1, 3)", "q^-1", "1/x1", "(x1", "x1 ? x2"):
        with pytest.raises(ParseError) as err:
            parse_expression(text, A2)
        assert "position" in str(err.value)


def test_parse_window_violation():
    with pytest.raises(ParseError):
        parse_expression("P(x1; 3, 1)", A2)


def test_roundtrip_canonical_rendering():
    rng = random.Random(9)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            w = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
            num = tuple(rng.randint(-3, 3) for _ in range(rng.randrange(1, 3)))
            den = (rng.randint(1, 2), rng.randint(0, 2))
            if not any(num) or not any(den):
                continue
            terms[w] = QRat(num, den)
        p = NcPoly(A2, terms)
        assert parse_expression(str(p), A2) == p
        assert "(-" not in str(p)


# rendered texts: terms in descending deg-lex order, and the sign of each
# coefficient pulled out, so that no coefficient is shown as "(-..."
CANONICAL_TEXTS = (
    "((1+q)/q)*x1 x2 x1 - (1/q)*x1 x1 x2", "x1 x2", "1", "0", "-x2 + x1",
    "(1/(1-q))*x1", "(1-q)*x1", "-(1-q)*x1",
    "-(1/(1-q))*x2 x1 + (1/(1-q))*x1 x2",
    "-(1/(1+q))*x2 + (q/(1-q^2))*x1",
)


def test_roundtrip_spec_outputs():
    for text in CANONICAL_TEXTS + ("(1/(1-q))*x1 x2 - (1/(1-q))*x2 x1",
                                   "(q/(1-q^2))*x1 - (1/(1+q))*x2"):
        p = parse_expression(text, A2)
        assert parse_expression(str(p), A2) == p
    for text in CANONICAL_TEXTS:
        assert str(parse_expression(text, A2)) == text


# -- normal-form command ------------------------------------------------------

def test_cmd_normal_form_serre(capsys):
    code, out, _ = run(capsys, "normal-form", "x2*x1*x1")
    assert code == 0
    assert out.splitlines()[0] == "((1+q)/q)*x1 x2 x1 - (1/q)*x1 x1 x2"
    assert "certified" in out.splitlines()[1]


def test_cmd_normal_form_shows_one_sign(capsys):
    code, out, _ = run(capsys, "normal-form", "(1/(1-q))*x1")
    assert code == 0 and out.splitlines()[0] == "(1/(1-q))*x1"
    code, out, _ = run(capsys, "normal-form", "x1 x2/(q-1)")
    assert code == 0 and out.splitlines()[0] == "-(1/(1-q))*x1 x2"


def test_cmd_normal_form_trivial_product(capsys):
    code, out, _ = run(capsys, "normal-form", "P(x1; 1, 1)")
    assert code == 0 and out.splitlines()[0] == "1"


def test_cmd_normal_form_k_c(capsys):
    code, out, _ = run(capsys, "normal-form", "C() - q*K()")
    assert code == 0 and out.splitlines()[0] == "x1 x2"


def test_cmd_normal_form_chi_e(capsys):
    code, out, _ = run(capsys, "normal-form", "e1 chi1")
    assert code == 0 and out.splitlines()[0] == "chi1 e1"
    # the alphabet follows the parser's tokens, which need no space
    for text, nf in (("3e1", "3*e1"), ("e1e2", "e1 e2"), ("chi1e1", "chi1 e1"),
                     ("3x2x1x1", "((3+3*q)/q)*x1 x2 x1 - (3/q)*x1 x1 x2")):
        code, out, _ = run(capsys, "normal-form", text)
        assert code == 0 and out.splitlines()[0] == nf, text


def test_cmd_normal_form_completes_to_the_input_degree(capsys):
    code, out, _ = run(capsys, "normal-form", "x2*x1^9")
    assert code == 0
    assert out.splitlines()[1] == "# certified: canonical up to degree 10"


def test_cmd_normal_form_parse_error(capsys):
    _one_error_line(*run(capsys, "normal-form", "x1 +"), 2, "(at position 4)")


# -- verify command -----------------------------------------------------------

def test_verify_lemma_instance(capsys):
    code, out, _ = run(capsys, "verify", "lemma", "--mu", "0", "--lambda", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("lemma")]
    assert len(lines) == 2  # both orderings
    assert all("pass" in l for l in lines)


def test_verify_invalid_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("normal-form", "x2*x1", "--mode", "oracle"),
    ("normal-form", "x2*x1", "--output", "structured"),
    ("hilbert", "--mode", "rewrite"),
])
def test_flags_a_command_would_ignore_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_verify_far_needs_rank3(capsys):
    code, _, err = run(capsys, "verify", "far", "--rank", "2")
    assert code == 2


def test_verify_structured_records(capsys):
    code, out, _ = run(capsys, "verify", "central", "--output", "structured")
    assert code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        assert set(rec) == {"suite", "params", "pass", "residual_terms",
                            "method", "millis"}
        assert rec["pass"] is True
        assert rec["residual_terms"] == 0


def test_verify_deterministic_modulo_millis(capsys):
    def normalized():
        code, out, _ = run(capsys, "verify", "ayb", "--output", "structured",
                           "--lambda-max", "2")
        assert code == 0
        return re.sub(r'"millis": [0-9.]+', '"millis": 0', out)
    assert normalized() == normalized()


def test_verify_ratio_suite(capsys):
    code, out, _ = run(capsys, "verify", "ratio")
    assert code == 0
    assert out.count("pass") == 3


def test_verify_qq_respects_lambda_max(capsys):
    code, out, _ = run(capsys, "verify", "qq", "--rank", "2",
                       "--lambda-max", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("qq")]
    assert len(lines) == 1 and "lam=2" in lines[0]


def test_verify_ayb_formal_suite(capsys):
    code, out, _ = run(capsys, "verify", "ayb-formal")
    assert code == 0
    assert "ayb-formal" in out


def test_verify_ayb_formal_draws_no_random_point(capsys, monkeypatch):
    from qserre import oracle
    real = oracle.random_points

    def boom(*args):
        raise AssertionError("a random point was drawn")

    # every module that bound the function by name
    for name, mod in list(sys.modules.items()):
        if name.startswith("qserre") and getattr(mod, "random_points", None) is real:
            monkeypatch.setattr(mod, "random_points", boom)
    code, out, _ = run(capsys, "verify", "ayb-formal", "--rank", "3")
    assert code == 0 and "summary: 2 checks, 0 failed" in out


@pytest.mark.parametrize("mode", ["oracle", "rewrite"])
def test_verify_ayb_formal_follows_the_mode(capsys, mode):
    code, out, _ = run(capsys, "verify", "ayb-formal", "--mode", mode,
                       "--output", "structured")
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and recs
    assert all(r["method"] == mode and r["pass"] for r in recs)


def test_verify_telescoping_text_mode(capsys):
    code, out, _ = run(capsys, "verify", "telescoping", "--lambda-max", "2")
    assert code == 0
    assert "summary:" in out and " 0 failed" in out


def test_verify_telescoping_one_window_runs_only_its_factor_orders(capsys):
    code, out, _ = run(capsys, "verify", "telescoping", "--lambda", "1",
                       "--output", "structured")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    factor = [r["params"] for r in recs if r["suite"] == "factor-order"]
    # gens x1, x2 at lam = 1, mu in 0..1; the default grid plays no part
    assert sorted((p["gen"], p["lam"], p["mu"]) for p in factor) == [
        ("x1", 1, 0), ("x1", 1, 1), ("x2", 1, 0), ("x2", 1, 1)]
    assert sum(r["suite"] == "telescoping" for r in recs) == 2


def _records(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--output", "structured")
    assert code == 0
    return [json.loads(line) for line in out.splitlines()]


def test_pair_indexed_suites_visit_every_adjacent_pair(capsys):
    # at rank 4 the adjacent pairs are (x1, x2), (x2, x3) and (x3, x4)
    recs = _records(capsys, "verify", "all", "--rank", "4", "--mode", "rewrite")
    for suite in ("lemma", "central", "ayb", "ayb-formal"):
        assert {r["params"]["n"] for r in recs if r["suite"] == suite} == {1, 2, 3}, suite


def test_rank_4_both_routes_agree_with_rewriting_alone(capsys):
    # the oracle reads each block at its normal words only, which makes
    # rank 4 cheap enough to decide by both routes here
    both = _records(capsys, "verify", "all", "--rank", "4")
    alone = _records(capsys, "verify", "all", "--rank", "4", "--mode", "rewrite")
    assert len(both) == 253 and all(r["pass"] for r in both)
    assert any(r["method"] == "rewrite+oracle" for r in both)

    def verdicts(records):
        return [{k: v for k, v in r.items() if k not in ("method", "millis")}
                for r in records]
    assert verdicts(both) == verdicts(alone)


def _counted(monkeypatch, module, name):
    """The argument tuples of every call to module.name from now on."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)
    return calls


def test_ayb_formal_builds_its_sides_once_for_every_pair(capsys, monkeypatch):
    from qserre import series
    built = _counted(monkeypatch, series, "formal_ayb_sides")
    recs = _records(capsys, "verify", "ayb-formal", "--rank", "4")
    assert [r["params"]["n"] for r in recs] == [1, 2, 3]
    assert all(r["pass"] for r in recs)
    assert len(built) == 1


def test_ratio_builds_its_series_once_for_every_window(capsys, monkeypatch):
    from qserre import series
    built = _counted(monkeypatch, series, "ratio_series")
    recs = _records(capsys, "verify", "ratio")
    assert len(recs) == 3 and all(r["pass"] for r in recs)
    assert len(built) == 1


def test_verify_ayb_formal_rank_5(capsys):
    recs = _records(capsys, "verify", "ayb-formal", "--rank", "5")
    assert [r["params"]["n"] for r in recs] == [1, 2, 3, 4]
    assert all(r["pass"] for r in recs)


def test_each_series_suite_calls_its_check_once_through_cli(capsys, monkeypatch):
    # the benchmark's layer trace wraps these two names for its series spans
    import qserre.cli
    formal = _counted(monkeypatch, qserre.cli, "check_ayb_formal")
    ratio = _counted(monkeypatch, qserre.cli, "check_ratio_identity")
    recs = _records(capsys, "verify", "all", "--rank", "3", "--lambda-max", "2")
    assert len(formal) == len(ratio) == 1
    assert sum(r["suite"] == "ayb-formal" for r in recs) == 2
    assert sum(r["suite"] == "ratio" for r in recs) == 3


def test_one_window_defaults(capsys):
    # --lambda alone: mu = nu = 0, except qq's mu = 1
    recs = _records(capsys, "verify", "all", "--rank", "3", "--lambda", "2")
    triples = {}
    for r in recs:
        p = r["params"]
        if {"lam", "mu", "nu"} <= set(p):
            triples.setdefault(r["suite"], set()).add((p["lam"], p["mu"], p["nu"]))
    assert triples == {"ayb": {(2, 0, 0)}, "telescoping": {(2, 0, 0)},
                       "qq": {(2, 1, 0)}}
    # --mu sets the pair suites' (mu, lam)
    recs = _records(capsys, "verify", "all", "--rank", "3", "--lambda", "2",
                    "--mu", "1")
    for suite in ("lemma", "far"):
        assert {(r["params"]["mu"], r["params"]["lam"])
                for r in recs if r["suite"] == suite} == {(1, 2)}, suite


# -- hilbert command ----------------------------------------------------------

def test_hilbert_rank2(capsys):
    code, out, _ = run(capsys, "hilbert", "--rank", "2")
    got = [int(l.split()[1]) for l in out.splitlines()[1:]]
    assert code == 0
    assert got == [1, 2, 4, 6, 9, 12, 16, 20, 25]


def test_hilbert_rank1(capsys):
    code, out, _ = run(capsys, "hilbert", "--rank", "1", "--max-degree", "5")
    got = [int(l.split()[1]) for l in out.splitlines()[1:]]
    assert code == 0 and got == [1] * 6


def test_hilbert_rank3_structured(capsys):
    code, out, _ = run(capsys, "hilbert", "--rank", "3", "--max-degree", "3",
                       "--output", "structured")
    recs = [json.loads(l) for l in out.splitlines()]
    assert code == 0
    assert [r["normal_words"] for r in recs] == [1, 3, 8, 17]


# -- golden output: verdicts pinned against an earlier run ---------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_verify_all_rank2_matches_golden(capsys):
    # recorded once from `verify all --rank 2 --output structured` with
    # millis set to 0; any verdict, method or residual change shows here
    code, out, _ = run(capsys, "verify", "all", "--rank", "2",
                       "--output", "structured")
    assert code == 0
    got = []
    for line in out.splitlines():
        rec = json.loads(line)
        rec["millis"] = 0
        got.append(json.dumps(rec, sort_keys=True))
    want = (GOLDEN / "verify_all_rank2.jsonl").read_text().splitlines()
    assert got == want


DUMP = "<dump>"  # stands for a fresh --dump-rules path; its bytes are compared


@pytest.mark.parametrize("argv, golden", [
    (("hilbert", "--rank", "3", "--max-degree", "8", "--output", "structured"),
     "hilbert_rank3_structured.jsonl"),
    (("normal-form", "x3*x2*x2*x1 - x1*x2*x3*x2", "--rank", "3"),
     "normal_form_x_rank3.txt"),
    (("normal-form", "e2*chi2*e1*chi1 + s*chi2*e1", "--rank", "2"),
     "normal_form_chi_e_rank2.txt"),
    (("verify", "chie", "--rank", "2", "--output", "structured"),
     "verify_chie_rank2.jsonl"),
    (("hilbert", "--rank", "3", "--dump-rules", DUMP), "rules_hilbert_rank3.txt"),
    (("verify", "central", "--dump-rules", DUMP), "rules_verify_central.txt"),
    (("normal-form", "e1 chi1", "--dump-rules", DUMP),
     "rules_normal_form_chi_e.txt"),
    # recorded before the gcd work in Q(s) sums and echelon rows was cut
    (("verify", "all", "--rank", "3", "--lambda-max", "2", "--output",
      "structured"), "verify_all_rank3_lam2.jsonl"),
])
def test_output_matches_golden(tmp_path, capsys, argv, golden):
    # recorded before the rule-set path was unified, with millis set to 0:
    # stdout, or the bytes of the dumped rule file
    dump = tmp_path / "rules.txt"
    code, out, _ = run(capsys, *(str(dump) if a == DUMP else a for a in argv))
    assert code == 0
    want = (GOLDEN / golden).read_text()
    if DUMP in argv:
        assert dump.read_text() == want
    else:
        assert re.sub(r'"millis": [0-9.]+', '"millis": 0', out) == want


# -- bad input: one error line and a documented exit code ------------------------

def _one_error_line(code, out, err, want_code, phrase):
    assert code == want_code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert phrase in err


def _case(n, argv, phrase):
    # each case keeps the number it was given, so deleting one renames no other
    return pytest.param(argv, phrase, id=f"argv{n}-{phrase}")


@pytest.mark.parametrize("argv, phrase", [
    _case(1, ("verify", "far", "--rank", "2"), "suite 'far' needs rank >= 3"),
    _case(2, ("verify", "ayb", "--lambda", "1", "--mu", "2"),
          "need lam >= mu >= nu, got (1, 2, 0)"),
    _case(3, ("verify", "all", "--rank", "0"), "no suite runs at rank 0"),
    _case(4, ("hilbert", "--rank", "0"), "needs rank >= 1"),
    _case(5, ("verify", "qq", "--lambda", "1", "--mu", "2", "--nu", "3"),
          "need lam, mu >= nu"),
    # a grid with no check is not a pass
    _case(6, ("verify", "lemma", "--lambda-max", "0"), "suite 'lemma' has no check"),
    _case(7, ("verify", "ayb", "--lambda-max", "-1"), "suite 'ayb' has no check"),
    _case(8, ("verify", "qq", "--lambda-max", "-1"), "suite 'qq' has no check"),
    _case(9, ("verify", "all", "--lambda-max", "0"), "suite 'lemma' has no check"),
    _case(10, ("hilbert", "--max-degree", "-1"), "--max-degree -1 is negative"),
    # a window flag that no requested suite would read
    _case(11, ("verify", "central", "--rank", "2", "--lambda", "7"),
          "no requested suite reads --lambda"),
    _case(12, ("verify", "chie", "--lambda", "1"), "no requested suite reads --lambda"),
    _case(13, ("verify", "ratio", "--nu", "4"), "no requested suite reads --nu"),
    _case(14, ("verify", "ayb-formal", "--rank", "2", "--mu", "3"),
          "no requested suite reads --mu"),
    _case(15, ("verify", "lemma", "--nu", "2"), "no requested suite reads --nu"),
    _case(16, ("verify", "far", "--rank", "3", "--nu", "1"),
          "no requested suite reads --nu"),
    _case(17, ("verify", "ayb", "--mu", "1"), "--mu and --nu need --lambda"),
    _case(18, ("verify", "all", "--nu", "0"), "--mu and --nu need --lambda"),
    # --lambda-max where no grid is built from it
    _case(19, ("verify", "central", "--lambda-max", "7"),
          "no requested suite reads --lambda-max"),
    _case(20, ("verify", "ratio", "--lambda-max", "9"),
          "no requested suite reads --lambda-max"),
    _case(21, ("verify", "chie", "--lambda-max", "1"),
          "no requested suite reads --lambda-max"),
    _case(22, ("verify", "ayb-formal", "--lambda-max", "2"),
          "no requested suite reads --lambda-max"),
    _case(23, ("verify", "lemma", "--lambda", "2", "--lambda-max", "0"),
          "--lambda-max is not read when --lambda is given"),
    _case(24, ("verify", "all", "--lambda", "1", "--lambda-max", "3"),
          "--lambda-max is not read when --lambda is given"),
    # Q(...) over the chi-e alphabet
    _case(25, ("normal-form", "e1 + Q(2)"), "Q() needs the x generators"),
    _case(26, ("normal-form", "chi1 Q(2,1)"), "Q() needs the x generators"),
    # a single window that checks nothing: empty or equal products
    _case(27, ("verify", "lemma", "--lambda", "2", "--mu", "2"),
          "window mu = lam = 2 has empty products"),
    _case(28, ("verify", "far", "--rank", "3", "--lambda", "1", "--mu", "1"),
          "window mu = lam = 1 has empty products"),
    _case(29, ("verify", "qq", "--lambda", "0"),
          "qq window (0, 1, 0) has an empty or a repeated product"),
    _case(30, ("verify", "qq", "--lambda", "2", "--mu", "2"),
          "qq window (2, 2, 0) has an empty or a repeated product"),
    _case(31, ("verify", "qq", "--lambda", "2", "--mu", "1", "--nu", "1"),
          "qq window (2, 1, 1) has an empty or a repeated product"),
    _case(32, ("verify", "all", "--lambda", "1"),
          "qq window (1, 1, 0) has an empty or a repeated product"),
    # no pinned qq window fits under --lambda-max 1
    _case(33, ("verify", "qq", "--rank", "2", "--lambda-max", "1"),
          "suite 'qq' has no check"),
    _case(34, ("verify", "all", "--lambda-max", "1"), "suite 'qq' has no check"),
])
def test_bad_input_exits_2(capsys, argv, phrase):
    _one_error_line(*run(capsys, *argv), 2, phrase)


def test_an_empty_grid_exits_before_any_check_runs(capsys, monkeypatch):
    # every grid is resolved first, so the suites before qq run no check
    from qserre.verify import Verifier
    calls = []
    for name in [a for a in vars(Verifier) if a.startswith("check_")]:
        monkeypatch.setattr(Verifier, name,
                            lambda *a, name=name, **k: calls.append(name))
    got = run(capsys, "verify", "all", "--rank", "4", "--lambda-max", "1")
    _one_error_line(*got, 2, "suite 'qq' has no check on the requested grid")
    assert calls == []


@pytest.mark.parametrize("text", [
    "(x1+x2)^30", "(x1+x2)(x1+x2)(x1+x2)(x1+x2)(x1+x2)(x1+x2)(x1+x2)"
    "(x1+x2)(x1+x2)(x1+x2)(x1+x2)(x1+x2)(x1+x2)(x1+x2)", "x1^1000000000",
    "P(x1; 0, 1000000000)", "Q(1000000)", "Q(20) x1", "((q^32)^32)^32",
    "((x1^32)^32)^32",
    pytest.param("(" * 1000 + "x1" + ")" * 1000, id="1000 nested parentheses"),
])
def test_a_text_that_expands_past_a_cap_exits_2_at_once(capsys, text):
    # each would loop about 10^9 times, build 2^14 to 2^30 terms or
    # overflow the parser's stack
    t0 = time.perf_counter()
    got = run(capsys, "normal-form", text, "--rank", "4")
    assert time.perf_counter() - t0 < 1.0
    _one_error_line(*got, 2, "passes the cap of")


def test_oracle_mode_decides_all_of_rank_2(capsys, completions):
    # the oracle decides every slice, the degree-10 ayb ones included, and
    # no rule set is completed for a run that never rewrites
    code, out, err = run(capsys, "verify", "all", "--rank", "2", "--mode",
                         "oracle", "--output", "structured")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and err == "" and completions == []
    assert len(records) == 103 and all(r["pass"] for r in records)
    assert {r["method"] for r in records} == {"oracle", "expand", "series"}
    assert any(r["method"] == "oracle" and r["suite"] == "ayb"
               and r["params"]["lam"] == 3 for r in records)


def test_method_disagreement_exits_3(capsys, monkeypatch):
    from qserre.oracle import IdealOracle
    monkeypatch.setattr(IdealOracle, "slice_member", lambda self, s: False)
    _one_error_line(*run(capsys, "verify", "central"),
                    3, "rewrite and oracle disagree")


# -- rule sets: completed once, and only when a check rewrites -------------------

@pytest.mark.parametrize("suite", ["chie", "telescoping", "ratio"])
@pytest.mark.parametrize("flag", ["--dump-rules"])
def test_rule_flags_without_a_rewriting_suite_exit_2(tmp_path, capsys, suite, flag):
    path = tmp_path / "rules.txt"
    _one_error_line(*run(capsys, "verify", suite, flag, str(path)),
                    2, "no requested suite uses")
    assert not path.exists()


def test_unwritable_dump_path_exits_2(tmp_path, capsys):
    path = str(tmp_path / "no-such-dir" / "rules.txt")
    _one_error_line(*run(capsys, "hilbert", "--dump-rules", path),
                    2, "cannot write rules to")


def test_verify_completes_the_x_rules_once(capsys, completions):
    code, _, _ = run(capsys, "verify", "central")
    assert code == 0
    assert [rules.alphabet for rules in completions] == [A2]


def test_verify_dumps_the_rule_set_it_completed(tmp_path, capsys, completions):
    path = tmp_path / "rules.txt"
    code, _, _ = run(capsys, "verify", "central", "--dump-rules", str(path))
    assert code == 0 and len(completions) == 1
    assert path.read_text() == dump_rules(completions[0])

