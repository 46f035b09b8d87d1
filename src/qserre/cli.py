"""Command-line front end: expression normal forms, suite runner, reports.

Exit codes: 0 when every requested check passes, 1 when at least one
identity fails, 2 for usage or configuration errors (any ValueError,
such as a bad rank, an empty grid, an unwritable --dump-rules path or
a parse error), 3 when rewriting and the oracle disagree: an engine bug,
and 141 (128 + SIGPIPE) when stdout closes early, as under `| head -1`,
with nothing on stderr.  Rule sets come only from completing the
defining relations, and every command takes a Decider's rules, which
the normal-word count certifies in every degree; a verify run that
never rewrites completes nothing.  Output is deterministic for a fixed
configuration; structured mode emits one JSON record per check (the
millis field is wall time and is the one field that varies between runs).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from qserre.exprparse import _TOKEN, parse_expression
from qserre.rewrite import dump_rules, normal_word_counts
from qserre.series import check_ayb_formal, check_ratio_identity
from qserre.verify import (
    ChiEVerifier, MethodDisagreement, VerificationReport, Verifier,
)

# per suite, in run order: the lowest rank it runs at and the window
# flags it reads
WINDOWS = ("--lambda-max", "--lambda", "--mu", "--nu")
SUITES = {"telescoping": (1, WINDOWS), "lemma": (2, WINDOWS[:3]),
          "central": (2, ()), "ayb": (2, WINDOWS), "far": (3, WINDOWS[:3]),
          "qq": (1, WINDOWS), "chie": (2, ()), "ratio": (1, ()),
          "ayb-formal": (2, ())}
LAMBDA_MAX = 3  # the grid's top window without --lambda or --lambda-max
# these never rewrite with the x rules, so --dump-rules names nothing
SUITES_WITHOUT_X_RULES = ("telescoping", "ratio", "chie")

RATIO_WINDOWS = ((0, 1), (0, 2), (1, 3))


def shared_parser():
    """The flags every command takes; README's "Shared flags" lists them."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--rank", type=int, default=2)
    shared.add_argument("--dump-rules", metavar="FILE",
                        help="write the rule set used to FILE")
    return shared


def build_parser():
    shared = shared_parser()
    parser = argparse.ArgumentParser(
        prog="qserre",
        description="exact verification of commuting Q-operator families "
                    "in q-Serre algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    nf = sub.add_parser("normal-form", parents=[shared],
                        help="canonical form of an expression modulo the ideal")
    nf.add_argument("expr")

    vf = sub.add_parser("verify", parents=[shared],
                        help="run an identity suite over its parameter grid")
    vf.add_argument("suite", choices=list(SUITES) + ["all"])
    vf.add_argument("--mode", choices=("rewrite", "oracle", "both"),
                    default="both")
    vf.add_argument("--lambda", dest="lam", type=int, default=None)
    vf.add_argument("--mu", type=int, default=None)
    vf.add_argument("--nu", type=int, default=None)
    vf.add_argument("--lambda-max", type=int, default=None)

    hb = sub.add_parser("hilbert", parents=[shared],
                        help="normal-word counts per degree")
    hb.add_argument("--max-degree", type=int, default=8)

    for p in (vf, hb):
        p.add_argument("--output", choices=("text", "structured"),
                       default="text")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"normal-form": cmd_normal_form, "verify": cmd_verify,
               "hilbert": cmd_hilbert}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # and at exit, flush to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except MethodDisagreement as err:
        print("error: engine bug: %s" % err, file=sys.stderr)
        return 3
    except ValueError as err:
        # bad ranks, windows and grids; unwritable dumps; parse errors
        print("error: %s" % err, file=sys.stderr)
        return 2


def _dump_rules(args, rules):
    """Write rules to the --dump-rules file, if one is named."""
    if args.dump_rules:
        try:
            with open(args.dump_rules, "w") as fh:
                fh.write(dump_rules(rules))
        except OSError as err:
            raise ValueError("cannot write rules to %s: %s"
                             % (args.dump_rules, err)) from None


def cmd_normal_form(args) -> int:
    # the parser's own tokens, so "3e1" and "chi1e1" name chi-e letters too
    uses_chi_e = any(re.fullmatch(r"(chi|e)\d+", m.group())
                     for m in _TOKEN.finditer(args.expr))
    verifier = (ChiEVerifier if uses_chi_e else Verifier)(args.rank)
    poly = parse_expression(args.expr, verifier.alphabet, args.rank)
    rules = verifier.rules
    _dump_rules(args, rules)
    print(rules.reduce(poly))
    print("# certified: canonical in every degree, by the normal-word count "
          "at degree %d" % rules.certified_degree)
    return 0


def cmd_hilbert(args) -> int:
    if args.max_degree < 0:
        raise ValueError("--max-degree %d is negative" % args.max_degree)
    rules = Verifier(args.rank).rules
    _dump_rules(args, rules)
    counts = normal_word_counts(rules, args.max_degree)
    if args.output == "structured":
        for d, c in enumerate(counts):
            print(json.dumps({"degree": d, "normal_words": c}))
    else:
        print("degree  normal words (rank %d)" % args.rank)
        for d, c in enumerate(counts):
            print("%6d  %d" % (d, c))
    return 0


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

QQ_WINDOWS = {
    2: ((2, 1, 0), (3, 1, 0), (3, 2, 0), (3, 2, 1)),
    3: ((2, 1, 0),),
}


def qq_windows(rank: int, lambda_max: int):
    """Q-commutativity grid: the pinned windows that fit under lambda_max."""
    return tuple(w for w in QQ_WINDOWS.get(rank, ((2, 1, 0),))
                 if w[0] <= lambda_max)


def descending_triples(top: int):
    return [(lam, mu, nu)
            for lam in range(top + 1)
            for mu in range(lam + 1)
            for nu in range(mu + 1)]


def resolve_windows(args, suites) -> dict:
    """Each requested suite's grid, the one reader of the window flags.

    Triples (lam, mu, nu) for telescoping and ayb, pairs (mu, lam) for
    lemma and far, and qq's windows; the other suites have no grid.
    --lambda gives one window, with mu = nu = 0 except qq's mu = 1.
    Otherwise each grid runs up to --lambda-max, or LAMBDA_MAX.  A flag
    that no requested suite reads, or an empty grid, is a usage error.
    """
    read = {flag for s in suites for flag in SUITES[s][1]}
    for flag, value in zip(WINDOWS, (args.lambda_max, args.lam, args.mu, args.nu)):
        if value is not None and flag not in read:
            raise ValueError("no requested suite reads %s" % flag)
    lam, mu, nu = args.lam, args.mu, args.nu
    if lam is None:
        if (mu, nu) != (None, None):
            raise ValueError("--mu and --nu need --lambda")
        top = LAMBDA_MAX if args.lambda_max is None else args.lambda_max
        triples = descending_triples(top)
        pairs = [(m, k) for k in range(top + 1) for m in range(k)]
        qq = qq_windows(args.rank, top)
    else:
        if args.lambda_max is not None:
            raise ValueError("--lambda-max is not read when --lambda is given")
        low, nu = mu or 0, nu or 0
        qq = (lam, 1 if mu is None else mu, nu)
        # a single window whose products are empty or equal would pass vacuously
        if low == lam and {"lemma", "far"} & set(suites):
            raise ValueError("window mu = lam = %d has empty products" % lam)
        if "qq" in suites and len(set(qq)) < 3:
            raise ValueError("qq window %s has an empty or a repeated product" % (qq,))
        triples, pairs, qq = [(lam, low, nu)], [(low, lam)], [qq]
    grids = {"telescoping": triples, "lemma": pairs, "ayb": triples,
             "far": pairs, "qq": qq}
    for s in suites:
        if s in grids and not grids[s]:
            raise ValueError("suite %r has no check on the requested grid" % s)
    return grids


def _suite_reports(suite: str, grids: dict, v: Verifier):
    """Run one suite's checks over its grid, one after another."""
    rank, grid = v.rank, grids.get(suite)
    adjacent = range(1, rank)  # n of each adjacent pair (x_n, x_{n+1})
    if suite == "telescoping":
        for gen in v.alphabet.letters:
            for lam, mu, nu in grid:
                yield v.check_telescoping(gen, lam, mu, nu)
            for lam in sorted({w[0] for w in grid}):
                for mu in range(lam + 1):
                    yield v.check_factor_commutation(gen, lam, mu)
    elif suite == "lemma":
        for n in adjacent:
            for mu, lam in grid:
                for ordering in ("x1_first", "x2_first"):
                    yield v.check_lemma(mu, lam, ordering, n)
    elif suite == "central":
        for n in adjacent:
            yield v.check_central_c(n=n)
    elif suite == "ayb":
        for n in adjacent:
            for lam, mu, nu in grid:
                yield v.check_ayb(n, lam, mu, nu)
    elif suite == "far":
        for m in range(3, rank + 1):
            for n in range(1, m - 1):
                for mu, lam in grid:
                    yield v.check_far_commutation(m, n, lam, mu)
    elif suite == "qq":
        for lam, mu, nu in grid:
            yield v.check_qq(lam, mu, nu)
    elif suite == "chie":
        yield from ChiEVerifier(rank, v.mode).family_reports()
    elif suite == "ratio":
        yield from check_ratio_identity(RATIO_WINDOWS)
    else:  # ayb-formal
        yield from check_ayb_formal(v)


def cmd_verify(args) -> int:
    if args.suite == "all":
        suites = [s for s, (low, _) in SUITES.items() if args.rank >= low]
        if not suites:
            raise ValueError("no suite runs at rank %d" % args.rank)
    else:
        suites = [args.suite]
        low = SUITES[args.suite][0]
        if args.rank < low:
            raise ValueError("suite %r needs rank >= %d" % (args.suite, low))
    grids = resolve_windows(args, suites)
    if args.dump_rules and all(s in SUITES_WITHOUT_X_RULES for s in suites):
        raise ValueError("--dump-rules names the x rule set, which no "
                         "requested suite uses")
    verifier = Verifier(args.rank, args.mode)
    if args.dump_rules:  # the certified set does not depend on the checks
        _dump_rules(args, verifier.rules)

    reports = [r for s in suites for r in _suite_reports(s, grids, verifier)]
    reports.sort(key=VerificationReport.sort_key)

    failed = [r for r in reports if not r.passed]
    if args.output == "structured":
        for r in reports:
            print(json.dumps({
                "suite": r.identity,
                "params": dict(r.params),
                "pass": r.passed,
                "residual_terms": r.residual_terms,
                "method": "+".join(r.methods),
                "millis": round(r.millis, 3),
            }, sort_keys=True))
    else:
        for r in reports:
            print(r)
        print("summary: %d checks, %d failed" % (len(reports), len(failed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
