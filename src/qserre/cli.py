"""Command-line front end: expression normal forms, suite runner, reports.

Exit codes: 0 when every requested check passes, 1 when at least one
identity fails, 2 for usage or configuration errors (any ValueError,
such as a bad rank, window or oracle cap), 3 when rewriting and the
oracle disagree, which is an engine bug.  Output is
deterministic for a fixed configuration and seed; structured mode emits
one JSON record per check (the millis field is wall time and is the one
field that varies between runs).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from qserre.exprparse import ParseError, parse_expression
from qserre.rewrite import base_rules, chi_e_rules, complete, dump_rules, load_rules, normal_word_counts
from qserre.series import check_ayb_formal, check_ratio_identity
from qserre.verify import (
    ChiEVerifier, MethodDisagreement, VerificationReport, Verifier,
    descending_triples, needed_completion_degree, qq_windows,
)

SUITES = ("telescoping", "lemma", "central", "ayb", "far", "qq", "chie",
          "ratio", "ayb-formal")

RATIO_WINDOWS = ((0, 1), (0, 2), (1, 3))
RATIO_CUTOFF = 6
FORMAL_CUTOFF = 4


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--rank", type=int, default=2)
    shared.add_argument("--completion-degree", type=int, default=None,
                        help="confluence certification bound; default is "
                             "the computed estimate, at least 8")
    shared.add_argument("--oracle-cap", type=int, default=8)
    shared.add_argument("--mode", choices=("rewrite", "oracle", "both"),
                        default="both")
    shared.add_argument("--precheck-points", type=int, default=2)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--output", choices=("text", "structured"),
                        default="text")
    shared.add_argument("--rules", metavar="FILE",
                        help="load a dumped rule set instead of completing")
    shared.add_argument("--dump-rules", metavar="FILE",
                        help="write the rule set used to FILE")

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
    vf.add_argument("suite", choices=SUITES + ("all",))
    vf.add_argument("--lambda", dest="lam", type=int, default=None)
    vf.add_argument("--mu", type=int, default=None)
    vf.add_argument("--nu", type=int, default=None)
    vf.add_argument("--lambda-max", type=int, default=3)

    hb = sub.add_parser("hilbert", parents=[shared],
                        help="normal-word counts per degree")
    hb.add_argument("--max-degree", type=int, default=8)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "normal-form":
            return cmd_normal_form(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_hilbert(args)
    except MethodDisagreement as err:
        print("error: engine bug: %s" % err, file=sys.stderr)
        return 3
    except ValueError as err:
        # bad ranks, windows, caps and rule files; ConfigError is one too
        print("error: %s" % err, file=sys.stderr)
        return 2


class ConfigError(ValueError):
    pass


def _read_rules(path):
    """Load a dumped rule set; an unreadable or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            return load_rules(fh.read())
    except (OSError, ValueError, KeyError) as err:
        raise ConfigError("cannot load rules from %s: %s" % (path, err)) from None


def _load_or_complete(args, want_chi_e=False):
    if args.rules:
        return _read_rules(args.rules)
    degree = args.completion_degree if args.completion_degree is not None else 8
    raw = chi_e_rules(args.rank) if want_chi_e else base_rules(args.rank)
    return complete(raw, degree)


def _maybe_dump(args, rules):
    if args.dump_rules:
        with open(args.dump_rules, "w") as fh:
            fh.write(dump_rules(rules))


def cmd_normal_form(args) -> int:
    uses_chi_e = bool(re.search(r"\b(chi|e)\d+\b", args.expr))
    rules = _load_or_complete(args, want_chi_e=uses_chi_e)
    rank = max(count for _, count in rules.alphabet.families)
    try:
        poly = parse_expression(args.expr, rules.alphabet, rank)
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    out = rules.reduce_flagged(poly)
    _maybe_dump(args, rules)
    print(out.poly)
    if out.certified:
        print("# certified: canonical up to degree %d" % rules.completed_degree)
    else:
        print("# warning: degree exceeds the certified bound %d; "
              "remainder is valid but may not be canonical"
              % rules.completed_degree)
    return 0


def cmd_hilbert(args) -> int:
    if args.completion_degree is not None and args.completion_degree < args.max_degree:
        raise ConfigError("completion degree %d is below the requested "
                          "table degree %d" % (args.completion_degree,
                                               args.max_degree))
    if args.rules:
        rules = _load_or_complete(args)
        if rules.completed_degree < args.max_degree:
            raise ConfigError("loaded rules certified only to degree %d"
                              % rules.completed_degree)
    else:
        degree = (args.completion_degree if args.completion_degree is not None
                  else max(8, args.max_degree))
        rules = complete(base_rules(args.rank), degree)
    counts = normal_word_counts(rules, args.max_degree)
    _maybe_dump(args, rules)
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

def _grid_triples(args):
    if args.lam is not None:
        lam = args.lam
        mu = args.mu if args.mu is not None else 0
        nu = args.nu if args.nu is not None else 0
        return [(lam, mu, nu)]
    return descending_triples(args.lambda_max)


def _grid_pairs(args):
    """(mu, lam) windows with mu < lam."""
    if args.lam is not None:
        return [(args.mu if args.mu is not None else 0, args.lam)]
    return [(mu, lam)
            for lam in range(args.lambda_max + 1) for mu in range(lam)]


def _min_rank(suite: str) -> int:
    if suite == "far":
        return 3
    if suite in ("lemma", "central", "ayb", "chie", "ayb-formal"):
        return 2
    return 1


def suite_jobs(suite: str, args, verifier: Verifier):
    """Closures producing reports, independent of each other."""
    rank = args.rank
    jobs = []
    if rank < _min_rank(suite):
        raise ConfigError("suite %r needs rank >= %d" % (suite, _min_rank(suite)))

    if suite == "telescoping":
        for gen in verifier.alphabet.letters:
            for lam, mu, nu in _grid_triples(args):
                jobs.append(lambda g=gen, a=lam, b=mu, c=nu:
                            verifier.check_telescoping(g, a, b, c))
            for lam in range(args.lambda_max + 1):
                for mu in range(lam + 1):
                    jobs.append(lambda g=gen, a=lam, b=mu:
                                verifier.check_factor_commutation(g, a, b))
    elif suite == "lemma":
        pairs = [1] + ([2] if rank >= 3 else [])
        for n in pairs:
            for mu, lam in _grid_pairs(args):
                for ordering in ("x1_first", "x2_first"):
                    jobs.append(lambda a=mu, b=lam, o=ordering, k=n:
                                verifier.check_lemma(a, b, o, k))
    elif suite == "central":
        for n in [1] + ([2] if rank >= 3 else []):
            jobs.append(lambda k=n: verifier.check_central_c(n=k))
    elif suite == "ayb":
        for n in range(1, rank):
            for lam, mu, nu in _grid_triples(args):
                jobs.append(lambda k=n, a=lam, b=mu, c=nu:
                            verifier.check_ayb(k, a, b, c))
    elif suite == "far":
        for m in range(3, rank + 1):
            for n in range(1, m - 1):
                for mu, lam in _grid_pairs(args):
                    jobs.append(lambda a=m, b=n, c=lam, d=mu:
                                verifier.check_far_commutation(a, b, c, d))
    elif suite == "qq":
        windows = ([(args.lam, args.mu if args.mu is not None else 1,
                     args.nu if args.nu is not None else 0)]
                   if args.lam is not None
                   else qq_windows(rank, args.lambda_max))
        for lam, mu, nu in windows:
            jobs.append(lambda a=lam, b=mu, c=nu: verifier.check_qq(a, b, c))
    elif suite == "chie":
        def chie_job():
            v = ChiEVerifier(rank, mode=args.mode, oracle_cap=args.oracle_cap,
                             precheck_points=args.precheck_points,
                             seed=args.seed)
            return v.family_reports()
        jobs.append(chie_job)
    elif suite == "ratio":
        for mu, lam in RATIO_WINDOWS:
            jobs.append(lambda a=mu, b=lam:
                        check_ratio_identity(a, b, RATIO_CUTOFF))
    elif suite == "ayb-formal":
        for n in range(1, rank):
            jobs.append(lambda k=n: check_ayb_formal(
                k, FORMAL_CUTOFF, rank=rank, rules=verifier.rules,
                specializations=3, seed=args.seed))
    else:
        raise ConfigError("unknown suite %r" % suite)
    return jobs


def _needed_for(suite, args) -> int:
    if suite == "qq" and args.lam is not None:
        mu = args.mu if args.mu is not None else 1
        return args.rank * (args.lam + mu)
    lambda_max = args.lam if args.lam is not None else args.lambda_max
    return needed_completion_degree(suite, args.rank, lambda_max)


def cmd_verify(args) -> int:
    if args.suite == "all":
        suites = [s for s in SUITES if args.rank >= _min_rank(s)]
    else:
        suites = [args.suite]
    if not suites:
        raise ConfigError("no suite runs at rank %d" % args.rank)
    needed = max(_needed_for(s, args) for s in suites)
    if args.completion_degree is not None:
        if args.completion_degree < needed:
            raise ConfigError(
                "completion degree %d is below the computed requirement %d "
                "for %s" % (args.completion_degree, needed,
                            ", ".join(suites)))
        completion = args.completion_degree
    else:
        completion = max(8, needed)

    loaded = None
    if args.rules:
        loaded = _read_rules(args.rules)
        if loaded.completed_degree < needed:
            raise ConfigError("loaded rules certified to degree %d, "
                              "but the requested checks need %d"
                              % (loaded.completed_degree, needed))

    verifier = Verifier(args.rank, completion_degree=completion,
                        oracle_cap=args.oracle_cap, mode=args.mode,
                        precheck_points=args.precheck_points,
                        seed=args.seed, rules=loaded)
    needs_rules = [s for s in suites
                   if s not in ("telescoping", "ratio", "chie")]
    if needs_rules:
        _maybe_dump(args, verifier.rules)

    jobs = []
    for s in suites:
        jobs.extend(suite_jobs(s, args, verifier))

    # one after another: the checks are pure Python, so threads only wait
    reports = []
    for job in jobs:
        result = job()
        if isinstance(result, VerificationReport):
            reports.append(result)
        else:
            reports.extend(result)
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
