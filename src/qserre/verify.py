"""The theorem suite: every claimed identity, checked at instance level.

Each check builds the two sides of an identity as free-algebra elements
and decides whether their difference lies in the defining ideal, by
rewriting to a canonical normal form and by the independent oracle,
which applies the quantum symmetrizer to every slice.  The two decision
paths must agree; a disagreement is an engine bug and raises instead of
reporting.

Decider is that decision core for any presentation.  Verifier holds the
x checks, and ChiEVerifier the x-relation families on y_n = chi_n e_n.

Telescoping and factor commutativity hold in the free algebra itself and
are checked by plain expansion, with no ideal involved.
"""

from __future__ import annotations

import time
from collections import namedtuple

from qserre.freealg import (
    NcPoly, SpectralWindow, ayb_sides, big_Q, c_element, chi_e_alphabet,
    chi_e_braiding, k_element, lemma_product, qproduct, serre_braiding,
    x_alphabet, x_relations,
)
from qserre.oracle import IdealOracle, randomized_precheck
from qserre.qfield import q_power
from qserre.rewrite import RuleSet, base_rules, chi_e_rules, complete


class MethodDisagreement(RuntimeError):
    """Rewriting and the oracle returned different verdicts."""


class VerificationReport(namedtuple(
        "VerificationReport",
        "identity params passed residual methods millis notes",
        defaults=((),))):
    """One check's verdict; params are ordered (name, value) pairs."""

    __slots__ = ()

    @property
    def residual_terms(self) -> int:
        return len(self.residual.terms)

    def sort_key(self):
        return (self.identity, tuple((k, repr(v)) for k, v in self.params))

    def __str__(self):
        ps = ", ".join("%s=%s" % kv for kv in self.params)
        status = "pass" if self.passed else "FAIL"
        return "%-16s %-28s %s  [%s]" % (
            self.identity, ps, status, "+".join(self.methods))


class Decider:
    """Membership in the defining ideal of one presentation at one rank.

    A subclass names the presentation: alphabet_for, braiding_for and
    raw_rules.  Completion and the oracle are built lazily on first use
    and keep memo tables that later decisions reuse, so one instance
    serves its checks one after another.  The rule set is completed to
    max(8, the largest degree reduced so far), so every rewriting
    verdict is canonical.
    """

    def __init__(self, rank: int, mode: str = "both"):
        if mode not in ("rewrite", "oracle", "both"):
            raise ValueError("mode must be rewrite, oracle or both")
        self.rank = rank
        self.alphabet = self.alphabet_for(rank)
        self.mode = mode
        self._rules = None
        self._oracle = None
        self._degree = 0  # the largest degree decided so far

    @property
    def rules(self) -> RuleSet:
        """The rules completed to max(8, the largest degree decided so far).

        A decider in oracle mode completes them only when asked here.
        """
        return self.rules_for(self._degree)

    def rules_for(self, degree: int) -> RuleSet:
        """The raw rules completed to at least max(8, degree).

        A larger degree than the set has completes that set further.  The
        truncated reduced basis of a homogeneous ideal is unique, so this
        equals a fresh completion to the larger degree.
        """
        degree = max(8, degree)
        if self._rules is None or degree > self._rules.completed_degree:
            given = self.raw_rules(self.rank) if self._rules is None else self._rules
            self._rules = complete(given, degree)
        return self._rules

    @property
    def oracle(self) -> IdealOracle:
        """The exact oracle: the quantum symmetrizer of the braiding."""
        if self._oracle is None:
            self._oracle = IdealOracle(self.alphabet, self.braiding_for)
        return self._oracle

    def decide(self, identity: str, params, diff: NcPoly, notes=()) -> VerificationReport:
        """Is diff in the ideal?  Runs the configured methods and compares.

        Rewriting reduces with rules completed to the degree of diff, so
        its verdict is canonical either way.  The oracle, the only one in
        the package, decides every slice with self.oracle.slice_member,
        which applies the quantum symmetrizer Phi and needs no
        elimination, so its verdict is always definite; the echelon the
        tests compare it against lives in tests/reference_echelon.py.
        Contradictory verdicts mean the engine is broken and raise.

        The randomized precheck, which can only reject, runs before the
        oracle unless rewriting has already proved membership: it is the
        same symmetrizer test at s = 2^j for two drawn j.  The exact
        oracle then runs on every slice either way, so a rewriting bug
        still surfaces as a disagreement.
        """
        t0 = time.perf_counter()
        methods = []
        in_ideal, residual = False, diff
        degree = diff.degree or 0
        self._degree = max(self._degree, degree)

        if self.mode in ("rewrite", "both"):
            residual = self.rules_for(degree).reduce(diff)
            in_ideal = residual.is_zero
            methods.append("rewrite")

        if self.mode in ("oracle", "both"):
            # a zero reduction proved membership: the precheck could only
            # pass, and the exact oracle still cross-checks it
            ok = ((in_ideal or randomized_precheck(diff, self.oracle, 2))
                  and self.oracle.member(diff))
            methods.append("oracle")
            if self.mode == "oracle":
                in_ideal = ok
                residual = NcPoly.zero(diff.alphabet) if ok else diff
            elif ok != in_ideal:
                raise MethodDisagreement(
                    "%s %s: rewrite and oracle disagree" % (identity, params))

        millis = (time.perf_counter() - t0) * 1000.0
        return VerificationReport(identity, tuple(params), in_ideal, residual,
                                  tuple(methods), millis, tuple(notes))


class Verifier(Decider):
    """The identities of the x presentation: x_1..x_r with the q-Serre relations."""

    alphabet_for = staticmethod(x_alphabet)
    braiding_for = staticmethod(serre_braiding)
    raw_rules = staticmethod(base_rules)

    # the name bench/layertrace.py traces, bound in this class's own dict
    decide = Decider.decide

    @staticmethod
    def _expansion_report(identity, params, diff, t0, notes=()):
        millis = (time.perf_counter() - t0) * 1000.0
        return VerificationReport(identity, tuple(params), diff.is_zero, diff,
                                  ("expand",), millis, tuple(notes))

    def check_telescoping(self, gen: str, lam: int, mu: int, nu: int) -> VerificationReport:
        """Window splitting holds identically, before any relations."""
        if not lam >= mu >= nu:
            raise ValueError("need lam >= mu >= nu")
        t0 = time.perf_counter()
        whole = qproduct(self.alphabet, gen, SpectralWindow(lam, nu))
        split = (qproduct(self.alphabet, gen, SpectralWindow(lam, mu))
                 * qproduct(self.alphabet, gen, SpectralWindow(mu, nu)))
        params = (("gen", gen), ("lam", lam), ("mu", mu), ("nu", nu))
        return self._expansion_report("telescoping", params, whole - split, t0)

    def check_factor_commutation(self, gen: str, lam: int, mu: int) -> VerificationReport:
        """Ascending and descending factor order agree in the free algebra."""
        t0 = time.perf_counter()
        fwd = qproduct(self.alphabet, gen, SpectralWindow(lam, mu))
        rev = NcPoly.unit(self.alphabet)
        x = NcPoly.generator(self.alphabet, gen)
        for j in range(lam - 1, mu - 1, -1):
            rev = rev * (NcPoly.unit(self.alphabet) - x.scale(q_power(j)))
        params = (("gen", gen), ("lam", lam), ("mu", mu))
        return self._expansion_report("factor-order", params, fwd - rev, t0)

    def check_lemma(self, mu: int, lam: int, ordering: str, n: int = 1) -> VerificationReport:
        """Ordered pair products match the mixed product with k and c."""
        w = SpectralWindow(lam, mu)
        lo, hi = "x%d" % n, "x%d" % (n + 1)
        if ordering == "x1_first":
            lhs = (qproduct(self.alphabet, lo, w)
                   * qproduct(self.alphabet, hi, w))
            rhs = lemma_product(self.alphabet, w, "lam", n)
        elif ordering == "x2_first":
            lhs = (qproduct(self.alphabet, hi, w)
                   * qproduct(self.alphabet, lo, w))
            rhs = lemma_product(self.alphabet, w, "mu", n)
        else:
            raise ValueError("ordering must be x1_first or x2_first")
        params = (("mu", mu), ("lam", lam), ("ordering", ordering), ("n", n))
        return self.decide("lemma", params, lhs - rhs)

    def check_central_c(self, element: str = "c", n: int = 1) -> VerificationReport:
        """The element commutes with both generators of its pair modulo the ideal.

        element="k" runs the same test on k, which must fail; it is the
        mutation control for this check.
        """
        t0 = time.perf_counter()
        build = {"c": c_element, "k": k_element}[element]
        z = build(self.alphabet, n)
        reports = []
        for g in ("x%d" % n, "x%d" % (n + 1)):
            x = NcPoly.generator(self.alphabet, g)
            reports.append(self.decide("central", (("element", element), ("with", g)),
                                       z * x - x * z))
        return _combined("central", (("element", element), ("n", n)),
                         reports, t0)

    def check_ayb(self, n: int, lam: int, mu: int, nu: int) -> VerificationReport:
        lhs, rhs = ayb_sides(self.alphabet, n, lam, mu, nu)
        params = (("n", n), ("lam", lam), ("mu", mu), ("nu", nu))
        return self.decide("ayb", params, lhs - rhs)

    def check_far_commutation(self, m: int, n: int, lam: int, mu: int) -> VerificationReport:
        if m != n and abs(m - n) < 2:
            raise ValueError("far commutation needs |m - n| >= 2")
        w = SpectralWindow(lam, mu)
        a = qproduct(self.alphabet, "x%d" % m, w)
        b = qproduct(self.alphabet, "x%d" % n, w)
        params = (("m", m), ("n", n), ("lam", lam), ("mu", mu))
        return self.decide("far", params, a * b - b * a)

    def check_qq(self, lam: int, mu: int, nu: int) -> VerificationReport:
        """Ordered products commute when their second windows coincide."""
        if lam < nu or mu < nu:
            raise ValueError("need lam, mu >= nu")
        qa = big_Q(self.alphabet, self.rank, SpectralWindow(lam, nu))
        qb = big_Q(self.alphabet, self.rank, SpectralWindow(mu, nu))
        params = (("rank", self.rank), ("lam", lam), ("mu", mu), ("nu", nu))
        return self.decide("qq", params, qa * qb - qb * qa)


# ---------------------------------------------------------------------------
# quantum-coordinate embedding checks (their own alphabet and rules)
# ---------------------------------------------------------------------------

_CHI_E_NOTE = ("assumes distant chi pairs commute and every chi commutes "
               "with every e")


class ChiEVerifier(Decider):
    """Checks that y_n = chi_n e_n satisfies the x-family relations."""

    alphabet_for = staticmethod(chi_e_alphabet)
    braiding_for = staticmethod(chi_e_braiding)
    raw_rules = staticmethod(chi_e_rules)

    def _decide(self, params, diff):
        return self.decide("chie", params, diff, (_CHI_E_NOTE,))

    def family_reports(self):
        """One report per relation family instance, as x_relations lists them."""
        ys = [NcPoly.generator(self.alphabet, "chi%d" % n)
              * NcPoly.generator(self.alphabet, "e%d" % n)
              for n in range(1, self.rank + 1)]
        return [self._decide(params, rel) for params, rel in x_relations(ys)]


def _combined(identity, params, reports, t0, notes=()):
    """One report for several checks: it passes when all of them do.

    Its residual is the first nonzero one, or the first report's zero.
    No checks at all is an error, not a pass.
    """
    if not reports:
        raise ValueError("%s %s has no check to combine" % (identity, params))
    residual = next((r.residual for r in reports if not r.residual.is_zero),
                    reports[0].residual)
    methods = reports[0].methods
    millis = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(identity, params, all(r.passed for r in reports),
                              residual, methods, millis, notes)


# ---------------------------------------------------------------------------
# default grids, shared with the CLI
# ---------------------------------------------------------------------------

QQ_WINDOWS = {
    2: ((2, 1, 0), (3, 1, 0), (3, 2, 0), (3, 2, 1)),
    3: ((2, 1, 0),),
}


def qq_windows(rank: int, lambda_max: int = 3):
    """Q-commutativity grid: the pinned windows that fit under lambda_max."""
    pinned = [w for w in QQ_WINDOWS.get(rank, ((2, 1, 0),))
              if w[0] <= lambda_max]
    return tuple(pinned) if pinned else tuple(descending_triples(lambda_max))


def descending_triples(top: int):
    return [(lam, mu, nu)
            for lam in range(top + 1)
            for mu in range(lam + 1)
            for nu in range(mu + 1)]
