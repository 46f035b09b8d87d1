"""The theorem suite: every claimed identity, checked at instance level.

Each check builds the two sides of an identity as free-algebra elements
and decides whether their difference lies in the defining ideal, by
rewriting to a canonical normal form and by the independent oracle,
which applies the quantum symmetrizer to every slice.  The two decision
paths must agree; a disagreement is an engine bug and raises instead of
reporting.

Decider is that decision core for any presentation, named by its
alphabet and braiding.  Verifier holds the x checks, and ChiEVerifier
the x-relation families on y_n = chi_n e_n.

Telescoping and factor commutativity hold in the free algebra itself and
are checked by plain expansion, with no ideal involved.  Each check takes
one window; the grids of windows a run covers belong to the CLI
(cli.resolve_windows), and this module defines none.
"""

from __future__ import annotations

import time
from collections import namedtuple

from qserre.freealg import (
    NcPoly, SpectralWindow, ayb_sides, big_Q, braided_relations, c_element,
    chi_e_alphabet, chi_e_braiding, lemma_product, qproduct, serre_braiding,
    x_alphabet,
)
from qserre.oracle import IdealOracle, randomized_precheck
from qserre.qfield import q_power
from qserre.rewrite import RuleSet, braided_rules, complete


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

    A subclass names the presentation by alphabet_for and braiding_for
    alone: the rules are completed from the relations that the braiding
    defines, and the oracle applies its quantum symmetrizer.  Completion
    and the oracle are built lazily on first use and keep memo tables
    that later decisions reuse, so one instance serves its checks one
    after another.  The rule set is completed to max(8, the largest
    degree reduced so far), so every rewriting verdict is canonical.
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
            given = (braided_rules(self.alphabet, self.braiding_for)
                     if self._rules is None else self._rules)
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

        return _report(identity, params, in_ideal, residual, methods, t0, notes)


class Verifier(Decider):
    """The identities of the x presentation: x_1..x_r with the q-Serre relations."""

    alphabet_for = staticmethod(x_alphabet)
    braiding_for = staticmethod(serre_braiding)

    # the name bench/layertrace.py traces, bound in this class's own dict
    decide = Decider.decide

    def check_telescoping(self, gen: str, lam: int, mu: int, nu: int) -> VerificationReport:
        """Window splitting holds identically, before any relations."""
        if not lam >= mu >= nu:
            raise ValueError("need lam >= mu >= nu")
        t0 = time.perf_counter()
        whole = qproduct(self.alphabet, gen, SpectralWindow(lam, nu))
        split = (qproduct(self.alphabet, gen, SpectralWindow(lam, mu))
                 * qproduct(self.alphabet, gen, SpectralWindow(mu, nu)))
        params = (("gen", gen), ("lam", lam), ("mu", mu), ("nu", nu))
        diff = whole - split
        return _report("telescoping", params, diff.is_zero, diff, ("expand",), t0)

    def check_factor_commutation(self, gen: str, lam: int, mu: int) -> VerificationReport:
        """Ascending and descending factor order agree in the free algebra."""
        t0 = time.perf_counter()
        fwd = qproduct(self.alphabet, gen, SpectralWindow(lam, mu))
        rev = NcPoly.unit(self.alphabet)
        x = NcPoly.generator(self.alphabet, gen)
        for j in range(lam - 1, mu - 1, -1):
            rev = rev * (NcPoly.unit(self.alphabet) - x.scale(q_power(j)))
        params = (("gen", gen), ("lam", lam), ("mu", mu))
        diff = fwd - rev
        return _report("factor-order", params, diff.is_zero, diff, ("expand",), t0)

    def check_lemma(self, mu: int, lam: int, ordering: str, n: int = 1) -> VerificationReport:
        """Ordered pair products match the mixed product with k and c."""
        w = SpectralWindow(lam, mu)
        lo, hi = "x%d" % n, "x%d" % (n + 1)
        if ordering == "x1_first":
            lhs = (qproduct(self.alphabet, lo, w)
                   * qproduct(self.alphabet, hi, w))
            rhs = lemma_product(self.alphabet, w, w.lam, n)
        elif ordering == "x2_first":
            lhs = (qproduct(self.alphabet, hi, w)
                   * qproduct(self.alphabet, lo, w))
            rhs = lemma_product(self.alphabet, w, w.mu, n)
        else:
            raise ValueError("ordering must be x1_first or x2_first")
        params = (("mu", mu), ("lam", lam), ("ordering", ordering), ("n", n))
        return self.decide("lemma", params, lhs - rhs)

    def check_central_c(self, n: int = 1) -> VerificationReport:
        """c commutes with both generators of its pair modulo the ideal.

        k, which is c with its q dropped, commutes with neither; the tests
        decide that as this check's mutation control.
        """
        t0 = time.perf_counter()
        c = c_element(self.alphabet, n)
        reports = []
        for g in ("x%d" % n, "x%d" % (n + 1)):
            x = NcPoly.generator(self.alphabet, g)
            reports.append(self.decide("central", (("element", "c"), ("with", g)),
                                       c * x - x * c))
        return _combined("central", (("element", "c"), ("n", n)), reports, t0)

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

    def _decide(self, params, diff):
        return self.decide("chie", params, diff, (_CHI_E_NOTE,))

    def family_reports(self):
        """One report per x-family relation, written by the x braiding on the y_n."""
        ys = [NcPoly.generator(self.alphabet, "chi%d" % n)
              * NcPoly.generator(self.alphabet, "e%d" % n)
              for n in range(1, self.rank + 1)]
        chi = serre_braiding(x_alphabet(self.rank))
        return [self._decide(params, rel) for params, rel in braided_relations(ys, chi)]


def _combined(identity, params, reports, t0, notes=()):
    """One report for several checks: it passes when all of them do.

    Its residual is the first nonzero one, or the first report's zero.
    No checks at all is an error, not a pass.
    """
    if not reports:
        raise ValueError("%s %s has no check to combine" % (identity, params))
    residual = next((r.residual for r in reports if not r.residual.is_zero),
                    reports[0].residual)
    return _report(identity, params, all(r.passed for r in reports), residual,
                   reports[0].methods, t0, notes)


def _report(identity, params, passed, residual, methods, t0, notes=()):
    """The one constructor of a VerificationReport; millis is the time since t0."""
    return VerificationReport(identity, tuple(params), passed, residual,
                              tuple(methods), (time.perf_counter() - t0) * 1000.0,
                              tuple(notes))
