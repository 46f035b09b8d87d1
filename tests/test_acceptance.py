"""Acceptance gate: every top-level claim, exact, at desk scale.

Each test prints one PASS/FAIL line (run with -s or check the captured
output).  Everything is exact arithmetic, so every tolerance is literal
zero: a residual must have empty support, counts must be equal integers.
"""

import random

import pytest

from qserre.qfield import ONE, Q, QRat
from qserre.freealg import NcPoly
from qserre.rewrite import complete, critical_pair_residuals, normal_word_counts
from qserre.series import check_ayb_formal, check_ratio_identity
from qserre.verify import ChiEVerifier, Verifier, descending_triples, qq_windows
from pbw_reference import pbw_series
from reference_echelon import ReferenceOracle, serre_relations
from reference_rewrite import raw_rules

COMPLETION = {2: 10, 3: 9}  # the largest degree of a pinned qq window
CHIE_COMPLETION = 6


@pytest.fixture(scope="module")
def v2():
    return Verifier(2)


@pytest.fixture(scope="module")
def v3():
    return Verifier(3)


def _report(num, ok, text):
    print("criterion %2d %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_1_lemma_suite(v2):
    reports = []
    for mu in range(4):
        for lam in range(mu + 1, 4):
            for ordering in ("x1_first", "x2_first"):
                reports.append(v2.check_lemma(mu, lam, ordering))
    ok = all(r.passed and r.residual.is_zero
             and "rewrite" in r.methods and "oracle" in r.methods
             for r in reports)
    _report(1, ok, "lemma for 0 <= mu < lam <= 3, both orderings, "
            "rewrite + oracle (%d checks)" % len(reports))


def test_criterion_2_centrality(v2):
    good = v2.check_central_c()
    mutant = v2.check_central_c(element="k")
    ok = good.passed and good.residual.is_zero and not mutant.passed
    _report(2, ok, "c commutes with x1 and x2; the k mutation fails")


def test_criterion_3_ayb_suite(v2, v3):
    reports = []
    for lam, mu, nu in descending_triples(3):
        reports.append(v2.check_ayb(1, lam, mu, nu))
    for n in (1, 2):
        for lam, mu, nu in descending_triples(2):
            reports.append(v3.check_ayb(n, lam, mu, nu))
    ok = all(r.passed and r.residual.is_zero for r in reports)
    oracle_used = sum("oracle" in r.methods for r in reports)
    _report(3, ok and oracle_used == len(reports),
            "exchange relation, rank 2 windows <= 3 and rank 3 windows <= 2 "
            "(%d checks, oracle on all)" % len(reports))


def test_criterion_4_qq_commutativity(v2, v3):
    reports = [v2.check_qq(lam, mu, nu) for lam, mu, nu in qq_windows(2)]
    reports.append(v3.check_qq(2, 1, 0))
    ok = all(r.passed and r.residual.is_zero for r in reports)
    # the (2,1,0) rank-2 case must carry the oracle cross-check (slices <= 6)
    first = reports[0]
    ok = ok and "oracle" in first.methods and "rewrite" in first.methods
    _report(4, ok, "Q(lam,nu) Q(mu,nu) = Q(mu,nu) Q(lam,nu) at the pinned "
            "windows, completion degrees %s" % COMPLETION)


def test_criterion_5_hilbert_anchor(v2, v3):
    expected = {2: [1, 2, 4, 6, 9, 12, 16, 20, 25], 3: [1, 3, 8, 17]}
    ok = True
    for v, rank in ((v2, 2), (v3, 3)):
        counts = normal_word_counts(v.rules, 8)
        reference = ReferenceOracle(v.alphabet, serre_relations(v.alphabet))
        dims = reference.quotient_dimensions(8)
        ok = ok and counts == dims == pbw_series(rank, 8)
        ok = ok and dims[:len(expected[rank])] == expected[rank]
    _report(5, ok, "normal-word counts match the reference echelon's "
            "quotient dimensions and the PBW series for every degree <= 8 "
            "at ranks 2 and 3")


def test_criterion_6_rewriter_oracle_agreement(v2, v3):
    rng = random.Random(20260808)
    total, disagreements, members_seen = 0, 0, 0
    for v in (v2, v3):
        rank = v.rank
        rels = serre_relations(v.alphabet)
        letters = range(rank)
        for _ in range(500):
            d = rng.randrange(1, 7)
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                w = tuple(rng.choice(letters)
                          for _ in range(rng.randrange(1, d + 1)))
                coeff = [QRat(rng.randint(-3, 3)), Q, ONE + Q,
                         ONE / (ONE - Q)][rng.randrange(4)]
                terms[w] = coeff
            p = NcPoly(v.alphabet, terms)
            if rng.random() < 0.5:
                # seeded ideal element: sum of padded relations
                p = NcPoly.zero(v.alphabet)
                for _ in range(rng.randrange(1, 3)):
                    rel = rels[rng.randrange(len(rels))]
                    room = 6 - rel.degree
                    cut = rng.randrange(room + 1)
                    u = tuple(rng.choice(letters) for _ in range(cut))
                    vv = tuple(rng.choice(letters)
                               for _ in range(rng.randrange(room - cut + 1)))
                    p = p + (NcPoly.monomial(v.alphabet, u) * rel
                             * NcPoly.monomial(v.alphabet, vv)).scale(
                                 QRat(rng.randint(1, 3)))
            if p.degree is not None and p.degree > 6:
                continue
            total += 1
            by_rewrite = v.rules.reduce(p).is_zero
            by_oracle = v.oracle.member(p)
            members_seen += by_oracle
            disagreements += by_rewrite != by_oracle
    ok = total >= 1000 and disagreements == 0 and members_seen >= 100
    _report(6, ok, "%d random polynomials of degree <= 6 at ranks 2-3: "
            "%d disagreements, %d members" % (total, disagreements, members_seen))


def test_criterion_7_confluence_certificate(v2, v3):
    ok = True
    pairs = 0
    for rules, bound in ((v2.rules_for(COMPLETION[2]), COMPLETION[2]),
                         (v3.rules_for(COMPLETION[3]), COMPLETION[3]),
                         (complete(raw_rules("chi-e2"), CHIE_COMPLETION), CHIE_COMPLETION),
                         (complete(raw_rules("chi-e3"), CHIE_COMPLETION), CHIE_COMPLETION)):
        residuals = critical_pair_residuals(rules, bound)
        pairs += len(residuals)
        ok = ok and not any(r for _, r in residuals)
    _report(7, ok, "all %d critical pairs up to the completion bounds "
            "resolve to zero" % pairs)


def test_criterion_8_chi_e_embedding():
    r2 = ChiEVerifier(2).family_reports()
    r3 = ChiEVerifier(3).family_reports()
    ok = bool(r2 and r3) and all(r.passed for r in r2 + r3)
    _report(8, ok, "y_n = chi_n e_n satisfies all three x-relation families "
            "at ranks 2 and 3 over the q^(1/2) field")


def test_criterion_9_telescoping_and_factor_order(v2):
    ok = True
    checks = 0
    for gen in v2.alphabet.letters:
        for lam, mu, nu in descending_triples(4):
            ok = ok and v2.check_telescoping(gen, lam, mu, nu).passed
            checks += 1
        for lam in range(5):
            for mu in range(lam + 1):
                ok = ok and v2.check_factor_commutation(gen, lam, mu).passed
                checks += 1
    _report(9, ok, "telescoping and factor commutativity identically in the "
            "free algebra, windows within [0, 4] (%d checks)" % checks)


def test_criterion_10_series(v2):
    ratio_ok = all(check_ratio_identity(mu, lam, 6).passed
                   for mu, lam in ((0, 1), (0, 2), (1, 3)))
    formal = check_ayb_formal(v2, 1, 4)
    notes = " ".join(formal.notes)
    ok = (ratio_ok and formal.passed
          and "exact in L, M, N: 18 parameter monomials decided" in notes
          and "integer-window specialization" in notes)
    _report(10, ok, "series ratio identities at D=6 and the extrapolated "
            "exchange relation at D=4, exact in the central parameters")
