import itertools

import pytest

import qserre.qfield as qfield_module
import qserre.verify as verify_module
from qserre.qfield import ONE, Q, QRat, q_power
from qserre.freealg import NcPoly, SpectralWindow, qproduct, x_alphabet
from qserre.rewrite import complete, dump_rules
from qserre.verify import (
    ChiEVerifier, Decider, Verifier, descending_triples, qq_windows,
)
from reference_echelon import ReferenceOracle, chi_e_relations, serre_relations
from reference_rewrite import raw_rules


@pytest.fixture(scope="module")
def v2():
    return Verifier(2)


@pytest.fixture(scope="module")
def v3():
    return Verifier(3)


def test_telescoping(v2):
    for lam, mu, nu in descending_triples(4):
        r = v2.check_telescoping("x1", lam, mu, nu)
        assert r.passed and r.methods == ("expand",)
    # degenerate windows are trivially fine
    assert v2.check_telescoping("x2", 3, 3, 1).passed
    assert v2.check_telescoping("x2", 3, 1, 1).passed
    with pytest.raises(ValueError):
        v2.check_telescoping("x1", 1, 2, 0)


def test_factor_commutation(v2):
    for lam in range(5):
        for mu in range(lam + 1):
            assert v2.check_factor_commutation("x1", lam, mu).passed


def test_lemma_small_window_free(v2):
    # width-1 windows cancel before any relations are used
    r = v2.check_lemma(1, 2, "x1_first")
    assert r.passed
    lhs = (qproduct(v2.alphabet, "x1", SpectralWindow(2, 1))
           * qproduct(v2.alphabet, "x2", SpectralWindow(2, 1)))
    from qserre.freealg import lemma_product
    assert (lhs - lemma_product(v2.alphabet, SpectralWindow(2, 1), "lam")).is_zero


def test_lemma_full_grid(v2):
    for mu in range(4):
        for lam in range(mu + 1, 4):
            for ordering in ("x1_first", "x2_first"):
                r = v2.check_lemma(mu, lam, ordering)
                assert r.passed, (mu, lam, ordering)
                assert "rewrite" in r.methods and "oracle" in r.methods
                assert r.residual.is_zero


def test_lemma_bad_ordering(v2):
    with pytest.raises(ValueError):
        v2.check_lemma(0, 1, "x3_first")


def test_central_c(v2):
    r = v2.check_central_c()
    assert r.passed and r.residual.is_zero


def test_central_mutation_k_fails(v2):
    r = v2.check_central_c(element="k")
    assert not r.passed
    assert not r.residual.is_zero


def test_central_relabeled_pair(v3):
    assert v3.check_central_c(n=2).passed
    assert not v3.check_central_c(element="k", n=2).passed


def test_lemma_relabeled_pair(v3):
    for ordering in ("x1_first", "x2_first"):
        assert v3.check_lemma(0, 2, ordering, n=2).passed


def test_ayb_rank2(v2):
    for lam, mu, nu in descending_triples(3):
        r = v2.check_ayb(1, lam, mu, nu)
        assert r.passed, (lam, mu, nu)


def test_ayb_rank3(v3):
    for n in (1, 2):
        for lam, mu, nu in descending_triples(2):
            assert v3.check_ayb(n, lam, mu, nu).passed, (n, lam, mu, nu)


def test_ayb_window_validation(v2):
    with pytest.raises(ValueError):
        v2.check_ayb(1, 1, 2, 0)


def test_far_commutation(v3):
    for lam in range(3):
        for mu in range(lam + 1):
            assert v3.check_far_commutation(3, 1, lam, mu).passed
    assert v3.check_far_commutation(1, 1, 2, 0).passed  # same letter, trivial
    with pytest.raises(ValueError):
        v3.check_far_commutation(2, 1, 1, 0)


def test_qq_rank2(v2):
    for lam, mu, nu in qq_windows(2):
        r = v2.check_qq(lam, mu, nu)
        assert r.passed, (lam, mu, nu)
        assert r.residual.is_zero
    assert v2.check_qq(2, 2, 0).passed  # identical elements commute trivially


def test_qq_rank3(v3):
    assert v3.check_qq(2, 1, 0).passed


@pytest.mark.parametrize("mode", ["oracle", "rewrite"])
def test_only_the_descending_qq_order_commutes(mode):
    # the order control: of the six orders of the rank-3 product, only
    # x3 x2 x1, the order big_Q and so check_qq take, commutes
    v = Verifier(3, mode)
    windows = ((2, 1, 0), (3, 2, 1))

    def product(order, lam, nu):
        out = NcPoly.unit(v.alphabet)
        for i in order:
            out = out * qproduct(v.alphabet, "x%d" % i, SpectralWindow(lam, nu))
        return out

    commuting = []
    for order in itertools.permutations((1, 2, 3)):
        for lam, mu, nu in windows:
            a, b = product(order, lam, nu), product(order, mu, nu)
            if not v.decide("qq-order", (("order", order),), a * b - b * a).passed:
                break
        else:
            commuting.append(order)
    assert commuting == [(3, 2, 1)]
    assert all(v.check_qq(*w).passed for w in windows)


def test_qq_window_validation(v2):
    with pytest.raises(ValueError):
        v2.check_qq(1, 2, 3)


def test_high_degree_failure_reports_fail_not_disagreement(v2):
    # a degree-3 slice in the ideal and a failing degree-10 one: the oracle
    # decides every slice and must agree with the certified rewrite verdict
    a = v2.alphabet
    x1, x2 = (NcPoly.generator(a, g) for g in ("x1", "x2"))
    rel = x1 * x1 * x2 + (x2 * x1 * x1).scale(q_power(1)) \
        - (x1 * x2 * x1).scale(ONE + Q)
    high = x2 * x1 ** 9 - x1 ** 9 * x2
    assert not v2.rules_for(10).reduce(high).is_zero  # really fails, and certified
    r = v2.decide("probe", (("case", "high-degree"),), rel + high)
    assert not r.passed
    assert r.methods == ("rewrite", "oracle")
    assert not any("skipped" in n for n in r.notes)


def test_oracle_only_mode_small():
    v = Verifier(2, mode="oracle")
    assert v.check_lemma(0, 2, "x1_first").passed
    assert not v.check_central_c(element="k").passed


def test_rewrite_only_mode():
    v = Verifier(2, mode="rewrite")
    r = v.check_lemma(0, 2, "x1_first")
    assert r.passed and r.methods == ("rewrite",)


# -- the completion degree follows the degree decided ---------------------------

def test_rewrite_refutes_beyond_degree_8():
    # the rules are completed to the input's degree 10, so rewriting alone
    # gives a definite verdict, with no note
    v = Verifier(2, mode="rewrite")
    x1, x2 = (NcPoly.generator(v.alphabet, g) for g in ("x1", "x2"))
    r = v.decide("probe", (), x2 * x1 ** 9)
    assert not r.passed and r.notes == () and not r.residual.is_zero
    assert v.rules.completed_degree == 10


def test_padded_degree_10_relation_is_a_member():
    v = Verifier(2)
    x1, x2 = (NcPoly.generator(v.alphabet, g) for g in ("x1", "x2"))
    padded = x2 ** 3 * serre_relations(v.alphabet)[0] * x1 ** 4
    assert padded.degree == 10
    r = v.decide("probe", (), padded)
    assert r.passed and r.notes == () and r.methods == ("rewrite", "oracle")
    assert v.rules.completed_degree == 10


def test_completion_resumes_only_for_a_larger_degree(monkeypatch):
    done = []

    def spy(rules, degree):
        done.append(complete(rules, degree))
        return done[-1]
    monkeypatch.setattr(verify_module, "complete", spy)
    v = Verifier(3)
    x1, x2, x3 = (NcPoly.generator(v.alphabet, "x%d" % i) for i in (1, 2, 3))
    rel = serre_relations(v.alphabet)[0]
    for pad in (NcPoly.unit(v.alphabet), x3 * x1, x2 ** 5):
        assert v.decide("probe", (), rel * pad).passed
    assert [rules.completed_degree for rules in done] == [8]
    assert not v.decide("probe", (), x3 * x2 ** 8).passed
    assert [rules.completed_degree for rules in done] == [8, 9]
    assert v.rules is done[1]
    # the resumed set is the one a fresh completion to 9 gives
    assert dump_rules(done[1]) == dump_rules(complete(raw_rules("x3"), 9))


def test_chi_e_embedding():
    for rank in (2, 3):
        reports = ChiEVerifier(rank).family_reports()
        assert reports and all(r.passed for r in reports), rank
        assert all(r.notes == (verify_module._CHI_E_NOTE,) for r in reports)


def test_chi_e_with_no_check_raises():
    # rank 1 has no relation family: an empty combined report is an error,
    # not a pass with nothing checked
    for mode in ("oracle", "both"):
        reports = ChiEVerifier(1, mode=mode).family_reports()
        assert reports == []
        with pytest.raises(ValueError, match="chie"):
            verify_module._combined("chie", (("rank", 1),), reports, 0.0)


def test_chi_e_verifier_carries_no_x_check():
    # the x checks build x letters, which the chi-e alphabet lacks
    chie, x = ChiEVerifier(2), Verifier(2)
    assert not isinstance(chie, Verifier)
    assert [a for a in dir(chie) if a.startswith("check_")] == []
    assert isinstance(chie, Decider) and isinstance(x, Decider)
    # one decision core for both presentations
    assert ChiEVerifier.decide is Decider.decide
    assert vars(Verifier)["decide"] is Decider.decide
    assert chie.decide("probe", (), chi_e_relations(chie.alphabet)[0]).passed
    assert x.decide("probe", (), serre_relations(x.alphabet)[0]).passed


def test_chi_e_family_reports():
    v = ChiEVerifier(3)
    reports = v.family_reports()
    kinds = [dict(r.params)["family"] for r in reports]
    assert kinds.count("serre1") == 2
    assert kinds.count("serre2") == 2
    assert kinds.count("distant") == 1
    assert all(r.passed for r in reports)


def test_report_formatting(v2):
    r = v2.check_central_c()
    assert "central" in str(r)
    assert "pass" in str(r)
    assert r.residual_terms == 0
    assert r.millis >= 0


# --- mutation sensitivity: wrong constants must break some suite member ----

def test_mutant_qproduct_power_fails(v2):
    # replacing q^j by q^(j+1) in one factor breaks telescoping
    a = v2.alphabet
    x = NcPoly.generator(a, "x1")
    wrong = NcPoly.unit(a)
    for j in range(0, 2):
        wrong = wrong * (NcPoly.unit(a) - x.scale(q_power(j + 1)))
    good = (qproduct(a, "x1", SpectralWindow(2, 1))
            * qproduct(a, "x1", SpectralWindow(1, 0)))
    assert wrong != good


def test_mutant_serre_coefficient_fails():
    # a presentation with (1+q) replaced by 2q is not satisfied by the suite
    a = x_alphabet(2)
    x1, x2 = (NcPoly.generator(a, g) for g in ("x1", "x2"))
    mutant = [x1 * x1 * x2 + (x2 * x1 * x1).scale(q_power(1))
              - (x1 * x2 * x1).scale(Q + Q),
              serre_relations(a)[1]]
    oracle = ReferenceOracle(a, mutant)
    real = serre_relations(a)[0]
    assert not oracle.member(real)


def test_mutant_c_element_not_central(v2):
    # c with the q on the wrong term is no longer central
    a = v2.alphabet
    x1, x2 = (NcPoly.generator(a, g) for g in ("x1", "x2"))
    wrong_c = ((x1 * x2).scale(q_power(1)) - x2 * x1).scale(ONE / (ONE - Q))
    d = wrong_c * x1 - x1 * wrong_c
    assert not v2.rules.reduce(d).is_zero


def test_lemma_factors_commute_modulo_ideal(v2):
    # each factor is a polynomial in x1+x2+k q^e and the central c, so any
    # two of them commute once the relations are imposed
    from qserre.freealg import c_element, k_element
    a = v2.alphabet
    x1, x2 = (NcPoly.generator(a, g) for g in ("x1", "x2"))
    k, c = k_element(a), c_element(a)
    e = 2
    core = x1 + x2 + k.scale(q_power(e))
    factors = [NcPoly.unit(a) + c.scale(q_power(2 * j)) - core.scale(q_power(j))
               for j in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            d = factors[i] * factors[j] - factors[j] * factors[i]
            assert v2.rules.reduce(d).is_zero, (i, j)


def test_mutant_lemma_exponent_choice_fails(v2):
    # using mu where lam belongs breaks the lemma for windows wider than 1
    from qserre.freealg import lemma_product
    w = SpectralWindow(2, 0)
    lhs = (qproduct(v2.alphabet, "x1", w) * qproduct(v2.alphabet, "x2", w))
    wrong = lemma_product(v2.alphabet, w, "mu")
    assert not v2.rules.reduce(lhs - wrong).is_zero


# -- the precheck runs only while membership is still open ----------------------

@pytest.fixture
def precheck_calls(monkeypatch):
    calls = []
    real = verify_module.randomized_precheck

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_module, "randomized_precheck", counting)
    return calls


def test_no_precheck_after_rewrite_proves_membership(v2, precheck_calls):
    r = v2.decide("probe", (("case", "member"),),
                  serre_relations(v2.alphabet)[0])
    assert r.passed and r.methods == ("rewrite", "oracle")
    assert precheck_calls == []


def test_precheck_runs_for_non_member(v2, precheck_calls):
    x1 = NcPoly.generator(v2.alphabet, "x1")
    r = v2.decide("probe", (("case", "non-member"),), x1 * x1)
    assert not r.passed and r.methods == ("rewrite", "oracle")
    assert len(precheck_calls) == 1


def test_precheck_runs_in_oracle_mode(precheck_calls):
    v = Verifier(2, mode="oracle")
    assert v.decide("probe", (), serre_relations(v.alphabet)[0]).passed
    assert len(precheck_calls) == 1


@pytest.fixture(scope="module")
def chie2():
    return ChiEVerifier(2)


def test_chi_e_precheck_only_while_open(chie2, precheck_calls):
    e1 = NcPoly.generator(chie2.alphabet, "e1")
    cubic = chi_e_relations(chie2.alphabet)[0]
    member = chie2._decide((("case", "member"),), cubic)
    assert member.passed and member.methods == ("rewrite", "oracle")
    assert precheck_calls == []
    non_member = chie2._decide((("case", "non-member"),), e1 * e1)
    assert not non_member.passed
    assert len(precheck_calls) == 1
    oracle_only = ChiEVerifier(2, mode="oracle")
    assert oracle_only._decide((), cubic).passed
    assert len(precheck_calls) == 2


# -- the chi-e suite decides through Verifier.decide ----------------------------

def test_chi_e_mixed_degree_member_is_decided_by_both_methods(chie2):
    e1 = NcPoly.generator(chie2.alphabet, "e1")
    relations = chi_e_relations(chie2.alphabet)
    cubic, quad = relations[0], relations[2]
    assert (cubic.degree, quad.degree) == (3, 2)
    # a member with a degree-6 slice and a degree-2 one: the oracle decides
    # both, and the report carries only the presentation's note
    r = chie2._decide((("case", "mixed"),), cubic * e1 * e1 * e1 + quad)
    assert r.passed
    assert r.methods == ("rewrite", "oracle")
    assert r.notes == (verify_module._CHI_E_NOTE,)


def test_chi_e_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ChiEVerifier(2, mode="bogus")


# -- work-count guard: gcd work in Q(s) ---------------------------------------

def test_qq_rank3_gcd_work_stays_under_its_ceiling(monkeypatch):
    # one qq check at rank 3 on completed rules makes 13,134 _pgcd calls and
    # no _prem call, now that the quantum symmetrizer decides every slice
    # without division; the ceilings sit about 1.2 times above that.  With
    # block elimination and Henrici sums it made 43,228 and 5,157.
    v = Verifier(3)
    v.rules
    calls = {"pgcd": 0, "prem": 0}
    pgcd, prem = qfield_module._pgcd, qfield_module._prem

    def counting_pgcd(a, b):
        calls["pgcd"] += 1
        return pgcd(a, b)

    def counting_prem(a, b):
        calls["prem"] += 1
        return prem(a, b)

    monkeypatch.setattr(qfield_module, "_pgcd", counting_pgcd)
    monkeypatch.setattr(qfield_module, "_prem", counting_prem)
    assert v.check_qq(2, 1, 0).passed
    assert calls["pgcd"] <= 15800
    assert calls["prem"] == 0


def test_qq_rank3_builds_no_echelon_and_skips_no_slice():
    # the exact oracle decides every slice, degree 9 included, with the
    # quantum symmetrizer (the only oracle, so no block elimination) and
    # leaves no skip note
    r = Verifier(3).check_qq(2, 1, 0)
    assert r.passed and r.methods == ("rewrite", "oracle")
    assert not any("skipped slices" in n for n in r.notes)


def test_member_over_a_denominator_vanishing_at_the_encoding_base(v3):
    # (x1 x3 - x3 x1) / (s - 8) rewrites to zero; the oracle's cross-check
    # encodes at X = 8, where the denominator vanishes, and must still
    # find a member
    a = v3.alphabet
    x1, x3 = NcPoly.generator(a, "x1"), NcPoly.generator(a, "x3")
    r = v3.decide("p", (), (x1 * x3 - x3 * x1).scale(QRat(1, (-8, 1))))
    assert r.passed and r.methods == ("rewrite", "oracle")
