import functools
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import qserre.rewrite as rewrite_module
from qserre.qfield import ONE, Q, QRat, S
from qserre.freealg import (
    NcPoly, SpectralWindow, big_Q, deg_lex_key, serre_braiding, serre_relations,
    x_alphabet,
)
from qserre.rewrite import (
    RewriteRule, RuleSet, base_rules, chi_e_rules,
    complete, critical_pair_residuals, dump_rules, normal_word_counts, orient,
)
from qserre.verify import Verifier
from reference_rewrite import LeftmostReducer

A2 = x_alphabet(2)
A3 = x_alphabet(3)
A4 = x_alphabet(4)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def normal_words(rules, degree):
    """Every word of the degree with no rule lhs as a subword, by brute force."""
    lhss = [r.lhs for r in rules.rules]
    return [w for w in itertools.product(range(len(rules.alphabet)), repeat=degree)
            if not any(w[i:i + len(lhs)] == lhs
                       for lhs in lhss for i in range(degree - len(lhs) + 1))]


def test_base_rule_counts():
    assert len(base_rules(1)) == 0
    assert len(base_rules(2)) == 2
    assert len(base_rules(3)) == 5


def test_base_rule_orientation():
    rs = base_rules(2)
    lhss = {rs.alphabet.word_str(r.lhs) for r in rs.rules}
    assert lhss == {"x2 x1 x1", "x2 x2 x1"}
    by_lhs = {rs.alphabet.word_str(r.lhs): r for r in rs.rules}
    r = by_lhs["x2 x1 x1"]
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    assert r.rhs == (x1 * x2 * x1).scale((ONE + Q) / Q) - (x1 * x1 * x2).scale(ONE / Q)


def test_reduce_serre_word():
    rs = complete(base_rules(2), 6)
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    got = rs.reduce(x2 * x1 * x1)
    want = (x1 * x2 * x1).scale((ONE + Q) / Q) - (x1 * x1 * x2).scale(ONE / Q)
    assert got == want


def test_reduce_distant_swap():
    rs = complete(base_rules(3), 4)
    x1, x3 = (NcPoly.generator(A3, g) for g in ("x1", "x3"))
    assert rs.reduce(x3 * x1) == x1 * x3


def test_reduce_fixpoint_on_normal_words():
    rs = complete(base_rules(2), 6)
    words = normal_words(rs, 4)
    assert len(words) == normal_word_counts(rs, 4)[4] == 9
    for w in words:
        p = NcPoly.monomial(A2, w)
        assert rs.reduce(p) == p


def test_completion_rank2_adds_nothing():
    rs = complete(base_rules(2), 8)
    assert len(rs) == 2
    assert rs.completed_degree == 8


@pytest.mark.parametrize("raw, low, high", [
    (base_rules(3), 8, 10), (chi_e_rules(2), 6, 8), (base_rules(4), 8, 12),
    (base_rules(5), 8, 9), (chi_e_rules(3), 8, 9)])
def test_resumed_completion_equals_a_fresh_one(raw, low, high):
    # the truncated reduced basis of a homogeneous ideal is unique
    resumed = complete(complete(raw, low), high)
    assert dump_rules(resumed) == dump_rules(complete(raw, high))


def test_completing_to_a_lower_degree_keeps_the_certificate():
    done = complete(base_rules(3), 8)
    again = complete(done, 6)
    assert again is done and again.completed_degree == 8
    assert normal_word_counts(again, 8) == normal_word_counts(done, 8)


def test_a_given_lhs_longer_than_the_lowest_degree_is_refused():
    # W holds the degree-4 lhs x3 x2 x1 x2 and no raw lhs; completion finds
    # that rule at degree 4, inside the given lhs W, and displaces nothing
    raw = base_rules(3)
    w = NcPoly.monomial(A3, (2, 1, 0, 1, 0))
    extra = orient(w - complete(raw, 9).reduce(w))
    assert extra.lhs == (2, 1, 0, 1, 0)
    given = RuleSet(A3, raw.rules + (extra,))
    with pytest.raises(ValueError, match="not inter-reduced"):
        complete(given, 9)


def test_resumed_completion_forms_fewer_s_polynomials(monkeypatch):
    # pairs of the given rules up to their completed degree are skipped:
    # x rank 4 from 8 to 12 forms 2 S-polynomials, a fresh completion 53
    raw = base_rules(4)
    done = complete(raw, 8)
    formed = []
    real = rewrite_module._s_poly

    def spy(*args):
        formed.append(args)
        return real(*args)

    monkeypatch.setattr(rewrite_module, "_s_poly", spy)
    complete(done, 12)
    resumed = len(formed)
    formed.clear()
    complete(raw, 12)
    assert resumed < len(formed)


@pytest.mark.parametrize("raw, degree, golden", [
    (base_rules(4), 12, "rules_x_rank4_deg12.txt"),
    (chi_e_rules(4), 8, "rules_chi_e_rank4_deg8.txt")])
def test_rank4_completions_match_golden(raw, degree, golden):
    # recorded with the Q(s) reducer, before rewriting moved to Z[s, 1/s]
    assert dump_rules(complete(raw, degree)) == (GOLDEN / golden).read_text()


def test_completion_rank1_empty():
    rs = complete(base_rules(1), 8)
    assert len(rs) == 0
    assert normal_word_counts(rs, 4) == [1, 1, 1, 1, 1]


def test_completion_rank3_matches_dimension_oracle():
    from reference_echelon import ReferenceOracle
    rs = complete(base_rules(3), 6)
    counts = normal_word_counts(rs, 6)
    oracle = ReferenceOracle(A3, serre_relations(A3))
    assert counts == oracle.quotient_dimensions(6)
    assert counts[:4] == [1, 3, 8, 17]


def test_normal_word_counts_rank2():
    rs = complete(base_rules(2), 8)
    assert normal_word_counts(rs, 4) == [1, 2, 4, 6, 9]
    with pytest.raises(ValueError):
        normal_word_counts(rs, 9)


def test_counts_non_increasing_under_completion():
    raw = base_rules(3)
    done = complete(raw, 6)
    for d in range(7):
        assert len(normal_words(done, d)) <= len(normal_words(raw, d))
    # and completion has stabilized: rerunning changes nothing
    again = complete(done, 6)
    assert {r.lhs for r in again.rules} == {r.lhs for r in done.rules}


def test_soundness_reduction_stays_in_ideal():
    from qserre.oracle import IdealOracle
    rs = complete(base_rules(2), 6)
    rng = random.Random(11)
    oracle = IdealOracle(A2, serre_braiding)
    for _ in range(15):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
        p = NcPoly.monomial(A2, w, Q) + NcPoly.monomial(A2, w[::-1])
        diff = rs.reduce(p) - p
        assert oracle.member(diff)


def test_reduce_idempotent_and_linear():
    rs = complete(base_rules(2), 6)
    rng = random.Random(5)
    for _ in range(10):
        w1 = tuple(rng.randrange(2) for _ in range(4))
        w2 = tuple(rng.randrange(2) for _ in range(4))
        p = NcPoly.monomial(A2, w1)
        r = NcPoly.monomial(A2, w2, ONE + Q)
        a, b = Q, ONE - Q
        assert rs.reduce(rs.reduce(p)) == rs.reduce(p)
        assert rs.reduce(p.scale(a) + r.scale(b)) == \
            rs.reduce(p).scale(a) + rs.reduce(r).scale(b)


def test_padded_rules_reduce_to_zero():
    rs = complete(base_rules(3), 7)
    pads = [(), (0,), (2,), (1, 2)]
    for rule in rs.rules:
        for u in pads:
            for v in pads:
                if len(u) + len(rule.lhs) + len(v) > 7:
                    continue
                p = (NcPoly.monomial(A3, u)
                     * (NcPoly.monomial(A3, rule.lhs) - rule.rhs)
                     * NcPoly.monomial(A3, v))
                assert rs.reduce(p).is_zero


def test_canonicity_within_certified_degree():
    from qserre.oracle import IdealOracle
    rs = complete(base_rules(2), 5)
    oracle = IdealOracle(A2, serre_braiding)
    rng = random.Random(17)
    words = lambda n: tuple(rng.randrange(2) for _ in range(n))
    for _ in range(20):
        d = rng.randrange(2, 6)
        p = NcPoly.monomial(A2, words(d)) + NcPoly.monomial(A2, words(d), Q)
        r = NcPoly.monomial(A2, words(d), ONE - Q)
        same_nf = rs.reduce(p) == rs.reduce(r)
        in_ideal = oracle.member(p - r)
        assert same_nf == in_ideal


def test_critical_pairs_all_resolve():
    for rs, d in [(complete(base_rules(2), 8), 8),
                  (complete(base_rules(3), 8), 8),
                  (complete(chi_e_rules(2), 6), 6)]:
        for pair, residual in critical_pair_residuals(rs, d):
            assert residual.is_zero, pair


def test_rule_validation():
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    with pytest.raises(ValueError):
        RewriteRule((1, 0), x1 * x2 * x1)  # inhomogeneous
    with pytest.raises(ValueError):
        RewriteRule((0, 1), x2 * x1)  # rhs not smaller
    with pytest.raises(ValueError):
        RuleSet(A2, [orient(x2 * x1 - x1 * x2),
                     orient(x2 * x1 * x1 - x1 * x1 * x2)])
    with pytest.raises(ValueError, match="not inter-reduced"):
        RuleSet(A2, [orient(x2 * x1 - x1 * x2)] * 2)  # a repeated lhs


def test_order_concatenation_compatible():
    rng = random.Random(2)
    for _ in range(100):
        u = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        v = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        if deg_lex_key(u) >= deg_lex_key(v):
            continue
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 3)))
        s = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 3)))
        assert deg_lex_key(w + u + s) < deg_lex_key(w + v + s)


def test_completion_deterministic():
    a = complete(base_rules(3), 7)
    b = complete(base_rules(3), 7)
    assert [(r.lhs, sorted(r.rhs.terms.items(), key=str)) for r in a.rules] == \
        [(r.lhs, sorted(r.rhs.terms.items(), key=str)) for r in b.rules]


def test_step_budget_guard(monkeypatch):
    monkeypatch.setattr(rewrite_module, "MAX_STEPS", 2)
    with pytest.raises(RuntimeError):
        complete(base_rules(3), 8)


def test_completion_never_calls_the_traced_reduce(monkeypatch):
    # complete reduces with normal_form, so the rewrite.reduce counters of a
    # trace count only the reductions its callers ask for
    calls = []

    def spy(self, p):
        calls.append(p)
        return RuleSet.normal_form(self, p)

    monkeypatch.setattr(RuleSet, "reduce", spy)
    done = complete(base_rules(3), 9)
    assert calls == []
    done.reduce(NcPoly.generator(A3, "x1"))  # the spy sees a caller's call
    assert len(calls) == 1



# -- the Laurent reducer: Q(s)-linear over inputs with any denominators ----------

LINEARITY_RULES = [complete(base_rules(3), 6), complete(chi_e_rules(2), 6)]
# distinct denominators that are not powers of s, and Laurent coefficients
NON_MONOMIAL = [ONE + Q, QRat(3) + Q, (QRat(2) + Q) / 7, ONE - Q * S, QRat(5)]
LAURENT = [ONE, -ONE, Q, ONE / Q, S - ONE / S, QRat(2) + Q]


def _coefficient(data):
    num = data.draw(st.sampled_from(LAURENT))
    return num / data.draw(st.sampled_from(NON_MONOMIAL + [ONE, S]))


def _word(data, alphabet):
    return tuple(data.draw(st.lists(st.integers(0, len(alphabet) - 1),
                                    max_size=6)))


def _poly(data, alphabet):
    return NcPoly(alphabet, [(_word(data, alphabet), _coefficient(data))
                             for _ in range(data.draw(st.integers(0, 4)))])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_commutes_with_scalars(data):
    rules = data.draw(st.sampled_from(LINEARITY_RULES))
    p = _poly(data, rules.alphabet)
    c = data.draw(st.sampled_from(LAURENT)) / data.draw(
        st.sampled_from(NON_MONOMIAL))
    assert rules.reduce(p.scale(c)) == rules.reduce(p).scale(c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_is_additive(data):
    rules = data.draw(st.sampled_from(LINEARITY_RULES))
    p, p2 = _poly(data, rules.alphabet), _poly(data, rules.alphabet)
    assert rules.reduce(p + p2) == rules.reduce(p) + rules.reduce(p2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_grouped_normal_form_equals_word_by_word(data):
    rules = data.draw(st.sampled_from(LINEARITY_RULES))
    a = rules.alphabet
    dens = data.draw(st.permutations(NON_MONOMIAL))[:data.draw(
        st.integers(2, len(NON_MONOMIAL)))]
    terms = [(_word(data, a), data.draw(st.sampled_from(LAURENT)) / d)
             for d in dens]
    terms += [(_word(data, a), data.draw(st.sampled_from(LAURENT)))
              for _ in range(data.draw(st.integers(0, 2)))]
    one_by_one = NcPoly.zero(a)
    for w, c in terms:
        one_by_one = one_by_one + rules.reduce(NcPoly.monomial(a, w)).scale(c)
    assert rules.reduce(NcPoly(a, terms)) == one_by_one


def test_a_rule_with_rhs_zero_reduces_its_lhs_to_zero():
    rs = RuleSet(A2, [RewriteRule((1, 0), NcPoly.zero(A2))])
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    assert rs.reduce(x1 * x2 * x1 + x2 * x1 * x1 + x1) == x1


def test_rule_with_a_non_laurent_coefficient_is_refused():
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    rule = RewriteRule((1, 0), (x1 * x2).scale(ONE / (ONE + Q)))
    with pytest.raises(ValueError) as err:
        RuleSet(A2, [rule])
    msg = str(err.value)
    assert "\n" not in msg
    assert "rule x2 x1" in msg and "not a Laurent polynomial in s" in msg


def test_memo_holds_laurent_coefficients_after_a_qq_reduction():
    v = Verifier(3, "rewrite")
    assert v.check_qq(2, 1, 0).passed
    memo = v.rules.memo
    assert len(memo) > 100
    for nf in memo.values():
        for c in nf.values():
            assert type(c) is tuple and len(c) == 2
            shift, ints = c
            assert type(shift) is int and type(ints) is tuple
            assert ints[0] and ints[-1]  # trimmed at both ends
            assert all(type(n) is int for n in ints)


# -- the prefix reducer against the leftmost reference, and the carried memo ----

@functools.lru_cache(maxsize=None)
def _completed(name):
    """Completed sets by name; "resumed" is x rank 4 completed to 6, then to 9."""
    if name == "resumed":
        return complete(complete(base_rules(4), 6), 9)
    family, rank = name[:-1], int(name[-1])
    return complete((base_rules if family == "x" else chi_e_rules)(rank), 8)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefix_reducer_matches_the_leftmost_reference(data):
    rules = _completed(data.draw(st.sampled_from(
        ["x2", "x3", "x4", "chi-e2", "chi-e3", "resumed"])))
    n = len(rules.alphabet)
    letters = st.lists(st.integers(0, n - 1), max_size=rules.completed_degree)
    words = data.draw(st.lists(letters, min_size=1, max_size=4))
    reference = LeftmostReducer(rules)
    cold = RuleSet(rules.alphabet, rules.rules, rules.completed_degree)
    for w in map(tuple, words):
        want = reference.word_normal_form(w)
        # the completed set's memo is warm from completion; a fresh one is cold
        assert rules.word_normal_form(w) == want
        assert cold.word_normal_form(w) == want


def _frozen(memo):
    return {w: dict(nf) for w, nf in memo.items()}


def test_completion_carries_the_memo_without_sharing_it():
    # x rank 4 has overlaps of degree 9, so the resumed completion reduces
    rs8 = complete(base_rules(4), 8)
    # remainders of length 9 and 10, beyond rs8's degree
    rs8.reduce(NcPoly.monomial(A4, (3, 2, 1) * 3)
               + NcPoly.monomial(A4, (3, 2, 1, 0, 1) * 2))
    before = _frozen(rs8.memo)
    rs9 = complete(rs8, 9)
    assert rs9.memo is not rs8.memo
    assert _frozen(rs8.memo) == before
    assert len(rs9.memo) > 1
    for rs in (rs8, rs9):
        cold = RuleSet(rs.alphabet, rs.rules, rs.completed_degree)
        for w, nf in rs.memo.items():
            assert nf == cold.word_normal_form(w), w


def _qq_difference(rank):
    """The qq (2,1,0) difference, as Verifier.check_qq(2, 1, 0) builds it."""
    a = x_alphabet(rank)
    qa = big_Q(a, rank, SpectralWindow(2, 0))
    qb = big_Q(a, rank, SpectralWindow(1, 0))
    return qa * qb - qb * qa


def test_cold_rank4_qq_reduction_stays_small():
    # a count, not a timing: the prefix reducer visits 11,828 words here,
    # leftmost-first rewriting 41,728
    diff = _qq_difference(4)
    done = complete(base_rules(4), diff.degree)
    cold = RuleSet(A4, done.rules, done.completed_degree)
    assert cold.reduce(diff).is_zero
    assert len(cold.memo) <= 15000


@pytest.mark.slow
def test_rank5_qq_reduces_to_zero_by_rewriting():
    diff = _qq_difference(5)
    assert complete(base_rules(5), diff.degree).reduce(diff).is_zero
