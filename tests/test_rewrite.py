import functools
import hashlib
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import qserre.rewrite as rewrite_module
from qserre.qfield import ONE, Q, QRat, S
from qserre.freealg import (
    NcPoly, SpectralWindow, big_Q, deg_lex_key, serre_braiding, x_alphabet,
)
from qserre.rewrite import (
    _L_ONE, Rule, RuleSet, _as_qrat, _laurent_over, braided_rules, complete,
    critical_pair_residuals, dump_rules, normal_word_counts, orient,
)
from qserre.verify import Verifier
from reference_rewrite import LeftmostReducer, raw_rules

A2 = x_alphabet(2)
A3 = x_alphabet(3)
A4 = x_alphabet(4)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _terms(p):
    """p's terms with Laurent coefficients, the map orient takes."""
    out = {}
    for w, c in p.terms.items():
        den, out[w] = _laurent_over(c)
        assert den == (1,), c
    return out


def normal_words(rules, degree):
    """Every word of the degree with no rule lhs as a subword, by brute force."""
    lhss = [r.lhs for r in rules.rules]
    return [w for w in itertools.product(range(len(rules.alphabet)), repeat=degree)
            if not any(w[i:i + len(lhs)] == lhs
                       for lhs in lhss for i in range(degree - len(lhs) + 1))]


@functools.lru_cache(maxsize=None)
def _completed(name, degree=8):
    """Completed sets by name; "resumed" is x rank 4 completed to 6, then to 9.

    Built on first use, not at import, so a fault in completion fails each
    test that needs the set, not the collection of the whole module.
    """
    if name == "resumed":
        return complete(complete(raw_rules("x4"), 6), 9)
    return complete(raw_rules(name), degree)


def test_base_rule_counts():
    assert len(raw_rules("x1")) == 0
    assert len(raw_rules("x2")) == 2
    assert len(raw_rules("x3")) == 5


def test_base_rule_orientation():
    rs = raw_rules("x2")
    lhss = {rs.alphabet.word_str(r.lhs) for r in rs.rules}
    assert lhss == {"x2 x1 x1", "x2 x2 x1"}
    by_lhs = {rs.alphabet.word_str(r.lhs): r for r in rs.rules}
    # x2 x1 x1 -> ((1 + q)/q) x1 x2 x1 - (1/q) x1 x1 x2, as Laurent pairs
    assert dict(by_lhs["x2 x1 x1"].rhs) == {(0, 1, 0): (-2, (1, 0, 1)),
                                           (0, 0, 1): (-2, (-1,))}


def test_reduce_serre_word():
    rs = complete(raw_rules("x2"), 6)
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    got = rs.reduce(x2 * x1 * x1)
    want = (x1 * x2 * x1).scale((ONE + Q) / Q) - (x1 * x1 * x2).scale(ONE / Q)
    assert got == want


def test_reduce_distant_swap():
    rs = complete(raw_rules("x3"), 4)
    x1, x3 = (NcPoly.generator(A3, g) for g in ("x1", "x3"))
    assert rs.reduce(x3 * x1) == x1 * x3


def test_reduce_fixpoint_on_normal_words():
    rs = complete(raw_rules("x2"), 6)
    words = normal_words(rs, 4)
    assert len(words) == normal_word_counts(rs, 4)[4] == 9
    for w in words:
        p = NcPoly.monomial(A2, w)
        assert rs.reduce(p) == p


def test_completion_rank2_adds_nothing():
    rs = complete(raw_rules("x2"), 8)
    assert len(rs) == 2
    assert rs.completed_degree == 8


@pytest.mark.parametrize("raw, low, high", [
    (functools.partial(raw_rules, name), low, high) for name, low, high in (
        ("x3", 8, 10), ("chi-e2", 6, 8), ("x4", 8, 12), ("x5", 8, 9),
        ("chi-e3", 8, 9))])
def test_resumed_completion_equals_a_fresh_one(raw, low, high):
    # the truncated reduced basis of a homogeneous ideal is unique
    raw = raw()
    resumed = complete(complete(raw, low), high)
    assert dump_rules(resumed) == dump_rules(complete(raw, high))


def test_completing_to_a_lower_degree_keeps_the_certificate():
    done = complete(raw_rules("x3"), 8)
    again = complete(done, 6)
    assert again is done and again.completed_degree == 8
    assert normal_word_counts(again, 8) == normal_word_counts(done, 8)


def test_a_given_lhs_longer_than_the_lowest_degree_is_refused():
    # W holds the degree-4 lhs x3 x2 x1 x2 and no raw lhs; completion finds
    # that rule at degree 4, inside the given lhs W, and displaces nothing
    raw = raw_rules("x3")
    w = (2, 1, 0, 1, 0)
    # NF(w) - w, whose leading word is w
    extra = orient(A3, {w: (0, (-1,)), **complete(raw, 9).reduced_terms([(w, _L_ONE)])})
    assert extra.lhs == w
    given = RuleSet(A3, raw.rules + (extra,))
    with pytest.raises(ValueError, match="not inter-reduced"):
        complete(given, 9)


def test_resumed_completion_forms_fewer_s_polynomials(monkeypatch):
    # pairs of the given rules up to their completed degree are skipped:
    # x rank 4 from 8 to 12 forms 2 S-polynomials, a fresh completion 53
    raw = raw_rules("x4")
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
    (functools.partial(raw_rules, "x4"), 12, "rules_x_rank4_deg12.txt"),
    (functools.partial(raw_rules, "chi-e4"), 8, "rules_chi_e_rank4_deg8.txt")])
def test_rank4_completions_match_golden(raw, degree, golden):
    # recorded with the Q(s) reducer, before rewriting moved to Z[s, 1/s]
    assert dump_rules(complete(raw(), degree)) == (GOLDEN / golden).read_text()


# sha256 of dump_rules for the completed sets that no golden file holds,
# recorded before the relations were written from the braiding; x5 at
# 17 = 2L - 1, where every overlap of its longest lhs is resolved, was
# recorded while completion still oriented over Q(s)
COMPLETED_DIGESTS = {
    ("x4", 8): "8b4c06154d7763264b65af2ef753bd7b5addce8b9ce5ba80ea1b0f04d7ddd4c2",
    ("x5", 8): "50a789675a7f7a520542ed6cd7163071e72779ed2b4617c898bcc208ba4219b6",
    ("x6", 8): "4c4d9f2541cda9ef9bf0bd8c4d1ef9d3997b651e71c4e676bb6bc8076e32b6cf",
    ("x3", 10): "f0f36198e643e3c3f9f84416ce7fabc91e7eb039d27ff7280bf915e59a175e48",
    ("x3", 12): "4f679fe2492b0f4d9ac55bd4efde1b90677d88fe869af69d3cad944e70edc33a",
    ("x4", 10): "cc94ce9d01823b2482569bc8986ba435826e9bf749c683cff7f42bab79da9401",
    ("chi-e3", 8): "4b093f5ae9c93ad9d04d5ddfea5a83c882f91bd0ad28e60b64b0903a114043f7",
    ("x5", 17): "5eccd8c3541d4db2ea9664d54bbbad4b4b1fdb3feab77be44f8dc3fa210bd566",
}


def _digest(rules):
    return hashlib.sha256(dump_rules(rules).encode()).hexdigest()


@pytest.mark.parametrize("name, degree", list(COMPLETED_DIGESTS))
def test_completed_rule_sets_match_their_digests(name, degree):
    assert _digest(_completed(name, degree)) == COMPLETED_DIGESTS[name, degree]


@pytest.mark.slow
def test_x6_completed_to_2l_minus_1_matches_its_digest():
    # L = 11; recorded like x5 at 17, and a few seconds to complete
    assert _digest(complete(raw_rules("x6"), 21)) == \
        "3c7c02b0e0d0f572235549a2e0968391941f1298cc27759cf92cef0d89c77f58"


def test_completion_does_no_ncpoly_or_qrat_arithmetic(monkeypatch):
    # completion forms, reduces and orients S-polynomials in the rules' own
    # Laurent pairs; over Q(s) this completion made 106 NcPoly products
    raw = raw_rules("x4")  # built before the spies go in
    calls = []

    def spy(cls, name):
        real = cls.__dict__[name]

        def counted(*args):
            calls.append((cls.__name__, name))
            return real(*args)
        monkeypatch.setattr(cls, name, counted)

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale"):
        spy(NcPoly, name)
    for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__"):
        spy(QRat, name)
    done = complete(raw, 12)
    assert calls == []
    assert len(done) == 15


def test_a_transposed_x_braiding_misses_every_x_digest():
    # mutation control: chi(x_n, x_{n+1}) = q^-1 in place of
    # chi(x_{n+1}, x_n) = q^-1 gives other relations, so other rule sets
    def transposed(alphabet):
        return tuple(zip(*serre_braiding(alphabet)))
    for (name, degree), digest in COMPLETED_DIGESTS.items():
        if name[0] == "x":
            raw = braided_rules(x_alphabet(int(name[1:])), transposed)
            assert _digest(complete(raw, degree)) != digest, (name, degree)


def test_completion_rank1_empty():
    rs = complete(raw_rules("x1"), 8)
    assert len(rs) == 0
    assert normal_word_counts(rs, 4) == [1, 1, 1, 1, 1]


def test_completion_rank3_matches_dimension_oracle():
    from reference_echelon import ReferenceOracle, serre_relations
    rs = complete(raw_rules("x3"), 6)
    counts = normal_word_counts(rs, 6)
    oracle = ReferenceOracle(A3, serre_relations(A3))
    assert counts == oracle.quotient_dimensions(6)
    assert counts[:4] == [1, 3, 8, 17]


def test_normal_word_counts_rank2():
    rs = complete(raw_rules("x2"), 8)
    assert normal_word_counts(rs, 4) == [1, 2, 4, 6, 9]
    with pytest.raises(ValueError):
        normal_word_counts(rs, 9)


def test_counts_non_increasing_under_completion():
    raw = raw_rules("x3")
    done = complete(raw, 6)
    for d in range(7):
        assert len(normal_words(done, d)) <= len(normal_words(raw, d))
    # and completion has stabilized: rerunning changes nothing
    again = complete(done, 6)
    assert {r.lhs for r in again.rules} == {r.lhs for r in done.rules}


def test_soundness_reduction_stays_in_ideal():
    from qserre.oracle import IdealOracle
    rs = complete(raw_rules("x2"), 6)
    rng = random.Random(11)
    oracle = IdealOracle(A2, serre_braiding)
    for _ in range(15):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
        p = NcPoly.monomial(A2, w, Q) + NcPoly.monomial(A2, w[::-1])
        diff = rs.reduce(p) - p
        assert oracle.member(diff)


def test_reduce_idempotent_and_linear():
    rs = complete(raw_rules("x2"), 6)
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
    rs = complete(raw_rules("x3"), 7)
    pads = [(), (0,), (2,), (1, 2)]
    for rule in rs.rules:
        for u in pads:
            for v in pads:
                if len(u) + len(rule.lhs) + len(v) > 7:
                    continue
                rhs = NcPoly(A3, [(w, _as_qrat(c)) for w, c in rule.rhs])
                p = (NcPoly.monomial(A3, u)
                     * (NcPoly.monomial(A3, rule.lhs) - rhs)
                     * NcPoly.monomial(A3, v))
                assert rs.reduce(p).is_zero


def test_canonicity_within_certified_degree():
    from qserre.oracle import IdealOracle
    rs = complete(raw_rules("x2"), 5)
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
    for rs, d in [(complete(raw_rules("x2"), 8), 8),
                  (complete(raw_rules("x3"), 8), 8),
                  (complete(raw_rules("chi-e2"), 6), 6)]:
        for pair, residual in critical_pair_residuals(rs, d):
            assert not residual, pair


def test_rule_validation():
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    with pytest.raises(ValueError, match="not homogeneous"):
        orient(A2, _terms(x1 * x2 * x1 - x2 * x1))
    with pytest.raises(ValueError, match="zero relation"):
        orient(A2, {})
    with pytest.raises(ValueError):
        RuleSet(A2, [orient(A2, _terms(x2 * x1 - x1 * x2)),
                     orient(A2, _terms(x2 * x1 * x1 - x1 * x1 * x2))])
    with pytest.raises(ValueError, match="not inter-reduced"):
        RuleSet(A2, [orient(A2, _terms(x2 * x1 - x1 * x2))] * 2)  # a repeated lhs


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
    a = complete(raw_rules("x3"), 7)
    b = complete(raw_rules("x3"), 7)
    assert [(r.lhs, sorted(r.rhs)) for r in a.rules] == \
        [(r.lhs, sorted(r.rhs)) for r in b.rules]


def test_step_budget_guard(monkeypatch):
    monkeypatch.setattr(rewrite_module, "MAX_STEPS", 2)
    with pytest.raises(RuntimeError):
        complete(raw_rules("x3"), 8)


def test_completion_never_calls_the_traced_reduce(monkeypatch):
    # complete reduces with normal_form, so the rewrite.reduce counters of a
    # trace count only the reductions its callers ask for
    calls = []

    def spy(self, p):
        calls.append(p)
        return RuleSet.normal_form(self, p)

    monkeypatch.setattr(RuleSet, "reduce", spy)
    done = complete(raw_rules("x3"), 9)
    assert calls == []
    done.reduce(NcPoly.generator(A3, "x1"))  # the spy sees a caller's call
    assert len(calls) == 1



# -- the Laurent reducer: Q(s)-linear over inputs with any denominators ----------

LINEARITY_SETS = ["x3", "chi-e2"]  # completed to degree 6 on first use
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
    rules = _completed(data.draw(st.sampled_from(LINEARITY_SETS)), 6)
    p = _poly(data, rules.alphabet)
    c = data.draw(st.sampled_from(LAURENT)) / data.draw(
        st.sampled_from(NON_MONOMIAL))
    assert rules.reduce(p.scale(c)) == rules.reduce(p).scale(c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_is_additive(data):
    rules = _completed(data.draw(st.sampled_from(LINEARITY_SETS)), 6)
    p, p2 = _poly(data, rules.alphabet), _poly(data, rules.alphabet)
    assert rules.reduce(p + p2) == rules.reduce(p) + rules.reduce(p2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_grouped_normal_form_equals_word_by_word(data):
    rules = _completed(data.draw(st.sampled_from(LINEARITY_SETS)), 6)
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
    rs = RuleSet(A2, [Rule((1, 0), ())])
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    assert rs.reduce(x1 * x2 * x1 + x2 * x1 * x1 + x1) == x1


def test_rule_with_a_non_laurent_coefficient_is_refused():
    # x2 x1 -> x1 x2 / (1 + q) would need a denominator
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    with pytest.raises(ValueError) as err:
        orient(A2, _terms((x2 * x1).scale(ONE + Q) - x1 * x2))
    msg = str(err.value)
    assert "\n" not in msg
    assert "rule x2 x1" in msg and "not a Laurent polynomial in s" in msg


def test_a_leading_coefficient_that_divides_the_others_is_accepted():
    # 2 x2 x1 - 2q x1 x2 orients to x2 x1 -> q x1 x2: 2 is no unit of
    # Z[s, 1/s], yet it divides every coefficient exactly
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    rule = orient(A2, _terms((x2 * x1).scale(QRat(2)) - (x1 * x2).scale(Q * 2)))
    assert rule == Rule((1, 0), (((0, 1), (2, (1,))),))
    assert RuleSet(A2, [rule]).reduce(x2 * x1) == (x1 * x2).scale(Q)


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
    rs8 = complete(raw_rules("x4"), 8)
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
    done = complete(raw_rules("x4"), diff.degree)
    cold = RuleSet(A4, done.rules, done.completed_degree)
    assert cold.reduce(diff).is_zero
    assert len(cold.memo) <= 15000


@pytest.mark.slow
def test_rank5_qq_reduces_to_zero_by_rewriting():
    diff = _qq_difference(5)
    assert complete(raw_rules("x5"), diff.degree).reduce(diff).is_zero
