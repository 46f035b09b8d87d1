import functools
import hashlib
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import qserre.rewrite as rewrite_module
from qserre.qfield import ONE, QRat, q_power, s_power
from qserre.freealg import (
    NcPoly, SpectralWindow, big_Q, deg_lex_key, serre_braiding, x_alphabet,
)
from qserre.rewrite import (
    _L_ONE, Rule, RuleSet, _as_qrat, _count_mismatch, _laurent_over,
    braided_rules, complete, dump_rules, normal_word_counts, orient,
)
from qserre.roots import cartan_matrix, positive_roots
from qserre.verify import Verifier
from pbw_reference import pbw_series
from reference_rewrite import (
    LeftmostReducer, certified, critical_pair_residuals, raw_rules, roots_of,
)

Q = q_power(1)
S = s_power(1)

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


def _truncated(rules, degree):
    """The rules whose lhs is at most degree long, not certified.

    The reduced basis of a homogeneous ideal is unique, so these are the
    rules that completion up to degree gives.
    """
    return RuleSet(rules.alphabet, [r for r in rules.rules if len(r.lhs) <= degree])


@functools.lru_cache(maxsize=None)
def _completed(name, degree=8):
    """The named set as completion up to degree gives it: the certified set
    where the count certifies it by then, else a truncation of that set.
    "resumed" is x rank 4 truncated at degree 6 and completed again.

    Built on first use, not at import, so a fault in completion fails each
    test that needs the set, not the collection of the whole module.
    """
    if name == "resumed":
        return complete(_truncated(certified("x4"), 6), roots_of("x4"))
    done = certified(name)
    return done if done.certified_degree <= degree else _truncated(done, degree)


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
    rs = certified("x2")
    x1, x2 = (NcPoly.generator(A2, g) for g in ("x1", "x2"))
    got = rs.reduce(x2 * x1 * x1)
    want = (x1 * x2 * x1).scale((ONE + Q) / Q) - (x1 * x1 * x2).scale(ONE / Q)
    assert got == want


def test_reduce_distant_swap():
    rs = certified("x3")
    x1, x3 = (NcPoly.generator(A3, g) for g in ("x1", "x3"))
    assert rs.reduce(x3 * x1) == x1 * x3


def test_reduce_fixpoint_on_normal_words():
    rs = certified("x2")
    words = normal_words(rs, 4)
    assert len(words) == normal_word_counts(rs, 4)[4] == 9
    for w in words:
        p = NcPoly.monomial(A2, w)
        assert rs.reduce(p) == p


def test_completion_rank2_adds_nothing():
    # the raw rules already pass the count, at their own length
    rs = complete(raw_rules("x2"), roots_of("x2"))
    assert len(rs) == 2
    assert rs.certified_degree == 3


@pytest.mark.parametrize("raw, low, high", [
    (functools.partial(raw_rules, name), low, high) for name, low, high in (
        ("x3", 8, 10), ("chi-e2", 6, 8), ("x4", 8, 12), ("x5", 8, 9),
        ("chi-e3", 8, 9))])
def test_resumed_completion_equals_a_fresh_one(raw, low, high):
    # the reduced basis of a homogeneous ideal is unique: completion resumed
    # from its rules up to degree low ends at the fresh set, which the count
    # certifies by degree high
    name = raw.args[0]
    fresh = complete(raw(), roots_of(name))
    resumed = complete(_truncated(fresh, low), roots_of(name))
    assert dump_rules(resumed) == dump_rules(fresh)
    assert fresh.certified_degree <= high


def test_completing_a_certified_set_again_keeps_it():
    done = certified("x3")
    again = complete(done, roots_of("x3"))
    assert dump_rules(again) == dump_rules(done)
    assert again.certified_degree == done.certified_degree == 5
    assert normal_word_counts(again, 8) == normal_word_counts(done, 8)


def test_a_given_lhs_longer_than_the_lowest_degree_is_refused():
    # W holds the degree-4 lhs x3 x2 x1 x2 and no raw lhs; completion finds
    # that rule at degree 4, inside the given lhs W, and displaces nothing
    raw = raw_rules("x3")
    w = (2, 1, 0, 1, 0)
    # NF(w) - w, whose leading word is w
    extra = orient(A3, {w: (0, (-1,)), **certified("x3").reduced_terms([(w, _L_ONE)])})
    assert extra.lhs == w
    given = RuleSet(A3, raw.rules + (extra,))
    with pytest.raises(ValueError, match="not inter-reduced"):
        complete(given, roots_of("x3"))


def test_certified_completion_forms_fewer_s_polynomials(monkeypatch):
    # completion stops where the count certifies the set, and within a
    # degree once the count's deficit there is met: x rank 4 forms 18
    # S-polynomials, where its overlaps up to 7 number 44 and up to 12, 53
    raw = raw_rules("x4")
    formed = []
    real = rewrite_module._s_poly

    def spy(*args):
        formed.append(args)
        return real(*args)

    monkeypatch.setattr(rewrite_module, "_s_poly", spy)
    done = complete(raw, roots_of("x4"))
    assert done.certified_degree == 7 and len(formed) == 18
    assert len(critical_pair_residuals(done, 7)) == 44
    assert len(critical_pair_residuals(done, 12)) == 53


@pytest.mark.parametrize("raw, degree, golden", [
    (functools.partial(raw_rules, "x4"), 12, "rules_x_rank4_deg12.txt"),
    (functools.partial(raw_rules, "chi-e4"), 8, "rules_chi_e_rank4_deg8.txt")])
def test_rank4_completions_match_golden(raw, degree, golden):
    # the rule lines were recorded with the Q(s) reducer, completing to
    # degree 12 and 8, before the count stopped completion at L = 7
    done = complete(raw(), roots_of(raw.args[0]))
    assert done.certified_degree <= degree
    assert dump_rules(done) == (GOLDEN / golden).read_text()


# sha256 of dump_rules for the completed sets that no golden file holds.
# Their rule lines were recorded by completing to the stated degree: before
# the relations were written from the braiding, and x5 at 17 = 2L - 1 while
# completion still oriented over Q(s).  The headers were re-recorded when
# the count began to certify sets, with the rule lines unchanged, so a set
# certified by the stated degree has one digest at every such degree.
COMPLETED_DIGESTS = {
    ("x4", 8): "11a9da35eaf6badbb3d134553d34155bbc1d6e28e4576724a1594c8ed4a29c48",
    ("x5", 8): "d4f77be0e2faa9fe4c7e3604d74b1f23759e9a4c8243eeb54bd5638a4bba2ca7",
    ("x6", 8): "a91fb053339e306fa8604379ef3e5f492ec6d9c55468aa8fd82f406b93b098c7",
    ("x3", 10): "c4a33bce370bf432dda7d9268dd71f45f3ea3357d05e0a0850daa853a1dcf48b",
    ("x3", 12): "c4a33bce370bf432dda7d9268dd71f45f3ea3357d05e0a0850daa853a1dcf48b",
    ("x4", 10): "11a9da35eaf6badbb3d134553d34155bbc1d6e28e4576724a1594c8ed4a29c48",
    ("chi-e3", 8): "38c2bf171a5f44c3f6b3b28073f3e07742ed360b5c647b8f7a255a4f48c6ea42",
    ("x5", 17): "6eb78a804c90f754bbe6df8ee9150798412c931e2e52361dc6edada89b0a5f01",
}


def _digest(rules):
    return hashlib.sha256(dump_rules(rules).encode()).hexdigest()


@pytest.mark.parametrize("name, degree", list(COMPLETED_DIGESTS))
def test_completed_rule_sets_match_their_digests(name, degree):
    assert _digest(_completed(name, degree)) == COMPLETED_DIGESTS[name, degree]


@pytest.mark.slow
def test_x6_completed_to_2l_minus_1_matches_its_digest():
    # L = 11; the rule lines were recorded like x5 at 17, completing to 21,
    # and every overlap up to 21 still resolves
    done = certified("x6")
    assert _digest(done) == "374306e37e5d8a6601d03632ceb9fda042856e9aa52010780d8a952a95ae034e"
    assert not any(r for _, r in critical_pair_residuals(done, 21))


def test_completion_does_no_ncpoly_or_qrat_arithmetic(monkeypatch):
    # completion forms, reduces and orients S-polynomials in the rules' own
    # Laurent pairs; over Q(s) this completion made 106 NcPoly products
    raw, roots = raw_rules("x4"), roots_of("x4")  # built before the spies go in
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
    done = complete(raw, roots)
    assert calls == []
    assert len(done) == 15


def test_a_transposed_x_braiding_misses_every_x_digest():
    # mutation control: chi(x_n, x_{n+1}) = q^-1 in place of
    # chi(x_{n+1}, x_n) = q^-1 gives other relations, so other rule sets
    @functools.lru_cache(maxsize=None)
    def completed(rank):
        transposed = tuple(zip(*serre_braiding(rank)))
        return complete(braided_rules(x_alphabet(rank), transposed),
                        positive_roots(cartan_matrix(transposed)))
    for (name, degree), digest in COMPLETED_DIGESTS.items():
        if name[0] == "x":
            done = completed(int(name[1:]))
            if done.certified_degree > degree:
                done = _truncated(done, degree)
            assert _digest(done) != digest, (name, degree)


def test_completion_rank1_empty():
    # x1 has no rules, and the count certifies the empty set at once
    rs = complete(raw_rules("x1"), roots_of("x1"))
    assert len(rs) == 0 and rs.certified_degree == 0
    assert normal_word_counts(rs, 4) == [1, 1, 1, 1, 1]


def test_completion_rank3_matches_dimension_oracle():
    from reference_echelon import ReferenceOracle, serre_relations
    rs = certified("x3")
    counts = normal_word_counts(rs, 6)
    oracle = ReferenceOracle(A3, serre_relations(A3))
    assert counts == oracle.quotient_dimensions(6)
    assert counts[:4] == [1, 3, 8, 17]


def test_normal_word_counts_rank2():
    # a certified set counts in every degree, past its certified degree 3;
    # a set the count has not certified is refused
    rs = certified("x2")
    assert normal_word_counts(rs, 4) == [1, 2, 4, 6, 9]
    assert normal_word_counts(rs, 30) == pbw_series(2, 30)
    with pytest.raises(ValueError, match="not certified"):
        normal_word_counts(raw_rules("x3"), 4)


def test_counts_non_increasing_under_completion():
    raw = raw_rules("x3")
    done = complete(raw, roots_of("x3"))
    for d in range(7):
        assert len(normal_words(done, d)) <= len(normal_words(raw, d))
    # and completion has stabilized: rerunning changes nothing
    again = complete(done, roots_of("x3"))
    assert {r.lhs for r in again.rules} == {r.lhs for r in done.rules}


def test_soundness_reduction_stays_in_ideal():
    from qserre.oracle import IdealOracle
    rs = certified("x2")
    rng = random.Random(11)
    oracle = IdealOracle(serre_braiding(2))
    for _ in range(15):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
        p = NcPoly.monomial(A2, w, Q) + NcPoly.monomial(A2, w[::-1])
        diff = rs.reduce(p) - p
        assert oracle.member(diff)


def test_reduce_idempotent_and_linear():
    rs = certified("x2")
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
    rs = certified("x3")
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
    # certified at degree 3, and canonical in every degree: up to 9 here
    from qserre.oracle import IdealOracle
    rs = certified("x2")
    oracle = IdealOracle(serre_braiding(2))
    rng = random.Random(17)
    words = lambda n: tuple(rng.randrange(2) for _ in range(n))
    for _ in range(20):
        d = rng.randrange(2, 10)
        p = NcPoly.monomial(A2, words(d)) + NcPoly.monomial(A2, words(d), Q)
        r = NcPoly.monomial(A2, words(d), ONE - Q)
        same_nf = rs.reduce(p) == rs.reduce(r)
        in_ideal = oracle.member(p - r)
        assert same_nf == in_ideal


def _resolve_up_to_2l_minus_1(name):
    rs = certified(name)
    residuals = critical_pair_residuals(rs, 2 * rs.certified_degree - 1)
    assert residuals
    for pair, residual in residuals:
        assert not residual, (name, pair)


def test_critical_pairs_all_resolve():
    # the diamond lemma's route to what the count certifies: every overlap
    # of the certified set, up to 2L - 1, resolves to zero
    for name in ("x2", "x3", "x4", "chi-e2", "chi-e3"):
        _resolve_up_to_2l_minus_1(name)


@pytest.mark.slow
def test_critical_pairs_of_x5_all_resolve():
    _resolve_up_to_2l_minus_1("x5")


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
    a = complete(raw_rules("x3"), roots_of("x3"))
    b = complete(raw_rules("x3"), roots_of("x3"))
    assert [(r.lhs, sorted(r.rhs)) for r in a.rules] == \
        [(r.lhs, sorted(r.rhs)) for r in b.rules]


def test_step_budget_guard(monkeypatch):
    monkeypatch.setattr(rewrite_module, "MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="step budget"):
        complete(raw_rules("x3"), roots_of("x3"))


def test_completion_never_calls_the_traced_reduce(monkeypatch):
    # complete reduces with normal_form, so the rewrite.reduce counters of a
    # trace count only the reductions its callers ask for
    calls = []

    def spy(self, p):
        calls.append(p)
        return RuleSet.normal_form(self, p)

    monkeypatch.setattr(RuleSet, "reduce", spy)
    done = complete(raw_rules("x3"), roots_of("x3"))
    assert calls == []
    done.reduce(NcPoly.generator(A3, "x1"))  # the spy sees a caller's call
    assert len(calls) == 1



# -- the Laurent reducer: Q(s)-linear over inputs with any denominators ----------

LINEARITY_SETS = ["x3", "chi-e2"]  # certified on first use
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
    rules = certified(data.draw(st.sampled_from(LINEARITY_SETS)))
    p = _poly(data, rules.alphabet)
    c = data.draw(st.sampled_from(LAURENT)) / data.draw(
        st.sampled_from(NON_MONOMIAL))
    assert rules.reduce(p.scale(c)) == rules.reduce(p).scale(c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_is_additive(data):
    rules = certified(data.draw(st.sampled_from(LINEARITY_SETS)))
    p, p2 = _poly(data, rules.alphabet), _poly(data, rules.alphabet)
    assert rules.reduce(p + p2) == rules.reduce(p) + rules.reduce(p2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_grouped_normal_form_equals_word_by_word(data):
    rules = certified(data.draw(st.sampled_from(LINEARITY_SETS)))
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
    letters = st.lists(st.integers(0, n - 1), max_size=8)
    words = data.draw(st.lists(letters, min_size=1, max_size=4))
    reference = LeftmostReducer(rules)
    cold = RuleSet(rules.alphabet, rules.rules, rules.certified_degree)
    for w in map(tuple, words):
        want = reference.word_normal_form(w)
        # the completed set's memo is warm from completion; a fresh one is cold
        assert rules.word_normal_form(w) == want
        assert cold.word_normal_form(w) == want


def _frozen(memo):
    return {w: dict(nf) for w, nf in memo.items()}


def test_completion_carries_the_memo_without_sharing_it(monkeypatch):
    # every working set gets its own copy of the entries that stay valid
    raw = raw_rules("x4")
    # remainders of length 9 and 10 in the given set's memo
    raw.reduce(NcPoly.monomial(A4, (3, 2, 1) * 3)
               + NcPoly.monomial(A4, (3, 2, 1, 0, 1) * 2))
    before = _frozen(raw.memo)
    sets = []
    real = rewrite_module._carried

    def spy(*args):
        sets.append(real(*args))
        return sets[-1]

    monkeypatch.setattr(rewrite_module, "_carried", spy)
    done = complete(raw, roots_of("x4"))
    assert sets[-1] is done and len(sets) > 2
    assert len({id(rs.memo) for rs in sets + [raw]}) == len(sets) + 1
    assert _frozen(raw.memo) == before
    assert len(done.memo) > 1
    cold = RuleSet(done.alphabet, done.rules)
    for w, nf in done.memo.items():
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
    done = certified("x4")
    cold = RuleSet(A4, done.rules, done.certified_degree)
    assert cold.reduce(diff).is_zero
    assert len(cold.memo) <= 15000


@pytest.mark.slow
def test_rank5_qq_reduces_to_zero_by_rewriting():
    diff = _qq_difference(5)
    assert certified("x5").reduce(diff).is_zero


# -- the count that certifies a set in every degree -----------------------------

@pytest.mark.parametrize("name, degree", [
    ("x2", 3), ("x3", 5), ("x4", 7), ("x5", 9), ("x6", 11),
    ("chi-e2", 3), ("chi-e3", 5), ("chi-e4", 7)])
def test_the_count_certifies_each_set_at_its_longest_lhs(name, degree):
    # L = 2r - 1 at x ranks 2-6 and chi-e ranks 2-4
    rs = certified(name)
    assert rs.certified_degree == degree == max(len(r.lhs) for r in rs.rules)
    assert _count_mismatch(rs, roots_of(name)) is None
    assert dump_rules(rs).splitlines()[1] == (
        "# certificate: global, by the normal-word count at degree %d" % degree)


@pytest.mark.parametrize("name, mismatch", [
    ("x3", (5, 59, 58)), ("x4", (7, 637, 636))])
def test_dropping_the_longest_rule_fails_the_count_at_l(name, mismatch):
    rs = certified(name)
    longest = max(rs.rules, key=lambda r: len(r.lhs))
    fewer = RuleSet(rs.alphabet, [r for r in rs.rules if r is not longest])
    assert _count_mismatch(fewer, roots_of(name)) == mismatch


def test_x5_stopped_at_degree_8_fails_the_count_at_9():
    # the set that completion to max(8, degree) used to give at rank 5
    stopped = _completed("x5", 8)
    assert _digest(stopped) == COMPLETED_DIGESTS["x5", 8]
    assert _count_mismatch(stopped, roots_of("x5")) == (9, 7409, 7408)
    assert dump_rules(stopped).splitlines()[1] == "# certificate: none"


def test_completion_raises_where_no_count_certifies():
    # mutation control: against A2's roots the x3 counts never agree, and
    # completion stops at the cap 2 ht(theta) + 1 = 5 rather than pass it
    with pytest.raises(RuntimeError, match="by degree 5"):
        complete(raw_rules("x3"), roots_of("x2"))
