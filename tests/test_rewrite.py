import itertools
import random

import pytest

from qserre.qfield import ONE, Q
from qserre.freealg import (
    NcPoly, deg_lex_key, serre_braiding, serre_relations, x_alphabet,
)
from qserre.rewrite import (
    RewriteRule, RuleSet, base_rules, chi_e_rules,
    complete, critical_pair_residuals, dump_rules, normal_word_counts, orient,
)

A2 = x_alphabet(2)
A3 = x_alphabet(3)


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
    (base_rules(3), 8, 10), (chi_e_rules(2), 6, 8)])
def test_resumed_completion_equals_a_fresh_one(raw, low, high):
    # the truncated reduced basis of a homogeneous ideal is unique
    resumed = complete(complete(raw, low), high)
    assert dump_rules(resumed) == dump_rules(complete(raw, high))


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
                     * rule.as_poly()
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


def test_step_budget_guard():
    with pytest.raises(RuntimeError):
        complete(base_rules(3), 8, max_steps=2)

