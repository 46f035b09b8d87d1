import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qserre.oracle as oracle_module
from qserre.qfield import ONE, Q, S, QRat, _content, _pgcd, q_power
from qserre.freealg import NcPoly, chi_e_alphabet, chi_e_relations, serre_relations, x_alphabet
from qserre.oracle import (
    IdealOracle, random_points, randomized_precheck, split_homogeneous,
)

A2 = x_alphabet(2)
A3 = x_alphabet(3)
RELS2 = serre_relations(A2)
RELS3 = serre_relations(A3)


def gens(a):
    return [NcPoly.generator(a, name) for name in a.letters]


def test_split_homogeneous():
    x1, x2 = gens(A2)
    p = NcPoly.unit(A2) - x1
    slices = split_homogeneous(p)
    assert [s.degree for s in slices] == [0, 1]
    assert sum((s.vector for s in slices), NcPoly.zero(A2)) == p

    one_slice = split_homogeneous(x1 * x2 + (x2 * x1).scale(Q))
    assert [s.degree for s in one_slice] == [2]

    assert split_homogeneous(NcPoly.zero(A2)) == []


def test_relation_is_member():
    x1, x2 = gens(A2)
    p = x1 * x1 * x2 + (x2 * x1 * x1).scale(Q) - (x1 * x2 * x1).scale(ONE + Q)
    assert IdealOracle(A2, RELS2).member(p, 8).member


def test_commutator_is_not_member():
    x1, x2 = gens(A2)
    res = IdealOracle(A2, RELS2).member(x1 * x2 - x2 * x1, 8)
    assert not res.member


def test_zero_is_member():
    assert IdealOracle(A2, RELS2).member(NcPoly.zero(A2), 8).member


def test_cap_exceeded():
    x1, x2 = gens(A2)
    p = (x1 * x2) ** 5
    with pytest.raises(ValueError):
        IdealOracle(A2, RELS2).member(p, 8)


def test_membership_monotone_under_padding_and_sums():
    x1, x2 = gens(A2)
    rel = RELS2[0]
    combos = [
        rel.scale(Q) + x1 * rel,
        rel * x2 + (x2 * rel * x1).scale(ONE + Q),
        x1 * rel * x2 - rel * (x1 * x2),
    ]
    for p in combos:
        assert IdealOracle(A2, RELS2).member(p, 8).member


def test_precheck_examples():
    x1, x2 = gens(A2)
    oracle = IdealOracle(A2, RELS2)
    assert randomized_precheck(NcPoly.zero(A2), oracle, 3, 0)
    assert randomized_precheck(RELS2[0], oracle, 3, 0)
    assert not randomized_precheck(x1 * x2 - x2 * x1, oracle, 3, 0)


def test_random_points_admissible():
    pts = random_points(6, 42)
    assert len(set(pts)) == 6
    for pt in pts:
        assert pt not in (0, 1, -1)
    assert random_points(6, 42) == pts
    assert random_points(9, 42)[:6] == pts  # a longer draw extends the list


def test_agreement_with_rewriter_small():
    from qserre.rewrite import base_rules, complete
    rs = complete(base_rules(2), 5)
    oracle = IdealOracle(A2, RELS2)
    rng = random.Random(23)
    checked_members = 0
    for _ in range(60):
        terms = {}
        d = rng.randrange(1, 6)
        for _ in range(rng.randrange(1, 4)):
            w = tuple(rng.randrange(2) for _ in range(d))
            terms[w] = QRat(rng.randrange(-3, 4))
        p = NcPoly(A2, terms)
        if rng.random() < 0.4:
            rel = RELS2[rng.randrange(2)]
            u = tuple(rng.randrange(2) for _ in range(d - 3)) if d > 3 else ()
            p = NcPoly.monomial(A2, u) * rel
        if p.degree is not None and p.degree > 5:
            continue
        member = oracle.member(p, 5).member
        assert member == rs.reduce(p).is_zero
        checked_members += member
    assert checked_members > 5


def test_dimension_consistency_rank2():
    from qserre.rewrite import base_rules, complete, normal_word_counts
    rs = complete(base_rules(2), 6)
    oracle = IdealOracle(A2, RELS2)
    assert normal_word_counts(rs, 6) == oracle.quotient_dimensions(6)
    assert oracle.quotient_dimensions(4) == [1, 2, 4, 6, 9]


def test_dimension_consistency_rank3_low_degrees():
    oracle = IdealOracle(A3, RELS3)
    assert oracle.quotient_dimensions(3) == [1, 3, 8, 17]


def test_oracle_rejects_non_multihomogeneous_relations():
    x1, x2 = gens(A2)
    with pytest.raises(ValueError):
        IdealOracle(A2, [x1 * x2 - x1 * x1])


# -- fraction-free elimination: same row spaces as the field elimination -------

def test_quotient_dimensions_rank3_degree6():
    oracle = IdealOracle(A3, RELS3)
    assert oracle.quotient_dimensions(6) == [1, 3, 8, 17, 33, 58, 97]


def test_chi_e_blocks_rank2():
    a = chi_e_alphabet(2)
    oracle = IdealOracle(a, chi_e_relations(a))
    assert oracle.quotient_dimensions(5) == [1, 4, 11, 24, 46, 80]
    ranks = {(1, 1, 1, 1): 22, (1, 1, 0, 2): 11, (0, 2, 2, 0): 5,
             (0, 0, 1, 3): 2, (2, 1, 1, 0): 11, (0, 0, 2, 2): 3}
    for content, rank in ranks.items():
        assert oracle._block(content).rank == rank, content


def test_echelon_rows_are_integer_polynomials():
    oracle = IdealOracle(A3, RELS3)
    ech = oracle._block((1, 2, 1))
    assert ech.rank
    for row in ech.pivots.values():
        for coeffs in row.values():
            assert isinstance(coeffs, tuple) and coeffs
            assert all(isinstance(c, int) for c in coeffs)
    # rational coefficients are cleared before elimination; over 1 + q one
    # entry of the scaled relation loses its denominator and the others not
    x1, x2 = gens(A2)
    rel = RELS2[0].scale(QRat(1, (1, 0, 1)))
    assert len({c.den for c in rel.terms.values()}) == 2
    oracle = IdealOracle(A2, RELS2)
    assert oracle.member(rel, 8).member
    assert not oracle.member(rel + (x1 * x2 * x1).scale(QRat(2, 3)), 8).member


def test_stored_rows_are_primitive():
    # reduction sheds only integer content; each stored row must still come
    # out with polynomial content 1 and integer content 1
    ech = IdealOracle(A3, RELS3)._block((2, 3, 2))
    assert ech.rank == 197
    for row in ech.pivots.values():
        entries = list(row.values())
        g = entries[0]
        for v in entries[1:]:
            g = _pgcd(g, v)
        assert g == (1,)
        assert math.gcd(*(_content(v) for v in entries)) == 1


# -- the precheck: the exact oracle's blocks at specialized points -------------

PRECHECK_ORACLES = (IdealOracle(A2, RELS2), IdealOracle(A3, RELS3),
                    IdealOracle(chi_e_alphabet(2),
                                chi_e_relations(chi_e_alphabet(2))))
# nonzero at every sample point, which is a ratio of distinct primes
NONVANISHING = (ONE, QRat(-2), Q, QRat(3) * S, q_power(-1))
COEFFS = NONVANISHING + (ONE + Q, ONE / (ONE - Q), QRat(2, 3) * Q)


def _padded_member(data, oracle, max_degree=6):
    a = oracle.alphabet
    letters = st.integers(0, len(a) - 1)
    p = NcPoly.zero(a)
    for _ in range(data.draw(st.integers(1, 3))):
        rel = data.draw(st.sampled_from(oracle.relations))
        room = max_degree - rel.degree
        u = tuple(data.draw(st.lists(letters, max_size=room)))
        v = tuple(data.draw(st.lists(letters, max_size=room - len(u))))
        c = data.draw(st.sampled_from(COEFFS))
        p = p + (NcPoly.monomial(a, u) * rel * NcPoly.monomial(a, v)).scale(c)
    return p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_precheck_never_rejects_a_member(data):
    oracle = data.draw(st.sampled_from(PRECHECK_ORACLES))
    p = _padded_member(data, oracle)
    assert randomized_precheck(p, oracle, 2, data.draw(st.integers(0, 20)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_precheck_rejects_a_lone_word_in_its_block(data):
    # the ideal is spanned blockwise by padded relations and none of these
    # algebras has zero divisors, so a single word alone in its letter-count
    # block survives every specialization: never a member
    oracle = data.draw(st.sampled_from(PRECHECK_ORACLES))
    a = oracle.alphabet
    n = len(a)
    w = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)))
    block = sorted(w)
    rest = {u: c for u, c in _padded_member(data, oracle).terms.items()
            if sorted(u) != block}
    p = NcPoly(a, rest) + NcPoly.monomial(a, w, data.draw(st.sampled_from(NONVANISHING)))
    assert not randomized_precheck(p, oracle, 2, data.draw(st.integers(0, 20)))


def test_precheck_builds_each_point_block_once(monkeypatch):
    x1, x2, x3 = gens(A3)
    p = RELS3[0] * x3 + x2 * RELS3[1] + RELS3[2].scale(Q)
    oracle = IdealOracle(A3, RELS3)
    assert randomized_precheck(p, oracle, 3, 7)
    built = []
    real = oracle_module._Echelon
    monkeypatch.setattr(oracle_module, "_Echelon",
                        lambda: built.append(1) or real())
    assert randomized_precheck(p, oracle, 3, 7)
    assert built == []
    # control: a fresh oracle does build them, and the counter sees it
    assert randomized_precheck(p, IdealOracle(A3, RELS3), 3, 7)
    assert built


def test_precheck_discards_inadmissible_points():
    pole = QRat(1, (-2, 3))  # 1 / (3s - 2): a pole at s = 2/3
    root = QRat((-2, 3))     # 3s - 2: the relation vanishes at s = 2/3
    for scale in (pole, root):
        oracle = IdealOracle(A2, [RELS2[0].scale(scale), RELS2[1]])
        assert oracle.at_point(Fraction(2, 3)) is None
        assert oracle.at_point(Fraction(3, 2)) is not None
    x1, x2 = gens(A2)
    oracle = IdealOracle(A2, [RELS2[0].scale(pole), RELS2[1]])
    # draw every sample point, 2/3 among them: the answers stay sound
    assert randomized_precheck(RELS2[0] * x1, oracle, 181, 0)
    assert not randomized_precheck(x1 * x2, oracle, 181, 0)
    assert oracle._points[Fraction(2, 3)] is None
    with pytest.raises(ValueError):
        randomized_precheck(RELS2[0] * x1, oracle, 182, 0)


def test_precheck_draws_points_once_per_seed(monkeypatch):
    x1, x2 = gens(A2)
    oracle = IdealOracle(A2, RELS2)
    draws = []
    real = oracle_module.random_points
    monkeypatch.setattr(oracle_module, "random_points",
                        lambda count, seed: draws.append(seed) or real(count, seed))
    assert not randomized_precheck(x1 * x2, oracle, 3, 5)
    assert draws == [5]  # control: a cold oracle draws
    assert randomized_precheck(RELS2[0] * x1, oracle, 3, 5)
    assert not randomized_precheck(x1 * x2, oracle, 2, 5)
    assert draws == [5]
    assert oracle.sample_points(3, 5) == real(3, 5)
