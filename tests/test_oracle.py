import random

import pytest

from qserre.qfield import ONE, Q, QRat
from qserre.freealg import NcPoly, chi_e_alphabet, chi_e_relations, serre_relations, x_alphabet
from qserre.oracle import (
    IdealOracle, ideal_member, random_points, randomized_precheck, split_homogeneous,
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
    assert ideal_member(p, RELS2, 8).member


def test_commutator_is_not_member():
    x1, x2 = gens(A2)
    res = ideal_member(x1 * x2 - x2 * x1, RELS2, 8)
    assert not res.member
    assert res.per_slice == {2: False}


def test_zero_is_member():
    assert ideal_member(NcPoly.zero(A2), RELS2, 8).member


def test_cap_exceeded():
    x1, x2 = gens(A2)
    p = (x1 * x2) ** 5
    with pytest.raises(ValueError):
        ideal_member(p, RELS2, 8)


def test_membership_monotone_under_padding_and_sums():
    x1, x2 = gens(A2)
    rel = RELS2[0]
    combos = [
        rel.scale(Q) + x1 * rel,
        rel * x2 + (x2 * rel * x1).scale(ONE + Q),
        x1 * rel * x2 - rel * (x1 * x2),
    ]
    for p in combos:
        assert ideal_member(p, RELS2, 8).member


def test_precheck_examples():
    x1, x2 = gens(A2)
    assert randomized_precheck(NcPoly.zero(A2), RELS2, 3, 0)
    assert randomized_precheck(RELS2[0], RELS2, 3, 0)
    assert not randomized_precheck(x1 * x2 - x2 * x1, RELS2, 3, 0)


def test_random_points_admissible():
    pts = random_points(6, 42)
    assert len(set(pts)) == 6
    for pt in pts:
        assert pt not in (0, 1, -1)
    assert random_points(6, 42) == pts


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
    assert ideal_member(rel, RELS2, 8).member
    assert not ideal_member(rel + (x1 * x2 * x1).scale(QRat(2, 3)), RELS2, 8).member
