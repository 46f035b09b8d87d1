import itertools
import random

import pytest

from qserre.qfield import ONE, Q, q_power
from qserre.freealg import (
    NcPoly, SpectralWindow, ayb_sides, big_Q, c_element, chi_e_alphabet,
    k_element, lemma_product, qproduct, serre_relations, x_alphabet,
)

A2 = x_alphabet(2)
A3 = x_alphabet(3)


def gen(a, name):
    return NcPoly.generator(a, name)


def unit(a):
    return NcPoly.unit(a)


def test_expansion():
    x1, x2 = gen(A2, "x1"), gen(A2, "x2")
    p = (unit(A2) - x1) * (unit(A2) - x2)
    assert p == unit(A2) - x1 - x2 + x1 * x2


def test_unit_and_noncommutativity():
    x1, x2 = gen(A2, "x1"), gen(A2, "x2")
    p = x1 * x2 + x2.scale(Q)
    assert p * unit(A2) == p
    assert not (x1 * x2 - x2 * x1).is_zero


def test_alphabet_mismatch():
    with pytest.raises(ValueError):
        gen(A2, "x1") + gen(A3, "x1")


def test_scalar_mul():
    x1 = gen(A2, "x1")
    assert x1.scale(Q) == NcPoly.monomial(A2, (0,), Q)
    assert x1.scale(0).is_zero


def test_degree_additivity():
    rng = random.Random(3)
    words = lambda: tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
    for _ in range(30):
        p = NcPoly(A2, {words(): ONE, words(): Q})
        r = NcPoly(A2, {words(): ONE - Q})
        if p.is_zero or r.is_zero:
            continue
        assert (p * r).degree == p.degree + r.degree
    assert NcPoly.zero(A2).degree is None


def test_qproduct_examples():
    x1 = gen(A2, "x1")
    assert qproduct(A2, "x1", SpectralWindow(1, 1)) == unit(A2)
    assert qproduct(A2, "x1", SpectralWindow(1, 0)) == unit(A2) - x1
    expected = unit(A2) - x1.scale(ONE + Q) + (x1 * x1).scale(Q)
    assert qproduct(A2, "x1", SpectralWindow(2, 0)) == expected


def test_qproduct_window_validation():
    with pytest.raises(ValueError):
        SpectralWindow(0, 1)


def test_telescoping_identity_free_algebra():
    # prod over [nu, lam) = prod over [mu, lam) * prod over [nu, mu)
    for lam, mu, nu in itertools.product(range(5), repeat=3):
        if not lam >= mu >= nu:
            continue
        whole = qproduct(A2, "x2", SpectralWindow(lam, nu))
        split = (qproduct(A2, "x2", SpectralWindow(lam, mu))
                 * qproduct(A2, "x2", SpectralWindow(mu, nu)))
        assert whole == split


def test_qproduct_factor_order_immaterial():
    # same-letter factors commute in the free algebra
    for lam, mu in [(2, 0), (3, 0), (4, 1)]:
        fwd = qproduct(A2, "x1", SpectralWindow(lam, mu))
        rev = unit(A2)
        x1 = gen(A2, "x1")
        for j in range(lam - 1, mu - 1, -1):
            rev = rev * (unit(A2) - x1.scale(q_power(j)))
        assert fwd == rev


def test_k_c_relations():
    x1, x2 = gen(A2, "x1"), gen(A2, "x2")
    k, c = k_element(A2), c_element(A2)
    assert c - k.scale(Q) == x1 * x2
    assert c - k == x2 * x1
    assert k.scale(ONE - Q) == x1 * x2 - x2 * x1


def test_lemma_product_width_one_is_free_identity():
    x1, x2 = gen(A2, "x1"), gen(A2, "x2")
    for mu in range(3):
        w = SpectralWindow(mu + 1, mu)
        lp = lemma_product(A2, w, "lam")
        expanded = ((unit(A2) - x1.scale(q_power(mu)))
                    * (unit(A2) - x2.scale(q_power(mu))))
        assert lp == expanded
        lp2 = lemma_product(A2, w, "mu")
        expanded2 = ((unit(A2) - x2.scale(q_power(mu)))
                     * (unit(A2) - x1.scale(q_power(mu))))
        assert lp2 == expanded2


def test_lemma_product_edge_cases():
    assert lemma_product(A2, SpectralWindow(2, 2), "lam") == unit(A2)
    assert lemma_product(A2, SpectralWindow(2, 2), "mu") == unit(A2)
    two = lemma_product(A2, SpectralWindow(2, 0), "lam")
    assert two.degree == 4
    with pytest.raises(ValueError):
        lemma_product(A2, SpectralWindow(2, 0), "nu")


def test_big_q():
    x1, x2 = gen(A2, "x1"), gen(A2, "x2")
    assert big_Q(x_alphabet(1), 1, SpectralWindow(1, 0)) == \
        NcPoly.unit(x_alphabet(1)) - NcPoly.generator(x_alphabet(1), "x1")
    assert big_Q(A2, 2, SpectralWindow(1, 0)) == \
        unit(A2) - x1 - x2 + x2 * x1
    assert big_Q(A3, 3, SpectralWindow(2, 2)) == NcPoly.unit(A3)


def test_ayb_sides_degenerate():
    lhs, rhs = ayb_sides(A2, 1, 1, 1, 0)
    assert lhs == rhs  # the width-zero factor is the unit
    lhs, rhs = ayb_sides(A2, 1, 2, 2, 1)
    assert lhs == rhs


def test_ayb_sides_nontrivial():
    lhs, rhs = ayb_sides(A2, 1, 2, 1, 0)
    assert lhs.degree == 4 and rhs.degree == 4
    assert lhs != rhs  # only equal modulo the ideal
    with pytest.raises(ValueError):
        ayb_sides(A2, 1, 0, 1, 0)


def test_serre_relations_shape():
    assert len(serre_relations(A2)) == 2
    assert len(serre_relations(A3)) == 5
    assert len(serre_relations(x_alphabet(1))) == 0
    for rel in serre_relations(A3):
        degs = {len(w) for w in rel.terms}
        assert len(degs) == 1  # homogeneous


def test_chi_e_alphabet_order():
    a = chi_e_alphabet(2)
    assert a.letters == ("chi1", "chi2", "e1", "e2")
    assert a.index("e1") > a.index("chi2")


def test_str_roundtrippable_form():
    x1, x2 = gen(A2, "x1"), gen(A2, "x2")
    p = (x1 * x2 * x1).scale((ONE + Q) / Q) - (x1 * x1 * x2).scale(ONE / Q)
    assert str(p) == "((1+q)/q)*x1 x2 x1 - (1/q)*x1 x1 x2"
    assert str(NcPoly.zero(A2)) == "0"
    assert str(unit(A2)) == "1"
    assert str(x1 - x2) == "-x2 + x1" or str(x1 - x2) == "x1 - x2"
