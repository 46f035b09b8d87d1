import itertools
import random

import pytest

import qserre.freealg as freealg_module
from qserre.qfield import ONE, Q, QRat, S, ZERO, q_power
from qserre.freealg import (
    NcPoly, SpectralWindow, add_terms, ayb_sides, big_Q, braided_relations,
    c_element, chi_e_alphabet, chi_e_braiding, k_element, lemma_product,
    mul_terms, qproduct, serre_braiding, x_alphabet,
)
from qserre.oracle import IdealOracle
from qserre.rewrite import braided_rules
from reference_echelon import chi_e_relations, serre_relations

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


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_c_element_is_its_defining_quotient(rank):
    # c is built as k + x_{n+1} x_n; its definition, written out, pins it
    a = x_alphabet(rank)
    for n in range(1, rank):
        lo, hi = gen(a, "x%d" % n), gen(a, "x%d" % (n + 1))
        assert c_element(a, n) == (lo * hi - (hi * lo).scale(Q)).scale(ONE / (ONE - Q))


def test_lemma_product_width_one_is_free_identity():
    x1, x2 = gen(A2, "x1"), gen(A2, "x2")
    for mu in range(3):
        w = SpectralWindow(mu + 1, mu)
        lp = lemma_product(A2, w, w.lam)
        expanded = ((unit(A2) - x1.scale(q_power(mu)))
                    * (unit(A2) - x2.scale(q_power(mu))))
        assert lp == expanded
        lp2 = lemma_product(A2, w, w.mu)
        expanded2 = ((unit(A2) - x2.scale(q_power(mu)))
                     * (unit(A2) - x1.scale(q_power(mu))))
        assert lp2 == expanded2


def test_lemma_product_edge_cases():
    w = SpectralWindow(2, 2)
    assert lemma_product(A2, w, w.lam) == unit(A2)
    assert lemma_product(A2, w, w.mu) == unit(A2)
    w = SpectralWindow(2, 0)
    two = lemma_product(A2, w, w.lam)
    assert two.degree == 4


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


def written(alphabet, braiding):
    """The (params, relation) pairs that braiding defines on the generators."""
    return braided_relations([gen(alphabet, name) for name in alphabet.letters],
                             braiding(alphabet))


def test_serre_relations_shape():
    assert len(written(A2, serre_braiding)) == 2
    assert len(written(A3, serre_braiding)) == 5
    assert len(written(x_alphabet(1), serre_braiding)) == 0
    for _, rel in written(A3, serre_braiding):
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


# -- the term-map kernels against a naive reference ---------------------------

def naive_product(a, b, cutoff=None):
    """Every pair multiplied with plain QRat arithmetic, zeros dropped last."""
    sums = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if cutoff is None or len(w1) + len(w2) <= cutoff:
                sums[w1 + w2] = sums.get(w1 + w2, ZERO) + c1 * c2
    return {w: c for w, c in sums.items() if c != ZERO}


def naive_sum(a, b, sign=1):
    sums = dict(a)
    for w, c in b.items():
        sums[w] = sums.get(w, ZERO) + QRat(sign) * c
    return {w: c for w, c in sums.items() if c != ZERO}


# the shared ONE, negatives, and values that cancel against each other
COEFFS = (ONE, ONE, -ONE, Q, -Q, ONE + Q, -ONE - Q, QRat(2),
          (ONE - Q) / (ONE + Q), QRat(-1, 3))


def random_terms(rng, alphabet):
    return {tuple(rng.randrange(len(alphabet))
                  for _ in range(rng.randrange(4))): rng.choice(COEFFS)
            for _ in range(rng.randrange(7))}


@pytest.mark.parametrize("alphabet", [A2, A3], ids=["A2", "A3"])
def test_kernels_agree_with_the_naive_reference(alphabet):
    rng = random.Random(11)
    seen = {"ONE": 0, "product cancels": 0, "sum cancels": 0, "cut": 0}
    for _ in range(300):
        a, b, c = (random_terms(rng, alphabet) for _ in range(3))
        if rng.random() < 0.5:
            # (1 + k w)(1 - k w): k w cancels in the product and the sum
            w, k = (rng.randrange(len(alphabet)),), rng.choice(COEFFS)
            a.update({(): ONE, w: k})
            b.update({(): ONE, w: -k})
        pa, pb = NcPoly(alphabet, a), NcPoly(alphabet, b)
        want = naive_product(a, b)
        assert mul_terms({}, a, b) == want
        assert (pa * pb).terms == want
        assert mul_terms(dict(c), a, b) == naive_sum(c, want)
        assert add_terms(dict(a), b.items()) == naive_sum(a, b)
        assert (pa + pb).terms == naive_sum(a, b)
        assert add_terms(dict(a), b.items(), True) == naive_sum(a, b, -1)
        assert (pa - pb).terms == naive_sum(a, b, -1)
        for cutoff in range(7):
            cut = naive_product(a, b, cutoff)
            assert mul_terms({}, a, b, cutoff) == cut
            seen["cut"] += cut != want
        seen["ONE"] += any(x is ONE for x in a.values())
        seen["product cancels"] += len({u + v for u in a for v in b}) > len(want)
        seen["sum cancels"] += len(a.keys() | b.keys()) > len(naive_sum(a, b))
    assert min(seen.values()) >= 20, seen


# the x-family relations up to rank 4, written out: letter i is x_(i+1)
CUBIC = (  # n, then its serre1 and serre2 relations
    (1, {(0, 0, 1): ONE, (1, 0, 0): Q, (0, 1, 0): -ONE - Q},
        {(0, 1, 1): ONE, (1, 1, 0): Q, (1, 0, 1): -ONE - Q}),
    (2, {(1, 1, 2): ONE, (2, 1, 1): Q, (1, 2, 1): -ONE - Q},
        {(1, 2, 2): ONE, (2, 2, 1): Q, (2, 1, 2): -ONE - Q}),
    (3, {(2, 2, 3): ONE, (3, 2, 2): Q, (2, 3, 2): -ONE - Q},
        {(2, 3, 3): ONE, (3, 3, 2): Q, (3, 2, 3): -ONE - Q}),
)
DISTANT = (  # m, n and the commutator x_m x_n - x_n x_m
    (3, 1, {(2, 0): ONE, (0, 2): -ONE}),
    (4, 1, {(3, 0): ONE, (0, 3): -ONE}),
    (4, 2, {(3, 1): ONE, (1, 3): -ONE}),
)


# the chi-e relations at rank 2, written out: letters chi1, chi2, e1, e2
S1 = S + ONE / S  # q^(1/2) + q^(-1/2)
CHI_E2 = (
    {(2, 2, 3): ONE, (3, 2, 2): ONE, (2, 3, 2): -S1},
    {(2, 3, 3): ONE, (3, 3, 2): ONE, (3, 2, 3): -S1},
    {(0, 1): ONE, (1, 0): -S},
    {(2, 0): ONE, (0, 2): -ONE},
    {(2, 1): ONE, (1, 2): -ONE},
    {(3, 0): ONE, (0, 3): -ONE},
    {(3, 1): ONE, (1, 3): -ONE},
)


def written_out_x(rank):
    """CUBIC and DISTANT up to the rank, as labelled term maps in order."""
    out = []
    for n, serre1, serre2 in CUBIC[:rank - 1]:
        out += [((("family", "serre1"), ("n", n)), serre1),
                ((("family", "serre2"), ("n", n)), serre2)]
    out += [((("family", "distant"), ("m", m), ("n", n)), rel)
            for m, n, rel in DISTANT if m <= rank]
    return out


def proportional(p, terms):
    """Is p a nonzero scalar times the term map?"""
    if p.terms.keys() != terms.keys():
        return False
    w = next(iter(terms))
    c = p.terms[w] / terms[w]
    return all(p.terms[u] == c * t for u, t in terms.items())


def x_pin_holds(rank, braiding):
    """Does the writer give CUBIC and DISTANT, each relation up to a scalar?

    The labels must match exactly, in the same order.
    """
    got, want = written(x_alphabet(rank), braiding), written_out_x(rank)
    return len(got) == len(want) and all(
        label == want_label and proportional(rel, terms)
        for (label, rel), (want_label, terms) in zip(got, want))


def transposed_serre_braiding(alphabet):
    # chi(x_n, x_{n+1}) = q^-1 in place of chi(x_{n+1}, x_n) = q^-1
    return tuple(zip(*serre_braiding(alphabet)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_serre_relations_are_the_written_out_list(rank):
    # the writer gives serre2 as q^-1 times the written form; the ideal
    # depends only on the span
    assert x_pin_holds(rank, serre_braiding)
    # the echelon reference reads the written-out relations themselves
    assert ([r.terms for r in serre_relations(x_alphabet(rank))]
            == [terms for _, terms in written_out_x(rank)])


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_a_transposed_x_braiding_fails_the_written_out_list(rank):
    # mutation control for the pin: every cubic relation changes
    assert not x_pin_holds(rank, transposed_serre_braiding)


def test_chi_e_relations_are_the_written_out_list():
    # as sets: each written relation is a scalar times exactly one of CHI_E2
    a = chi_e_alphabet(2)
    got = [rel for _, rel in written(a, chi_e_braiding)]
    matches = [[i for i, terms in enumerate(CHI_E2) if proportional(rel, terms)]
               for rel in got]
    assert len(got) == len(CHI_E2)
    assert sorted(i for m in matches for i in m) == list(range(len(CHI_E2)))
    assert [r.terms for r in chi_e_relations(a)] == list(CHI_E2)


def test_the_relations_follow_roots_cartan_matrix(monkeypatch):
    # chi's diagram has one reader: a matrix that marks x1, x2 as
    # commuting makes the writer give their commutator, not serre1, serre2
    monkeypatch.setattr(freealg_module, "cartan_matrix",
                        lambda chi: [[2, 0], [0, 2]])
    x1, x2 = gen(A2, "x1"), gen(A2, "x2")
    assert written(A2, serre_braiding) == [
        ((("family", "distant"), ("m", 2), ("n", 1)),
         x2 * x1 - (x1 * x2).scale(q_power(-1)))]


@pytest.mark.parametrize("chi", [
    ((2, 0), (-4, 2)),  # Cartan entry -2: chi(1, 2) chi(2, 1) = q^-2
    ((4, 0), (-2, 2)),  # chi(1, 2) chi(2, 1) = chi(2, 2)^-1 but not chi(1, 1)^-1
    ((2, 1), (0, 2)),   # chi(1, 2) chi(2, 1) = s
])
def test_a_pair_of_neither_kind_is_refused(chi):
    # rewriting's relations and the oracle's normal words both read the
    # diagram from roots.cartan_matrix, so both refuse with its message
    refused = "chi on letters 1 and 2 is not of Cartan type"
    with pytest.raises(ValueError, match=refused):
        braided_relations([gen(A2, "x1"), gen(A2, "x2")], chi)
    with pytest.raises(ValueError, match=refused):
        braided_rules(A2, lambda alphabet: chi)
    with pytest.raises(ValueError, match=refused):
        IdealOracle(A2, lambda alphabet: chi)
