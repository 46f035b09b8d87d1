import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import qserre.oracle as oracle_module
from qserre.qfield import ONE, Q, S, QRat, _pgcd, q_power
from qserre.freealg import (
    NcPoly, chi_e_alphabet, chi_e_braiding, serre_braiding, x_alphabet,
)
from qserre.oracle import (
    DISTINCT_POINTS, IdealOracle, random_points, randomized_precheck,
    split_homogeneous,
)
from qserre.roots import good_words, normal_words
from reference_echelon import (
    ReferenceOracle, _Echelon, _clear_denominators, _compositions,
    _letter_counts, _multiset_words, _perm_count, chi_e_relations,
    serre_relations,
)
from reference_phi import full_image_kills
from reference_rewrite import raw_rules

A2 = x_alphabet(2)
A3 = x_alphabet(3)
RELS2 = serre_relations(A2)
RELS3 = serre_relations(A3)
PHI2 = IdealOracle(A2, serre_braiding)


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
    assert PHI2.member(p) is True


def test_commutator_is_not_member():
    x1, x2 = gens(A2)
    assert PHI2.member(x1 * x2 - x2 * x1) is False


def test_zero_is_member():
    assert PHI2.member(NcPoly.zero(A2))


def test_membership_monotone_under_padding_and_sums():
    x1, x2 = gens(A2)
    rel = RELS2[0]
    combos = [
        rel.scale(Q) + x1 * rel,
        rel * x2 + (x2 * rel * x1).scale(ONE + Q),
        x1 * rel * x2 - rel * (x1 * x2),
    ]
    for p in combos:
        assert PHI2.member(p)


def test_precheck_examples():
    x1, x2 = gens(A2)
    assert randomized_precheck(NcPoly.zero(A2), PHI2, 3, 0)
    assert randomized_precheck(RELS2[0], PHI2, 3, 0)
    assert not randomized_precheck(x1 * x2 - x2 * x1, PHI2, 3, 0)


def test_random_points_admissible():
    # exponents j for s = 2^j: distinct, at least 1 (so s is never 0 or
    # +-1), the same for the same seed, and every one drawable
    pts = random_points(6, 42)
    assert len(set(pts)) == 6
    assert all(isinstance(j, int) and 1 <= j <= DISTINCT_POINTS for j in pts)
    assert random_points(6, 42) == pts
    assert sorted(random_points(DISTINCT_POINTS, 0)) == list(
        range(1, DISTINCT_POINTS + 1))
    with pytest.raises(ValueError):
        random_points(DISTINCT_POINTS + 1, 0)


def test_agreement_with_rewriter_small():
    from qserre.rewrite import complete
    rs = complete(raw_rules("x2"), 5)
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
        member = PHI2.member(p)
        assert member == rs.reduce(p).is_zero
        checked_members += member
    assert checked_members > 5


def test_dimension_consistency_rank2():
    from qserre.rewrite import complete, normal_word_counts
    rs = complete(raw_rules("x2"), 6)
    oracle = ReferenceOracle(A2, RELS2)
    assert normal_word_counts(rs, 6) == oracle.quotient_dimensions(6)
    assert oracle.quotient_dimensions(4) == [1, 2, 4, 6, 9]


def test_dimension_consistency_rank3_low_degrees():
    oracle = ReferenceOracle(A3, RELS3)
    assert oracle.quotient_dimensions(3) == [1, 3, 8, 17]


def test_oracle_rejects_non_multihomogeneous_relations():
    x1, x2 = gens(A2)
    with pytest.raises(ValueError):
        ReferenceOracle(A2, [x1 * x2 - x1 * x1])


# -- fraction-free elimination: same row spaces as the field elimination -------

def test_quotient_dimensions_rank3_degree6():
    oracle = ReferenceOracle(A3, RELS3)
    assert oracle.quotient_dimensions(6) == [1, 3, 8, 17, 33, 58, 97]


def test_chi_e_blocks_rank2():
    a = chi_e_alphabet(2)
    oracle = ReferenceOracle(a, chi_e_relations(a))
    assert oracle.quotient_dimensions(5) == [1, 4, 11, 24, 46, 80]
    ranks = {(1, 1, 1, 1): 22, (1, 1, 0, 2): 11, (0, 2, 2, 0): 5,
             (0, 0, 1, 3): 2, (2, 1, 1, 0): 11, (0, 0, 2, 2): 3}
    for content, rank in ranks.items():
        assert oracle._block(content).rank == rank, content


def test_echelon_rows_are_integer_polynomials():
    ech = ReferenceOracle(A3, RELS3)._block((1, 2, 1))
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
    oracle = ReferenceOracle(A2, RELS2)
    assert oracle.member(rel)
    assert not oracle.member(rel + (x1 * x2 * x1).scale(QRat(2, 3)))


def test_stored_rows_are_primitive():
    # reduction sheds only integer content; each stored row must still come
    # out with polynomial content 1 and integer content 1
    ech = ReferenceOracle(A3, RELS3)._block((2, 3, 2))
    assert ech.rank == 197
    for row in ech.pivots.values():
        entries = list(row.values())
        g = entries[0]
        for v in entries[1:]:
            g = _pgcd(g, v)
        assert g == (1,)
        assert math.gcd(*(c for v in entries for c in v)) == 1


# -- the oracles under test and their echelon references ------------------------

CE2 = chi_e_alphabet(2)
BRAIDINGS = (serre_braiding, serre_braiding, chi_e_braiding)
PHI_ORACLES = (PHI2, IdealOracle(A3, serre_braiding),
               IdealOracle(CE2, chi_e_braiding))
REFERENCES = (ReferenceOracle(A2, RELS2), ReferenceOracle(A3, RELS3),
              ReferenceOracle(CE2, chi_e_relations(CE2)))
# nonzero at every sample point s = 2^j
NONVANISHING = (ONE, QRat(-2), Q, QRat(3) * S, q_power(-1))
COEFFS = NONVANISHING + (ONE + Q, ONE / (ONE - Q), QRat(2, 3) * Q)


def _transposed(braiding):
    return lambda alphabet: tuple(zip(*braiding(alphabet)))


def _padded_member(data, ref, max_degree=6):
    a = ref.alphabet
    letters = st.integers(0, len(a) - 1)
    p = NcPoly.zero(a)
    for _ in range(data.draw(st.integers(1, 3))):
        rel = data.draw(st.sampled_from(ref.relations))
        room = max_degree - rel.degree
        u = tuple(data.draw(st.lists(letters, max_size=room)))
        v = tuple(data.draw(st.lists(letters, max_size=room - len(u))))
        c = data.draw(st.sampled_from(COEFFS))
        p = p + (NcPoly.monomial(a, u) * rel * NcPoly.monomial(a, v)).scale(c)
    return p


def _lone_word(data, ref):
    """A padded member with one word alone in its letter-count block."""
    a = ref.alphabet
    w = tuple(data.draw(st.lists(st.integers(0, len(a) - 1), min_size=1,
                                 max_size=6)))
    rest = {u: c for u, c in _padded_member(data, ref).terms.items()
            if sorted(u) != sorted(w)}
    return NcPoly(a, rest) + NcPoly.monomial(
        a, w, data.draw(st.sampled_from(NONVANISHING)))


# -- the precheck: the symmetrizer's zero test at s = 2^j -----------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_precheck_never_rejects_a_member(data):
    i = data.draw(st.integers(0, len(PHI_ORACLES) - 1))
    p = _padded_member(data, REFERENCES[i])
    assert randomized_precheck(p, PHI_ORACLES[i], 2,
                               data.draw(st.integers(0, 20)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_precheck_rejects_a_lone_word_in_its_block(data):
    # the ideal is spanned blockwise by padded relations, so a word alone
    # in its block is never a member; its image under Phi has coefficients
    # that are sums of powers of s, positive at every s = 2^j
    i = data.draw(st.integers(0, len(PHI_ORACLES) - 1))
    p = _lone_word(data, REFERENCES[i])
    assert not randomized_precheck(p, PHI_ORACLES[i], 2,
                                   data.draw(st.integers(0, 20)))


def test_precheck_stays_sound_where_a_denominator_vanishes(monkeypatch):
    # 1/(s - 2) has its pole at j = 1.  Drawing every point, that one
    # among them, never rejects a member and still rejects a non-member
    x1, x2 = gens(A2)
    pole = QRat(1, (-2, 1))
    member = (RELS2[0] * x1).scale(pole)
    assert randomized_precheck(member, PHI2, DISTINCT_POINTS, 0)
    assert not randomized_precheck((x1 * x2).scale(pole), PHI2,
                                   DISTINCT_POINTS, 0)
    # at s = 2 alone: the block is cleared by the product of its distinct
    # denominators, s - 2 and (s - 2)(s + 1), and every cleared entry then
    # has a factor s - 2, so this non-member encodes to zero there and the
    # precheck passes it on to the exact test, which rejects it
    both = (x1 * x2).scale(pole) + (x2 * x1).scale(QRat(1, (-2, -1, 1)))
    monkeypatch.setattr(oracle_module, "random_points",
                        lambda count, seed: (1,))
    assert randomized_precheck(member, PHI2, 1, 0)
    assert randomized_precheck(both, PHI2, 1, 0)
    assert not PHI2.member(both)
    # control: the lone word over s - 2 alone clears to x1 x2, nonzero at
    # s = 2, and over 1/(s - 4) as well
    assert not randomized_precheck((x1 * x2).scale(pole), PHI2, 1, 0)
    assert not randomized_precheck((x1 * x2).scale(QRat(1, (-4, 1))),
                                   PHI2, 1, 0)


@pytest.mark.parametrize("i", range(len(PHI_ORACLES)))
def test_precheck_with_the_transposed_braiding_rejects_a_relation(i):
    # mutation control: the precheck reads the braiding, so with chi
    # transposed it rejects a defining relation that it passes with chi
    ref = REFERENCES[i]
    mutant = IdealOracle(ref.alphabet, _transposed(BRAIDINGS[i]))
    for rel in ref.relations:
        assert randomized_precheck(rel, PHI_ORACLES[i], 2, 0)
    assert any(not randomized_precheck(rel, mutant, 2, 0)
               for rel in ref.relations)


# -- the quantum symmetrizer: how the exact oracle decides ---------------------

def _ref_phi(vec, chi):
    """Phi(vec), word by word, on explicit Laurent coefficients.

    vec maps words to {s-exponent: integer}; so does the result, which
    holds only nonzero coefficients.  Phi(w a) is Phi(w) with a inserted
    at every place, times chi(u, a) for each letter u that a moves past.
    """
    out = {}
    for w, coeff in vec.items():
        image = {(): {0: 1}}
        for a in w:
            grown = {}
            for u, c in image.items():
                e = 0
                for j in range(len(u), -1, -1):
                    if j < len(u):
                        e += chi[u[j]][a]
                    acc = grown.setdefault(u[:j] + (a,) + u[j:], {})
                    for k, x in c.items():
                        acc[k + e] = acc.get(k + e, 0) + x
            image = grown
        for t, c in image.items():
            acc = out.setdefault(t, {})
            for k, x in c.items():
                for k2, y in coeff.items():
                    acc[k + k2] = acc.get(k + k2, 0) + x * y
    out = {t: {k: x for k, x in c.items() if x} for t, c in out.items()}
    return {t: c for t, c in out.items() if c}


def _kills(vec, chi, dens=None):
    """The oracle's zero test on a vector of integer polynomials in s, each
    over its denominator in dens (1 when absent)."""
    qvec = {w: QRat(tuple(p), (dens or {}).get(w, (1,)))
            for w, p in vec.items()}
    content = _letter_counts(next(iter(vec)), len(chi))
    phi = {CHI2: PHI2, CHI3: PHI_ORACLES[1], CHIE2: PHI_ORACLES[2]}[chi]
    return phi.block_kills(qvec, content)


def _laurent(vec):
    return {w: {k: c for k, c in enumerate(p) if c} for w, p in vec.items()}


BIG = 10 ** 40
CHI2, CHI3 = serre_braiding(A2), serre_braiding(A3)
CHIE2 = chi_e_braiding(chi_e_alphabet(2))
# (vector of integer polynomials in s, lowest power first; its braiding)
ZERO_TEST_CASES = [
    # the first cubic relation times a huge integer and times s^3
    ({(0, 0, 1): (BIG,), (1, 0, 0): (0, 0, BIG), (0, 1, 0): (-BIG, 0, -BIG)},
     CHI2),
    ({(0, 0, 1): (0, 0, 0, 1), (1, 0, 0): (0, 0, 0, 0, 0, 1),
      (0, 1, 0): (0, 0, 0, -1, 0, -1)}, CHI2),
    # the same plus one more unit on a word of the block: no longer zero
    ({(0, 0, 1): (BIG + 1,), (1, 0, 0): (0, 0, BIG),
      (0, 1, 0): (-BIG, 0, -BIG)}, CHI2),
    # (s - 2^k) x1 x2: vanishes at s = 2^k, so a base 2^k would miss it
    ({(0, 1): (-2 ** 7, 1)}, CHI2),
    ({(0, 1, 0): (-2 ** 61, 1), (1, 0, 0): (2 ** 61, -1)}, CHI2),
    # distant letters commute: x1 x3 - x3 x1, huge and cancelling
    ({(0, 2): (-BIG, BIG), (2, 0): (BIG, -BIG)}, CHI3),
    ({(0, 2): (-BIG, BIG), (2, 0): (BIG, 1 - BIG)}, CHI3),
    # chi1 chi2 - s chi2 chi1, times s^2, and a near miss
    ({(0, 1): (0, 0, 7), (1, 0): (0, 0, 0, -7)}, CHIE2),
    ({(0, 1): (0, 0, 7), (1, 0): (0, 0, -7)}, CHIE2),
    # e1 e1 e2 + e2 e1 e1 - (s + 1/s) e1 e2 e1, times s
    ({(2, 2, 3): (0, 1), (3, 2, 2): (0, 1), (2, 3, 2): (-1, 0, -1)}, CHIE2),
    ({(2, 2, 3): (0, 1), (3, 2, 2): (0, 1), (2, 3, 2): (-1, 0, 1)}, CHIE2),
]


# (numerators, braiding, denominators): over s - 2^B the single
# denominator vanishes at the encoding's base X = 2^B, B from the bound
DENOMINATOR_CASES = [
    # (x1 x3 - x3 x1) / (s - 8): M = 2, so X = 8
    ({(0, 2): (1,), (2, 0): (-1,)}, CHI3, {(0, 2): (-8, 1), (2, 0): (-8, 1)}),
    ({(0, 2): (1,), (2, 0): (-2,)}, CHI3, {(0, 2): (-8, 1), (2, 0): (-8, 1)}),
    # the first cubic relation over s - 32: M = 8, so X = 32
    ({(0, 0, 1): (1,), (1, 0, 0): (0, 0, 1), (0, 1, 0): (-1, 0, -1)}, CHI2,
     {(0, 0, 1): (-32, 1), (1, 0, 0): (-32, 1), (0, 1, 0): (-32, 1)}),
    # chi1 chi2 - s chi2 chi1 over s (s - 8): two distinct denominators
    ({(0, 1): (1,), (1, 0): (-1,)}, CHIE2, {(0, 1): (0, -8, 1), (1, 0): (-8, 1)}),
    ({(0, 1): (1,), (1, 0): (-2,)}, CHIE2, {(0, 1): (0, -8, 1), (1, 0): (-8, 1)}),
]


@pytest.mark.parametrize("vec, chi, dens", [
    (vec, chi, {}) for vec, chi in ZERO_TEST_CASES] + DENOMINATOR_CASES)
def test_zero_test_matches_reference_phi(vec, chi, dens):
    # the reference clears denominators by their lcm, as the echelon does
    qvec = {w: QRat(p, dens.get(w, (1,))) for w, p in vec.items()}
    cleared = _clear_denominators(qvec)
    assert _kills(vec, chi, dens) == (not _ref_phi(_laurent(cleared), chi))


def test_zero_test_sees_roots_at_powers_of_two():
    # (s^j - 2^k) x1 x2 vanishes at s = 2^(k/j): the encoding's base must
    # exceed every such root that the coefficient bound allows
    for j in (1, 2, 3, 5):
        for k in range(1, 70):
            vec = {(0, 1): (-2 ** k,) + (0,) * (j - 1) + (1,)}
            assert not _kills(vec, CHI2), (j, k)
            # the same polynomial as a denominator: x1 x2 alone stays a
            # non-member and x1 x3 - x3 x1 a member, whatever the base
            den = vec[(0, 1)]
            assert not _kills({(0, 1): (1,)}, CHI2, {(0, 1): den}), (j, k)
            assert _kills({(0, 2): (1,), (2, 0): (-1,)}, CHI3,
                          {(0, 2): den, (2, 0): den}), (j, k)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_zero_test_matches_reference_phi_on_drawn_vectors(data):
    # a few words of one block with large integer polynomial coefficients,
    # some of the form c (s - 2^k), plus a large multiple of a member of the
    # block, so that many images cancel and some nearly do
    chi, ref = data.draw(st.sampled_from(
        [(CHI2, REFERENCES[0]), (CHI3, REFERENCES[1]),
         (CHIE2, REFERENCES[2])]))
    a = ref.alphabet
    letters = st.lists(st.integers(0, len(a) - 1), max_size=2).map(tuple)
    member = NcPoly.zero(a)
    for _ in range(data.draw(st.integers(1, 3))):
        rel = data.draw(st.sampled_from(ref.relations))
        u, v = data.draw(letters), data.draw(letters)
        c = QRat(data.draw(st.integers(-5, 5))) * S  # s clears chi-e's 1/s
        member = member + (NcPoly.monomial(a, u) * rel
                           * NcPoly.monomial(a, v)).scale(c)
    if member.is_zero:
        return
    words = sorted(member.terms, key=len)
    block = sorted(data.draw(st.sampled_from(words)))
    ints = st.one_of(st.integers(-9, 9), st.integers(-2 ** 90, 2 ** 90))
    poly = st.one_of(
        st.lists(ints, min_size=1, max_size=4).map(tuple),
        st.tuples(st.integers(1, 80), ints).map(
            lambda kc: (-kc[1] * 2 ** kc[0], kc[1])))
    scale = data.draw(st.integers(-2 ** 64, 2 ** 64))
    vec = {}
    for w, c in member.terms.items():
        if sorted(w) == block:
            assert c.den == (1,)
            vec[w] = tuple(scale * x for x in c.num)
    for w in data.draw(st.lists(st.permutations(block), max_size=3)):
        extra = data.draw(poly)
        old = vec.get(tuple(w), ())
        n = max(len(old), len(extra))
        vec[tuple(w)] = tuple((old + (0,) * n)[i] + (extra + (0,) * n)[i]
                              for i in range(n))
    vec = {w: p for w, p in vec.items() if any(p)}
    if vec:
        assert _kills(vec, chi) == (not _ref_phi(_laurent(vec), chi))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_symmetrizer_agrees_with_the_echelon(data):
    # coefficient-weighted padded members are members by both; a word alone
    # in its block is a non-member by both, slice by slice
    i = data.draw(st.integers(0, len(PHI_ORACLES) - 1))
    phi, ech = PHI_ORACLES[i], REFERENCES[i]
    member, lone = _padded_member(data, ech), _lone_word(data, ech)
    for p, want in ((member, True), (lone, False)):
        got = [(phi.slice_member(s), ech.slice_member(s))
               for s in split_homogeneous(p)]
        assert all(x == y for x, y in got)
        assert all(x for x, _ in got) == want


@pytest.mark.parametrize("i", range(len(PHI_ORACLES)))
def test_transposed_braiding_fails_the_agreement(i):
    # mutation control: the transposed chi no longer kills the ideal.  For
    # the x family it leaves every cubic relation uncancelled; for chi-e the
    # e-braiding is symmetric, so only the chi reordering shows it
    ech = REFERENCES[i]
    phi = IdealOracle(ech.alphabet, _transposed(BRAIDINGS[i]))
    missed = [r for r in ech.relations if not phi.member(r)]
    assert missed and all(ech.member(r) for r in missed)
    if BRAIDINGS[i] is serre_braiding:
        assert missed == [r for r in ech.relations if r.degree == 3]


@pytest.mark.parametrize("alphabet, relations, braiding", [
    (x_alphabet(r), serre_relations, serre_braiding) for r in (2, 3, 4, 5)
] + [(chi_e_alphabet(r), chi_e_relations, chi_e_braiding) for r in (2, 3)])
def test_symmetrizer_kills_every_relation(alphabet, relations, braiding):
    # up to eight letters, three bits per packed letter from five letters on
    rels = relations(alphabet)
    phi = IdealOracle(alphabet, braiding)
    assert all(phi.member(r) for r in rels)
    w, c = next(iter(rels[0].terms.items()))  # one word of a relation alone
    assert not phi.member(NcPoly.monomial(alphabet, w, c))


def _qrat_vector(laurent):
    out = {}
    for w, c in laurent.items():
        low = min(c)
        num = tuple(c.get(k, 0) for k in range(low, max(c) + 1))
        out[w] = QRat(num, (0,) * max(0, -low) + (1,)) * S ** max(0, low)
    return out


@pytest.mark.parametrize("i, max_degree", [(0, 6), (1, 5), (2, 4)])
def test_symmetrizer_image_rank_is_the_quotient_dimension(i, max_degree):
    # exact ranks, no specialization: the images Phi(w) of a block's words go
    # into the fraction-free echelon, and their rank must be the block's
    # quotient dimension, perm count minus the echelon rank of the ideal
    ech = REFERENCES[i]
    n = len(ech.alphabet)
    chi = BRAIDINGS[i](ech.alphabet)
    for degree in range(max_degree + 1):
        for content in _compositions(degree, n):
            image = _Echelon()
            for w in _multiset_words(content):
                image.insert(_qrat_vector(_ref_phi({w: {0: 1}}, chi)))
            assert image.rank == (_perm_count(content)
                                  - ech._block(content).rank), content


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_normal_word_walk_agrees_with_the_full_image(data):
    # members, lone words and near misses, one more word added to a block
    # of a member; at the proven base and at the precheck's bases 2^j
    i = data.draw(st.integers(0, len(PHI_ORACLES) - 1))
    phi, ref = PHI_ORACLES[i], REFERENCES[i]
    p = _padded_member(data, ref)
    if p and data.draw(st.booleans()):
        w = data.draw(st.sampled_from(sorted(p.terms)))
        c = data.draw(st.sampled_from(COEFFS))
        p = p + NcPoly.monomial(ref.alphabet, data.draw(st.permutations(w)), c)
    elif data.draw(st.booleans()):
        p = _lone_word(data, ref)
    j = data.draw(st.integers(1, DISTINCT_POINTS))
    for content, vec in phi.blocks(p):
        for bits in (None, j):
            assert phi.block_kills(vec, content, bits) == full_image_kills(
                vec, content, phi.chi, bits), (content, bits)


def _integer_rank(rows):
    """Exact rank of integer rows, by fraction-free elimination."""
    rank = 0
    rows = [r for r in rows if any(r)]
    while rows:
        pivot = rows.pop()
        col = next(k for k, x in enumerate(pivot) if x)
        reduced = ([pivot[col] * x - r[col] * y for x, y in zip(r, pivot)]
                   for r in rows)
        rows = [[x // g for x in r] for r in reduced if (g := math.gcd(*r))]
        rank += 1
    return rank


@pytest.mark.parametrize("i, max_degree", [(0, 6), (1, 5), (2, 4)])
def test_phi_at_the_normal_words_has_the_quotient_rank(i, max_degree):
    # Phi(w) for every word w of a block, read at the block's normal words
    # only and at s = 3, has rank K(m), the count of normal words, which is
    # also the echelon's quotient dimension.  A specialization cannot raise
    # a rank, so the generic rank is K(m) as well: an element of Phi's
    # image that vanishes at every normal word is zero
    phi, ech = PHI_ORACLES[i], REFERENCES[i]
    good = good_words(phi.chi)
    for degree in range(max_degree + 1):
        for content in _compositions(degree, len(phi.chi)):
            normal = normal_words(good, content)
            rows = []
            for w in _multiset_words(content):
                image = _ref_phi({w: {0: 1}}, phi.chi)
                # times s^(degree^2), which clears every negative power
                rows.append([sum(c * 3 ** (k + degree ** 2)
                                 for k, c in image.get(v, {}).items())
                             for v in normal])
            dim = _perm_count(content) - ech._block(content).rank
            assert _integer_rank(rows) == len(normal) == dim, content


def test_a_dropped_normal_word_lets_a_non_member_pass(monkeypatch):
    # mutation control: x1 x2 - q x2 x1 is not in the ideal, and Phi of it
    # vanishes at x1 x2 but not at x2 x1.  Read at the block (1, 1)'s
    # normal words x1 x2 and x2 x1 it is rejected; with x2 x1 dropped from
    # the set it passes
    x1, x2 = gens(A2)
    p = x1 * x2 - (x2 * x1).scale(Q)
    assert normal_words(good_words(CHI2), (1, 1)) == [(0, 1), (1, 0)]
    assert not IdealOracle(A2, serre_braiding).member(p)
    real = oracle_module.normal_words
    monkeypatch.setattr(oracle_module, "normal_words", lambda *args: [
        w for w in real(*args) if w != (1, 0)])
    assert IdealOracle(A2, serre_braiding).member(p)


def test_braiding_tables():
    # chi as s-exponents, chi[u][a]: x-family s^2 on the diagonal and s^-2
    # for (x_{i+1}, x_i); chi-e (chi1, chi2, e1, e2) as in its docstring
    assert serre_braiding(A3) == ((2, 0, 0), (-2, 2, 0), (0, -2, 2))
    assert chi_e_braiding(chi_e_alphabet(2)) == (
        (0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2))
