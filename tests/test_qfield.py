import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qserre.qfield import (
    ONE, QRat, ZERO, _normalize, _padd, _pgcd, _pmul, _pneg, q_power, s_power,
)

Q = q_power(1)
S = s_power(1)


def at(r, s_value):
    """Exact value of r at s = s_value; raises if the denominator vanishes."""
    s_value = Fraction(s_value)

    def value(cs):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * s_value + c
        return acc

    d = value(r.den)
    if d == 0:
        raise ZeroDivisionError("denominator vanishes at s=%s" % (s_value,))
    return value(r.num) / d


def test_normalization_cancels_common_factor():
    # (1 - s^4) / (1 - s^2)  ->  1 + s^2, i.e. 1 + q
    r = QRat((1, 0, 0, 0, -1), (1, 0, -1))
    assert r == ONE + Q
    assert str(r) == "1+q"


def test_inverse_cancellation():
    r = (ONE + Q) / Q
    assert r * Q == ONE + Q


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        QRat(1, 0)


def test_eval_simple_points():
    # (1+q)/q at s=2 has q=4
    r = (ONE + Q) / Q
    assert at(r, 2) == Fraction(5, 4)
    assert at(Q ** 3, 2) == 64


def test_eval_denominator_vanishes():
    r = ONE / (ONE - Q)
    with pytest.raises(ZeroDivisionError) as err:
        at(r, 1)
    assert "s=1" in str(err.value)


def test_denominator_positive_leading_coeff():
    r = ONE / (ONE - Q)
    assert r.den[-1] > 0
    assert r.num == (-1,)
    assert ONE / (Q - ONE) == -r


def test_common_content_removed():
    assert QRat(2, 4).den == (2,)
    assert QRat((2, 2), (4,)) == QRat((1, 1), (2,))


def test_pow_negative():
    assert Q ** -2 == ONE / Q ** 2
    assert q_power(-1) * Q == ONE
    assert s_power(2) == Q
    assert s_power(-1) * S == ONE


def test_str_forms():
    assert str(ONE - Q) == "1-q"
    assert str((ONE + Q) / Q) == "(1+q)/q"
    assert str(ONE / (ONE - Q)) == "1/(1-q)"
    assert str(S) == "s"
    assert str(S ** 3) == "s^3"
    assert str(2 * Q ** 3 - 1) == "-1+2*q^3"
    assert str(ZERO) == "0"


small = st.integers(min_value=-6, max_value=6)
polys = st.lists(small, min_size=0, max_size=5)


def qrats():
    return st.builds(
        lambda n, d: QRat(tuple(n), tuple(d)),
        polys,
        polys.filter(lambda cs: any(cs)),
    )


@given(qrats(), qrats(), qrats())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO
    if a:
        assert a * (ONE / a) == ONE


@given(qrats())
def test_normalization_idempotent(a):
    again = QRat(a.num, a.den)
    assert again.num == a.num and again.den == a.den


@given(qrats(), qrats())
def test_equality_matches_cross_multiplication(a, b):
    cross_zero = _padd(_pmul(a.num, b.den), _pneg(_pmul(b.num, a.den))) == ()
    assert (a == b) == cross_zero


def test_eval_is_field_homomorphism():
    rng = random.Random(7)
    pts = [Fraction(2, 3), Fraction(5, 2), Fraction(-3, 7)]
    for _ in range(50):
        a = QRat(tuple(rng.randint(-4, 4) for _ in range(4)),
                 (rng.randint(1, 3), rng.randint(1, 3)))
        b = QRat(tuple(rng.randint(-4, 4) for _ in range(4)),
                 (rng.randint(1, 4),))
        for x in pts:
            try:
                va, vb = at(a, x), at(b, x)
            except ZeroDivisionError:
                continue
            assert at(a * b, x) == va * vb
            assert at(a + b, x) == va + vb


def test_arith_dispatch():
    assert Q + Q == 2 * Q
    assert Q - ONE == Q - 1
    assert Q * Q == Q ** 2
    assert (ONE / Q) * Q == ONE


# -- gcd fast paths against a textbook primitive PRS ---------------------------

def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_primitive(cs):
    cs = _ref_trim(cs)
    if not cs:
        return []
    g = 0
    for c in cs:
        g = math.gcd(g, c)
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_gcd(a, b):
    """gcd of the primitive parts by primitive PRS, positive leading coefficient."""
    a, b = _ref_primitive(a), _ref_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = list(a)
        while len(r) >= len(b):
            lead = r[-1]
            shift = len(r) - len(b)
            r = [c * b[-1] for c in r]
            for j, y in enumerate(b):
                r[shift + j] -= lead * y
            r = _ref_trim(r)
        a, b = b, _ref_primitive(r)
    return tuple(a)


nonzero = st.integers(min_value=-9, max_value=9).filter(bool)
constants = st.builds(lambda c: (c,), nonzero)
monomials = st.builds(lambda k, c: (0,) * k + (c,),
                      st.integers(min_value=0, max_value=6), nonzero)
general = st.builds(lambda cs, c: tuple(cs) + (c,),
                    st.lists(small, min_size=0, max_size=6), nonzero)
operands = st.one_of(constants, monomials, general)


@given(operands, operands, general)
def test_pgcd_matches_reference_prs(a, b, common):
    assert _pgcd(a, b) == _ref_gcd(a, b)
    # with a shared factor the general path must find it
    ac, bc = tuple(_ref_mul(a, common)), tuple(_ref_mul(b, common))
    assert _pgcd(ac, bc) == _ref_gcd(ac, bc)


# -- sums and products against the plain cross-multiplied form -----------------

# factors that denominators share: 1-q, 1+q, 1-s, s, 1+s, 2+q, s^3-1
FACTORS = ((1, 0, -1), (1, 0, 1), (1, -1), (0, 1), (1, 1), (2, 0, 1), (-1, 0, 0, 1))
scalars = st.sampled_from((1, -1, 2, -2, 3, -6))


def _mul(a, b):
    return tuple(_ref_mul(a, b))


def _product(factors, scalar, base=(1,)):
    out = tuple(scalar * c for c in base)
    for f in factors:
        out = _mul(out, f)
    return out


shared = st.builds(
    lambda nf, nb, ns, df, ds: QRat(_product(nf, ns, tuple(nb)), _product(df, ds)),
    st.lists(st.sampled_from(FACTORS), max_size=2),
    st.lists(small, min_size=1, max_size=3).filter(any),
    scalars,
    st.lists(st.sampled_from(FACTORS), max_size=3),
    scalars,
)


def _pair(a, c, how):
    if how == "free":
        return a, c
    if how == "same":
        return a, a
    if how == "negated":
        return a, QRat(tuple(-x for x in a.num), a.den)
    # b = c - a, built without QRat arithmetic: a + b must cancel down to c
    return a, QRat(_padd(_mul(c.num, a.den), _pneg(_mul(a.num, c.den))),
                   _mul(c.den, a.den))


pairs = st.builds(_pair, shared, shared,
                  st.sampled_from(("free", "same", "negated", "cancels")))


def _assert_canonical(r):
    n, d = r.num, r.den
    assert d and d[-1] > 0 and (not n or n[-1])
    if not n:
        assert d == (1,)
        return
    assert len(_pgcd(n, d)) == 1
    assert math.gcd(*n, *d) == 1


@given(pairs)
# 2/(1-q^2) - 1/(1-q) = (1-q)/(1-q^2) = 1/(1+q): the gcd of t against g = 1-q
@example((QRat(2, (1, 0, 0, 0, -1)), QRat(-1, (1, 0, -1))))
# equal denominators: 1/(1-q) - q/(1-q) = 1
@example((QRat(1, (1, 0, -1)), QRat((0, 0, -1), (1, 0, -1))))
# integer content: 1/(2+2q) + 1/(2-2q) = 1/(1-q^2)
@example((QRat(1, (2, 0, 2)), QRat(1, (2, 0, -2))))
def test_sum_difference_product_match_plain_normalize(pair):
    a, b = pair
    cross = _mul(a.den, b.den)
    want = {
        "+": _normalize(_padd(_mul(a.num, b.den), _mul(b.num, a.den)), cross),
        "-": _normalize(_padd(_mul(a.num, b.den), _pneg(_mul(b.num, a.den))),
                        cross),
        "*": _normalize(_mul(a.num, b.num), cross),
    }
    for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
        assert (got.num, got.den) == want[op], op
        _assert_canonical(got)
