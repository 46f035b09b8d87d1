from fractions import Fraction

import pytest

from qserre.qfield import ONE, Q, QRat, q_power
from qserre.freealg import NcPoly, SpectralWindow, ayb_sides, qproduct, x_alphabet
from qserre import series
from qserre.series import (
    L, M, N, ParamPoly, TruncatedSeries, check_ayb_formal, check_ratio_identity,
    formal_ayb_sides, pochhammer_inf, ratio_series, series_inverse,
)
from qserre.verify import Verifier

A1 = x_alphabet(1)
A2 = x_alphabet(2)


def unit(alphabet, cutoff):
    return TruncatedSeries.unit(alphabet, cutoff)


def one_minus_x(alphabet, gen, cutoff, scale=ONE):
    g = alphabet.index(gen)
    return TruncatedSeries(NcPoly(alphabet, {
        (): ParamPoly.const(ONE), (g,): ParamPoly.const(-scale)}), cutoff)


def q_adic_expansion(r: QRat, order: int):
    """Power-series coefficients of r at s=0 up to s^order, as Fractions.

    Independent of the series module: plain long division of the stored
    numerator by the denominator.
    """
    num = list(r.num) + [0] * (order + 1)
    den = r.den
    assert den[0] != 0, "not expandable at s=0"
    out = []
    state = [Fraction(c) for c in num[:order + 1]]
    for i in range(order + 1):
        c = state[i] / den[0]
        out.append(c)
        for j, dc in enumerate(den):
            if i + j <= order:
                state[i + j] -= c * dc
    return out


def test_pochhammer_trivial():
    p = pochhammer_inf(A1, "x1", 1, 0)
    assert p == unit(A1, 0)


def test_pochhammer_first_coefficients():
    p = pochhammer_inf(A1, "x1", 1, 2)
    a1 = p.poly.coefficient((0,)).constant_value()
    a2 = p.poly.coefficient((0, 0)).constant_value()
    assert a1 == -(ONE / (ONE - Q))
    assert a2 == Q / ((ONE - Q) * (ONE - Q ** 2))


def test_pochhammer_against_truncated_finite_products():
    # q-adically, prod_{j<J} (1 - x q^j) converges to the series; compare
    # coefficients of x^d up to q-order J-d
    J, order = 8, 5
    finite = qproduct(A1, "x1", SpectralWindow(J, 0))
    inf = pochhammer_inf(A1, "x1", 1, 3)
    for d in range(4):
        a = inf.poly.coefficient((0,) * d)
        a = a.constant_value() if d else ONE
        fin_coeff = finite.coefficient((0,) * d)
        # compare s-expansions up to s^(2*order); q-order `order` <= J-d
        assert q_adic_expansion(a, 2 * order) == \
            q_adic_expansion(QRat(fin_coeff), 2 * order)


def test_functional_equation():
    for cutoff in (1, 3, 5):
        f = pochhammer_inf(A1, "x1", 1, cutoff)
        fq = pochhammer_inf(A1, "x1", q_power(1), cutoff)
        assert f == one_minus_x(A1, "x1", cutoff) * fq


def test_functional_equation_with_scale():
    # f(c) = (1 - c x) f(c q) with the scale kept formal
    c = ParamPoly.param(0)
    f = pochhammer_inf(A1, "x1", c, 4)
    fq = pochhammer_inf(A1, "x1", c * ParamPoly.const(q_power(1)), 4)
    g = A1.index("x1")
    lin = TruncatedSeries(NcPoly(A1, {(): ParamPoly.const(ONE),
                                      (g,): -c}), 4)
    assert f == lin * fq


def test_inverse():
    assert series_inverse(unit(A1, 3)) == unit(A1, 3)
    geo = series_inverse(one_minus_x(A1, "x1", 2))
    x = NcPoly.generator(A1, "x1").map_coefficients(ParamPoly.const)
    want = (NcPoly.unit(A1, ParamPoly.const(ONE)) + x + x * x)
    assert geo == TruncatedSeries(want, 2)

    p = pochhammer_inf(A1, "x1", 1, 4)
    assert p * series_inverse(p) == unit(A1, 4)
    assert series_inverse(p) * p == unit(A1, 4)


def test_inverse_requires_invertible_constant():
    x = NcPoly.generator(A1, "x1").map_coefficients(ParamPoly.const)
    with pytest.raises(ValueError):
        series_inverse(TruncatedSeries(x, 3))
    with pytest.raises(ValueError):
        series_inverse(TruncatedSeries(NcPoly.unit(A1, L), 3))


def test_ratio_identity_reports():
    assert check_ratio_identity(0, 0, 4).passed
    for mu, lam in ((0, 1), (0, 2), (1, 3)):
        r = check_ratio_identity(mu, lam, 6)
        assert r.passed, (mu, lam)
        assert r.residual.is_zero
    with pytest.raises(ValueError):
        check_ratio_identity(2, 1)


def test_ratio_series_matches_qproduct_directly():
    ratio = ratio_series(A1, "x1", q_power(0), q_power(1), 4)
    finite = qproduct(A1, "x1", SpectralWindow(1, 0))
    lifted = TruncatedSeries(finite.map_coefficients(ParamPoly.const), 4)
    assert ratio == lifted


def test_equal_windows_collapse_to_unit():
    r = ratio_series(A2, "x1", L, L, 4)
    assert r == unit(A2, 4)


def test_formal_sides_integer_specialization():
    lhs, rhs = formal_ayb_sides(A2, 1, 4)
    vals = {0: q_power(2), 1: q_power(1), 2: q_power(0)}
    flhs = lhs.map_coefficients(lambda c: c.substitute(vals)).to_qrat_poly()
    plhs, _ = ayb_sides(A2, 1, 2, 1, 0)
    truncated = NcPoly(A2, {w: c for w, c in plhs.terms.items() if len(w) <= 4})
    assert flhs == truncated


def test_formal_sides_lambda_equals_mu():
    lhs, rhs = formal_ayb_sides(A2, 1, 3)
    sub = {1: L}  # identify M with L
    l2 = lhs.map_coefficients(lambda c: c.substitute(sub))
    r2 = rhs.map_coefficients(lambda c: c.substitute(sub))
    assert l2 == r2  # equal as raw series, no ideal needed


@pytest.fixture(scope="module")
def v2():
    return Verifier(2, completion_degree=5)


def test_ayb_formal_order_one(v2):
    r = check_ayb_formal(v2, 1, 1)
    assert r.passed
    # the difference vanishes below degree 3, and is still decided once
    assert r.methods == ("rewrite", "oracle")


def test_ayb_formal_default(v2):
    r = check_ayb_formal(v2, 1, 4)
    assert r.passed
    assert r.residual.is_zero
    assert r.methods == ("rewrite", "oracle")


def test_ayb_formal_higher_pair():
    r = check_ayb_formal(Verifier(3, completion_degree=3), 2, 3)
    assert r.passed


@pytest.mark.parametrize("cutoff, monomials", [(4, 18), (5, 36)])
def test_ayb_formal_decides_each_parameter_monomial(v2, monkeypatch, cutoff,
                                                    monomials):
    seen = []
    real = Verifier.decide

    def spy(self, identity, params, diff, notes=()):
        seen.append(dict(params)["monomial"])
        return real(self, identity, params, diff, notes)

    monkeypatch.setattr(Verifier, "decide", spy)
    r = check_ayb_formal(v2, 1, cutoff)
    assert r.passed
    assert len(seen) == len(set(seen)) == monomials
    assert ("exact in L, M, N: %d parameter monomials decided" % monomials
            in r.notes)


def test_ayb_formal_refuses_a_perturbed_coefficient(v2, monkeypatch):
    real = series.formal_ayb_sides

    def perturbed(alphabet, n, cutoff):
        lhs, rhs = real(alphabet, n, cutoff)
        word = tuple(alphabet.index(g) for g in ("x1", "x2", "x1", "x2"))
        return lhs + TruncatedSeries(NcPoly(alphabet, {word: L}), cutoff), rhs

    monkeypatch.setattr(series, "formal_ayb_sides", perturbed)
    r = check_ayb_formal(v2, 1, 4)
    assert not r.passed
    # the residual comes from the decided L coefficient, not the integer check
    assert not r.residual.is_zero


def test_param_poly_algebra():
    p = (L + M) * (L - M)
    assert p == L * L - M * M
    assert (L - L).is_zero
    assert L.substitute({0: M}) == M
    assert (L * N).substitute({0: QRat(2), 2: QRat(3)}).constant_value() == QRat(6)
    assert str(L) == "L"


def test_truncation_drops_overflow():
    x = NcPoly.generator(A1, "x1").map_coefficients(ParamPoly.const)
    s = TruncatedSeries(x, 2)
    cube = s * s * s
    assert cube.poly.is_zero


def test_series_arithmetic_associativity():
    a = pochhammer_inf(A2, "x1", L, 3)
    b = pochhammer_inf(A2, "x2", M, 3)
    c = series_inverse(pochhammer_inf(A2, "x1", N, 3))
    assert (a * b) * c == a * (b * c)
    assert a * unit(A2, 3) == a
