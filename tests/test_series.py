from fractions import Fraction

import pytest

from qserre.qfield import ONE, Q, QRat, q_power
from qserre.freealg import NcPoly, SpectralWindow, ayb_sides, qproduct, x_alphabet
from qserre import qfield as qfield_module
from qserre import series
from qserre.series import (
    _at_powers, _over_common_denominator, _times, _truncated, check_ayb_formal,
    check_ratio_identity, formal_ayb_sides, ratio_series,
)
from qserre.verify import Verifier

A1 = x_alphabet(1)
A2 = x_alphabet(2)
L, M, N = 0, 1, 2


def unit(alphabet):
    return {(0, 0, 0): NcPoly.unit(alphabet)}


def one_minus(alphabet, gen, param):
    """The series 1 - P_param * gen."""
    e = tuple(int(i == param) for i in range(3))
    return {(0, 0, 0): NcPoly.unit(alphabet),
            e: NcPoly.generator(alphabet, gen, -ONE)}


def shifted(s, param):
    """The series with P_param replaced by q * P_param."""
    return {e: p.scale(q_power(e[param])) for e, p in s.items()}


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
    # at cutoff 0 every ratio is the unit
    assert ratio_series(A1, "x1", L, M, 0) == unit(A1)


def test_pochhammer_first_coefficients():
    r = ratio_series(A1, "x1", L, M, 2)
    assert r[(1, 0, 0)] == NcPoly.monomial(A1, (0,), -(ONE / (ONE - Q)))
    assert r[(2, 0, 0)] == NcPoly.monomial(
        A1, (0, 0), Q / ((ONE - Q) * (ONE - Q ** 2)))
    assert r[(0, 1, 0)] == NcPoly.monomial(A1, (0,), ONE / (ONE - Q))
    assert r[(1, 1, 0)] == NcPoly.monomial(
        A1, (0, 0), -(ONE / ((ONE - Q) * (ONE - Q))))


def test_pochhammer_against_truncated_finite_products():
    # q-adically, prod_{j<J} (1 - x q^j) converges to (x)_inf and
    # prod_{j<J} 1 / (1 - x q^j) to 1 / (x)_inf; compare the Euler
    # coefficients of x^d up to q-order J-d
    J, order, D = 8, 5, 3
    x = NcPoly.generator(A1, "x1")
    finite = qproduct(A1, "x1", SpectralWindow(J, 0))
    inverse = NcPoly.unit(A1)
    for j in range(J):
        geometric = sum((x.scale(q_power(j)) ** m for m in range(1, D + 1)),
                        NcPoly.unit(A1))
        inverse = _truncated(inverse * geometric, D)
    r = ratio_series(A1, "x1", L, M, D)
    for d in range(D + 1):
        word = (0,) * d
        for key, fin in (((d, 0, 0), finite), ((0, d, 0), inverse)):
            # compare s-expansions up to s^(2*order); q-order `order` <= J-d
            assert q_adic_expansion(r[key].coefficient(word), 2 * order) == \
                q_adic_expansion(fin.coefficient(word), 2 * order), key


def test_functional_equation():
    # (P x)_inf = (1 - P x) (P q x)_inf, with P = L upstairs
    for cutoff in (1, 3, 5):
        r = ratio_series(A1, "x1", L, M, cutoff)
        assert r == _times(one_minus(A1, "x1", L), shifted(r, L), cutoff)


def test_functional_equation_with_scale():
    # 1 / (P x)_inf = 1 / ((1 - P x) (P q x)_inf), with P = M downstairs:
    # (1 - M x) times the ratio is the ratio at q M
    r = ratio_series(A2, "x2", N, M, 4)
    assert _times(one_minus(A2, "x2", M), r, 4) == shifted(r, M)


def test_inverse():
    # the ratio with its windows swapped is the two-sided inverse
    a = ratio_series(A1, "x1", L, M, 4)
    b = ratio_series(A1, "x1", M, L, 4)
    assert _times(a, b, 4) == unit(A1)
    assert _times(b, a, 4) == unit(A1)


def test_ratio_identity_reports():
    assert check_ratio_identity(0, 0, 4).passed
    for mu, lam in ((0, 1), (0, 2), (1, 3)):
        r = check_ratio_identity(mu, lam, 6)
        assert r.passed, (mu, lam)
        assert r.residual.is_zero
    with pytest.raises(ValueError):
        check_ratio_identity(2, 1)


def test_ratio_series_matches_qproduct_directly():
    ratio = _at_powers(ratio_series(A1, "x1", L, M, 4), A1, (0, 1, 0))
    assert ratio == qproduct(A1, "x1", SpectralWindow(1, 0))


def test_equal_windows_collapse_to_unit():
    for param in (L, M, N):
        assert ratio_series(A2, "x1", param, param, 4) == unit(A2)


def test_formal_sides_integer_specialization():
    lhs, rhs = formal_ayb_sides(A2, 1, 4)
    plhs, prhs = ayb_sides(A2, 1, 2, 1, 0)
    assert _at_powers(lhs, A2, (2, 1, 0)) == _truncated(plhs, 4)
    assert _at_powers(rhs, A2, (2, 1, 0)) == _truncated(prhs, 4)


def test_formal_sides_lambda_equals_mu():
    lhs, rhs = formal_ayb_sides(A2, 1, 3)

    def merged(s):
        # identify M with L: the M exponent moves onto L
        out = {}
        for (a, b, c), p in s.items():
            e = (a + b, 0, c)
            out[e] = out[e] + p if e in out else p
        return {e: p for e, p in out.items() if p}

    assert merged(lhs) == merged(rhs)  # equal as raw series, no ideal needed


@pytest.fixture(scope="module")
def v2():
    return Verifier(2)


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
    r = check_ayb_formal(Verifier(3), 2, 3)
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
        lhs = dict(lhs)
        lhs[(1, 0, 0)] = lhs[(1, 0, 0)] + NcPoly.monomial(alphabet, word)
        return lhs, rhs

    monkeypatch.setattr(series, "formal_ayb_sides", perturbed)
    r = check_ayb_formal(v2, 1, 4)
    assert not r.passed
    # the residual comes from the decided L coefficient, not the integer check
    assert not r.residual.is_zero


def test_integer_windows_catch_a_numerator_that_keeps_every_denominator(
        v2, monkeypatch):
    # q times one coefficient keeps its denominator, so the common
    # denominator D of every window stays; only the cross-multiplied
    # numerators can tell the perturbed series from the true one
    real = series.formal_ayb_sides

    def perturbed(alphabet, n, cutoff):
        lhs, rhs = real(alphabet, n, cutoff)
        p = lhs[(1, 0, 0)]
        w, c = p.sorted_terms()[0]
        lhs = dict(lhs)
        lhs[(1, 0, 0)] = NcPoly(alphabet, {**p.terms, w: c * Q})
        return lhs, rhs

    lhs, _ = real(A2, 1, 4)
    bad, _ = perturbed(A2, 1, 4)
    for window in ((2, 1, 0), (3, 2, 1), (3, 1, 0)):
        assert (_over_common_denominator(bad, window)[0]
                == _over_common_denominator(lhs, window)[0])
    monkeypatch.setattr(series, "formal_ayb_sides", perturbed)
    r = check_ayb_formal(v2, 1, 4)
    assert not r.passed
    assert "integer specialization mismatch" in r.notes


def test_truncation_drops_overflow():
    x = {(0, 0, 0): NcPoly.generator(A1, "x1")}
    assert _times(_times(x, x, 2), x, 2) == {}
    # a product of factors at cutoff 3 keeps no word longer than 3
    s = _times(ratio_series(A2, "x1", L, M, 3), ratio_series(A2, "x2", N, L, 3), 3)
    assert max(p.degree for p in s.values()) == 3


def test_series_arithmetic_associativity():
    a = ratio_series(A2, "x1", L, M, 3)
    b = ratio_series(A2, "x2", M, N, 3)
    c = ratio_series(A2, "x1", N, L, 3)
    assert _times(_times(a, b, 3), c, 3) == _times(a, _times(b, c, 3), 3)
    assert _times(a, unit(A2), 3) == a == _times(unit(A2), a, 3)


def test_formal_sides_gcd_work_stays_under_its_ceiling(monkeypatch):
    # building both rank-3 sides at the pair (x2, x3) and D = 4 through a
    # generic series inverse over a polynomial ring in L, M, N made 6,334
    # _pgcd and 1,880 _prem calls; Euler's expansions keyed by parameter
    # monomial make 1,160 and 68
    calls = {"pgcd": 0, "prem": 0}
    pgcd, prem = qfield_module._pgcd, qfield_module._prem

    def counting_pgcd(a, b):
        calls["pgcd"] += 1
        return pgcd(a, b)

    def counting_prem(a, b):
        calls["prem"] += 1
        return prem(a, b)

    monkeypatch.setattr(qfield_module, "_pgcd", counting_pgcd)
    monkeypatch.setattr(qfield_module, "_prem", counting_prem)
    formal_ayb_sides(x_alphabet(3), 2, 4)
    assert calls["pgcd"] <= 1400
    assert calls["prem"] <= 80
