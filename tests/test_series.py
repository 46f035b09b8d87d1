import random
from fractions import Fraction

import pytest

from qserre.qfield import ONE, Q, QRat, q_power
from qserre.freealg import (
    NcPoly, SpectralWindow, ayb_sides, mul_terms, qproduct, x_alphabet,
)
from qserre import qfield as qfield_module
from qserre import series
from qserre.series import (
    _at_window, _over_common_denominator, _times, _truncated, check_ayb_formal,
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


def at_powers(s, alphabet, k):
    """The series at P_i = q^(k_i): the sum of A_e q^<e, k> over e."""
    D, nums = _at_window(_over_common_denominator(s), k)
    return NcPoly(alphabet, {w: QRat(t, D) for w, t in nums.items()})


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
    [r] = check_ratio_identity([(0, 0)], 4)
    assert r.passed
    windows = ((0, 1), (0, 2), (1, 3))
    reports = check_ratio_identity(windows, 6)
    assert [r.params for r in reports] == [
        (("mu", mu), ("lam", lam), ("D", 6)) for mu, lam in windows]
    for r in reports:
        assert r.passed, r.params
        assert r.residual.is_zero
    with pytest.raises(ValueError):
        check_ratio_identity([(0, 1), (2, 1)])


def test_ratio_identity_refuses_a_perturbed_series(monkeypatch):
    # every window reads the one series, so one wrong coefficient fails each
    # window whose specialization keeps it
    real = series.ratio_series

    def perturbed(alphabet, gen, up, low, cutoff):
        s = dict(real(alphabet, gen, up, low, cutoff))
        s[(1, 0, 0)] = s[(1, 0, 0)].scale(Q)
        return s

    monkeypatch.setattr(series, "ratio_series", perturbed)
    windows = ((0, 1), (0, 2), (1, 3))
    reports = check_ratio_identity(windows, 6)
    assert not any(r.passed for r in reports)
    assert all(not r.residual.is_zero for r in reports)
    # the residual holds exactly the words whose values differ, compared in
    # the field: the words whose cross-multiplied numerators differ
    bad = perturbed(A1, "x1", L, M, 6)
    for (mu, lam), r in zip(windows, reports):
        got = at_powers(bad, A1, (mu, lam, 0))
        want = _truncated(qproduct(A1, "x1", SpectralWindow(lam, mu)), 6)
        differ = [w for w in got.terms.keys() | want.terms.keys()
                  if got.coefficient(w) != want.coefficient(w)]
        assert r.residual_terms == len(differ) > 0, (mu, lam)


def test_both_series_suites_compare_through_one_window_residual(v2, monkeypatch):
    windows = []
    real = series._window_residual
    monkeypatch.setattr(series, "_window_residual",
                        lambda common, k, poly: windows.append(k) or real(common, k, poly))
    check_ratio_identity(((0, 1), (0, 2), (1, 3)), 6)
    assert windows == [(0, 1, 0), (0, 2, 0), (1, 3, 0)]
    windows.clear()
    [r] = check_ayb_formal(v2, 3)
    assert r.passed
    # each integer window compares both sides
    assert windows == [k for k in ((2, 1, 0), (3, 2, 1), (3, 1, 0)) for _ in "lr"]


def test_ratio_series_matches_qproduct_directly():
    ratio = at_powers(ratio_series(A1, "x1", L, M, 4), A1, (0, 1, 0))
    assert ratio == qproduct(A1, "x1", SpectralWindow(1, 0))


def test_equal_windows_collapse_to_unit():
    for param in (L, M, N):
        assert ratio_series(A2, "x1", param, param, 4) == unit(A2)


def test_formal_sides_integer_specialization():
    lhs, rhs = formal_ayb_sides(A2, 1, 4)
    plhs, prhs = ayb_sides(A2, 1, 2, 1, 0)
    assert at_powers(lhs, A2, (2, 1, 0)) == _truncated(plhs, 4)
    assert at_powers(rhs, A2, (2, 1, 0)) == _truncated(prhs, 4)


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
    [r] = check_ayb_formal(v2, 1)
    assert r.passed
    # the difference vanishes below degree 3, and is still decided once
    assert r.methods == ("rewrite", "oracle")


def test_ayb_formal_default(v2):
    [r] = check_ayb_formal(v2, 4)
    assert r.passed
    assert r.residual.is_zero
    assert r.methods == ("rewrite", "oracle")


def test_ayb_formal_higher_pair():
    reports = check_ayb_formal(Verifier(3), 3)
    assert [dict(r.params)["n"] for r in reports] == [1, 2]
    assert all(r.passed for r in reports)


def test_ayb_formal_relabels_the_sides_built_on_the_pair(monkeypatch):
    # the coefficients decided at (x2, x3) are those of the sides built on
    # x2, x3 themselves: relabeling x1, x2 -> x2, x3 is exact
    seen = {}
    real = Verifier.decide

    def spy(self, identity, params, diff, notes=()):
        p = dict(params)
        seen[p["n"], p["monomial"]] = diff
        return real(self, identity, params, diff, notes)

    monkeypatch.setattr(Verifier, "decide", spy)
    check_ayb_formal(Verifier(3), 3)
    lhs, rhs = formal_ayb_sides(x_alphabet(3), 2, 3)
    zero = NcPoly.zero(x_alphabet(3))
    want = {e: lhs.get(e, zero) - rhs.get(e, zero) for e in lhs.keys() | rhs.keys()}
    got = {e: d for (n, e), d in seen.items() if n == 2}
    assert got == {e: d for e, d in want.items() if d}
    assert all(d.alphabet == x_alphabet(3) for d in got.values())


@pytest.mark.parametrize("cutoff, monomials", [(4, 18), (5, 36)])
def test_ayb_formal_decides_each_parameter_monomial(v2, monkeypatch, cutoff,
                                                    monomials):
    seen = []
    real = Verifier.decide

    def spy(self, identity, params, diff, notes=()):
        seen.append(dict(params)["monomial"])
        return real(self, identity, params, diff, notes)

    monkeypatch.setattr(Verifier, "decide", spy)
    [r] = check_ayb_formal(v2, cutoff)
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
    [r] = check_ayb_formal(v2, 4)
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
    assert _over_common_denominator(bad)[0] == _over_common_denominator(lhs)[0]
    monkeypatch.setattr(series, "formal_ayb_sides", perturbed)
    [r] = check_ayb_formal(v2, 4)
    assert not r.passed
    assert "integer specialization mismatch" in r.notes


def test_an_integer_mismatch_alone_fails_with_its_window_residual(v2, monkeypatch):
    # one word added to both sides leaves every decided coefficient as it
    # was; only the integer windows see it, and the report's residual is the
    # first mismatching window's
    real = series.formal_ayb_sides
    word = (0, 1, 0)  # x1 x2 x1

    def perturbed(alphabet, n, cutoff):
        extra = NcPoly.monomial(alphabet, word)
        return tuple({**side, (1, 0, 0): side[(1, 0, 0)] + extra}
                     for side in real(alphabet, n, cutoff))

    monkeypatch.setattr(series, "formal_ayb_sides", perturbed)
    [r] = check_ayb_formal(v2, 4)
    assert not r.passed
    assert "integer specialization mismatch" in r.notes
    assert r.residual.terms.keys() == {word}


def test_truncation_drops_overflow():
    x = {(0, 0, 0): NcPoly.generator(A1, "x1")}
    assert _times(_times(x, x, 2), x, 2) == {}
    # a product of factors at cutoff 3 keeps no word longer than 3
    s = _times(ratio_series(A2, "x1", L, M, 3), ratio_series(A2, "x2", N, L, 3), 3)
    assert max(p.degree for p in s.values()) == 3


def unpruned_times(a, b, cutoff):
    """The series product with mul_terms' cutoff over every pair of entries."""
    terms = {}
    for ea, pa in a.items():
        for eb, pb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            mul_terms(terms.setdefault(e, {}), pa.terms, pb.terms, cutoff)
    return {e: NcPoly(A2, t) for e, t in terms.items() if t}


def random_series(rng):
    """Entries whose words are shorter, as long as or longer than their
    exponent sum, among them x1 at (0, 0, 0) and the unit at (2, 1, 0)."""
    out = {(0, 0, 0): NcPoly.generator(A2, "x1"), (2, 1, 0): NcPoly.unit(A2)}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(0, 2) for _ in range(3))
        p = NcPoly(A2, {tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5))):
                        QRat(rng.randint(-3, 3), (rng.randint(1, 2), 1))
                        for _ in range(rng.randint(1, 4))})
        if p:
            out[e] = p
    return out


def test_pruned_product_equals_the_unpruned_one():
    # skipping a pair of entries by its shortest words is exact; pruning by
    # exponent sums would drop the unit at (2, 1, 0) times short words
    rng = random.Random(27)
    for _ in range(40):
        a, b = random_series(rng), random_series(rng)
        for cutoff in range(7):
            assert _times(a, b, cutoff) == unpruned_times(a, b, cutoff), cutoff


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
