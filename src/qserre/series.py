"""Formal power series in the generators with central spectral parameters.

The infinite product (x)_inf = prod_{j>=0} (1 - x q^j) only exists as a
series, and the windows stop being integers: a central commuting
parameter stands for each q^lambda, P_0 = L, P_1 = M and P_2 = N.  A
series is a dict from a parameter exponent (a, b, c) to the NcPoly over
Q(s) that multiplies L^a M^b N^c, with no word longer than its cutoff
and no zero entry.  The parameters are central, so a product only adds
exponents.

Each factor (P_up x)_inf / (P_low x)_inf is the product of Euler's two
expansions (Gasper-Rahman, Basic Hypergeometric Series, 1.3):
(a x)_inf = sum_i (-1)^i q^(i(i-1)/2) (a x)^i / (q;q)_i and
1 / (b x)_inf = sum_j (b x)^j / (q;q)_j.  Nothing is ever inverted.

The extrapolated exchange relation is checked order by order in the
x-degree and exactly in the parameters: they are central and absent from
the relations, so a difference lies in the ideal identically in L, M, N
exactly when the coefficient of every parameter monomial does, and each
coefficient goes through the caller's Verifier.decide.

The integer windows are checked without a gcd.  At P_i = q^(k_i) a
word's value is a sum of coefficients with different denominators;
each is brought over one common denominator D, the lcm of the distinct
denominators of the series, so the sum is a sum of integer polynomials.
The finite product's coefficient c is then compared by cross-multiplying,
numerator * c.den == c.num * D.  Only D itself takes gcds, one per
distinct denominator that does not already divide it.
"""

from __future__ import annotations

import time

from qserre.freealg import (
    NcPoly, SpectralWindow, add_terms, ayb_sides, mul_terms, qproduct,
    x_alphabet,
)
from qserre.qfield import (
    ONE, QRat, _padd, _pdivmod_exact, _pgcd, _pmul, q_power,
)
from qserre.verify import VerificationReport, _combined


def ratio_series(alphabet, gen: str, up: int, low: int, cutoff: int) -> dict:
    """(P_up gen)_inf / (P_low gen)_inf up to the cutoff.

    up and low index the parameters (0 = L, 1 = M, 2 = N).  The
    coefficient of P_up^i P_low^j gen^(i+j) is
    (-1)^i q^(i(i-1)/2) / ((q;q)_i (q;q)_j); entries that cancel are
    dropped, so equal windows give exactly the unit.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    g = alphabet.index(gen)
    inv_qq = [ONE]  # 1 / (q;q)_j
    for j in range(1, cutoff + 1):
        inv_qq.append(inv_qq[-1] / (ONE - q_power(j)))
    coeffs = {}
    for i in range(cutoff + 1):
        head = q_power(i * (i - 1) // 2) * inv_qq[i]
        if i % 2:
            head = -head
        for j in range(cutoff + 1 - i):
            e = [0, 0, 0]
            e[up] += i
            e[low] += j
            add_terms(coeffs, [(tuple(e), head * inv_qq[j])])
    return {e: NcPoly.monomial(alphabet, (g,) * sum(e), c)
            for e, c in coeffs.items()}


def _times(a: dict, b: dict, cutoff: int) -> dict:
    """Product of two series; their words multiply by mul_terms with the cutoff."""
    terms = {}
    for ea, pa in a.items():
        for eb, pb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            mul_terms(terms.setdefault(e, {}), pa.terms, pb.terms, cutoff)
    return {e: NcPoly._of(pa.alphabet, t) for e, t in terms.items() if t}


def _over_common_denominator(series: dict, k):
    """The series at P_i = q^(k_i), k_i >= 0, as (D, {word: numerator}).

    D is the lcm of the distinct coefficient denominators, which are
    deduplicated before any gcd is taken; each word's value is its
    integer polynomial numerator over D, and no sum takes a gcd.
    """
    if min(k) < 0:
        raise ValueError("window exponents must be >= 0")
    dens = sorted({c.den for p in series.values() for c in p.terms.values()},
                  key=lambda d: (-len(d), d))
    D = (1,)
    for d in dens:
        try:
            _pdivmod_exact(D, d)
        except ArithmeticError:
            D = _pmul(D, _pdivmod_exact(d, _pgcd(D, d)))
    cofactor = {d: _pdivmod_exact(D, d) for d in dens}
    nums = {}
    for e, p in series.items():
        shift = (0,) * (2 * (e[0] * k[0] + e[1] * k[1] + e[2] * k[2]))
        for w, c in p.terms.items():
            t = shift + _pmul(c.num, cofactor[c.den])
            nums[w] = _padd(nums[w], t) if w in nums else t
    return D, {w: t for w, t in nums.items() if t}


def _at_powers(series: dict, alphabet, k) -> NcPoly:
    """The series at P_i = q^(k_i): the sum of A_e q^<e, k> over e."""
    D, nums = _over_common_denominator(series, k)
    return NcPoly(alphabet, {w: QRat(t, D) for w, t in nums.items()})


def _matches_at_powers(series: dict, k, poly: NcPoly) -> bool:
    """Does the series at P_i = q^(k_i) equal poly?  Cross-multiplied, no gcd."""
    D, nums = _over_common_denominator(series, k)
    return nums.keys() == poly.terms.keys() and all(
        _pmul(nums[w], c.den) == _pmul(c.num, D) for w, c in poly.terms.items())


def _truncated(p: NcPoly, cutoff: int) -> NcPoly:
    return NcPoly(p.alphabet, {w: c for w, c in p.terms.items() if len(w) <= cutoff})


def check_ratio_identity(mu: int, lam: int, cutoff: int = 6) -> VerificationReport:
    """The series ratio at L = q^mu, M = q^lam equals the finite q-product."""
    if not lam >= mu >= 0:
        raise ValueError("need lam >= mu >= 0")
    t0 = time.perf_counter()
    alphabet = x_alphabet(1)
    ratio = _at_powers(ratio_series(alphabet, "x1", 0, 1, cutoff), alphabet,
                       (mu, lam, 0))
    finite = qproduct(alphabet, "x1", SpectralWindow(lam, mu))
    diff = ratio - _truncated(finite, cutoff)
    millis = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        "ratio", (("mu", mu), ("lam", lam), ("D", cutoff)),
        diff.is_zero, diff, ("series",), millis)


def formal_ayb_sides(alphabet, n: int, cutoff: int):
    """The two sides of the exchange relation with formal central windows."""
    lo, hi = "x%d" % n, "x%d" % (n + 1)
    L, M, N = 0, 1, 2

    def R(gen, up, low):
        return ratio_series(alphabet, gen, up, low, cutoff)

    lhs = _times(_times(R(hi, M, L), R(lo, N, L), cutoff), R(hi, N, M), cutoff)
    rhs = _times(_times(R(lo, N, M), R(hi, N, L), cutoff), R(lo, M, L), cutoff)
    return lhs, rhs


def check_ayb_formal(v, n: int = 1, cutoff: int = 4) -> VerificationReport:
    """Exchange relation for series R-matrices, order by order in x-degree.

    The difference is split by parameter monomial and each coefficient is
    decided by v.decide, with v's mode and rules; the report
    passes when every coefficient is a member, which is membership
    identically in L, M, N.  Integer specializations of the parameters
    must also reproduce the finite-window polynomials exactly.
    """
    t0 = time.perf_counter()
    alphabet = v.alphabet
    lhs, rhs = formal_ayb_sides(alphabet, n, cutoff)
    zero = NcPoly.zero(alphabet)
    # the coefficient of L^a M^b N^c, for each exponent e = (a, b, c)
    diff = {e: d for e in lhs.keys() | rhs.keys()
            if (d := lhs.get(e, zero) - rhs.get(e, zero))}
    monomials = sorted(diff)
    # a zero difference is still decided once, so the report names the methods
    reports = [v.decide("ayb-formal", (("n", n), ("monomial", e)),
                        diff.get(e, zero))
               for e in monomials or [(0, 0, 0)]]
    notes = ["exact in L, M, N: %d parameter monomials decided" % len(monomials)]
    notes += sorted({note for r in reports for note in r.notes})

    # integer windows reproduce the finite products before truncation
    integer_ok = True
    for window in ((2, 1, 0), (3, 2, 1), (3, 1, 0)):
        plhs, prhs = ayb_sides(alphabet, n, *window)
        if not (_matches_at_powers(lhs, window, _truncated(plhs, cutoff))
                and _matches_at_powers(rhs, window, _truncated(prhs, cutoff))):
            integer_ok = False
            break
    notes.append("integer-window specialization consistency checked")
    if not integer_ok:
        notes.append("integer specialization mismatch")
    report = _combined("ayb-formal", (("n", n), ("rank", v.rank), ("D", cutoff)),
                       reports, alphabet, t0, tuple(notes))
    return report._replace(passed=report.passed and integer_ok)
