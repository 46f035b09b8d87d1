"""Formal power series in the generators with central spectral parameters.

The infinite product (x)_inf = prod_{j>=0} (1 - x q^j) only exists as a
series, and the windows stop being integers: a central parameter stands
for each q^lambda, P_0 = L, P_1 = M and P_2 = N.  A series is a dict
from a parameter exponent (a, b, c) to the NcPoly over Q(s) that
multiplies L^a M^b N^c, with no word longer than its cutoff and no zero
entry.  A product adds exponents and skips each pair of entries whose
shortest words already sum past the cutoff; mul_terms cuts the others.

Each factor (P_up x)_inf / (P_low x)_inf is the product of Euler's two
expansions (Gasper-Rahman, Basic Hypergeometric Series, 1.3):
(a x)_inf = sum_i (-1)^i q^(i(i-1)/2) (a x)^i / (q;q)_i and
1 / (b x)_inf = sum_j (b x)^j / (q;q)_j.  Nothing is ever inverted.

The extrapolated exchange relation is checked order by order in the
x-degree and exactly in the parameters: they are central and absent from
the relations, so a difference lies in the ideal identically in L, M, N
exactly when the coefficient of every parameter monomial does, and each
coefficient goes through the caller's Verifier.decide.  The sides, their
difference and the integer windows are made once, on x1, x2, and each
adjacent pair relabels x1, x2 -> x_n, x_{n+1}: that is an isomorphism
of two-letter free algebras, and no window involves n.  The ratio check
likewise reads one series at all of its windows.

Both suites compare a series with a finite product at integer windows
by _window_residual, with no gcd: each coefficient is brought over D, the
lcm of the series' distinct denominators, and a word's value at
P_i = q^(k_i), a sum of integer polynomials, is compared with the finite
product's c by numerator * c.den == c.num * D.  Only D takes gcds.
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
from qserre.verify import _combined, _report


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
    """Product of two series, skipping entry pairs whose shortest words pass
    the cutoff; the others multiply by mul_terms with the cutoff."""
    terms = {}
    right = [(eb, pb.terms, min(map(len, pb.terms))) for eb, pb in b.items()]
    for ea, pa in a.items():
        room = cutoff - min(map(len, pa.terms))
        for eb, tb, shortest in right:
            if shortest <= room:
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                mul_terms(terms.setdefault(e, {}), pa.terms, tb, cutoff)
    return {e: NcPoly._of(pa.alphabet, t) for e, t in terms.items() if t}


def _over_common_denominator(series: dict):
    """(D, {e: {word: numerator}}), shared by every window: D is the lcm of the
    distinct coefficient denominators, deduplicated before any gcd is taken."""
    dens = sorted({c.den for p in series.values() for c in p.terms.values()},
                  key=lambda d: (-len(d), d))
    D = (1,)
    for d in dens:
        try:
            _pdivmod_exact(D, d)
        except ArithmeticError:
            D = _pmul(D, _pdivmod_exact(d, _pgcd(D, d)))
    cofactor = {d: _pdivmod_exact(D, d) for d in dens}
    return D, {e: {w: _pmul(c.num, cofactor[c.den]) for w, c in p.terms.items()}
               for e, p in series.items()}


def _at_window(common, k):
    """(D, {word: numerator}) at P_i = q^(k_i), k_i >= 0; no sum takes a gcd."""
    if min(k) < 0:
        raise ValueError("window exponents must be >= 0")
    nums = {}
    for e, terms in common[1].items():
        shift = (0,) * (2 * (e[0] * k[0] + e[1] * k[1] + e[2] * k[2]))
        for w, t in terms.items():
            t = shift + t
            nums[w] = _padd(nums[w], t) if w in nums else t
    return common[0], {w: t for w, t in nums.items() if t}


def _window_residual(common, k, poly: NcPoly) -> dict:
    """{word: series - poly} at P_i = q^(k_i), over the words whose
    cross-multiplied numerators differ; empty on a match, which takes no gcd."""
    D, nums = _at_window(common, k)
    values = ((w, nums.get(w, ()), poly.coefficient(w))
              for w in nums.keys() | poly.terms.keys())
    return {w: QRat(t, D) - c for w, t, c in values if _pmul(t, c.den) != _pmul(c.num, D)}


def _truncated(p: NcPoly, cutoff: int) -> NcPoly:
    return NcPoly(p.alphabet, {w: c for w, c in p.terms.items() if len(w) <= cutoff})


def check_ratio_identity(windows, cutoff: int = 6) -> list:
    """At each (mu, lam) window, one report: the series ratio at L = q^mu,
    M = q^lam equals the finite q-product.  The series is built once."""
    t0 = time.perf_counter()
    alphabet = x_alphabet(1)
    common = _over_common_denominator(ratio_series(alphabet, "x1", 0, 1, cutoff))
    built = time.perf_counter() - t0
    reports = []
    for mu, lam in windows:
        t0 = time.perf_counter() - built  # each millis counts the shared build
        finite = qproduct(alphabet, "x1", SpectralWindow(lam, mu))
        diff = NcPoly._of(alphabet, _window_residual(
            common, (mu, lam, 0), _truncated(finite, cutoff)))
        reports.append(_report("ratio", (("mu", mu), ("lam", lam), ("D", cutoff)),
                               diff.is_zero, diff, ("series",), t0))
    return reports


def formal_ayb_sides(alphabet, n: int, cutoff: int):
    """The two sides of the exchange relation with formal central windows."""
    lo, hi = "x%d" % n, "x%d" % (n + 1)
    L, M, N = 0, 1, 2

    def R(gen, up, low):
        return ratio_series(alphabet, gen, up, low, cutoff)

    lhs = _times(_times(R(hi, M, L), R(lo, N, L), cutoff), R(hi, N, M), cutoff)
    rhs = _times(_times(R(lo, N, M), R(hi, N, L), cutoff), R(lo, M, L), cutoff)
    return lhs, rhs


def check_ayb_formal(v, cutoff: int = 4) -> list:
    """Exchange relation for series R-matrices, order by order in x-degree.

    One report per adjacent pair of v's rank: it passes when v.decide,
    with v's mode and rules, finds the coefficient of every parameter
    monomial a member and the integer windows reproduce the finite products.
    """
    t0 = time.perf_counter()
    pair = x_alphabet(2)
    lhs, rhs = formal_ayb_sides(pair, 1, cutoff)
    zero = NcPoly.zero(pair)
    # the coefficient of L^a M^b N^c, for each exponent e = (a, b, c)
    diff = {e: d for e in lhs.keys() | rhs.keys()
            if (d := lhs.get(e, zero) - rhs.get(e, zero))}
    # integer windows reproduce the finite products before truncation; the
    # first mismatch, on x1, x2, is the residual of one more report
    over = [_over_common_denominator(side) for side in (lhs, rhs)]
    mismatch = next((residual for window in ((2, 1, 0), (3, 2, 1), (3, 1, 0))
                     for common, side in zip(over, ayb_sides(pair, 1, *window))
                     if (residual := _window_residual(
                         common, window, _truncated(side, cutoff)))), {})
    integer = _report("ayb-formal", (), not mismatch, NcPoly._of(pair, mismatch),
                      ("series",), t0)
    checked = ("integer-window specialization consistency checked",) + (
        () if integer.passed else ("integer specialization mismatch",))
    built = time.perf_counter() - t0
    reports = []
    for n in range(1, v.rank):
        t0 = time.perf_counter() - built  # each millis counts the shared build
        # x1, x2 are letters 0, 1 of pair; x_n, x_{n+1} are n - 1, n of v's
        # a zero difference is still decided once, so the report names the methods
        decided = [v.decide("ayb-formal", (("n", n), ("monomial", e)), NcPoly._of(
            v.alphabet, {tuple(i + n - 1 for i in w): c
                         for w, c in diff.get(e, zero).terms.items()}))
            for e in sorted(diff) or [(0, 0, 0)]]
        notes = ("exact in L, M, N: %d parameter monomials decided" % len(diff),
                 *sorted({note for r in decided for note in r.notes}), *checked)
        reports.append(_combined("ayb-formal", (("n", n), ("rank", v.rank), ("D", cutoff)),
                                 decided + [integer], t0, notes))
    return reports
