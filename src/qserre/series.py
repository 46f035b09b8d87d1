"""Truncated power series in the generators with central spectral scales.

The infinite product (x)_inf = prod_{j>=0} (1 - x q^j) only exists as a
series, and the windows stop being integers: a central commuting
parameter stands for each q^lambda.  Coefficients therefore live in the
polynomial ring over Q(s) in up to three such parameters; no division by
the parameters is ever needed because every series here has constant
term 1.

The extrapolated exchange relation is checked order by order in the
x-degree and exactly in the parameters: they are central and absent from
the relations, so a difference lies in the ideal identically in L, M, N
exactly when the coefficient of every parameter monomial does, and each
coefficient goes through the caller's Verifier.decide.
"""

from __future__ import annotations

import time
from dataclasses import replace

from qserre.freealg import NcPoly, SpectralWindow, ayb_sides, qproduct, x_alphabet
from qserre.qfield import ONE, QRat, ZERO, q_power
from qserre.verify import VerificationReport, _combined

PARAM_NAMES = ("L", "M", "N")


class ParamPoly:
    """Polynomial in the central parameters L, M, N over Q(s)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(c, QRat):
                    c = QRat(c)
                if c:
                    e = tuple(e)
                    c0 = clean.get(e)
                    c = c if c0 is None else c0 + c
                    if c:
                        clean[e] = c
                    elif e in clean:
                        del clean[e]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("ParamPoly is immutable")

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0): c})

    @classmethod
    def param(cls, i):
        e = [0, 0, 0]
        e[i] = 1
        return cls({tuple(e): ONE})

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_negative(self):
        # display heuristic only; a polynomial has no canonical sign
        return False

    def constant_value(self):
        """The value as a QRat if no parameter occurs, else None."""
        if not self.terms:
            return ZERO
        if set(self.terms) == {(0, 0, 0)}:
            return self.terms[(0, 0, 0)]
        return None

    def __add__(self, other):
        other = _coerce_param(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            c0 = out.get(e)
            c = c if c0 is None else c0 + c
            if c:
                out[e] = c
            elif e in out:
                del out[e]
        return _raw_param(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_param(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_param(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _raw_param({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = _coerce_param(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                c = c1 * c2
                c0 = out.get(e)
                c = c if c0 is None else c0 + c
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        return _raw_param(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = ParamPoly.const(ONE)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce_param(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, values: dict) -> "ParamPoly":
        """Replace parameters by QRat or ParamPoly values, by index."""
        out = ParamPoly()
        for e, c in self.terms.items():
            piece = ParamPoly.const(c)
            for i, k in enumerate(e):
                if not k:
                    continue
                v = values.get(i)
                if v is None:
                    piece = piece * ParamPoly.param(i) ** k
                else:
                    if isinstance(v, QRat):
                        v = ParamPoly.const(v)
                    piece = piece * v ** k
            out = out + piece
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for e, c in sorted(self.terms.items()):
            names = "*".join(
                (PARAM_NAMES[i] if k == 1 else "%s^%d" % (PARAM_NAMES[i], k))
                for i, k in enumerate(e) if k)
            cs = str(c)
            if any(ch in cs for ch in "+-*/") and not cs.lstrip("-").isdigit():
                cs = "(%s)" % cs
            chunks.append(cs if not names else
                          names if cs == "1" else "%s*%s" % (cs, names))
        return " + ".join(chunks)

    def __repr__(self):
        return "<ParamPoly %s>" % self


def _raw_param(terms):
    p = object.__new__(ParamPoly)
    object.__setattr__(p, "terms", terms)
    return p


def _coerce_param(x):
    if isinstance(x, ParamPoly):
        return x
    if isinstance(x, (QRat, int)):
        return ParamPoly.const(QRat(x))
    return NotImplemented


L = ParamPoly.param(0)
M = ParamPoly.param(1)
N = ParamPoly.param(2)


class TruncatedSeries:
    """NcPoly graded by x-degree with everything beyond the cutoff dropped."""

    __slots__ = ("poly", "cutoff")

    def __init__(self, poly: NcPoly, cutoff: int):
        kept = {w: c for w, c in poly.terms.items() if len(w) <= cutoff}
        object.__setattr__(self, "poly", NcPoly(poly.alphabet, kept))
        object.__setattr__(self, "cutoff", cutoff)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def unit(cls, alphabet, cutoff, coeff=None):
        c = ParamPoly.const(ONE) if coeff is None else coeff
        return cls(NcPoly.unit(alphabet, c), cutoff)

    def _join(self, other):
        if self.cutoff != other.cutoff:
            raise ValueError("cutoff mismatch")
        return other

    def __add__(self, other):
        self._join(other)
        return TruncatedSeries(self.poly + other.poly, self.cutoff)

    def __sub__(self, other):
        self._join(other)
        return TruncatedSeries(self.poly - other.poly, self.cutoff)

    def __neg__(self):
        return TruncatedSeries(-self.poly, self.cutoff)

    def __mul__(self, other):
        self._join(other)
        return TruncatedSeries(self.poly * other.poly, self.cutoff)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.cutoff == other.cutoff and self.poly == other.poly)

    def graded_component(self, d: int) -> NcPoly:
        return self.poly.homogeneous_part(d)

    def map_coefficients(self, f) -> "TruncatedSeries":
        return TruncatedSeries(self.poly.map_coefficients(f), self.cutoff)

    def to_qrat_poly(self) -> NcPoly:
        """Collapse parameter-free coefficients back to plain QRat."""
        out = {}
        for w, c in self.poly.terms.items():
            v = c.constant_value() if isinstance(c, ParamPoly) else c
            if v is None:
                raise ValueError("coefficient still depends on a parameter")
            out[w] = v
        return NcPoly(self.poly.alphabet, out)

    def __str__(self):
        return "%s + O(deg %d)" % (self.poly, self.cutoff + 1)


def pochhammer_inf(alphabet, gen: str, scale, cutoff: int) -> TruncatedSeries:
    """Series of prod_{j>=0} (1 - scale*gen*q^j) up to the cutoff.

    The coefficient recursion comes from the functional equation
    f(x) = (1 - x) f(xq): the gen^n coefficient is
    (-1)^n q^(n(n-1)/2) / prod_{i<=n} (1 - q^i), times scale^n.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if isinstance(scale, (int, QRat)):
        scale = ParamPoly.const(QRat(scale))
    g = alphabet.index(gen)
    terms = {(): ParamPoly.const(ONE)}
    a = ONE
    scale_pow = ParamPoly.const(ONE)
    for n in range(1, cutoff + 1):
        a = a * (-(q_power(n - 1)) / (ONE - q_power(n)))
        scale_pow = scale_pow * scale
        terms[(g,) * n] = scale_pow * a
    return TruncatedSeries(NcPoly(alphabet, terms), cutoff)


def series_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Two-sided inverse up to the cutoff; needs an invertible constant term."""
    c0 = a.poly.coefficient(())
    v0 = c0.constant_value() if isinstance(c0, ParamPoly) else QRat(c0)
    if v0 is None or not v0:
        raise ValueError("constant term is not invertible")
    inv0 = ONE / v0
    alphabet = a.poly.alphabet
    comps = [a.graded_component(d) for d in range(a.cutoff + 1)]
    out = [NcPoly.unit(alphabet, ParamPoly.const(inv0))]
    for d in range(1, a.cutoff + 1):
        acc = NcPoly.zero(alphabet)
        for i in range(1, d + 1):
            acc = acc + comps[i] * out[d - i]
        out.append(acc.map_coefficients(lambda c: (-inv0) * c))
    total = NcPoly.zero(alphabet)
    for p in out:
        total = total + p
    return TruncatedSeries(total, a.cutoff)


def ratio_series(alphabet, gen: str, upper_scale, lower_scale, cutoff: int) -> TruncatedSeries:
    """(gen*upper)_inf / (gen*lower)_inf as a truncated series."""
    return (pochhammer_inf(alphabet, gen, upper_scale, cutoff)
            * series_inverse(pochhammer_inf(alphabet, gen, lower_scale, cutoff)))


def check_ratio_identity(mu: int, lam: int, cutoff: int = 6) -> VerificationReport:
    """The series ratio with integer scales equals the finite q-product."""
    if not lam >= mu >= 0:
        raise ValueError("need lam >= mu >= 0")
    t0 = time.perf_counter()
    alphabet = x_alphabet(1)
    ratio = ratio_series(alphabet, "x1", q_power(mu), q_power(lam), cutoff)
    finite = qproduct(alphabet, "x1", SpectralWindow(lam, mu))
    finite_tr = TruncatedSeries(
        finite.map_coefficients(lambda c: ParamPoly.const(c)), cutoff)
    diff = ratio - finite_tr
    millis = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        "ratio", (("mu", mu), ("lam", lam), ("D", cutoff)),
        diff.poly.is_zero, diff.poly, ("series",), millis)


def formal_ayb_sides(alphabet, n: int, cutoff: int):
    """The two sides of the exchange relation with formal central windows."""
    lo, hi = "x%d" % n, "x%d" % (n + 1)

    def R(gen, up, low):
        return ratio_series(alphabet, gen, up, low, cutoff)

    lhs = R(hi, M, L) * R(lo, N, L) * R(hi, N, M)
    rhs = R(lo, N, M) * R(hi, N, L) * R(lo, M, L)
    return lhs, rhs


def check_ayb_formal(v, n: int = 1, cutoff: int = 4) -> VerificationReport:
    """Exchange relation for series R-matrices, order by order in x-degree.

    The difference is split by parameter monomial and each coefficient is
    decided by v.decide, with v's mode, oracle cap and rules; the report
    passes when every coefficient is a member, which is membership
    identically in L, M, N.  Integer specializations of the parameters
    must also reproduce the finite-window polynomials exactly.
    """
    t0 = time.perf_counter()
    alphabet = v.alphabet
    lhs, rhs = formal_ayb_sides(alphabet, n, cutoff)
    diff = (lhs - rhs).poly
    monomials = sorted({e for c in diff.terms.values() for e in c.terms})
    # the coefficient of L^a M^b N^c, for each exponent e = (a, b, c); a zero
    # difference is still decided once, so the report names the methods
    reports = [v.decide("ayb-formal", (("n", n), ("monomial", e)),
                        diff.map_coefficients(lambda c: c.terms.get(e, ZERO)))
               for e in monomials or [(0, 0, 0)]]
    notes = ["exact in L, M, N: %d parameter monomials decided" % len(monomials)]
    notes += sorted({note for r in reports for note in r.notes})

    # integer windows reproduce the finite products before truncation
    integer_ok = True
    for lam, mu, nu in ((2, 1, 0), (3, 2, 1), (3, 1, 0)):
        vals = {0: q_power(lam), 1: q_power(mu), 2: q_power(nu)}
        flhs = lhs.map_coefficients(lambda c: c.substitute(vals)).to_qrat_poly()
        frhs = rhs.map_coefficients(lambda c: c.substitute(vals)).to_qrat_poly()
        plhs, prhs = ayb_sides(alphabet, n, lam, mu, nu)
        cut = lambda p: NcPoly(alphabet, {w: c for w, c in p.terms.items()
                                          if len(w) <= cutoff})
        if flhs != cut(plhs) or frhs != cut(prhs):
            integer_ok = False
            break
    notes.append("integer-window specialization consistency checked")
    if not integer_ok:
        notes.append("integer specialization mismatch")
    report = _combined("ayb-formal", (("n", n), ("rank", v.rank), ("D", cutoff)),
                       reports, alphabet, t0, tuple(notes))
    return replace(report, passed=report.passed and integer_ok)
