"""Exact arithmetic in the coefficient field Q(s), with q = s^2.

Everything downstream has coefficients here.  Working in the square root
s of the deformation parameter lets one field serve both the algebras
with integer q-powers and the quantum-coordinate algebra, which needs
q^(1/2).  Values are immutable and normalized on construction, so they
are safe to share between concurrent checks.
"""

from __future__ import annotations

from math import gcd as _int_gcd


# ---------------------------------------------------------------------------
# dense integer polynomials in s, as tuples with no trailing zeros
# ---------------------------------------------------------------------------

def _trim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    # the callers are QRat arithmetic, the reducer's Laurent products and
    # the series' common denominators; with zero operands left out, a
    # constant operand against a convolution is 11,940 to 3,099 in
    # verify all --rank 3 --lambda-max 2 and 27,905 to 5,113 in three
    # passes of the bench membership stream
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _trim(out)


def _primitive(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return ()
    g = _int_gcd(*a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return a
    return tuple(c // g for c in a)


def _pdivmod_exact(a, b):
    """Quotient of a by b in Z[s]; remainder must come out zero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    bl = b[-1]
    out = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if c == 0:
            continue
        if c % bl != 0:
            raise ArithmeticError("inexact polynomial division")
        f = c // bl
        out[i] = f
        for j, cb in enumerate(b):
            rem[i + j] -= f * cb
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


def _prem(a, b):
    """Pseudo-remainder of a by b over Z."""
    d = len(a) - len(b)
    if d < 0:
        return a
    rem = list(a)
    bl = b[-1]
    for i in range(d, -1, -1):
        c = rem[i + len(b) - 1]
        for j in range(i + len(b) - 1):
            rem[j] *= bl
        for j, cb in enumerate(b):
            rem[i + j] = rem[i + j] - c * cb
        # re-trim lazily; top coefficient is now exactly zero
        rem[i + len(b) - 1] = 0
    return _trim(rem)


def _order(a):
    """Lowest exponent with a nonzero coefficient; a must be nonzero."""
    for i, c in enumerate(a):
        if c:
            return i


def _pgcd(a, b):
    """gcd of primitive parts, primitive PRS, positive leading coeff.

    A constant operand gives 1 and a monomial c*s^k gives s^min(k, ord)
    without any PRS step.  The callers are QRat arithmetic and the common
    denominator of a series.  With zero operands left out, verify all
    --rank 3 --lambda-max 2 takes 2,135 constant, 521 monomial and 308
    PRS gcds; three passes of the bench membership stream take 808, 322
    and 1,145, so there the fast paths serve only about half.
    """
    if not a:
        return _primitive(b)
    if not b:
        return _primitive(a)
    if len(a) == 1 or len(b) == 1:
        return (1,)
    ka, kb = _order(a), _order(b)
    if ka == len(a) - 1 or kb == len(b) - 1:
        return (0,) * min(ka, kb) + (1,)
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _primitive(_prem(a, b))
        a, b = b, r
    return a


def _poly_str(cs):
    if not cs:
        return "0"
    # even exponents throughout render in q, otherwise stay in s
    use_q = all(c == 0 for e, c in enumerate(cs) if e % 2)
    parts = []
    for e, c in enumerate(cs):
        if not c:
            continue
        if e == 0:
            tok = str(abs(c))
        else:
            name, k = ("q", e // 2) if use_q else ("s", e)
            tok = name if k == 1 else "%s^%d" % (name, k)
            if abs(c) != 1:
                tok = "%d*%s" % (abs(c), tok)
        if not parts:
            parts.append(("-" if c < 0 else "") + tok)
        else:
            parts.append(("-" if c < 0 else "+") + tok)
    return "".join(parts)


# ---------------------------------------------------------------------------
# QRat: the field elements
# ---------------------------------------------------------------------------

class QRat:
    """Rational function num/den in s, kept in canonical reduced form.

    num and den are integer coefficient tuples, lowest power of s first,
    with no trailing zeros.  Canonical form: numerator and denominator share no polynomial factor
    and no integer content, and the denominator has a positive leading
    coefficient.  Equality and hashing are structural, which the
    canonical form makes equivalent to field equality.

    Arithmetic keeps the form with as few polynomial gcds as it can
    (Henrici; Knuth, TAOCP vol. 2, 4.5.1).  A sum takes g = gcd(b, d) of
    the denominators and then one gcd of the new numerator against g,
    none when g = 1.  A product cancels the two cross gcds first; the
    product of the remaining parts is then coprime and needs only its
    integer content removed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        n, d = _as_parts(num)
        if den is not None:
            dn, dd = _as_parts(den)
            if not dn:
                raise ZeroDivisionError("division by zero in Q(s)")
            n, d = _pmul(n, dd), _pmul(d, dn)
        n, d = _normalize(n, d)
        _set_num(self, n)
        _set_den(self, d)

    def __setattr__(self, *a):
        raise AttributeError("QRat is immutable")

    @classmethod
    def _raw(cls, n, d):
        """Construct from pre-normalized tuples, by the slots' own setters."""
        self = object.__new__(cls)
        _set_num(self, n)
        _set_den(self, d)
        return self

    def _inverse_parts(self):
        n, d = self.num, self.den
        if not n:
            raise ZeroDivisionError("division by zero in Q(s)")
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return d, n

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @property
    def is_negative(self):
        """Is the first coefficient str(self) shows negative?  Not in -self."""
        n = self._shown()[0]
        return bool(n) and next(c for c in n if c) < 0

    def _shown(self):
        """(num, den) as str shows them: den's lowest coefficient positive."""
        n, d = self.num, self.den
        if next(c for c in d if c) < 0:  # 1-q, not -1+q
            n, d = _pneg(n), _pneg(d)
        return n, d

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _henrici_sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _henrici_sum(self.num, self.den, _pneg(other.num), other.den)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QRat._raw(_pneg(self.num), self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a or not c:
            return ZERO
        # cross-cancel before multiplying to keep intermediates small
        if d != (1,):
            g1 = _pgcd(a, d)
            if len(g1) > 1:
                a, d = _pdivmod_exact(a, g1), _pdivmod_exact(d, g1)
        if b != (1,):
            g2 = _pgcd(c, b)
            if len(g2) > 1:
                c, b = _pdivmod_exact(c, g2), _pdivmod_exact(b, g2)
        # a/b and c/d are reduced and both cross gcds are out: the product
        # shares no polynomial factor, only integer content
        return QRat._raw(*_unit_normalize(_pmul(a, c), _pmul(b, d)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * QRat._raw(*other._inverse_parts())

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * QRat._raw(*self._inverse_parts())

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (ONE / self) ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = base if out is ONE else out * base  # no product by ONE
            k >>= 1
            base = base * base if k else base  # no square past the top bit
        return out

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- display --------------------------------------------------------------

    def __repr__(self):
        return "QRat(%s)" % self

    def __str__(self):
        n, d = self._shown()
        if d == (1,):
            return _poly_str(n)
        return "%s/%s" % (_wrap(_poly_str(n)), _wrap(_poly_str(d)))


_set_num, _set_den = QRat.num.__set__, QRat.den.__set__


def _wrap(txt):
    return "(%s)" % txt if any(ch in txt for ch in "+-*/") and not _is_simple_neg(txt) else txt


def _is_simple_neg(txt):
    return txt.startswith("-") and not any(ch in txt[1:] for ch in "+-*/")


def _coerce(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, int):
        return QRat(x)
    return NotImplemented


def _as_parts(x):
    """(num tuple, den tuple) of an int / QRat / coeff seq."""
    if isinstance(x, QRat):
        return x.num, x.den
    if isinstance(x, int):
        return ((x,) if x else ()), (1,)
    return _trim(tuple(x)), (1,)


def _normalize(n, d):
    if not d:
        raise ZeroDivisionError("division by zero in Q(s)")
    if not n:
        return (), (1,)
    if d == (1,):
        return n, d
    # common polynomial factor
    g = _pgcd(n, d)
    if len(g) > 1:
        n, d = _pdivmod_exact(n, g), _pdivmod_exact(d, g)
    return _unit_normalize(n, d)


def _unit_normalize(n, d):
    """Remove the common integer content of n/d and make d's lead positive.

    n must be nonzero, and n and d must share no polynomial factor.
    """
    cg = _int_gcd(*n, *d)
    if d[-1] < 0:
        cg = -cg
    if cg != 1:
        n = tuple(c // cg for c in n)
        d = tuple(c // cg for c in d)
    return n, d


def _henrici_sum(a, b, c, d):
    """a/b + c/d for reduced operands, with one gcd on the small factor.

    Henrici's method (Knuth, TAOCP vol. 2, 4.5.1): with g = gcd(b, d),
    t = a*(d/g) + c*(b/g) can share a factor with b*d/g only inside g,
    so gcd(t, g) is the one gcd the sum needs; g = 1 needs none.
    """
    if b == d:
        g, bg, dg = b, (1,), (1,)
    else:
        g = _pgcd(b, d)
        bg, dg = ((b, d) if len(g) == 1
                  else (_pdivmod_exact(b, g), _pdivmod_exact(d, g)))
    t = _padd(_pmul(a, dg), _pmul(c, bg))
    if not t:
        return ZERO
    if len(g) > 1:
        g2 = _pgcd(t, g)
        if len(g2) > 1:
            t, g = _pdivmod_exact(t, g2), _pdivmod_exact(g, g2)
    return QRat._raw(*_unit_normalize(t, _pmul(_pmul(bg, dg), g)))


def s_power(k: int) -> QRat:
    """s^k, i.e. q^(k/2), any integer k."""
    if k >= 0:
        return QRat._raw((0,) * k + (1,), (1,))
    return QRat._raw((1,), (0,) * (-k) + (1,))


def q_power(k: int) -> QRat:
    """q^k as a field element, any integer k (q = s^2)."""
    return s_power(2 * k)


ZERO = QRat(0)
ONE = QRat(1)
