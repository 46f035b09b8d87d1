"""Exact ideal membership, independent of the rewriting engine.

This is the cross-check for the rewriting engine.  Both presentations
are Nichols algebras of diagonal type, so the ideal of their relations
is the kernel of the quantum symmetrizer Phi of their braiding chi
(Rosso, Invent. Math. 133, 1998; Andruskiewitsch-Schneider, Adv. Math.
154, 2000): Phi(w a) = Phi(w) shuffled with a, where each letter u that a
moves left past contributes chi(u, a).  Phi is linear and keeps the
letter counts of a word, so an oracle given its presentation's braiding
decides each multidegree block of a slice by applying Phi, with no
elimination and no degree cap.  The zero test encodes integer
polynomials in s as integers (_symmetrizer_kills) and takes no gcd.

The older route stays for what Phi does not answer, and as the
reference the tests compare Phi against: a homogeneous element lies in
the ideal iff it is a linear combination of padded relations u * rel * v
of the same degree, a finite linear-algebra question over Q(s), again
split into multidegree blocks.  Elimination is fraction-free over Z[s]:
coefficients stay integer polynomials, with no Q(s) division.  A vector
being reduced sheds only its integer content after each step; the
polynomial content, which takes gcds, comes out once, when a row is
stored.  quotient_dimension and an oracle built without a braiding use
it.

The randomized precheck specializes s at rational points and runs the
blockwise elimination over Q, on an oracle built once per point and kept
on the exact one.  It can only reject; the verifiers run it before the
exact decision only while membership is still open, not after rewriting
has reduced the input to zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd as _int_gcd

from qserre.freealg import Alphabet, NcPoly
from qserre.qfield import (
    QRat, _content as _int_content, _pdivmod_exact, _pgcd, _pmul, _pneg,
    _primitive, _psub,
)


@dataclass(frozen=True)
class HomogeneousSlice:
    degree: int
    vector: NcPoly


def split_homogeneous(p: NcPoly):
    """Decompose into homogeneous slices; the zero polynomial gives none."""
    by_deg = {}
    for w, c in p.terms.items():
        by_deg.setdefault(len(w), {})[w] = c
    return [HomogeneousSlice(d, NcPoly(p.alphabet, t))
            for d, t in sorted(by_deg.items())]


def _content(word, nletters):
    c = [0] * nletters
    for i in word:
        c[i] += 1
    return tuple(c)


def _multiset_words(content):
    """All distinct words with the given letter counts."""
    total = sum(content)
    if total == 0:
        yield ()
        return
    counts = list(content)
    word = [0] * total

    def rec(pos):
        if pos == total:
            yield tuple(word)
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                word[pos] = i
                yield from rec(pos + 1)
                counts[i] = c

    yield from rec(0)


def _perm_count(content):
    n = factorial(sum(content))
    for c in content:
        n //= factorial(c)
    return n


class _Echelon:
    """Fraction-free row space over Z[s], pivoted by largest word.

    Rows are dicts word -> integer polynomial (a coefficient tuple in s),
    each divided by its polynomial and integer content when it is stored.
    An input vector of QRat entries is scaled once by the lcm of its
    denominators; each reduction step then cross-multiplies by the two
    leading entries over their gcd (Bareiss-style), so no field element
    is formed, and removes only the integer content: the polynomial
    content costs a gcd per entry, and many vectors reduce to zero, where
    it is never needed.  Scaling a row by a nonzero factor leaves the row
    space, hence rank and membership, unchanged.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}  # leading word -> dict word -> coefficient tuple

    def residue(self, vec):
        """Reduced multiple of vec over Z[s]; its lead word, or None if zero."""
        vec = _strip_integer_content(_clear_denominators(vec))
        pivots = self.pivots
        while vec:
            lead = max(vec)
            row = pivots.get(lead)
            if row is None:
                return vec, lead
            a, b = vec[lead], row[lead]
            g = _pgcd(a, b)
            if len(g) > 1:
                a, b = _pdivmod_exact(a, g), _pdivmod_exact(b, g)
            k = _int_gcd(_int_content(a), _int_content(b))
            if k != 1:
                a, b = tuple(c // k for c in a), tuple(c // k for c in b)
            # vec <- b * vec - a * row, which cancels the lead word
            if b != (1,):
                vec = {w: _pmul(b, v) for w, v in vec.items()}
            for w, rc in row.items():
                t = _pmul(a, rc)
                v = vec.get(w)
                v = _pneg(t) if v is None else _psub(v, t)
                if v:
                    vec[w] = v
                elif w in vec:
                    del vec[w]
            vec = _strip_integer_content(vec)
        return vec, None

    def insert(self, vec) -> bool:
        """Reduce and adjoin if independent; True when the rank grew."""
        res, lead = self.residue(vec)
        if lead is None:
            return False
        self.pivots[lead] = _strip_content(res)
        return True

    @property
    def rank(self):
        return len(self.pivots)


def _clear_denominators(vec):
    """word -> QRat as word -> integer polynomial, scaled by the lcm of dens."""
    lcm = (1,)
    for c in vec.values():
        d = c.den
        if d != (1,) and d != lcm:
            g = _pgcd(lcm, d)
            lcm = _pmul(lcm, _pdivmod_exact(d, g) if len(g) > 1 else d)
    if lcm == (1,):
        return {w: c.num for w, c in vec.items()}
    return {w: _pmul(c.num, _pdivmod_exact(lcm, c.den))
            for w, c in vec.items()}


def _strip_content(vec):
    """Divide a nonzero integer-polynomial vector by its polynomial, then
    integer, content."""
    # start from the shortest entry: a constant ends the search at once
    g = min(vec.values(), key=len)
    for v in vec.values():
        if len(g) == 1:
            break
        if v is not g:
            g = _pgcd(g, v)
    if len(g) > 1:
        g = _primitive(g)
        vec = {w: _pdivmod_exact(v, g) for w, v in vec.items()}
    return _strip_integer_content(vec)


def _strip_integer_content(vec):
    """Divide an integer-polynomial vector by its integer content."""
    k = 0
    for v in vec.values():
        k = _int_gcd(k, _int_content(v))
        if k == 1:
            return vec
    if k > 1:
        vec = {w: tuple(c // k for c in v) for w, v in vec.items()}
    return vec


def _symmetrizer_kills(vec, content, braiding) -> bool:
    """Is Phi(vec) = 0?  vec maps the words of one letter-count block to QRat.

    Phi is the quantum symmetrizer of the braiding chi, given as its
    table of s-exponents: Phi(a) = a and Phi(w a) = Phi(w) shuffled with a,
    where each letter u that a moves left past contributes chi(u, a).

    The test is exact and takes no gcd.  vec is cleared of denominators
    once, by the product L of its distinct denominators, so p_w = num_w
    times the other denominators is an integer polynomial in s.  Each is
    encoded as one integer, its value at X = 2^B: the value of num_w
    times the values of the other denominators.  That is evaluation, a
    ring map from Z[s] to Z, with no division, so it is exact even where
    a denominator vanishes at X.  Inserting a letter into words of
    length m multiplies every term by s^(m * lift) as well, where -lift
    is the least exponent in the table, so no exponent goes negative;
    the image is s^N Phi(p) for one N, which is zero exactly when
    Phi(vec) is, and the encoded image is its value at X.

    The bound: Phi(w) is a sum of n! monomials s^k * sigma(w) with
    coefficient 1, of which prod m_i! land on each word (the m_i are the
    block's letter counts).  So every coefficient of Phi(p) is at most
    M = sum_w |p_w|_1 * prod m_i! in absolute value, where |.|_1 is the
    sum of the absolute coefficients and |p_w|_1 <= |num_w|_1 times the
    |.|_1 of the other denominators.  With B = bit_length(M) + 1 every
    coefficient lies strictly between -X/2 and X/2, and such a
    polynomial vanishes at X only when it is zero: its lowest nonzero
    coefficient would have to be divisible by X.  The bound concerns
    Phi(p) alone, so a denominator may have a root at X, as s - 8 does
    when M is 2; no value is ever divided by.
    """
    dens = {c.den: sum(map(abs, c.den)) for c in vec.values()}
    norms = 1
    for norm in dens.values():
        norms *= norm
    bound = sum(sum(map(abs, c.num)) * (norms // dens[c.den])
                for c in vec.values())
    for m in content:
        bound *= factorial(m)
    bits = bound.bit_length() + 1

    def at_x(p):
        v = 0
        for c in reversed(p):
            v = (v << bits) + c
        return v

    # cofactor[d]: the product of the values of the other denominators
    values = [(d, at_x(d)) for d in dens]
    cofactor = {}
    left = right = 1
    for d, v in values:
        cofactor[d] = left
        left *= v
    for d, v in reversed(values):
        cofactor[d] *= right
        right *= v
    # a word is packed into one int, letter i in bits width*i.., so that
    # dict keys hash cheaply and an insertion is integer arithmetic
    width = max(1, (len(braiding) - 1).bit_length())
    mask = (1 << width) - 1
    packed = {}
    for w, c in vec.items():
        key = 0
        for i, letter in enumerate(w):
            key |= letter << (width * i)
        packed[key] = at_x(c.num) * cofactor[c.den]
    lift = max(0, -min(min(row) for row in braiding)) * bits
    # cols[a][u]: the shift, in bits, of chi(u, a)
    cols = [[row[a] * bits for row in braiding] for a in range(len(braiding))]
    # moving the inserted letter from place j to j - 1 adds (d - a) * step
    # to the packed word, d being the letter it passes, found at bit sh
    n = sum(content)
    moves = [[((1 << width * j) - (1 << width * (j - 1)), width * (j - 1))
              for j in range(length - 1, 0, -1)]
             for length in range(n + 1)]

    def symmetrize(vec, length):
        """The encoded image of vec, packed words of one length -> ints."""
        if length <= 1:
            return vec
        top = width * (length - 1)
        by_last = {}
        for w, v in vec.items():
            by_last.setdefault(w >> top, {})[w & ((1 << top) - 1)] = v
        out = {}
        base = (length - 1) * lift
        for a, sub in by_last.items():
            col, head = cols[a], a << top
            for u, v in symmetrize(sub, length - 1).items():
                if not v:
                    continue
                k = base
                t = u | head
                out[t] = out.get(t, 0) + (v << k)
                for step, sh in moves[length]:
                    d = (u >> sh) & mask
                    k += col[d]
                    t += (d - a) * step
                    out[t] = out.get(t, 0) + (v << k)
        return out

    return not any(symmetrize(packed, n).values())


class IdealOracle:
    """Membership and dimension queries for one fixed relation list.

    braiding, when given, is the function that builds the presentation's
    chi table from the alphabet (freealg.serre_braiding, chi_e_braiding);
    slice_member then decides by the quantum symmetrizer, and the table
    is built at the first decision.  Without it, and always for
    quotient_dimension and the specialized oracles of at_point, the
    blockwise echelon of padded relations decides.
    """

    def __init__(self, alphabet: Alphabet, relations, braiding=None):
        self.alphabet = alphabet
        self.relations = tuple(relations)
        self.braiding = braiding
        self._chi = None
        self._rel_contents = []
        n = len(alphabet)
        for rel in self.relations:
            if rel.is_zero:
                raise ValueError("zero relation")
            contents = {_content(w, n) for w in rel.terms}
            if len(contents) != 1:
                raise ValueError("relation is not multidegree-homogeneous; "
                                 "blockwise elimination does not apply")
            self._rel_contents.append(next(iter(contents)))
        self._blocks = {}
        self._points = {}  # s-point -> specialized oracle, None if inadmissible
        self._draws = {}  # seed -> the longest random_points list drawn for it

    def _block(self, content) -> _Echelon:
        """Echelon basis of the ideal's slice with the given letter counts."""
        got = self._blocks.get(content)
        if got is not None:
            return got
        ech = _Echelon()
        n = len(self.alphabet)
        for rel, rc in zip(self.relations, self._rel_contents):
            rem = tuple(a - b for a, b in zip(content, rc))
            if any(x < 0 for x in rem):
                continue
            for pad in _multiset_words(rem):
                for cut in range(len(pad) + 1):
                    u, v = pad[:cut], pad[cut:]
                    vec = {u + w + v: c for w, c in rel.terms.items()}
                    ech.insert(vec)
        self._blocks[content] = ech
        return ech

    def slice_member(self, s: HomogeneousSlice) -> bool:
        n = len(self.alphabet)
        grouped = {}
        for w, c in s.vector.terms.items():
            grouped.setdefault(_content(w, n), {})[w] = c
        if self.braiding is not None:
            if self._chi is None:
                self._chi = self.braiding(self.alphabet)
            return all(_symmetrizer_kills(vec, content, self._chi)
                       for content, vec in grouped.items())
        for content, vec in grouped.items():
            res, lead = self._block(content).residue(vec)
            if lead is not None:
                return False
        return True

    def member(self, p: NcPoly, degree_cap=None) -> MembershipResult:
        """Membership of every slice; degree_cap None means no cap."""
        slices = split_homogeneous(p)
        for s in slices:
            if degree_cap is not None and s.degree > degree_cap:
                raise ValueError(
                    "slice of degree %d exceeds the oracle cap %d; "
                    "use the rewriting path" % (s.degree, degree_cap))
        return MembershipResult(all(self.slice_member(s) for s in slices))

    def at_point(self, pt):
        """This oracle with s specialized to pt, built once per point.

        None when pt is inadmissible: some coefficient has a pole there
        or some relation vanishes.
        """
        if pt not in self._points:
            try:
                rels = [_specialize(rel, pt) for rel in self.relations]
            except ZeroDivisionError:
                rels = None
            self._points[pt] = (None if rels is None or any(r.is_zero for r in rels)
                                else IdealOracle(self.alphabet, rels))
        return self._points[pt]

    def sample_points(self, count: int, seed) -> list:
        """random_points(count, seed) or a longer draw of that seed, kept."""
        pts = self._draws.get(seed, ())
        if len(pts) < count:
            pts = self._draws[seed] = random_points(count, seed)
        return pts

    def quotient_dimension(self, degree: int) -> int:
        """dim of the degree component of the quotient algebra."""
        n = len(self.alphabet)
        total = 0
        for content in _compositions(degree, n):
            total += _perm_count(content) - self._block(content).rank
        return total

    def quotient_dimensions(self, d_max: int):
        return [self.quotient_dimension(d) for d in range(d_max + 1)]


@dataclass(frozen=True)
class MembershipResult:
    member: bool

    def __bool__(self):
        return self.member


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# randomized pre-check: specialize s and decide over plain rationals
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
DISTINCT_POINTS = len(_PRIMES) * (len(_PRIMES) - 1)  # ordered pairs a/b, a != b


def random_points(count: int, seed) -> list:
    """Ratios of distinct small primes; s in {0, 1, -1} can never occur.

    A longer list from the same seed extends the shorter one.
    """
    if count > DISTINCT_POINTS:
        raise ValueError("only %d distinct sample points exist"
                         % DISTINCT_POINTS)
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        a, b = rng.sample(_PRIMES, 2)
        pt = Fraction(a, b)
        if pt not in pts:
            pts.append(pt)
    return pts


def _specialize(p: NcPoly, pt) -> NcPoly:
    """p with s = pt, as QRat constants; raises ZeroDivisionError at a pole."""
    return NcPoly(p.alphabet, {w: QRat(c(pt)) for w, c in p.terms.items()})


def randomized_precheck(p: NcPoly, oracle: IdealOracle, points: int = 3,
                        seed=0) -> bool:
    """False means certainly not a member; True means run the exact check.

    p and the oracle's relations are specialized at points from
    random_points, and each specialized slice goes through the same
    blockwise membership test as the exact oracle, over Q.  A point where
    a denominator or a whole relation vanishes is discarded and the next
    one drawn.  The points drawn for each seed and the specialized
    oracles, with their block echelons, are kept on the exact oracle, so
    repeated calls reuse them.
    """
    if p.is_zero:
        return True
    pts, i, done = [], 0, 0
    while done < points:
        if i == len(pts):
            # the same seed extends the same sequence
            pts = oracle.sample_points(len(pts) + points - done, seed)
        pt = pts[i]
        i += 1
        spec = oracle.at_point(pt)
        if spec is None:
            continue
        try:
            p_pt = _specialize(p, pt)
        except ZeroDivisionError:
            continue
        done += 1
        if not all(spec.slice_member(s) for s in split_homogeneous(p_pt)):
            return False
    return True
