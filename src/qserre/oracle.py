"""Exact ideal membership, independent of the rewriting engine.

This is the cross-check for the rewriting engine, and the only oracle
here.  Both presentations are Nichols algebras of diagonal type, so the
ideal of their relations is the kernel of the quantum symmetrizer Phi of
their braiding chi (Rosso, Invent. Math. 133, 1998; Andruskiewitsch-
Schneider, Adv. Math. 154, 2000): Phi(w a) = Phi(w) shuffled with a,
where each letter u that a moves left past contributes chi(u, a).  Phi
is linear and keeps the letter counts of a word, so the oracle decides
each multidegree block of a slice by applying Phi, with no elimination
and no degree cap.  The zero test encodes integer polynomials in s as
integers (_symmetrizer_kills) and takes no gcd.

The randomized precheck runs the same zero test at s = 2^j for a few
drawn exponents j, in place of the proven base.  It can only reject; the
verifiers run it before the exact decision only while membership is
still open, not after rewriting has reduced the input to zero.

The fraction-free echelon of padded relations, with its quotient
dimensions, is the reference the tests compare Phi against; it lives in
tests/reference_echelon.py.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from math import factorial

from qserre.freealg import Alphabet, NcPoly


HomogeneousSlice = namedtuple("HomogeneousSlice", "degree vector")


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


def _symmetrizer_kills(vec, content, braiding, bits=None) -> bool:
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

    bits, when given, replaces B.  The encoded image is still the value
    at X = 2^bits of the polynomial s^N L Phi(vec), so a nonzero value
    proves Phi(vec) != 0.  A zero one proves nothing: X may be a root of
    that polynomial, for instance of a factor that L brings in.  The
    randomized precheck uses this.
    """
    dens = {c.den: sum(map(abs, c.den)) for c in vec.values()}
    if bits is None:
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
    """Membership in the ideal of one presentation, decided by Phi.

    braiding is the function that builds the presentation's chi table
    from the alphabet (freealg.serre_braiding, chi_e_braiding), the same
    one rewrite.braided_rules writes the relations from.  The relations
    are not an input: Phi of the braiding determines the ideal.
    """

    def __init__(self, alphabet: Alphabet, braiding):
        self.alphabet = alphabet
        self.chi = braiding(alphabet)

    def blocks(self, p: NcPoly):
        """p's terms grouped by letter counts: (content, word -> QRat)."""
        n = len(self.alphabet)
        grouped = {}
        for w, c in p.terms.items():
            grouped.setdefault(_content(w, n), {})[w] = c
        return grouped.items()

    def slice_member(self, s: HomogeneousSlice) -> bool:
        return all(_symmetrizer_kills(vec, content, self.chi)
                   for content, vec in self.blocks(s.vector))

    def member(self, p: NcPoly) -> bool:
        """Membership of every slice."""
        return all(self.slice_member(s) for s in split_homogeneous(p))


# ---------------------------------------------------------------------------
# randomized pre-check: the zero test at s = 2^j for drawn exponents j
# ---------------------------------------------------------------------------

DISTINCT_POINTS = 182  # the exponents j run over 1..DISTINCT_POINTS


@lru_cache
def random_points(count: int, seed) -> tuple:
    """count distinct exponents j from 1..DISTINCT_POINTS, for s = 2^j."""
    if count > DISTINCT_POINTS:
        raise ValueError("only %d distinct sample points exist"
                         % DISTINCT_POINTS)
    return tuple(random.Random(seed).sample(range(1, DISTINCT_POINTS + 1),
                                            count))


def randomized_precheck(p: NcPoly, oracle: IdealOracle, points: int = 3,
                        seed=0) -> bool:
    """False means certainly not a member; True means run the exact check.

    Each block of p goes through the oracle's zero test with the base
    X = 2^j, that is s = 2^j, for each exponent j of random_points.  The
    encoded value is that of s^N L Phi(block) at X, L the product of the
    block's distinct denominators, a polynomial multiple of Phi(block):
    a member gives zero at every point, and a nonzero value proves
    Phi(p) != 0.  A point where a denominator vanishes can at worst give
    zero for a non-member too, and the exact check then decides; no
    point needs to be discarded.
    """
    blocks = oracle.blocks(p)
    return all(_symmetrizer_kills(vec, content, oracle.chi, j)
               for j in random_points(points, seed)
               for content, vec in blocks)
