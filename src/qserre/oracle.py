"""Exact ideal membership, independent of the rewriting engine.

This is the cross-check for the rewriting engine, and the only oracle
here.  Both presentations are Nichols algebras of diagonal type, so the
ideal of their relations is the kernel of the quantum symmetrizer Phi of
their braiding chi (Rosso, Invent. Math. 133, 1998; Andruskiewitsch-
Schneider, Adv. Math. 154, 2000): Phi(w a) = Phi(w) shuffled with a,
where each letter u that a moves left past contributes chi(u, a).  Phi
is linear and keeps the letter counts of a word, so the oracle decides
each letter-count block of a slice on its own, with no elimination and
no degree cap.

The lemma: Phi(p) = 0 exactly when its coefficients at the block's
normal words (qserre.roots) vanish: Phi's image is the subalgebra of the
quantum shuffle algebra that the letters generate, and the largest word
of a nonzero element of it is a normal word (Leclerc, Math. Z. 246, 2004;
Rosso 1998).  Leclerc's braiding is
symmetric.  A twist chi(i, j) t(i, j) / t(j, i) keeps chi(i, j) chi(j, i),
hence the normal words, and conjugates Phi by the diagonal matrix of the
word weights prod_{a < b} t(w_a, w_b), which moves no zero.  So a block
is read at K(m) words, the Kostant count, not at n! / prod m_i!.

The randomized precheck runs the same zero test at s = 2^j for a few
drawn exponents j, in place of the proven base, and can only reject.
The tests' references are Phi's full image (tests/reference_phi.py) and
the echelon of padded relations (tests/reference_echelon.py).
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from math import factorial, prod

from qserre.freealg import Alphabet, NcPoly
from qserre.roots import good_words, normal_words


HomogeneousSlice = namedtuple("HomogeneousSlice", "degree vector")


def split_homogeneous(p: NcPoly):
    """Decompose into homogeneous slices; the zero polynomial gives none."""
    by_deg = {}
    for w, c in p.terms.items():
        by_deg.setdefault(len(w), {})[w] = c
    return [HomogeneousSlice(d, NcPoly(p.alphabet, t))
            for d, t in sorted(by_deg.items())]


class IdealOracle:
    """Membership in the ideal of one presentation, decided by Phi.

    braiding is the function that builds the presentation's chi table
    from the alphabet (freealg.serre_braiding, chi_e_braiding), the same
    one rewrite.braided_rules writes the relations from.  The relations
    are not an input: Phi of the braiding determines the ideal, and its
    Dynkin diagram the normal words, kept per block as a trie.
    """

    def __init__(self, alphabet: Alphabet, braiding):
        self.alphabet = alphabet
        self.chi = braiding(alphabet)
        # block_kills' letter width in a packed word, and its lift
        self._width = max(1, (len(self.chi) - 1).bit_length())
        self._lift = max(0, -min(min(row) for row in self.chi))
        self._good = good_words(self.chi)
        self._tries, self._products = {}, {}

    def blocks(self, p: NcPoly):
        """p's terms grouped by letter counts: (content, word -> QRat)."""
        letters = range(len(self.alphabet))
        grouped = {}
        for w, c in p.terms.items():
            grouped.setdefault(tuple(map(w.count, letters)), {})[w] = c
        return grouped.items()

    def _trie(self, content):
        """The block's reversed normal words: nested dicts, letter -> child."""
        trie = self._tries.get(content)
        if trie is None:
            trie = self._tries[content] = {}
            for word in normal_words(self._good, content, self._products):
                node = trie
                for letter in reversed(word):
                    node = node.setdefault(letter, {})
        return trie

    def block_kills(self, vec, content, bits=None) -> bool:
        """Is Phi(vec) = 0?  vec maps the words of one block to QRat.

        Exact, with no gcd.  vec is cleared by the product L of its
        distinct denominators, and each entry, an integer polynomial in s,
        is encoded as its value at X = 2^B: evaluation, a ring map with no
        division, exact even where a denominator vanishes at X.

        The coefficient of Phi(p) at v b is that of Phi(d_b p) at v, where
        d_b removes one b from each word w, at place i, with the weight
        prod_{j > i} chi(b, w_j).  So a walk down the trie of the block's
        reversed normal words applies one d_b per edge, and stops at the
        first nonzero leaf.  Words of length m are also multiplied by
        s^(lift (m - 1)), -lift the least exponent in chi, so the leaves
        hold the coefficients of s^N L Phi(vec), for one N, at X.

        The bound: Phi(w) is a sum of n! monomials s^k sigma(w), prod m_i!
        of them on each word.  So each coefficient of Phi(p) is at most M =
        sum_w |p_w|_1 prod m_i!, |.|_1 the sum of absolute coefficients.
        With B = bit_length(M) + 1 each lies strictly between -X/2 and X/2,
        so it vanishes at X only when it is zero, whatever root a
        denominator has at X.

        bits, when given, replaces B.  A nonzero leaf still proves Phi(vec)
        != 0, but a zero one proves nothing: X may be a root, for instance
        of a factor that L brings in.  The randomized precheck uses this.
        """
        dens = {c.den: sum(map(abs, c.den)) for c in vec.values()}
        if bits is None:
            norms = prod(dens.values())
            bound = sum(sum(map(abs, c.num)) * (norms // dens[c.den])
                        for c in vec.values())
            bits = (bound * prod(map(factorial, content))).bit_length() + 1

        def at_x(p):
            v = 0
            for c in reversed(p):
                v = (v << bits) + c
            return v

        # cofactor[d]: the product of the values of the other denominators;
        # a value may be 0, so it is never divided by
        values = {d: at_x(d) for d in dens}
        cofactor = {d: prod(v for e, v in values.items() if e != d)
                    for d in dens}
        # a word is packed into one int, letter i in bits width*i.., so that
        # dict keys hash cheaply and a removal is integer arithmetic
        chi, width, lift = self.chi, self._width, self._lift
        mask = (1 << width) - 1
        packed = {sum(letter << width * i for i, letter in enumerate(w)):
                  at_x(c.num) * cofactor[c.den] for w, c in vec.items()}

        def derive(vec, b, length):
            """d_b of vec, packed words of one length -> ints, lifted."""
            row, out = chi[b], {}
            shifts = range(width * (length - 1), -1, -width)
            for w, v in vec.items():
                k = (length - 1) * lift  # the exponent of s, then chi(b, d)'s
                for sh in shifts:
                    d = (w >> sh) & mask
                    if d == b:
                        u = (w & ((1 << sh) - 1)) | (w >> (sh + width) << sh)
                        out[u] = out.get(u, 0) + (v << k * bits)
                    k += row[d]
            return out

        def zero_below(vec, node, length):
            """Do the leaves below node, vec's trie node, all hold 0?"""
            if not any(vec.values()):
                return True
            return length > 0 and all(
                zero_below(derive(vec, b, length), child, length - 1)
                for b, child in node.items())

        return zero_below(packed, self._trie(content), sum(content))

    def slice_member(self, s: HomogeneousSlice) -> bool:
        return all(self.block_kills(vec, content)
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
    return all(oracle.block_kills(vec, content, j)
               for j in random_points(points, seed)
               for content, vec in blocks)
