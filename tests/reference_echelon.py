"""The reference oracle: fraction-free elimination of padded relations.

A homogeneous element lies in the ideal of a relation list iff it is a
linear combination of padded relations u * rel * v of the same degree,
a finite linear-algebra question over Q(s), split into multidegree
blocks.  The package decides by the quantum symmetrizer instead
(qserre.oracle); this route reads the relations themselves, so the tests
use it to check Phi, to count quotient dimensions and to see mutant
relation lists fail.  The relations it reads for the two presentations
are written out below in their textbook form, not derived from a
braiding, so it stays independent of freealg.braided_relations.

Elimination is fraction-free over Z[s]: coefficients stay integer
polynomials, with no Q(s) division.  A vector being reduced sheds only
its integer content after each step; the polynomial content, which
takes gcds, comes out once, when a row is stored.
"""

from math import factorial, gcd as _int_gcd

from qserre.freealg import NcPoly
from qserre.oracle import split_homogeneous
from qserre.qfield import (
    ONE, _padd, _pdivmod_exact, _pgcd, _pmul, _pneg, _primitive, q_power,
    s_power,
)


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


def _letter_counts(word, nletters):
    """The letter counts of word."""
    return tuple(word.count(i) for i in range(nletters))


def _perm_count(content):
    n = factorial(sum(content))
    for c in content:
        n //= factorial(c)
    return n


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class _Echelon:
    """Fraction-free row space over Z[s], pivoted by largest word.

    Rows are dicts word -> integer polynomial (a coefficient tuple in s),
    each divided by its polynomial and integer content when it is stored.
    An input vector of QRat entries is scaled once by the lcm of its
    denominators; each reduction step then cross-multiplies by the two
    leading entries over their gcd (Bareiss-style), so no field element
    is formed, and removes only the integer content.  Scaling a row by a
    nonzero factor leaves the row space, hence rank and membership,
    unchanged.
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
            k = _int_gcd(*a, *b)
            if k != 1:
                a, b = tuple(c // k for c in a), tuple(c // k for c in b)
            # vec <- b * vec - a * row, which cancels the lead word
            if b != (1,):
                vec = {w: _pmul(b, v) for w, v in vec.items()}
            for w, rc in row.items():
                t = _pmul(a, rc)
                v = vec.get(w)
                v = _pneg(t) if v is None else _padd(v, _pneg(t))
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
        k = _int_gcd(k, *v)
        if k == 1:
            return vec
    if k > 1:
        vec = {w: tuple(c // k for c in v) for w, v in vec.items()}
    return vec


class ReferenceOracle:
    """Membership and quotient dimensions for one fixed relation list."""

    def __init__(self, alphabet, relations):
        self.alphabet = alphabet
        self.relations = tuple(relations)
        self._rel_contents = []
        n = len(alphabet)
        for rel in self.relations:
            if rel.is_zero:
                raise ValueError("zero relation")
            contents = {_letter_counts(w, n) for w in rel.terms}
            if len(contents) != 1:
                raise ValueError("relation is not multidegree-homogeneous; "
                                 "blockwise elimination does not apply")
            self._rel_contents.append(next(iter(contents)))
        self._blocks = {}

    def _block(self, content) -> _Echelon:
        """Echelon basis of the ideal's slice with the given letter counts."""
        got = self._blocks.get(content)
        if got is not None:
            return got
        ech = _Echelon()
        for rel, rc in zip(self.relations, self._rel_contents):
            rem = tuple(a - b for a, b in zip(content, rc))
            if any(x < 0 for x in rem):
                continue
            for pad in _multiset_words(rem):
                for cut in range(len(pad) + 1):
                    u, v = pad[:cut], pad[cut:]
                    ech.insert({u + w + v: c for w, c in rel.terms.items()})
        self._blocks[content] = ech
        return ech

    def slice_member(self, s) -> bool:
        n = len(self.alphabet)
        grouped = {}
        for w, c in s.vector.terms.items():
            grouped.setdefault(_letter_counts(w, n), {})[w] = c
        return all(self._block(content).residue(vec)[1] is None
                   for content, vec in grouped.items())

    def member(self, p) -> bool:
        return all(self.slice_member(s) for s in split_homogeneous(p))

    def quotient_dimension(self, degree: int) -> int:
        """dim of the degree component of the quotient algebra."""
        n = len(self.alphabet)
        return sum(_perm_count(content) - self._block(content).rank
                   for content in _compositions(degree, n))

    def quotient_dimensions(self, d_max: int):
        return [self.quotient_dimension(d) for d in range(d_max + 1)]


# ---------------------------------------------------------------------------
# the defining relations of the A chain, written out
# ---------------------------------------------------------------------------

def serre_relations(alphabet):
    """The q-Serre relations of x_1..x_r, in the order of CUBIC and DISTANT.

    a a b + q b a a - (1+q) a b a and a b b + q b b a - (1+q) b a b for
    (a, b) = (x_n, x_{n+1}), then x_m x_n - x_n x_m for m >= n + 2.
    """
    x = [NcPoly.generator(alphabet, name) for name in alphabet.letters]
    q1 = q_power(1)
    rels = []
    for a, b in zip(x, x[1:]):
        rels.append(a * a * b + (b * a * a).scale(q1) - (a * b * a).scale(ONE + q1))
        rels.append(a * b * b + (b * b * a).scale(q1) - (b * a * b).scale(ONE + q1))
    rels += [x[m] * x[n] - x[n] * x[m]
             for m in range(len(x)) for n in range(m - 1)]
    return rels


def chi_e_relations(alphabet):
    """The quantum-coordinate relations, in the order of CHI_E2.

    Per adjacent pair, the e cubics with coefficient q^(1/2) + q^(-1/2)
    and chi_n chi_{n+1} - s chi_{n+1} chi_n; then distant e's and distant
    chi's commute, and every e commutes with every chi.
    """
    rank = len(alphabet) // 2
    chi = [NcPoly.generator(alphabet, "chi%d" % n) for n in range(1, rank + 1)]
    e = [NcPoly.generator(alphabet, "e%d" % n) for n in range(1, rank + 1)]
    coeff = s_power(1) + s_power(-1)
    rels = []
    for n in range(rank - 1):
        a, b = e[n], e[n + 1]
        rels.append(a * a * b + b * a * a - (a * b * a).scale(coeff))
        rels.append(a * b * b + b * b * a - (b * a * b).scale(coeff))
        rels.append(chi[n] * chi[n + 1] - (chi[n + 1] * chi[n]).scale(s_power(1)))
    for m in range(rank):
        for n in range(m - 1):
            rels.append(e[m] * e[n] - e[n] * e[m])
            rels.append(chi[m] * chi[n] - chi[n] * chi[m])
    rels += [em * cn - cn * em for em in e for cn in chi]
    return rels
