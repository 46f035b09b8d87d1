"""Free associative algebra over Q(s) and the elements under study.

Words are tuples of letter indices into an Alphabet; polynomials are
sparse maps word -> coefficient, added and multiplied only by add_terms
and mul_terms.  The constructors at the bottom build the finite
q-products, the k and c elements, the ordered Q-operator products and
the two sides of the braid-type exchange relation exactly as free-algebra
elements, before any relations are imposed.  A presentation is its
braiding chi alone: braided_relations writes the defining relations
that chi gives, on the generators or on any images of them.
"""

from __future__ import annotations

from collections import namedtuple

from qserre.qfield import ONE, QRat, ZERO, q_power, s_power
from qserre.roots import cartan_matrix


class Alphabet:
    """Ordered families of generators, e.g. x1..xr or chi1..chir, e1..er.

    The letter order (family by family, then index) is also the letter
    precedence of the deg-lex monomial order, deg_lex_key.
    """

    __slots__ = ("families", "letters", "_index")

    def __init__(self, families):
        families = tuple((str(name), int(count)) for name, count in families)
        letters = []
        for name, count in families:
            if count < 1:
                raise ValueError("family %r needs rank >= 1" % name)
            letters.extend("%s%d" % (name, i) for i in range(1, count + 1))
        if len(set(letters)) != len(letters):
            raise ValueError("duplicate letter names")
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "_index", {ell: i for i, ell in enumerate(letters)})

    def __setattr__(self, *a):
        raise AttributeError("Alphabet is immutable")

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.families == other.families

    def __hash__(self):
        return hash(self.families)

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return "Alphabet(%r)" % (self.families,)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("no letter %r in %r" % (name, self)) from None

    def word_str(self, word) -> str:
        return " ".join(self.letters[i] for i in word)


def x_alphabet(rank: int) -> Alphabet:
    return Alphabet([("x", rank)])


def chi_e_alphabet(rank: int) -> Alphabet:
    # chi's precede e's so the cross rule e*chi -> chi*e is oriented
    return Alphabet([("chi", rank), ("e", rank)])


class SpectralWindow(namedtuple("SpectralWindow", "lam mu")):
    """Integer window (lam, mu) with lam >= mu; the product runs j = mu..lam-1."""

    __slots__ = ()

    def __new__(cls, lam: int, mu: int):
        if lam < mu:
            raise ValueError("window needs lam >= mu, got (%d, %d)" % (lam, mu))
        return super().__new__(cls, lam, mu)


def deg_lex_key(word):
    """Degree first, then lexicographic in the alphabet's letter order.

    The monomial order of the rewriting rules and of display.  It is
    compatible with concatenation, so oriented homogeneous rules always
    rewrite downhill.
    """
    return (len(word), word)


def add_terms(out: dict, pairs, negate=False) -> dict:
    """Add (or subtract) (word, coefficient) pairs into out; zeros drop out."""
    for w, c in pairs:
        c0 = out.get(w)
        if c0 is not None:
            c = c0 - c if negate else c0 + c
        elif negate:
            c = -c
        if c:
            out[w] = c
        elif c0 is not None:
            del out[w]
    return out


def mul_terms(out: dict, a: dict, b: dict, cutoff=None) -> dict:
    """Add the product of the term maps a and b into out; return out.

    A shared ONE coefficient is not multiplied, cancelled words drop out
    and, with a cutoff, no longer word is formed.
    """
    for w1, c1 in a.items():
        pairs = b.items() if cutoff is None else [
            t for t in b.items() if len(w1) + len(t[0]) <= cutoff]
        for w2, c2 in pairs:
            w = w1 + w2
            c = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
            c0 = out.get(w)
            if c0 is None:
                out[w] = c
            elif c := c0 + c:
                out[w] = c
            else:
                del out[w]
    return out


class NcPoly:
    """Element of the free algebra: finite map word -> coefficient."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        object.__setattr__(self, "alphabet", alphabet)
        pairs = (terms.items() if isinstance(terms, dict) else terms) or ()
        object.__setattr__(self, "terms",
                           add_terms({}, ((tuple(w), c) for w, c in pairs)))

    @classmethod
    def _of(cls, alphabet, terms: dict) -> "NcPoly":
        """Wrap a term map with no zero coefficient, without copying it."""
        p = object.__new__(cls)
        object.__setattr__(p, "alphabet", alphabet)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("NcPoly is immutable; build new values")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    @classmethod
    def unit(cls, alphabet, coeff=ONE):
        return cls(alphabet, {(): coeff})

    @classmethod
    def generator(cls, alphabet, name, coeff=ONE):
        return cls(alphabet, {(alphabet.index(name),): coeff})

    @classmethod
    def monomial(cls, alphabet, word, coeff=ONE):
        return cls(alphabet, {tuple(word): coeff})

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def degree(self):
        """Max word length in the support; None for the zero polynomial."""
        return max(map(len, self.terms)) if self.terms else None

    def coefficient(self, word) -> QRat:
        return self.terms.get(tuple(word), ZERO)

    def map_coefficients(self, f) -> "NcPoly":
        return NcPoly(self.alphabet,
                      [(w, f(c)) for w, c in self.terms.items()])

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch: %r vs %r"
                             % (self.alphabet, other.alphabet))

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check(other)
        return NcPoly._of(self.alphabet,
                          add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check(other)
        return NcPoly._of(self.alphabet,
                          add_terms(dict(self.terms), other.terms.items(), True))

    def __neg__(self):
        return self.map_coefficients(lambda c: -c)

    def __mul__(self, other):
        if not isinstance(other, NcPoly):
            return self.scale(other)
        self._check(other)
        return NcPoly._of(self.alphabet, mul_terms({}, self.terms, other.terms))

    def __rmul__(self, other):
        # scalars commute with everything, so this covers scalar * poly
        return self.scale(other)

    def scale(self, c) -> "NcPoly":
        c = QRat(c) if isinstance(c, int) else c
        return NcPoly._of(self.alphabet,
                          mul_terms({}, self.terms, {(): c}) if c else {})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in the free algebra")
        out = NcPoly.unit(self.alphabet)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, NcPoly) and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    # -- display --------------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending deg-lex order of words."""
        return sorted(self.terms.items(), key=lambda t: deg_lex_key(t[0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for w, c in self.sorted_terms():
            neg = c.is_negative
            if neg:
                c = -c
            cs = str(c)
            if any(ch in cs for ch in "+-*/ ") and not cs.lstrip("-").isdigit():
                cs = "(%s)" % cs
            if not w:
                body = cs
            elif cs == "1":
                body = self.alphabet.word_str(w)
            else:
                body = "%s*%s" % (cs, self.alphabet.word_str(w))
            if not chunks:
                chunks.append(("-" if neg else "") + body)
            else:
                chunks.append((" - " if neg else " + ") + body)
        return "".join(chunks)

    def __repr__(self):
        return "<NcPoly %s>" % self


# ---------------------------------------------------------------------------
# the elements of interest
# ---------------------------------------------------------------------------

def qproduct(alphabet: Alphabet, gen: str, window: SpectralWindow) -> NcPoly:
    """Finite q-product for one generator: prod_{j=mu}^{lam-1} (1 - gen q^j).

    Factors are laid out with ascending j left-to-right; for a single
    letter they commute, so the order is immaterial.
    """
    x = NcPoly.generator(alphabet, gen)
    out = NcPoly.unit(alphabet)
    for j in range(window.mu, window.lam):
        out = out * (NcPoly.unit(alphabet) - x.scale(q_power(j)))
    return out


def _adjacent_pair(alphabet, n):
    lo = NcPoly.generator(alphabet, "x%d" % n)
    hi = NcPoly.generator(alphabet, "x%d" % (n + 1))
    return lo, hi


def k_element(alphabet: Alphabet, n: int = 1) -> NcPoly:
    """k = (x_n x_{n+1} - x_{n+1} x_n) / (1 - q) for the adjacent pair at n."""
    lo, hi = _adjacent_pair(alphabet, n)
    return (lo * hi - hi * lo).scale(ONE / (ONE - q_power(1)))


def c_element(alphabet: Alphabet, n: int = 1) -> NcPoly:
    """c = (x_n x_{n+1} - x_{n+1} x_n q) / (1 - q), which is exactly
    k + x_{n+1} x_n; central modulo the ideal."""
    lo, hi = _adjacent_pair(alphabet, n)
    return k_element(alphabet, n) + hi * lo


def lemma_product(alphabet: Alphabet, window: SpectralWindow,
                  e: int, n: int = 1) -> NcPoly:
    """prod_{j=mu}^{lam-1} (1 + c q^{2j} - (x_n + x_{n+1} + k q^e) q^j).

    e = window.lam matches the x_n-first ordered product, e = window.mu
    the x_{n+1}-first one.  Factors ascend in j left-to-right; they only
    commute modulo the ideal, so this order is normative.
    """
    lo, hi = _adjacent_pair(alphabet, n)
    k = k_element(alphabet, n)
    c = k + hi * lo  # c_element, from the k already built
    core = lo + hi + k.scale(q_power(e))
    out = NcPoly.unit(alphabet)
    for j in range(window.mu, window.lam):
        out = out * (NcPoly.unit(alphabet)
                     + c.scale(q_power(2 * j))
                     - core.scale(q_power(j)))
    return out


def big_Q(alphabet: Alphabet, rank: int, window: SpectralWindow) -> NcPoly:
    """Ordered product of q-products, highest generator index leftmost."""
    if rank < 1 or rank > len(alphabet):
        raise ValueError("rank %d out of range for %r" % (rank, alphabet))
    out = NcPoly.unit(alphabet)
    for i in range(rank, 0, -1):
        out = out * qproduct(alphabet, "x%d" % i, window)
    return out


def ayb_sides(alphabet: Alphabet, n: int, lam: int, mu: int, nu: int):
    """Both sides of the braid-type exchange for the pair (x_n, x_{n+1}).

    Needs lam >= mu >= nu.  The two sides agree only modulo the ideal.
    """
    if not lam >= mu >= nu:
        raise ValueError("need lam >= mu >= nu, got (%d, %d, %d)" % (lam, mu, nu))
    lo, hi = "x%d" % n, "x%d" % (n + 1)
    lhs = (qproduct(alphabet, hi, SpectralWindow(lam, mu))
           * qproduct(alphabet, lo, SpectralWindow(lam, nu))
           * qproduct(alphabet, hi, SpectralWindow(mu, nu)))
    rhs = (qproduct(alphabet, lo, SpectralWindow(mu, nu))
           * qproduct(alphabet, hi, SpectralWindow(lam, nu))
           * qproduct(alphabet, lo, SpectralWindow(lam, mu)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# presentations: a diagonal braiding chi, as s-exponents, and the defining
# relations it gives, which both the rewriter and the oracle start from
# ---------------------------------------------------------------------------

def serre_braiding(alphabet: Alphabet) -> tuple:
    """chi for the x-family as s-exponents: chi[u][a] = k means s^k.

    chi(x_i, x_i) = q, chi(x_{i+1}, x_i) = q^-1 and 1 for every other
    pair, including chi(x_i, x_{i+1}).
    """
    n = len(alphabet)
    return tuple(tuple(2 if u == a else -2 if u == a + 1 else 0
                       for a in range(n)) for u in range(n))


def chi_e_braiding(alphabet: Alphabet) -> tuple:
    """chi for the quantum-coordinate realization, as in serre_braiding.

    The x braiding split in two halves whose product it is, so that
    y_n = chi_n e_n braids as x_n: the antisymmetric half on the chi's,
    chi(chi_i, chi_{i+1}) = s and chi(chi_{i+1}, chi_i) = s^-1, the
    symmetric half on the e's, chi(e_i, e_i) = q and chi(e_i, e_{i+-1}) =
    s^-1, and 1 for every chi with every e.
    """
    rank = len(alphabet) // 2
    x = serre_braiding(x_alphabet(rank))
    chi = [[(x[u][a] - x[a][u]) // 2 for a in range(rank)] + [0] * rank
           for u in range(rank)]
    chi += [[0] * rank + [(x[u][a] + x[a][u]) // 2 for a in range(rank)]
            for u in range(rank)]
    return tuple(map(tuple, chi))


def braided_relations(gens, chi) -> list:
    """(params, relation) pairs that chi defines on gens, its letters' images.

    At generic q the quantum Serre relations of a Cartan-type chi generate
    the kernel of its quantum symmetrizer, the ideal the oracle decides.
    roots.cartan_matrix reads chi's Dynkin diagram, and refuses a chi
    that has none.  A pair i < j with a_ij = 0 gives "distant", x_j x_i -
    chi(j, i) x_i x_j; one with a_ij = -1 gives "serre1" and "serre2",
    u u v - (1 + chi(u, u)) chi(u, v) u v u + chi(u, u) chi(u, v)^2 v u u
    for (u, v) = (x_i, x_j) and (x_j, x_i).  Cubic pairs come first, each
    kind ordered by (j, i); every label carries n = i + 1, and a
    commutator's m = j + 1 as well.
    """
    cartan = cartan_matrix(chi)
    cubic, commuting = [], []
    for j, b in enumerate(gens):
        for i, a in enumerate(gens[:j]):
            if cartan[i][j] == 0:
                commuting.append(((("family", "distant"), ("m", j + 1), ("n", i + 1)),
                                  b * a - (a * b).scale(s_power(chi[j][i]))))
            else:
                for family, u, v, uu, uv in (("serre1", a, b, chi[i][i], chi[i][j]),
                                             ("serre2", b, a, chi[j][j], chi[j][i])):
                    cubic.append(((("family", family), ("n", i + 1)), u * u * v
                                  - (u * v * u).scale((ONE + s_power(uu)) * s_power(uv))
                                  + (v * u * u).scale(s_power(uu + 2 * uv))))
    return cubic + commuting
