"""Parser for the CLI expression language and the canonical polynomial text.

Grammar, loosest binding first:

    expr    :=  ['-'] term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor | factor)*      ; juxtaposition = *
    factor  :=  primary ['^' INT]
    primary :=  INT | 'q' | 's' | LETTER | FORM | '(' expr ')'
    FORM    :=  'P' '(' LETTER ';' INT ',' INT ')'
             |  'K' '(' ')'  |  'C' '(' ')'
             |  'Q' '(' INT [',' INT] ')'

LETTER is any generator of the active alphabet (x1, chi2, e1, ...).
Division only by scalars, exponents only nonnegative; everything the
canonical printer emits re-parses to an equal polynomial.

The text is split into tokens by one regex scan, and a token's place is
found only for the ParseError that names it.  A one-term value is a
(word, coefficient) pair, any other a term map, word -> nonzero QRat.  A
term is kept as p * (c * word): a one-term factor folds into c and word,
a division divides c and a power of one term is (word * n, c ** n).  Only
a factor of several terms, or none, is multiplied into p, by freealg's
mul_terms; sums go through add_terms, and only the result is an NcPoly.
A factor q or s, or a power of one, adds to the exponent k of a pending
s^k, multiplied into c once, so a run of them costs no product each.
"""

from __future__ import annotations

import re

from qserre.freealg import (
    Alphabet, NcPoly, SpectralWindow, add_terms, big_Q, c_element, k_element,
    mul_terms, qproduct,
)
from qserre.qfield import ONE, QRat, s_power


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# integer, name, operator or punctuation, and any other visible character
_TOKEN = re.compile(r"\d+|[A-Za-z]+\d*|[()+\-*/^;,]")
_BAD = re.compile(r"[^\s\dA-Za-z()+\-*/^;,]")


# Caps on what a text may expand to, each checked before the value is
# built, so that bad input ends in a ParseError rather than 10^9 loop
# steps or exhausted memory.  The tests and the bench queries reach at
# most an exponent of 9, a window integer of 3, a 16-term product and
# parentheses nested 6 deep.
#
# exponents and window integers count factors multiplied one by one:
# P(x1; 0, 32) takes 0.08 s and Q(32) at rank 2 6 s, P(x1; 0, 64) 2 s
MAX_EXPONENT = 32
# terms of a product, or of a Q(...) form, counted before it is built:
# (x1+x2)^13 has 8192 and parses in 0.01 s
MAX_TERMS = 10_000
# a power multiplies the length of its base's longest word or coefficient
# tuple by the exponent, so nested powers grow geometrically in the text
MAX_WIDTH = 1024
# parentheses nest by recursion, four frames a level, and Python's stack
# runs out at about 250 levels
MAX_DEPTH = 100


def _one(p):
    """The term map p as a (word, coefficient) pair if it has one term."""
    return next(iter(p.items())) if len(p) == 1 else p


def _times(p, c, k, word):
    """The term map p * (c * s^k * word), c nonzero."""
    w, c = tuple(word), c if not k else s_power(k) if c is ONE else c * s_power(k)
    return {u + w: c if x is ONE else x if c is ONE else x * c for u, x in p.items()}


class _Parser:
    def __init__(self, text, alphabet: Alphabet, rank=None):
        bad = _BAD.search(text)
        if bad:
            raise ParseError("unexpected character %r" % bad.group(), bad.start())
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]  # "" is the end
        self.i = self.depth = 0
        self.alphabet = alphabet
        # the one-term value of each name that is not a form
        self.names = {name: ((k,), ONE) for k, name in enumerate(alphabet.letters)}
        # q and s are kept as powers of s, ints that term adds up
        self.names.update(q=((), 2), s=((), 1))
        self.rank = rank if rank is not None else len(alphabet.letters)

    def error(self, message, i) -> ParseError:
        """A ParseError at token i, placed by a second scan of the text."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        return ParseError(message, (starts + [len(self.text)])[i])

    def expect(self, kind):
        i, tok = self.i, self.tokens[self.i]
        self.i += 1
        if ("int" if tok.isdigit() else "name" if tok.isalnum() else tok) != kind:
            raise self.error("expected %r, found %r" % (kind, tok or "end"), i)
        return tok

    def count(self, what) -> int:
        i = self.i
        n = int(self.expect("int"))
        if n > MAX_EXPONENT:
            raise self.error("%s %d passes the cap of %d" % (what, n, MAX_EXPONENT), i)
        return n

    def product(self, a, b, i) -> dict:
        """The term map a * b, refused at token i past the term cap."""
        if len(a) * len(b) > MAX_TERMS:
            raise self.error("a product of %d by %d terms passes the cap of "
                             "%d terms" % (len(a), len(b), MAX_TERMS), i)
        return mul_terms({}, a, b)

    def parse(self) -> dict:
        p = self.expr()
        if self.tokens[self.i]:
            raise self.error("trailing input %r" % self.tokens[self.i], self.i)
        return p

    def expr(self):
        toks, p, op = self.tokens, {}, "+"
        if toks[self.i] == "-":
            op, self.i = "-", self.i + 1
        while True:
            add_terms(p, self.term().items(), op == "-")
            op = toks[self.i]
            if op not in ("+", "-"):
                return p
            self.i += 1

    def term(self):
        toks, r, k = self.tokens, self.factor(), 0
        if type(r) is tuple and type(r[1]) is int:
            r, k = ((), ONE), r[1]
        p, c, word = ({(): ONE}, r[1], [*r[0]]) if type(r) is tuple else (r, ONE, [])
        while True:
            op = toks[self.i]
            if op in ("*", "/"):
                self.i += 1
            elif op != "(" and not op.isalnum():
                return _times(p, c, k, word)
            i = self.i
            r = self.factor()
            if op != "/" and type(r) is tuple and len(p) > MAX_TERMS:
                self.product(p, dict((r,)), i)  # refused, as the product by r is
            if type(r) is tuple and type(r[1]) is int:
                k += -r[1] if op == "/" else r[1]
            elif op == "/":
                if type(r) is dict or r[0]:
                    raise self.error("division only by scalar expressions"
                                     if r else "division by zero", i)
                c /= r[1]
            elif type(r) is tuple:
                word += r[0]
                if r[1] is not ONE:
                    c = r[1] if c is ONE else c * r[1]
            else:
                p, c, k, word = self.product(_times(p, c, k, word), r, i), ONE, 0, []

    def factor(self):
        p = self.primary()
        if self.tokens[self.i] != "^":
            return p
        i = self.i = self.i + 1
        if not self.tokens[i].isdigit():
            raise self.error("exponent must be a nonnegative integer", i)
        n = self.count("exponent")
        if type(p) is tuple and type(p[1]) is int:  # q or s, too narrow to cap
            return (), p[1] * n
        terms = (p,) if type(p) is tuple else p.items()
        width = max((max(len(w), len(c.num), len(c.den)) for w, c in terms),
                    default=0)
        if n * width > MAX_WIDTH:
            raise self.error("exponent %d on a base of width %d passes the "
                             "cap of %d" % (n, width, MAX_WIDTH), i)
        if type(p) is tuple:
            w, c = p
            return w * n, c if c is ONE else c ** n
        base, p = p, {(): ONE}
        for _ in range(n):
            p = self.product(p, base, i)
        return _one(p)

    def primary(self):
        i, tok = self.i, self.tokens[self.i]
        self.i += 1
        if tok in self.names:
            return self.names[tok]
        if tok.isdigit():
            n = int(tok)
            return ((), ONE if n == 1 else QRat(n)) if n else {}
        if tok == "(":
            if self.depth == MAX_DEPTH:
                raise self.error("a nesting depth of %d passes the cap of %d"
                                 % (MAX_DEPTH + 1, MAX_DEPTH), i)
            self.depth += 1
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return _one(p)
        if tok in ("P", "K", "C", "Q") and self.tokens[self.i] == "(":
            return _one(self.form(tok, i).terms)
        if tok.isalnum():
            raise self.error("unknown name %r" % tok, i)
        raise self.error("unexpected token %r" % (tok or "end"), i)

    def form(self, head, i) -> NcPoly:
        self.expect("(")
        if head == "P":
            gen = self.expect("name")
            if gen not in self.alphabet.letters:
                raise self.error("unknown generator %r" % gen, i)
            self.expect(";")
            mu = self.count("window integer")
            self.expect(",")
            lam = self.count("window integer")
            self.expect(")")
            try:
                return qproduct(self.alphabet, gen, SpectralWindow(lam, mu))
            except ValueError as err:
                raise self.error(str(err), i) from None
        if head in ("K", "C"):
            self.expect(")")
            builder = k_element if head == "K" else c_element
            try:
                return builder(self.alphabet)
            except KeyError:
                raise self.error("%s() needs the rank-2 x generators" % head,
                                 i) from None
        # Q(lambda) or Q(lambda, nu)
        lam = self.count("window integer")
        nu = 0
        if self.tokens[self.i] == ",":
            self.i += 1
            nu = self.count("window integer")
        self.expect(")")
        try:
            window = SpectralWindow(lam, nu)
            # each term is a power of each of the rank letters
            if (lam - nu + 1) ** self.rank > MAX_TERMS:
                raise ValueError("Q(%d, %d) at rank %d passes the cap of %d terms"
                                 % (lam, nu, self.rank, MAX_TERMS))
            return big_Q(self.alphabet, self.rank, window)
        except ValueError as err:
            raise self.error(str(err), i) from None
        except KeyError:
            raise self.error("Q() needs the x generators", i) from None


def parse_expression(text: str, alphabet: Alphabet, rank=None) -> NcPoly:
    """Parse over the given alphabet; rank feeds the Q(...) forms."""
    return NcPoly._of(alphabet, _Parser(text, alphabet, rank).parse())
