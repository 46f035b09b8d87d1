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

The text is split into tokens by one regex scan.  Values are plain term
maps, word -> nonzero QRat, not NcPolys, and every sum and product of
them goes through freealg's kernels, add_terms and mul_terms; a division
divides each coefficient by a scalar, a power is a repeated product and
a form takes the terms of the element it names.  Only the finished
value is wrapped in an NcPoly.
"""

from __future__ import annotations

import re

from qserre.freealg import (
    Alphabet, NcPoly, SpectralWindow, add_terms, big_Q, c_element, k_element,
    mul_terms, qproduct,
)
from qserre.qfield import ONE, Q, QRat, S


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# integer, name, operator or punctuation, and any other visible character
_TOKEN = re.compile(r"(\d+)|([A-Za-z]+\d*)|([()+\-*/^;,])|(\S)")


def _tokenize(text):
    out = []
    for m in _TOKEN.finditer(text):
        group, tok = m.lastindex, m.group()
        if group == 4:
            raise ParseError("unexpected character %r" % tok, m.start())
        out.append(("int" if group == 1 else "name" if group == 2 else tok,
                    tok, m.start()))
    out.append(("end", "", len(text)))
    return out


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


def _product(a, b, pos):
    if len(a) * len(b) > MAX_TERMS:
        raise ParseError("a product of %d by %d terms passes the cap of %d "
                         "terms" % (len(a), len(b), MAX_TERMS), pos)
    return mul_terms({}, a, b)


def _divide(p, r, pos):
    if not r:
        raise ParseError("division by zero", pos)
    if len(r) > 1 or () not in r:
        raise ParseError("division only by scalar expressions", pos)
    c = r[()]
    return {w: x / c for w, x in p.items()}


class _Parser:
    def __init__(self, text, alphabet: Alphabet, rank=None):
        self.tokens = _tokenize(text)
        self.i = self.depth = 0
        self.alphabet = alphabet
        self.rank = rank if rank is not None else len(alphabet.letters)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        k, tok, pos = self.next()
        if k != kind:
            raise ParseError("expected %r, found %r" % (kind, tok or "end"), pos)
        return tok

    def count(self, what) -> int:
        pos = self.peek()[2]
        n = int(self.expect("int"))
        if n > MAX_EXPONENT:
            raise ParseError("%s %d passes the cap of %d"
                             % (what, n, MAX_EXPONENT), pos)
        return n

    def parse(self) -> dict:
        p = self.expr()
        k, tok, pos = self.peek()
        if k != "end":
            raise ParseError("trailing input %r" % tok, pos)
        return p

    def expr(self):
        p, op = {}, "+"
        if self.peek()[0] == "-":
            op = self.next()[0]
        while True:
            add_terms(p, self.term().items(), op == "-")
            if self.peek()[0] not in ("+", "-"):
                return p
            op = self.next()[0]

    def term(self):
        p = self.factor()
        while True:
            k = self.peek()[0]
            if k in ("*", "/"):
                self.next()
            elif k not in ("int", "name", "("):
                return p
            pos = self.peek()[2]
            r = self.factor()
            p = _divide(p, r, pos) if k == "/" else _product(p, r, pos)

    def factor(self):
        p = self.primary()
        if self.peek()[0] == "^":
            self.next()
            k, _, pos = self.peek()
            if k != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            n = self.count("exponent")
            width = max((max(len(w), len(c.num), len(c.den))
                         for w, c in p.items()), default=0)
            if n * width > MAX_WIDTH:
                raise ParseError("exponent %d on a base of width %d passes the "
                                 "cap of %d" % (n, width, MAX_WIDTH), pos)
            base, p = p, {(): ONE}
            for _ in range(n):
                p = _product(p, base, pos)
        return p

    def primary(self):
        k, tok, pos = self.next()
        if k == "int":
            n = int(tok)
            return {(): ONE if n == 1 else QRat(n)} if n else {}
        if k == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError("a nesting depth of %d passes the cap of %d"
                                 % (MAX_DEPTH + 1, MAX_DEPTH), pos)
            self.depth += 1
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        if k == "name":
            if tok == "q":
                return {(): Q}
            if tok == "s":
                return {(): S}
            if tok in ("P", "K", "C", "Q") and self.peek()[0] == "(":
                return self.form(tok, pos).terms
            try:
                return {(self.alphabet.index(tok),): ONE}
            except KeyError:
                raise ParseError("unknown name %r" % tok, pos) from None
        raise ParseError("unexpected token %r" % (tok or "end"), pos)

    def form(self, head, pos) -> NcPoly:
        self.expect("(")
        if head == "P":
            gen = self.expect("name")
            if gen not in self.alphabet.letters:
                raise ParseError("unknown generator %r" % gen, pos)
            self.expect(";")
            mu = self.count("window integer")
            self.expect(",")
            lam = self.count("window integer")
            self.expect(")")
            try:
                return qproduct(self.alphabet, gen, SpectralWindow(lam, mu))
            except ValueError as err:
                raise ParseError(str(err), pos) from None
        if head in ("K", "C"):
            self.expect(")")
            builder = k_element if head == "K" else c_element
            try:
                return builder(self.alphabet)
            except KeyError:
                raise ParseError("%s() needs the rank-2 x generators" % head,
                                 pos) from None
        # Q(lambda) or Q(lambda, nu)
        lam = self.count("window integer")
        nu = 0
        if self.peek()[0] == ",":
            self.next()
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
            raise ParseError(str(err), pos) from None
        except KeyError:
            raise ParseError("Q() needs the x generators", pos) from None


def parse_expression(text: str, alphabet: Alphabet, rank=None) -> NcPoly:
    """Parse over the given alphabet; rank feeds the Q(...) forms."""
    return NcPoly._of(alphabet, _Parser(text, alphabet, rank).parse())
