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
maps, word -> nonzero QRat, not NcPolys: a product concatenates words
and multiplies coefficients only where neither is the shared ONE that
letters and the literal 1 carry; a sum merges maps and drops the terms
that cancel; a division divides each coefficient by a scalar; a power
is a repeated product; a form takes the terms of the element it
names.  Only the finished value is wrapped in an NcPoly.
"""

from __future__ import annotations

import re

from qserre.freealg import (
    Alphabet, NcPoly, SpectralWindow, big_Q, c_element, k_element, qproduct,
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


def _times(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            c = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
            c0 = out.get(w)
            if c0 is None:
                out[w] = c
            else:
                c = c0 + c
                if c:
                    out[w] = c
                else:
                    del out[w]
    return out


def _plus(a, b, negate=False):
    out = dict(a)
    for w, c in b.items():
        c0 = out.get(w)
        if c0 is None:
            out[w] = -c if negate else c
        else:
            c = c0 - c if negate else c0 + c
            if c:
                out[w] = c
            else:
                del out[w]
    return out


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
        self.i = 0
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

    def parse(self) -> dict:
        p = self.expr()
        k, tok, pos = self.peek()
        if k != "end":
            raise ParseError("trailing input %r" % tok, pos)
        return p

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        p = self.term()
        if negate:
            p = {w: -c for w, c in p.items()}
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            p = _plus(p, self.term(), op == "-")
        return p

    def term(self):
        p = self.factor()
        while True:
            k = self.peek()[0]
            if k in ("*", "/"):
                self.next()
                pos = self.peek()[2]
                r = self.factor()
                p = _times(p, r) if k == "*" else _divide(p, r, pos)
            elif k in ("int", "name", "("):
                p = _times(p, self.factor())
            else:
                return p

    def factor(self):
        p = self.primary()
        if self.peek()[0] == "^":
            self.next()
            k, tok, pos = self.next()
            if k != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            base, p = p, {(): ONE}
            for _ in range(int(tok)):
                p = _times(p, base)
        return p

    def primary(self):
        k, tok, pos = self.next()
        if k == "int":
            n = int(tok)
            return {(): ONE if n == 1 else QRat(n)} if n else {}
        if k == "(":
            p = self.expr()
            self.expect(")")
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
            mu = int(self.expect("int"))
            self.expect(",")
            lam = int(self.expect("int"))
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
        lam = int(self.expect("int"))
        nu = 0
        if self.peek()[0] == ",":
            self.next()
            nu = int(self.expect("int"))
        self.expect(")")
        try:
            return big_Q(self.alphabet, self.rank, SpectralWindow(lam, nu))
        except ValueError as err:
            raise ParseError(str(err), pos) from None


def parse_expression(text: str, alphabet: Alphabet, rank=None) -> NcPoly:
    """Parse over the given alphabet; rank feeds the Q(...) forms."""
    return NcPoly(alphabet, _Parser(text, alphabet, rank).parse())
