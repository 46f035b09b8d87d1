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
"""

from __future__ import annotations

import re

from qserre.freealg import (
    Alphabet, NcPoly, SpectralWindow, big_Q, c_element, k_element, qproduct,
)
from qserre.qfield import Q, QRat, S


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+\d*)|([()+\-*/^;,]))")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], pos)
            break
        num, name, sym = m.groups()
        tok = num or name or sym
        kind = "int" if num else ("name" if name else sym)
        out.append((kind, tok, m.start(1) if num else m.start(2) if name else m.start(3)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


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

    def parse(self) -> NcPoly:
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
            p = -p
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            r = self.term()
            p = p + r if op == "+" else p - r
        return p

    def term(self):
        p = self.factor()
        while True:
            k = self.peek()[0]
            if k in ("*", "/"):
                self.next()
                r = self.factor()
                p = p * r if k == "*" else _divide(p, r, self.peek()[2])
            elif k in ("int", "name", "("):
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.primary()
        if self.peek()[0] == "^":
            self.next()
            k, tok, pos = self.next()
            if k != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            p = p ** int(tok)
        return p

    def primary(self):
        k, tok, pos = self.next()
        if k == "int":
            return NcPoly.unit(self.alphabet, QRat(int(tok)))
        if k == "(":
            p = self.expr()
            self.expect(")")
            return p
        if k == "name":
            if tok == "q":
                return NcPoly.unit(self.alphabet, Q)
            if tok == "s":
                return NcPoly.unit(self.alphabet, S)
            if tok in ("P", "K", "C", "Q") and self.peek()[0] == "(":
                return self.form(tok, pos)
            try:
                return NcPoly.generator(self.alphabet, tok)
            except KeyError:
                raise ParseError("unknown name %r" % tok, pos) from None
        raise ParseError("unexpected token %r" % (tok or "end"), pos)

    def form(self, head, pos):
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


def _divide(p: NcPoly, r: NcPoly, pos) -> NcPoly:
    c = _as_scalar(r)
    if c is None:
        raise ParseError("division only by scalar expressions", pos)
    if not c:
        raise ParseError("division by zero", pos)
    return p.map_coefficients(lambda x: x / c)


def _as_scalar(p: NcPoly):
    if p.is_zero:
        return QRat(0)
    if set(p.terms) == {()}:
        return p.terms[()]
    return None


def parse_expression(text: str, alphabet: Alphabet, rank=None) -> NcPoly:
    """Parse over the given alphabet; rank feeds the Q(...) forms."""
    return _Parser(text, alphabet, rank).parse()
