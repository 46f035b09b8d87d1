"""The expression parser against NcPoly arithmetic, and its error positions."""

import random
import re

import pytest

from qserre import exprparse
from qserre.exprparse import ParseError, parse_expression
from qserre.freealg import NcPoly, chi_e_alphabet, x_alphabet
from qserre.qfield import Q, QRat, S

A2, A3, E2 = x_alphabet(2), x_alphabet(3), chi_e_alphabet(2)

# binding levels of the grammar: expr < term < factor < primary
EXPR, TERM, FACTOR, PRIMARY = range(4)


# -- random expression trees ---------------------------------------------------
#
# A node is (level, text, value), value an NcPoly or the error message the
# text must raise.  Each constructor renders its operands at the levels
# the grammar needs there, adding parentheses where an operand binds less.

def _at(node, level, rng):
    lvl, text, _ = node
    if lvl >= level:
        return text
    return "(%s)" % text if rng.random() < 0.7 else "( %s )" % text


def _leaf(text, value):
    return (PRIMARY, text, value)


def _binary(level, left, op, right, combine, rng):
    # the parser reports the leftmost error first
    if isinstance(left[2], str):
        value = left[2]
    elif isinstance(right[2], str):
        value = right[2]
    else:
        value = combine(left[2], right[2])
    ltext, rtext = _at(left, level, rng), _at(right, level + 1, rng)
    # juxtaposition needs a blank, or "x1" "2" would read as "x12", but
    # none next to a parenthesis
    if op != " ":
        sep = rng.choice(("", " ", "  "))
    elif ltext.endswith(")") or rtext.startswith("("):
        sep = rng.choice(("", " "))
    else:
        sep = rng.choice((" ", "\t"))
    return (level, "%s%s%s%s%s" % (ltext, sep, op.strip(), sep, rtext), value)


def _divide(p, r):
    if r.is_zero:
        return "division by zero"
    if set(r.terms) != {()}:
        return "division only by scalar expressions"
    c = r.terms[()]
    return p.map_coefficients(lambda x: x / c)


def _power(node, k, rng):
    _, _, p = node
    value = p if isinstance(p, str) else p ** k
    return (FACTOR, "%s^%d" % (_at(node, PRIMARY, rng), k), value)


def _negate(node, rng):
    _, _, p = node
    return (EXPR, "-" + _at(node, TERM, rng), p if isinstance(p, str) else -p)


class Trees:
    def __init__(self, alphabet, rng):
        self.alphabet = alphabet
        self.rng = rng

    def leaf(self, scalar=False):
        rng, a = self.rng, self.alphabet
        pick = rng.randrange(4 if scalar else 8)  # half letters
        if pick == 0:
            n = rng.choice((0, 1, 1, 2, 3, 7, 10, 12345678901234567890))
            return _leaf(str(n), NcPoly.unit(a, QRat(n)))
        if pick == 1:
            return _leaf("q", NcPoly.unit(a, Q))
        if pick == 2:
            return _leaf("s", NcPoly.unit(a, S))
        if pick == 3:
            return self.coefficient()
        name = rng.choice(a.letters)
        return _leaf(name, NcPoly.generator(a, name))

    def coefficient(self):
        """One of the membership stream's coefficient shapes."""
        rng, a = self.rng, self.alphabet

        def n(lo=1):
            k = rng.randint(lo, 9)
            return _leaf(str(k), NcPoly.unit(a, QRat(k)))
        q, s = _leaf("q", NcPoly.unit(a, Q)), _leaf("s", NcPoly.unit(a, S))
        shape = rng.randrange(6)
        if shape == 0:
            return n()
        if shape == 1:
            return _binary(TERM, n(), "/", n(), _divide, rng)
        if shape == 2:
            return _binary(TERM, n(), "*", _power(q, rng.randint(1, 3), rng),
                           NcPoly.__mul__, rng)
        if shape == 3:
            return _power(s, rng.randint(1, 3), rng)
        if shape == 4:
            return _binary(EXPR, n(), "+",
                           _binary(TERM, n(), "*", q, NcPoly.__mul__, rng),
                           NcPoly.__add__, rng)
        top = _binary(EXPR, _binary(TERM, n(), "*", s, NcPoly.__mul__, rng),
                      "-", n(), NcPoly.__sub__, rng)
        bottom = _binary(EXPR, n(), "+", q, NcPoly.__add__, rng)
        return _binary(TERM, top, "/", bottom, _divide, rng)

    def run(self):
        """A term of five to nine juxtaposed factors, most of them letters.

        At times the first factor is a sum, and at times a power of a
        letter or of q after '/', a zero, a divisor or a sum stands between
        the letters: each reaches its own branch of the parser's fold.
        """
        rng, a = self.rng, self.alphabet

        def letter():
            name = rng.choice(a.letters)
            return _leaf(name, NcPoly.generator(a, name))
        node = self.tree(2) if rng.random() < 0.3 else letter()
        for _ in range(rng.randint(4, 8)):
            pick = rng.randrange(20)
            if pick < 13:
                op, right = " ", letter()
            elif pick < 16:
                base = letter() if pick == 13 else _leaf("q", NcPoly.unit(a, Q))
                op, right = "/", _power(base, rng.randint(0, 3), rng)
            elif pick == 16:
                op, right = " ", _leaf("0", NcPoly.zero(a))
            elif pick == 17:
                zero = rng.random() < 0.3
                op, right = "/", _leaf("0", NcPoly.zero(a)) if zero else self.divisor(1)
            else:
                op, right = " ", self.tree(1)
            node = _binary(TERM, node, op, right,
                           _divide if op == "/" else NcPoly.__mul__, rng)
        return node

    def divisor(self, depth):
        """A scalar, at times plus letters that cancel, rarely zero."""
        rng = self.rng
        r = self.tree(depth, scalar=True)
        pick = rng.randrange(8)
        if pick < 5:
            return r
        t = self.tree(1)
        gone = _binary(EXPR, t, "-", t, NcPoly.__sub__, rng)
        if pick < 7:
            return _binary(EXPR, r, "+", gone, NcPoly.__add__, rng)
        return gone if rng.random() < 0.5 else self.tree(1)

    def tree(self, depth, scalar=False):
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            return self.leaf(scalar)
        op = rng.choice(("+", "-", "*", " ", "/", "^", "neg"))
        if op == "^":
            return _power(self.tree(depth - 1, scalar), rng.randint(0, 3), rng)
        if op == "neg":
            return _negate(self.tree(depth - 1, scalar), rng)
        left = self.tree(depth - 1, scalar)
        if op == "/":
            return _binary(TERM, left, "/", self.divisor(depth - 1), _divide, rng)
        right = self.tree(depth - 1, scalar)
        if op in ("*", " "):
            return _binary(TERM, left, op, right, NcPoly.__mul__, rng)
        return _binary(EXPR, left, op, right,
                       NcPoly.__add__ if op == "+" else NcPoly.__sub__, rng)


def _cases(alphabet):
    """(text, NcPoly or error message) for 400 random trees of depth 4
    and 200 runs of juxtaposed factors."""
    trees = Trees(alphabet, random.Random(len(alphabet)))
    return ([trees.tree(4)[1:] for _ in range(400)]
            + [trees.run()[1:] for _ in range(200)])


def _outcome(text, alphabet):
    try:
        return parse_expression(text, alphabet)
    except ParseError as err:
        return str(err).rsplit(" (at position", 1)[0]


@pytest.mark.parametrize("alphabet", [A2, A3], ids=["A2", "A3"])
def test_parse_agrees_with_ncpoly_arithmetic(alphabet):
    # every random tree parses to what NcPoly operations make of it, or
    # fails with the message those operations call for
    for text, want in _cases(alphabet):
        assert _outcome(text, alphabet) == want, text


@pytest.mark.parametrize("alphabet", [A2, A3], ids=["A2", "A3"])
def test_trees_reach_every_outcome(alphabet):
    wants = [want for _, want in _cases(alphabet)]
    assert "division by zero" in wants
    assert "division only by scalar expressions" in wants
    assert sum(isinstance(p, NcPoly) and len(p.terms) > 3 for p in wants) > 20


@pytest.mark.parametrize("alphabet", [A2, A3], ids=["A2", "A3"])
def test_runs_reach_every_fold_path(alphabet):
    runs = _cases(alphabet)[400:]
    for shape in (r"x\d(\s+x\d){4}",  # five juxtaposed letters
                  r"/\s*x\d\^", r"/\s*q\^",  # a power right after '/'
                  r"\)x\d"):  # a letter right after ')'
        assert any(re.search(shape, text) for text, _ in runs), shape
    # a zero factor, then a zero divisor: "x1 0 x2 / 0"
    assert any(re.search(r"[^/\s]\s+0\s.*/\s*0(\s|$)", text)
               and want == "division by zero" for text, want in runs)


def test_a_divisor_is_a_scalar_once_its_letters_cancel():
    x1 = NcPoly.generator(A2, "x1")
    assert parse_expression("x1/(2 + x2 x1 - x2 x1)", A2) == x1.scale(QRat(1, 2))


def test_a_letter_run_folds_in_linear_time_without_a_product(monkeypatch):
    calls = []
    real = exprparse.mul_terms

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(exprparse, "mul_terms", spy)
    # 100,000 letters: a fold quadratic in the run would take about a minute
    p = parse_expression("q " + "x1 x2 x2 x1 " * 25_000 + "/2 x1^3", A2)
    word = (0, 1, 1, 0) * 25_000 + (0, 0, 0)
    assert calls == []
    assert p == NcPoly.monomial(A2, word, Q / 2)


def test_parsing_a_relation_multiplies_no_ncpoly(monkeypatch):
    calls = []
    real = NcPoly.__mul__

    def spy(self, other):
        calls.append(other)
        return real(self, other)
    monkeypatch.setattr(NcPoly, "__mul__", spy)
    text = ("(3*s-2)/(1+q)*x1*(x1*x1*x2 + q*x2*x1*x1 - (1+q)*x1*x2*x1)*x2"
            " - 4*q^2*(x3*x1 - x1*x3)*x2")
    p = parse_expression(text, A3)
    assert calls == [] and len(p.terms) == 5


# -- error positions -----------------------------------------------------------

@pytest.mark.parametrize("text, message, pos", [
    # the bad character itself, not the blank before it
    ("x1 ? x2", "unexpected character '?'", 3),
    ("x1 + $x2", "unexpected character '$'", 5),
    # the divisor, not where the parser stood after reading it
    ("1/x1", "division only by scalar expressions", 2),
    ("x1/0 + x2", "division by zero", 3),
    ("x1 / (q - q) x2", "division by zero", 5),
])
def test_errors_point_at_their_cause(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_expression(text, A2)
    assert err.value.pos == pos
    assert str(err.value) == "%s (at position %d)" % (message, pos)


_WIDE = "((x1+x2)^13 + (x1+x2)^12)"  # 12,288 terms, past the product cap


_RAISE_SITES = [
    # expected token
    (A2, "(x1 + x2", "expected ')', found 'end'", 8),
    (A2, "P(x1 2, 1)", "expected ';', found '2'", 5),
    (A2, "P(x1;0)", "expected ',', found ')'", 6),
    (A2, "K(x1)", "expected ')', found 'x1'", 2),
    (A2, "P(3; 0, 1)", "expected 'name', found '3'", 2),
    (A2, "Q(x1)", "expected 'int', found 'x1'", 2),
    # exponent
    (A2, "q^-1", "exponent must be a nonnegative integer", 2),
    (A2, "x1^ x2", "exponent must be a nonnegative integer", 4),
    # exponent cap, and the window integers' cap
    (A2, "2 x2 ^ 40", "exponent 40 passes the cap of 32", 7),
    (A2, "P(x1; 0, 33)", "window integer 33 passes the cap of 32", 9),
    # width cap
    (A2, "((x1^32)^32)^2",
     "exponent 2 on a base of width 1024 passes the cap of 1024", 13),
    # term cap: of a power, a product by a sum, by one term, and of Q(...)
    (A2, "(x1+x2)^14",
     "a product of 8192 by 2 terms passes the cap of 10000 terms", 8),
    (A2, "(x1+x2)^13 (x1+x2)",
     "a product of 8192 by 2 terms passes the cap of 10000 terms", 11),
    (A2, _WIDE + " x1",
     "a product of 12288 by 1 terms passes the cap of 10000 terms", 26),
    (A3, "Q(30)", "Q(30, 0) at rank 3 passes the cap of 10000 terms", 0),
    # depth cap
    (A2, "(" * 101 + "x1" + ")" * 101,
     "a nesting depth of 101 passes the cap of 100", 100),
    # unknown name and generator
    (A2, "x1 + 3x", "unknown name 'x'", 6),
    (A2, "P(y1; 0, 1)", "unknown generator 'y1'", 0),
    # unexpected token and character
    (A2, "x1 + * x2", "unexpected token '*'", 5),
    (A2, "x1 +", "unexpected token 'end'", 4),
    (A2, "x1 + é", "unexpected character 'é'", 5),
    # trailing input
    (A2, "x1 x2)", "trailing input ')'", 5),
    (A2, "x1^2^3", "trailing input '^'", 4),
    # window error
    (A2, "2 Q(1, 2)", "window needs lam >= mu, got (1, 2)", 2),
    (A2, "x2 P(x1; 2, 1)", "window needs lam >= mu, got (1, 2)", 3),
    # K() and Q() off the x alphabet
    (E2, "K()", "K() needs the rank-2 x generators", 0),
    (E2, "e1 C()", "C() needs the rank-2 x generators", 3),
    (E2, "Q(1)", "Q() needs the x generators", 0),
    # division
    (A2, "0 x1 / 0", "division by zero", 7),
    (A2, "x1/(x1+x2)", "division only by scalar expressions", 3),
    (A2, "2/x1^0/x2^2", "division only by scalar expressions", 7),
]


@pytest.mark.parametrize("alphabet, text, message, pos", _RAISE_SITES,
                         ids=[row[1][:30] for row in _RAISE_SITES])
def test_every_raise_site_keeps_its_message_and_position(alphabet, text,
                                                          message, pos):
    with pytest.raises(ParseError) as err:
        parse_expression(text, alphabet)
    assert (str(err.value), err.value.pos) == (
        "%s (at position %d)" % (message, pos), pos)


def test_the_term_cap_bounds_products_not_a_first_factor():
    wide = parse_expression(_WIDE, A2)
    assert len(wide.terms) == 12288
    assert parse_expression(_WIDE + "/2", A2) == wide.scale(QRat(1, 2))
    assert parse_expression(_WIDE + " 0", A2).is_zero
