"""Degree-bounded completion and normal forms for the defining ideals.

Rules rewrite a leading word to a combination of deg-lex smaller words.
Every defining relation is homogeneous, so completion is one pass over
the degrees up to the requested one, and it gives a rewriting system
confluent within that degree.  No given lhs may be longer than the
lowest degree resolved, so no new rule displaces an old one.

Reduction is leftmost-first and memoized per word, which turns the
repeated reductions of large ordered products into a cheap DP.

Rewriting is integer arithmetic over Z[s, 1/s].  Every completed rule
coefficient is a Laurent polynomial in s, so each word's normal form is
one too: the memo stores a coefficient as (shift, ints), the value
s^shift * sum(ints[i] s^i) with both end entries nonzero.  A product is
a convolution and a sum an aligned add, with no gcd and no
normalization.  Rules are indexed by the first letter of their lhs, so
a match is tried only with the rules that can start at each position.
A rule with a coefficient whose denominator is not a power of s is
refused with a ValueError that names the rule; no completion of the x
or chi-e rules at ranks 2 to 5 has made one.

An input may have any Q(s) coefficients.  normal_form groups its terms
by their denominator d, up to a power of s, reduces each group over
Z[s, 1/s] and divides by d once, since NF(sum n_w w / d) equals
NF(sum n_w w) / d.  One lcm of all the denominators would instead make
every output coefficient share it, and each would take a gcd against it.
"""

from __future__ import annotations

from qserre.freealg import (
    Alphabet, NcPoly, add_terms, chi_e_alphabet, chi_e_relations,
    deg_lex_key, serre_relations, x_alphabet,
)
from qserre.qfield import QRat, _pmul


class RewriteRule:
    """lhs word -> rhs polynomial, homogeneous, strictly deg-lex decreasing."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs: NcPoly):
        lhs = tuple(lhs)
        if not lhs:
            raise ValueError("empty left-hand side")
        key = deg_lex_key(lhs)
        for w in rhs.terms:
            if len(w) != len(lhs):
                raise ValueError("rule is not homogeneous: %s -> %s"
                                 % (lhs, rhs))
            if deg_lex_key(w) >= key:
                raise ValueError("rhs word %s is not smaller than lhs %s"
                                 % (w, lhs))
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, *a):
        raise AttributeError("RewriteRule is immutable")

    def __repr__(self):
        return "<Rule %s -> %s>" % (self.rhs.alphabet.word_str(self.lhs), self.rhs)


def orient(relation: NcPoly) -> RewriteRule:
    """Turn a relation into the monic rule rewriting its leading word."""
    if relation.is_zero:
        raise ValueError("cannot orient the zero relation")
    lead = max(relation.terms, key=deg_lex_key)
    lc = relation.terms[lead]
    rest = relation - NcPoly.monomial(relation.alphabet, lead, lc)
    rhs = rest.map_coefficients(lambda c: -(c / lc))
    return RewriteRule(lead, rhs)


def _laurent_over(c):
    """c as (d, L), c = L / d with L in Z[s, 1/s] and d(0) != 0.

    L is a Laurent coefficient (shift, ints), the value
    s^shift * sum(ints[i] s^i), with both end entries nonzero.
    """
    num, den = c.num, c.den
    k = lo = 0
    while not den[k]:
        k += 1
    while not num[lo]:
        lo += 1
    return den[k:], (lo - k, num[lo:])


def _rule_laurent(rule):
    """The rule's rhs as (word, Laurent coefficient) pairs, or ValueError."""
    out = []
    for w, c in rule.rhs.terms.items():
        d, coeff = _laurent_over(c)
        if d != (1,):
            raise ValueError(
                "rule %s has a coefficient that is not a Laurent polynomial "
                "in s: %s" % (rule.rhs.alphabet.word_str(rule.lhs), c))
        out.append((w, coeff))
    return tuple(out)


def _add_into(out, w, c):
    """out[w] += c over Z[s, 1/s], aligned and trimmed; a zero sum is dropped."""
    c0 = out.get(w)
    if c0 is None:
        out[w] = c
        return
    (sa, pa), (sb, pb) = c0, c
    if sa > sb:
        sa, pa, sb, pb = sb, pb, sa, pa
    off = sb - sa
    acc = list(pa)
    n = off + len(pb)
    if n > len(acc):
        acc.extend([0] * (n - len(acc)))
    else:
        n = len(acc)
    for i, x in enumerate(pb, off):
        acc[i] += x
    lo = 0
    while lo < n and not acc[lo]:
        lo += 1
    if lo == n:
        del out[w]
        return
    while not acc[n - 1]:
        n -= 1
    out[w] = (sa + lo, tuple(acc[lo:n]))


_L_ONE = (0, (1,))


def _as_qrat(c, den):
    """The Laurent coefficient c divided by the integer polynomial den."""
    shift, t = c
    if shift >= 0:
        num, low = (0,) * shift + t, (1,)
    else:
        num, low = t, (0,) * -shift + (1,)
    if den == (1,):
        # already reduced: t has a nonzero constant term, so it is prime to s
        return QRat._raw(num, low)
    return QRat(num, _pmul(low, den))


class _Reducer:
    """Leftmost rewriting to fixpoint over a frozen rule list, memoized.

    The memo maps a word to its normal form as {word: (shift, ints)},
    Laurent coefficients in s; rules are indexed by their first letter.
    """

    def __init__(self, rules):
        self.rules = tuple(rules)
        self.memo = {(): {(): _L_ONE}}
        self._max_len = max((len(r.lhs) for r in self.rules), default=0)
        by_first = {}
        for r in self.rules:
            by_first.setdefault(r.lhs[0], []).append(
                (r.lhs, len(r.lhs), _rule_laurent(r)))
        self._by_first = by_first

    def _find(self, word, start):
        """The leftmost rule match at or after start, as (i, len(lhs), rhs)."""
        by_first = self._by_first
        for i in range(start, len(word)):
            for lhs, n, rhs in by_first.get(word[i], ()):
                if word[i:i + n] == lhs:
                    return i, n, rhs
        return None

    def word_normal_form(self, word):
        memo = self.memo
        got = memo.get(word)
        if got is not None:
            return got
        # (word, where a match can start, its match once found)
        stack = [(word, 0, None)]
        while stack:
            w, start, hit = stack.pop()
            if w in memo:
                continue
            if hit is None:
                hit = self._find(w, start)
                if hit is None:
                    memo[w] = {w: _L_ONE}
                    continue
            i, n, rhs = hit
            u, v = w[:i], w[i + n:]
            missing = [t for t in (u + rw + v for rw, _ in rhs) if t not in memo]
            if missing:
                stack.append((w, start, hit))
                # no match starts left of i in w, so none starts left of
                # i - max_len + 1 in a rewrite of it
                start = max(0, i - self._max_len + 1)
                stack.extend((t, start, None) for t in missing)
                continue
            if len(rhs) == 1 and rhs[0][1] == _L_ONE:
                # a plain swap shares its image's normal form
                memo[w] = memo[u + rhs[0][0] + v]
                continue
            out = {}
            for rw, (rs, rp) in rhs:
                for w2, (s2, p2) in memo[u + rw + v].items():
                    _add_into(out, w2, (rs + s2, _pmul(rp, p2)))
            memo[w] = out
        return memo[word]

    def normal_form(self, p: NcPoly) -> NcPoly:
        """NF(p), one Laurent sum per denominator of p's coefficients.

        NF(sum n_w w / d) = NF(sum n_w w) / d, so each group of terms
        sharing the denominator d (up to a power of s) is reduced over
        Z[s, 1/s] and divided by d once.
        """
        groups = {}
        for w, c in p.terms.items():
            d, coeff = _laurent_over(c)
            groups.setdefault(d, []).append((w, coeff))
        out = {}
        for den, terms in groups.items():
            acc = {}
            for w, (cs, cp) in terms:
                for w2, (s2, p2) in self.word_normal_form(w).items():
                    _add_into(acc, w2, (cs + s2, _pmul(cp, p2)))
            add_terms(out, ((w, _as_qrat(c, den)) for w, c in acc.items()))
        return NcPoly._of(p.alphabet, out)


class RuleSet:
    """Inter-reduced rewrite rules with a confluence certificate up to a degree."""

    __slots__ = ("alphabet", "rules", "completed_degree", "_reducer")

    def __init__(self, alphabet, rules, completed_degree=0):
        rules = tuple(rules)
        lhss = [r.lhs for r in rules]
        for a in lhss:
            for b in lhss:
                if a is not b and _contains(b, a):
                    raise ValueError("rule set not inter-reduced: %s inside %s"
                                     % (a, b))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "completed_degree", completed_degree)
        object.__setattr__(self, "_reducer", _Reducer(rules))

    def __setattr__(self, *a):
        raise AttributeError("RuleSet is immutable; complete() returns a new one")

    def __len__(self):
        return len(self.rules)

    def reduce(self, p: NcPoly) -> NcPoly:
        """Normal form of p, canonical when deg(p) <= completed_degree.

        A sound remainder modulo the ideal at any degree; the caller
        completes far enough first, as Verifier.rules_for does.
        """
        return self._reducer.normal_form(p)

    # the name bench/layertrace.py binds
    reduce_flagged = reduce


def _contains(hay, needle):
    n = len(needle)
    return any(hay[i:i + n] == needle for i in range(len(hay) - n + 1))


def _oriented(alphabet: Alphabet, relations) -> RuleSet:
    return RuleSet(alphabet, [orient(rel) for rel in relations])


def base_rules(rank: int) -> RuleSet:
    """Oriented defining rules of the rank-r presentation (not yet completed)."""
    alphabet = x_alphabet(rank)
    return _oriented(alphabet, serre_relations(alphabet))


def chi_e_rules(rank: int) -> RuleSet:
    """Oriented rules of the quantum-coordinate presentation."""
    alphabet = chi_e_alphabet(rank)
    return _oriented(alphabet, chi_e_relations(alphabet))


def _critical_pairs(rules, i, max_degree):
    """Overlaps of rule i with rules 0..i, both ways, up to max_degree.

    Yields (degree, ia, ib, k): a proper suffix of length k of rule ia's
    lhs equals a prefix of rule ib's lhs.
    """
    for j in range(i + 1):
        for ia, ib in ((i, j), (j, i)):
            a, b = rules[ia].lhs, rules[ib].lhs
            for k in range(1, min(len(a), len(b))):
                d = len(a) + len(b) - k
                if d <= max_degree and a[len(a) - k:] == b[:k]:
                    yield d, ia, ib, k
            if i == j:
                break  # self-overlaps only once


def _s_poly(ra, rb, k, alphabet):
    """The two one-step rewrites of the overlap word, subtracted."""
    a = ra.lhs
    return (ra.rhs * NcPoly.monomial(alphabet, rb.lhs[k:])
            - NcPoly.monomial(alphabet, a[:len(a) - k]) * rb.rhs)


def complete(rules: RuleSet, max_degree: int, max_steps: int = 100000) -> RuleSet:
    """Resolve all critical pairs of composed degree <= max_degree.

    Degree by degree, each pair's S-polynomial is reduced by the rules so
    far and, if nonzero, oriented into a new rule.  A set completed to
    max_degree or beyond is returned unchanged, and max_steps only
    guards against implementation bugs.

    A degree-d S-polynomial is homogeneous, so a new lhs is a normal
    word of length d: it contains no lhs and could lie only inside a
    longer one.  Precondition: no given lhs is longer than the lowest
    degree resolved, 3 for raw relations or completed_degree + 1 for a
    set completed before; otherwise the result is refused as not
    inter-reduced.  Pairs of degree <= completed_degree are skipped:
    they join only given rules, as every new lhs is longer, and they
    already resolved.
    """
    if max_degree < 3 and rules.rules:
        raise ValueError("max_degree must be at least 3")
    if max_degree <= rules.completed_degree:
        return rules
    work = list(rules.rules)
    pending = [[] for _ in range(max_degree + 1)]  # critical pairs by degree

    def file_pairs(i):
        for d, ia, ib, k in _critical_pairs(work, i, max_degree):
            pending[d].append((ia, ib, k))

    for i in range(len(work)):
        file_pairs(i)
    reducer = _Reducer(work)
    steps = 0
    # a rule added at one degree files its pairs under later ones
    for pairs in pending[rules.completed_degree + 1:]:
        for ia, ib, k in pairs:
            steps += 1
            if steps > max_steps:
                raise RuntimeError("completion exceeded the step budget")
            nf = reducer.normal_form(
                _s_poly(work[ia], work[ib], k, rules.alphabet))
            if nf.is_zero:
                continue
            work.append(orient(nf))
            reducer = _Reducer(work)
            file_pairs(len(work) - 1)

    # tail-reduce right-hand sides against the finished system, which the
    # last reducer holds; a rule never applies to its own rhs, whose words
    # are smaller words of the same length, so one reducer serves every rule
    tidy = [RewriteRule(r.lhs, reducer.normal_form(r.rhs)) for r in work]
    tidy.sort(key=lambda r: deg_lex_key(r.lhs))
    return RuleSet(rules.alphabet, tidy, completed_degree=max_degree)


def critical_pair_residuals(rules: RuleSet, max_degree: int):
    """All S-polynomial normal forms up to max_degree; empty support = confluent."""
    rs = rules.rules
    return [((rs[ia].lhs, rs[ib].lhs, k),
             rules.reduce(_s_poly(rs[ia], rs[ib], k, rules.alphabet)))
            for i in range(len(rs))
            for _, ia, ib, k in _critical_pairs(rs, i, max_degree)]


def _normal_levels(rules: RuleSet, degree: int):
    """Words with no rule lhs as a subword, one list per degree 0..degree."""
    lhss = [r.lhs for r in rules.rules]
    letters = range(len(rules.alphabet))
    level = [()]
    yield level
    for _ in range(degree):
        # a fresh lhs hit can only be a suffix ending at the new letter
        level = [w + (i,) for w in level for i in letters
                 if not any((w + (i,))[-len(lhs):] == lhs for lhs in lhss)]
        yield level


def normal_word_counts(rules: RuleSet, d_max: int):
    """Count of normal words per degree 0..d_max (the Hilbert diagnostic)."""
    if d_max > rules.completed_degree:
        raise ValueError("counts requested beyond the certified degree")
    return [len(level) for level in _normal_levels(rules, d_max)]


# ---------------------------------------------------------------------------
# text serialization: one `LHS -> POLY` line per rule
# ---------------------------------------------------------------------------

def dump_rules(rules: RuleSet) -> str:
    lines = ["# alphabet: %s" % ",".join("%s:%d" % f for f in rules.alphabet.families),
             "# completed_degree: %d" % rules.completed_degree]
    for r in rules.rules:
        lines.append("%s -> %s" % (rules.alphabet.word_str(r.lhs), r.rhs))
    return "\n".join(lines) + "\n"

