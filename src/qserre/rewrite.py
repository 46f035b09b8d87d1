"""Certified completion and normal forms for the defining ideals.

Rules rewrite a leading word to a combination of deg-lex smaller words.
The raw rules are the oriented relations that a braiding table chi
defines (braided_rules).  Every defining relation is homogeneous, so
completion is one pass over the degrees, and it stops where a count
certifies the rules R in every degree.  R lies in the ideal I, so degree
d of T/I has dimension at most N_R(d), the number of normal words of
length d; at generic q it is the PBW count (roots.pbw_series).  Where
the two agree in every degree, R is a Groebner-Shirshov basis of I.  An
automaton on the n proper prefixes of the lhs's reads the normal words,
so their series is rational of denominator degree at most n (Ufnarovski,
1995): agreement through degree n + D, D the sum of the root heights,
is agreement in every degree.  The count reads only the lhs's; a wrong
rhs is the oracle's to catch.  No given lhs may be longer than the
lowest degree resolved, so no new rule displaces an old one.

A RuleSet is its own reducer, memoized per word.  It builds NF(w) as
NF(NF(w[:-1]) w[-1]): on a certified set NF(w) is the unique
irreducible element congruent to w, so the two agree (the case k = 1 of
Bergman's diamond lemma, Adv. Math. 29, 1978).  A rule can match a
normal word times a letter only as a suffix, so rules are indexed by
last letter, and at most one lhs is such a suffix: a shorter one would
lie inside the longer.  On a set that is not confluent, such as
completion's working sets, this still applies only valid rewrites and
ends in irreducible words, so NF is a remainder.  Completion copies
memo entries into each new set, never sharing a dict: a word shorter
than a new lhs cannot contain it, so only entries shorter than each
added rule carry.

Rewriting and completion are integer arithmetic over Z[s, 1/s].  A rule
is stored once, its rhs as (word, Laurent coefficient) pairs, and the
memo holds normal forms the same way: (shift, ints) is the value
s^shift * sum(ints[i] s^i), both end entries nonzero.  A product is a
convolution and a sum an aligned add, with no gcd.  An S-polynomial is
reduced as a term map, and orient divides by the leading coefficient
exactly, as integer polynomials with a nonzero constant term, plus a
shift.  Where that is inexact the rule would need a denominator, and
orient refuses it with a ValueError naming the rule; no completion of
the x rules at ranks 2 to 6 or the chi-e rules at ranks 2 to 4 has made
one.  Only dump_rules turns coefficients back into Q(s).

An input may have any Q(s) coefficients.  normal_form groups its terms
by their denominator d, up to a power of s, reduces each group over
Z[s, 1/s] and divides by d once, since NF(sum n_w w / d) equals
NF(sum n_w w) / d.  One lcm of all the denominators would instead make
every output coefficient share it, and each would take a gcd against it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from qserre.freealg import Alphabet, NcPoly, add_terms, braided_relations, deg_lex_key
from qserre.qfield import QRat, _order, _pdivmod_exact, _pmul, _pneg
from qserre.roots import pbw_series

# lhs word -> rhs, a tuple of (word, Laurent coefficient) pairs whose words
# are deg-lex smaller and as long as lhs
Rule = namedtuple("Rule", "lhs rhs")


def _laurent_over(c):
    """c as (d, L), c = L / d with L in Z[s, 1/s] and d(0) != 0.

    L is a Laurent coefficient (shift, ints), the value
    s^shift * sum(ints[i] s^i), with both end entries nonzero.
    """
    num, den = c.num, c.den
    k, lo = _order(den), _order(num)
    return den[k:], (lo - k, num[lo:])


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


def _as_qrat(c, den=(1,)):
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


def orient(alphabet: Alphabet, terms) -> Rule:
    """The monic rule rewriting the leading word of terms, {word: Laurent}.

    A ValueError where the rule would need a denominator.
    """
    if not terms:
        raise ValueError("cannot orient the zero relation")
    lead = max(terms, key=deg_lex_key)
    if not lead or any(len(w) != len(lead) for w in terms):
        raise ValueError("the relation with leading word %s is not homogeneous "
                         "of positive degree" % alphabet.word_str(lead))
    ls, lp = terms[lead]
    lp = _pneg(lp)  # the rhs is minus the rest, over the leading coefficient
    rhs = []
    for w, (cs, cp) in terms.items():
        if w != lead:
            try:
                rhs.append((w, (cs - ls, _pdivmod_exact(cp, lp))))
            except ArithmeticError:
                raise ValueError(
                    "rule %s has a coefficient that is not a Laurent polynomial "
                    "in s: %s" % (alphabet.word_str(lead), _as_qrat((cs - ls, cp), lp))
                ) from None
    return Rule(lead, tuple(rhs))


class RuleSet:
    """Inter-reduced rewrite rules, and the degree the count certified them at, or None.

    It is also their reducer: the memo maps a word to its normal form as
    {word: (shift, ints)}, Laurent coefficients in s.
    """

    __slots__ = ("alphabet", "rules", "certified_degree", "memo", "_by_last")

    def __init__(self, alphabet, rules, certified_degree=None):
        rules = tuple(rules)
        lhss = [r.lhs for r in rules]
        inside = {b[i:j]: b for b in lhss for i in range(len(b))
                  for j in range(i + 1, len(b) + (i > 0))}
        for a in lhss:
            if a in inside:
                raise ValueError("rule set not inter-reduced: %s inside %s"
                                 % (a, inside[a]))
            inside[a] = a  # so a repeated lhs is refused too
        by_last = {}
        for r in rules:
            by_last.setdefault(r.lhs[-1], []).append((r.lhs, -len(r.lhs), r.rhs))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "certified_degree", certified_degree)
        object.__setattr__(self, "memo", {(): {(): _L_ONE}})
        object.__setattr__(self, "_by_last", by_last)

    def __setattr__(self, *a):
        raise AttributeError("RuleSet is immutable; complete() returns a new one")

    def __len__(self):
        return len(self.rules)

    def word_normal_form(self, word):
        """NF(word) as {word: Laurent coefficient}, built from NF(word[:-1])."""
        memo, by_last = self.memo, self._by_last
        got = memo.get(word)
        if got is not None:
            return got
        stack = [(word, None)]  # (word, the words and coefficients it sums, once known)
        while stack:
            w, parts = stack.pop()
            if parts is None:
                if w in memo:
                    continue
                head, a = w[:-1], w[-1:]
                head_nf = memo.get(head)
                if head_nf is None:
                    stack += (w, None), (head, None)
                    continue
                if head in head_nf:  # head is normal, so a rule can match only a suffix
                    for lhs, n, rhs in by_last.get(a[0], ()):
                        if w[n:] == lhs:
                            parts = [(w[:n] + rw, c) for rw, c in rhs]
                            break
                    else:
                        memo[w] = {w: _L_ONE}
                        continue
                else:
                    parts = [(u + a, c) for u, c in head_nf.items()]
                missing = [(t, None) for t, _ in parts if t not in memo]
                if missing:
                    stack += [(w, parts)] + missing
                    continue
            if len(parts) == 1 and parts[0][1] == _L_ONE:
                # a plain swap, or a head of one normal word, shares its image
                memo[w] = memo[parts[0][0]]
                continue
            memo[w] = self.reduced_terms(parts)
        return memo[word]

    def reduced_terms(self, terms) -> dict:
        """NF of (word, Laurent coefficient) pairs, as {word: Laurent coefficient}."""
        out = {}
        for w, (cs, cp) in terms:
            for w2, (s2, p2) in self.word_normal_form(w).items():
                _add_into(out, w2, (cs + s2, _pmul(cp, p2)))
        return out

    def normal_form(self, p: NcPoly) -> NcPoly:
        """NF(p): canonical when the set is certified, else a remainder.

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
            add_terms(out, ((w, _as_qrat(c, den))
                            for w, c in self.reduced_terms(terms).items()))
        return NcPoly._of(p.alphabet, out)

    # the names bench/layertrace.py traces; completion reduces term maps,
    # so its steps stay out of the traced rewrite.reduce counters
    reduce = reduce_flagged = normal_form


def braided_rules(alphabet: Alphabet, chi) -> RuleSet:
    """The oriented relations that the table chi defines, not yet completed."""
    gens = [NcPoly.monomial(alphabet, (i,)) for i in range(len(alphabet))]
    # each coefficient is a sum of powers of s, so Laurent
    return RuleSet(alphabet, [
        orient(alphabet, {w: _laurent_over(c)[1] for w, c in rel.terms.items()})
        for _, rel in braided_relations(gens, chi)])


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


def _s_poly(reducer, ra, rb, k):
    """NF of the overlap word's two one-step rewrites, subtracted, as a term map."""
    head, tail = ra.lhs[:len(ra.lhs) - k], rb.lhs[k:]
    return reducer.reduced_terms(
        [(w + tail, c) for w, c in ra.rhs]
        + [(head + w, (cs, _pneg(cp))) for w, (cs, cp) in rb.rhs])


MAX_STEPS = 100000  # critical pairs one completion may resolve


def complete(rules: RuleSet, roots) -> RuleSet:
    """Resolve critical pairs degree by degree until the count certifies them.

    roots are the positive roots, as count vectors.  From the longest
    given lhs on, each degree d ends with _count_mismatch; the first
    degree where it finds none is the certified_degree.  A mismatch at
    d + 1 tells how many rules degree d + 1 lacks, as each new lhs is
    one normal word there, so its pairs are resolved until that many
    are found: the rest then resolve.  Past 2 ht(theta) + 1 or MAX_STEPS
    pairs completion raises; neither has happened.

    A degree-d S-polynomial is homogeneous, so a new lhs is a normal
    word of length d: it contains no lhs and could lie only inside a
    longer one.  Precondition: no given lhs is longer than a new one, as
    with raw relations, whose lhs's are at most 3 long; otherwise the
    result is refused as not inter-reduced.  Whichever remainders the
    working sets give, the result is the reduced basis, which is unique.
    """
    cap = 2 * max(map(sum, roots), default=0) + 1
    work = list(rules.rules)
    start = max((len(r.lhs) for r in work), default=0)
    pending = [[] for _ in range(cap + 1)]  # critical pairs by degree

    def file_pairs(i):
        for d, ia, ib, k in _critical_pairs(work, i, cap):
            pending[d].append((ia, ib, k))

    for i in range(len(work)):
        file_pairs(i)
    reducer = RuleSet(rules.alphabet, work)
    steps, need = 0, None  # the rules degree d lacks, once a count says
    # a rule added at one degree files its pairs under later ones
    for d in range(cap + 1):
        for ia, ib, k in pending[d]:
            if need == 0:
                break
            steps += 1
            if steps > MAX_STEPS:
                raise RuntimeError("completion exceeded the step budget")
            nf = _s_poly(reducer, work[ia], work[ib], k)
            if not nf:
                continue
            work.append(orient(rules.alphabet, nf))
            need = need and need - 1
            # the new lhs has length d, so no shorter word contains it
            reducer = _carried(rules.alphabet, work, reducer.memo, d)
            file_pairs(len(work) - 1)
        if d >= start:
            miss = _count_mismatch(reducer, roots)
            if miss is None:
                break
            e, got, want = miss
            need = got - want if e == d + 1 else 0 if e > d else None
    else:
        raise RuntimeError("no count certifies the rules by degree %d" % cap)

    # tail-reduce right-hand sides against the finished system, which the
    # last reducer holds; a rule never applies to its own rhs, whose words
    # are smaller words of the same length, so one reducer serves every rule
    tidy = [Rule(r.lhs, tuple(reducer.reduced_terms(r.rhs).items())) for r in work]
    tidy.sort(key=lambda r: deg_lex_key(r.lhs))
    return _carried(rules.alphabet, tidy, reducer.memo, d + 1, d)


def _carried(alphabet, rules, memo, below, certified_degree=None) -> RuleSet:
    """A RuleSet of rules whose own memo starts with memo's entries shorter than below."""
    out = RuleSet(alphabet, rules, certified_degree)
    out.memo.update((w, nf) for w, nf in memo.items() if len(w) < below)
    return out


def _normal_word_counts(rules: RuleSet):
    """N_R(0), N_R(1), ... without end, and n, the automaton's state count.

    A state is the longest suffix of the word read that is a proper
    prefix of an lhs.  A letter leads to the longest suffix that is a
    state or an lhs, which ends the word: a longer state would hold it.
    """
    lhss = {r.lhs for r in rules.rules}
    states = [()] + list({w[:i] for w in lhss for i in range(1, len(w))})
    index = {p: i for i, p in enumerate(states)}
    moves = [[] for _ in states]
    for p, out in zip(states, moves):
        for a in range(len(rules.alphabet)):
            u = p + (a,)
            while u not in index and u not in lhss:
                u = u[1:]
            if u not in lhss:
                out.append(index[u])

    def counts():
        vec = [1] + [0] * (len(states) - 1)
        while True:
            yield sum(vec)
            new = [0] * len(vec)
            for c, out in zip(vec, moves):
                for j in out:
                    new[j] += c
            vec = new

    return counts(), len(states)


def _count_mismatch(rules: RuleSet, roots):
    """The first (d, N_R(d), PBW(d)) that differ, d <= n + D; None certifies."""
    counts, n = _normal_word_counts(rules)
    pbw = pbw_series(roots, n + sum(map(sum, roots)))
    return next(((d, got, want) for d, (got, want) in enumerate(zip(counts, pbw))
                 if got != want), None)


def normal_word_counts(rules: RuleSet, d_max: int):
    """Count of normal words per degree 0..d_max (the Hilbert diagnostic)."""
    if rules.certified_degree is None:
        raise ValueError("the count has not certified this rule set")
    return list(islice(_normal_word_counts(rules)[0], d_max + 1))


# ---------------------------------------------------------------------------
# text serialization: one `LHS -> POLY` line per rule
# ---------------------------------------------------------------------------

def dump_rules(rules: RuleSet) -> str:
    cert = rules.certified_degree
    lines = ["# alphabet: %s" % ",".join("%s:%d" % f for f in rules.alphabet.families),
             "# certificate: " + ("none" if cert is None else
                                  "global, by the normal-word count at degree %d" % cert)]
    for r in rules.rules:
        rhs = NcPoly._of(rules.alphabet, {w: _as_qrat(c) for w, c in r.rhs})
        lines.append("%s -> %s" % (rules.alphabet.word_str(r.lhs), rhs))
    return "\n".join(lines) + "\n"
