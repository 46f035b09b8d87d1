"""The reference reducer: leftmost rewriting to a fixpoint, memoized.

The package reduces a word w as NF(NF(w[:-1]) w[-1]), matching rules
only at the suffix ending at the last letter (qserre.rewrite).  This
route scans for the leftmost match anywhere in the word instead, with
its own memo and an explicit stack, so the tests can check that both
orders reach the same normal form wherever the rules are canonical.

raw_rules names the uncompleted rule sets that the tests start from,
certified their completions, and critical_pair_residuals is the
diamond-lemma reference: a set is confluent up to a degree when every
overlap there resolves to zero.  normal_levels lists normal words by
brute force, where the package counts them with an automaton.
"""

import functools

from qserre.freealg import chi_e_alphabet, chi_e_braiding, serre_braiding, x_alphabet
from qserre.qfield import _pmul
from qserre.rewrite import (
    _L_ONE, _add_into, _critical_pairs, _s_poly, braided_rules, complete,
)
from qserre.roots import cartan_matrix, positive_roots


def _presentation(name):
    """(alphabet, chi) by name: "x3" is x rank 3, "chi-e2" chi-e rank 2."""
    family, rank = name[:-1], int(name[-1])
    if family == "x":
        return x_alphabet(rank), serre_braiding(rank)
    return chi_e_alphabet(rank), chi_e_braiding(rank)


def raw_rules(name):
    """The raw rules by name."""
    return braided_rules(*_presentation(name))


def roots_of(name):
    """The positive roots of the named presentation's Dynkin diagram."""
    return positive_roots(cartan_matrix(_presentation(name)[1]))


@functools.lru_cache(maxsize=None)
def certified(name):
    """The named raw rules completed until the count certifies them; shared."""
    return complete(raw_rules(name), roots_of(name))


def normal_levels(rules, degree):
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


def critical_pair_residuals(rules, max_degree):
    """All S-polynomial normal forms up to max_degree, as term maps; all empty = confluent."""
    rs = rules.rules
    return [((rs[ia].lhs, rs[ib].lhs, k), _s_poly(rules, rs[ia], rs[ib], k))
            for i in range(len(rs))
            for _, ia, ib, k in _critical_pairs(rs, i, max_degree)]


class LeftmostReducer:
    """Leftmost-first normal forms of words by the rules of a RuleSet."""

    def __init__(self, rules):
        self.memo = {(): {(): _L_ONE}}
        self.max_len = max((len(r.lhs) for r in rules.rules), default=0)
        self.by_first = {}
        for r in rules.rules:
            self.by_first.setdefault(r.lhs[0], []).append(
                (r.lhs, len(r.lhs), r.rhs))

    def _find(self, word, start):
        """The leftmost rule match at or after start, as (i, len(lhs), rhs)."""
        for i in range(start, len(word)):
            for lhs, n, rhs in self.by_first.get(word[i], ()):
                if word[i:i + n] == lhs:
                    return i, n, rhs
        return None

    def word_normal_form(self, word):
        memo = self.memo
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
                start = max(0, i - self.max_len + 1)
                stack.extend((t, start, None) for t in missing)
                continue
            out = {}
            for rw, (rs, rp) in rhs:
                for w2, (s2, p2) in memo[u + rw + v].items():
                    _add_into(out, w2, (rs + s2, _pmul(rp, p2)))
            memo[w] = out
        return memo[word]
