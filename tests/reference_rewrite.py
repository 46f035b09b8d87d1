"""The reference reducer: leftmost rewriting to a fixpoint, memoized.

The package reduces a word w as NF(NF(w[:-1]) w[-1]), matching rules
only at the suffix ending at the last letter (qserre.rewrite).  This
route scans for the leftmost match anywhere in the word instead, with
its own memo and an explicit stack, so the tests can check that both
orders reach the same normal form wherever the rules are canonical.

raw_rules names the uncompleted rule sets that the tests start from.
"""

from qserre.freealg import chi_e_alphabet, chi_e_braiding, serre_braiding, x_alphabet
from qserre.qfield import _pmul
from qserre.rewrite import _L_ONE, _add_into, braided_rules


def raw_rules(name):
    """The raw rules by name: "x3" is x rank 3, "chi-e2" chi-e rank 2."""
    family, rank = name[:-1], int(name[-1])
    if family == "x":
        return braided_rules(x_alphabet(rank), serre_braiding)
    return braided_rules(chi_e_alphabet(rank), chi_e_braiding)


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
