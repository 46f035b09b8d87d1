"""The membership stream: seeded query generator and its closed-loop client.

Each query is an expression string over the rank-2 or rank-3 x-alphabet,
of degree at most 6, with a known answer fixed by construction:

* members are sums of coefficient-weighted padded defining relations,
  c * u * (relation) * v, so they lie in the ideal by definition;
* non-members are sums of distinct words with nonzero Q(s) coefficients
  in which at least one letter-count block holds a single word.  The
  ideal is spanned blockwise by padded relations and U_q^+ has no zero
  divisors, so a lone word in a block is never cancelled: not a member.

The relations are written out here from the algebra's presentation, not
taken from the package, so the package only ever sees the strings.

This is synthetic traffic on the library API (parse, then
``Verifier.decide``); no command of the CLI runs that path.  The even
split of members and non-members is a choice, not a measured mix: it
gives both outcomes of the randomized precheck equal weight.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter

# parse_expression is looked up on its module at each call, so the traced
# run's rebinding of it is seen
from qserre import exprparse
from qserre.verify import Verifier

RANKS = (2, 3)
MAX_DEGREE = 6
BATCH_SIZE = 400


def relation_texts(rank: int) -> list:
    """The defining relations: cubic q-Serre pairs and distant commutations."""
    rels = []
    for n in range(1, rank):
        a, b = "x%d" % n, "x%d" % (n + 1)
        rels.append("{a}*{a}*{b} + q*{b}*{a}*{a} - (1+q)*{a}*{b}*{a}".format(a=a, b=b))
        rels.append("{a}*{b}*{b} + q*{b}*{b}*{a} - (1+q)*{b}*{a}*{b}".format(a=a, b=b))
    for m in range(3, rank + 1):
        for n in range(1, m - 1):
            rels.append("x{m}*x{n} - x{n}*x{m}".format(m=m, n=n))
    return rels


def coefficient_text(rng: random.Random) -> str:
    """A nonzero element of Q(s), written in the expression language."""
    a = rng.randint(1, 9)
    b = rng.randint(1, 9)
    k = rng.randint(1, 3)
    return rng.choice((
        "%d" % a,
        "%d/%d" % (a, b),
        "%d*q^%d" % (a, k),
        "s^%d" % k,
        "(%d+%d*q)" % (a, b),
        "(%d*s-%d)/(%d+q)" % (a, b, k),
    ))


def _word(rng, rank, length) -> tuple:
    return tuple(rng.randint(1, rank) for _ in range(length))


def _word_text(word) -> str:
    return "*".join("x%d" % i for i in word)


def _join(terms, rng) -> str:
    out = []
    for i, term in enumerate(terms):
        sign = rng.choice(("+", "-"))
        if i == 0:
            out.append(term if sign == "+" else "-" + term)
        else:
            out.append("%s %s" % (sign, term))
    return " ".join(out)


def member_text(rng: random.Random, rank: int) -> str:
    rels = relation_texts(rank)
    terms = []
    for _ in range(rng.randint(1, 3)):
        rel = rng.choice(rels)
        room = MAX_DEGREE - (3 if "(1+q)" in rel else 2)
        pad = _word(rng, rank, rng.randint(0, room))
        cut = rng.randint(0, len(pad))
        parts = [coefficient_text(rng)]
        if cut:
            parts.append(_word_text(pad[:cut]))
        parts.append("(%s)" % rel)
        if cut < len(pad):
            parts.append(_word_text(pad[cut:]))
        terms.append("*".join(parts))
    return _join(terms, rng)


def nonmember_text(rng: random.Random, rank: int) -> str:
    count = rng.randint(1, 4)
    words = []
    while len(words) < count:
        w = _word(rng, rank, rng.randint(2, MAX_DEGREE))
        if w not in words:
            words.append(w)
    blocks = Counter(tuple(sorted(w)) for w in words)
    while 1 not in blocks.values():
        w = _word(rng, rank, rng.randint(2, MAX_DEGREE))
        if tuple(sorted(w)) not in blocks:
            words.append(w)
            blocks[tuple(sorted(w))] += 1
    terms = ["%s*%s" % (coefficient_text(rng), _word_text(w)) for w in words]
    return _join(terms, rng)


def make_batch(seed: int, index: int, size: int = BATCH_SIZE) -> list:
    """Queries (rank, text, is_member); half members, ranks alternating."""
    rng = random.Random(seed * 1_000_003 + index)
    out = []
    for i in range(size):
        rank = RANKS[(i // 2) % len(RANKS)]
        member = i % 2 == 0
        text = member_text(rng, rank) if member else nonmember_text(rng, rank)
        out.append((rank, text, member))
    return out


# ---------------------------------------------------------------------------
# the client: one warm Verifier per rank, one query at a time
# ---------------------------------------------------------------------------

def build_verifiers() -> dict:
    """Verifier construction, completion and oracle construction per rank."""
    out = {}
    for rank in RANKS:
        v = Verifier(rank)
        v.rules
        v.oracle
        out[rank] = v
    return out


def verdict_of(report) -> str:
    if any(n.startswith("undecided") for n in report.notes):
        return "undecided"
    return "member" if report.passed else "non-member"


def answer(verifiers, rank, text):
    """Parse and decide one query; returns its verdict or the error raised."""
    v = verifiers[rank]
    try:
        poly = exprparse.parse_expression(text, v.alphabet, rank)
        return verdict_of(v.decide("stream", (), poly))
    except Exception as err:  # noqa: BLE001 - every failure is a counted verdict
        return "error: %s: %s" % (type(err).__name__, err)


class StreamTally:
    """Verdict gate and latency record for a run of queries."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.latencies = []
        self._got = hashlib.sha256()
        self._want = hashlib.sha256()

    def record(self, text, is_member, verdict, seconds=None):
        want = "member" if is_member else "non-member"
        self.attempted += 1
        if verdict != want:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("%s: got %s, want %s" % (text, verdict, want))
        self._got.update(("%s\t%s\n" % (text, verdict)).encode())
        self._want.update(("%s\t%s\n" % (text, want)).encode())
        if seconds is not None:
            self.latencies.append(seconds)

    @property
    def fingerprint(self) -> str:
        return self._got.hexdigest()

    @property
    def expected_fingerprint(self) -> str:
        return self._want.hexdigest()


def run_pass(verifiers, batch, tally, timed=True) -> float:
    """Closed loop over one batch: each query is sent when the last returns."""
    t_pass = time.perf_counter()
    for rank, text, is_member in batch:
        t0 = time.perf_counter()
        verdict = answer(verifiers, rank, text)
        tally.record(text, is_member, verdict,
                     time.perf_counter() - t0 if timed else None)
    return time.perf_counter() - t_pass
