"""Root data of a braiding's Dynkin diagram: the normal words of a block.

cartan_matrix is the one reader of chi's Dynkin diagram: a_ij = 0 where
chi(i, j) chi(j, i) = 1, a_ij = -1 where it is chi(i, i)^-1 = chi(j, j)^-1,
and any other chi is refused.  freealg.braided_relations writes the
defining relations from it.  Its positive roots fix the dimension of
each letter-count block m of the quotient: the Kostant count K(m) of
multisets of roots summing to m.  Over a degree these sum to the PBW
series, the product over roots of 1 / (1 - t^ht) (Lusztig, JAMS 3,
1990).  Words compare lexicographically with
x1 > x2 > ..., a proper prefix smaller.  A root's good word follows
Leclerc's recursion (Math. Z. 246, 2004): l(alpha_i) = x_i, and l(beta)
is the largest l(b1) l(b2) over roots b1 + b2 = beta with l(b1) <
l(b2).  The K(m) normal words of a block are the nonincreasing products
of good words.  Nothing here reads a relation, a rule or the oracle.
"""

from __future__ import annotations


def cartan_matrix(chi) -> list:
    """The Cartan matrix of chi, a table of s-exponents, if it has one."""
    n = len(chi)
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j):
            both = chi[i][j] + chi[j][i]
            if both and not both == -chi[i][i] == -chi[j][j]:
                raise ValueError("chi on letters %d and %d is not of Cartan "
                                 "type" % (i + 1, j + 1))
            cartan[i][j] = cartan[j][i] = -1 if both else 0
    return cartan


def positive_roots(cartan) -> list:
    """The simple roots' closure under the reflections b - <b, a_i> a_i."""
    n = len(cartan)
    roots = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for beta in roots:  # the list grows while it is read
        for i, row in enumerate(cartan):
            gamma = list(beta)
            gamma[i] -= sum(a * b for a, b in zip(row, beta))
            if gamma[i] >= 0 and tuple(gamma) not in roots:
                if sum(gamma) > 4 * n:  # past any finite type's heights
                    raise ValueError("chi's diagram is not of finite type")
                roots.append(tuple(gamma))
    return roots


def pbw_series(roots, degree) -> list:
    """Coefficients t^0..t^degree of the product of 1 / (1 - t^ht) over roots."""
    coeffs = [1] + [0] * degree
    for h in map(sum, roots):
        for d in range(h, degree + 1):
            coeffs[d] += coeffs[d - h]
    return coeffs


def good_words(chi) -> list:
    """(root, good word) pairs, largest word first; words are letter tuples."""
    good = {}  # letters negated, so that x1 > x2 > ... is Python's order
    for beta in sorted(positive_roots(cartan_matrix(chi)), key=sum):
        halves = [(w1, good.get(tuple(x - y for x, y in zip(beta, b1))))
                  for b1, w1 in good.items()]
        good[beta] = max((w1 + w2 for w1, w2 in halves if w2 and w1 < w2),
                         default=(-beta.index(1),))
    return [(root, tuple(-i for i in word)) for root, word in
            sorted(good.items(), key=lambda rw: rw[1], reverse=True)]


def normal_words(good, content, memo=None) -> list:
    """The nonincreasing products of good words with letter counts content.

    memo maps (k, counts) to the products of good[k:]; blocks may share it.
    """
    memo = {} if memo is None else memo

    def products(k, left):
        if not any(left):
            return [()]
        if (k, left) not in memo:
            memo[k, left] = got = []
            for j in range(k, len(good)):
                root, word = good[j]
                rest = tuple([c - r for r, c in zip(root, left)])
                if min(rest) >= 0:
                    got += [word + tail for tail in products(j, rest)]
        return memo[k, left]

    return products(0, tuple(content))
