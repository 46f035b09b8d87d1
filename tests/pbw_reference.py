"""Closed-form dimensions of the quotient algebras, from the root system.

The x-family algebra of rank r is U_q^+ of type A_r, which has a PBW
basis of ordered monomials in one root vector per positive root
(Lusztig, J. Amer. Math. Soc. 3, 1990).  So its Hilbert series is the
product over positive roots alpha of 1 / (1 - t^ht(alpha)), and the
dimension of its block with letter counts m is the Kostant partition
count of sum m_i alpha_i: the number of ways to write it as an
unordered sum of positive roots.  The chi-e algebra adds r quantum-plane coordinates
chi_i, each of degree 1, which multiply the series by 1 / (1 - t)^r.

Nothing here reads a relation, a rule or a braiding, so these numbers
share no code with rewriting or with either oracle.
"""

from functools import lru_cache


def positive_roots(rank):
    """A_rank's positive roots alpha_i + ... + alpha_j, as count vectors."""
    return [tuple(int(i <= k <= j) for k in range(rank))
            for i in range(rank) for j in range(i, rank)]


def product_series(heights, degree):
    """Coefficients t^0..t^degree of the product of 1 / (1 - t^h)."""
    coeffs = [1] + [0] * degree
    for h in heights:
        for d in range(h, degree + 1):
            coeffs[d] += coeffs[d - h]
    return coeffs


def pbw_series(rank, degree, roots=None, extra_linear=0):
    """Hilbert series of the x-family algebra; extra_linear degree-1
    factors give the chi-e algebra, with extra_linear = rank."""
    if roots is None:
        roots = positive_roots(rank)
    heights = [sum(r) for r in roots] + [1] * extra_linear
    return product_series(heights, degree)


def kostant_count(content, roots):
    """Ways to write the count vector content as a multiset of roots."""
    roots = tuple(roots)

    @lru_cache(maxsize=None)
    def count(i, rest):
        if not any(rest):
            return 1
        if i == len(roots):
            return 0
        total = 0
        while all(x >= 0 for x in rest):
            total += count(i + 1, rest)
            rest = tuple(x - y for x, y in zip(rest, roots[i]))
        return total

    return count(0, tuple(content))
