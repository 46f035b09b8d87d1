"""Root data against sources that share no code with it.

The positive roots and the Kostant counts come from the closed forms in
tests/pbw_reference.py, and the normal-word sets from the rule sets that
completion gives, which read the relations and no root.
"""

import pytest

from qserre.freealg import (
    chi_e_alphabet, chi_e_braiding, serre_braiding, x_alphabet,
)
from qserre.rewrite import _normal_levels, complete
from qserre.roots import (
    cartan_matrix, good_words, normal_words, positive_roots,
)
from pbw_reference import kostant_count, positive_roots as interval_roots
from reference_echelon import _compositions
from reference_rewrite import raw_rules


def _x_chi(rank):
    return serre_braiding(x_alphabet(rank))


@pytest.mark.parametrize("rank", range(1, 7))
def test_positive_roots_are_the_intervals(rank):
    assert set(positive_roots(cartan_matrix(_x_chi(rank)))) == set(
        interval_roots(rank))


def test_chi_letters_are_isolated_simple_roots():
    # chi(chi_i, chi_i) = 1 and every chi commutes with every other letter
    chi = chi_e_braiding(chi_e_alphabet(2))
    assert cartan_matrix(chi) == [[2, 0, 0, 0], [0, 2, 0, 0],
                                  [0, 0, 2, -1], [0, 0, -1, 2]]
    assert [w for _, w in good_words(chi)] == [(0,), (1,), (2,), (3, 2), (3,)]


def test_good_words_of_a3():
    # Leclerc's recursion under x1 > x2 > x3: x_j ... x_i for the root
    # alpha_i + ... + alpha_j, largest word first
    assert [w for _, w in good_words(_x_chi(3))] == [
        (0,), (1, 0), (1,), (2, 1, 0), (2, 1), (2,)]


def test_a_table_off_cartan_type_or_off_finite_type_is_refused():
    # chi(x1, x2) chi(x2, x1) = q^-2 is neither 1 nor chi(x1, x1)^-1
    with pytest.raises(ValueError, match="not of Cartan type"):
        cartan_matrix(((2, -4), (0, 2)))
    # the cyclic triangle is affine: its reflections never close
    triangle = ((2, 0, -2), (-2, 2, 0), (0, -2, 2))
    with pytest.raises(ValueError, match="not of finite type"):
        positive_roots(cartan_matrix(triangle))


# the x family at ranks 2-4 and chi-e at rank 2, each with its roots as
# count vectors built from the closed form alone
_COUNTED = [(_x_chi(r), interval_roots(r)) for r in (2, 3, 4)] + [
    (chi_e_braiding(chi_e_alphabet(2)),
     [(1, 0, 0, 0), (0, 1, 0, 0)] + [(0, 0) + r for r in interval_roots(2)])]


@pytest.mark.parametrize("chi, roots", _COUNTED)
def test_each_block_has_the_kostant_count_of_normal_words(chi, roots):
    good = good_words(chi)
    for degree in range(9):
        for content in _compositions(degree, len(chi)):
            words = normal_words(good, content)
            assert len(set(words)) == len(words)
            assert len(words) == kostant_count(content, roots)
            assert all(sorted(w) == sorted(words[0]) for w in words)


def _reversed_order_words(chi, content):
    """The normal words under x1 < x2 < ...: relabel, compute, relabel back."""
    n = len(chi)
    flipped = tuple(tuple(chi[n - 1 - u][n - 1 - a] for a in range(n))
                    for u in range(n))
    return {tuple(n - 1 - i for i in w)
            for w in normal_words(good_words(flipped), content[::-1])}


@pytest.mark.parametrize("rank", [2, 3])
def test_normal_words_are_the_rewriting_normal_words(rank):
    chi, rules = _x_chi(rank), complete(raw_rules("x%d" % rank), 7)
    good = good_words(chi)
    differ = 0
    for degree, level in enumerate(_normal_levels(rules, 7)):
        blocks = list(_compositions(degree, rank))
        assert {w for c in blocks for w in normal_words(good, c)} == set(level)
        # control: under x1 < x2 < ... the counts agree and the sets not
        flipped = [w for c in blocks for w in _reversed_order_words(chi, c)]
        assert len(flipped) == len(level)
        differ += set(flipped) != set(level)
    assert differ
