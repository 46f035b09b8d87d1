"""The third reference: closed-form dimensions from the root system alone."""

import pytest

from pbw_reference import kostant_count, pbw_series, positive_roots
from reference_echelon import (
    ReferenceOracle, _compositions, _perm_count, chi_e_relations,
    serre_relations,
)
from qserre.freealg import chi_e_alphabet, x_alphabet
from qserre.rewrite import base_rules, chi_e_rules, complete, normal_word_counts


@pytest.mark.parametrize("rank, degree", [(2, 8), (3, 8), (4, 7)])
def test_pbw_series_is_the_normal_word_count(rank, degree):
    rules = complete(base_rules(rank), degree)
    assert pbw_series(rank, degree) == normal_word_counts(rules, degree)


@pytest.mark.parametrize("rank, degree", [(2, 7), (3, 6)])
def test_chi_e_series_is_the_normal_word_count(rank, degree):
    rules = complete(chi_e_rules(rank), degree)
    assert (pbw_series(rank, degree, extra_linear=rank)
            == normal_word_counts(rules, degree))


@pytest.mark.parametrize("rank", [2, 3])
def test_kostant_count_is_the_block_dimension(rank):
    a = x_alphabet(rank)
    ech = ReferenceOracle(a, serre_relations(a))
    roots = positive_roots(rank)
    for degree in range(7):
        for content in _compositions(degree, rank):
            assert (kostant_count(content, roots)
                    == _perm_count(content) - ech._block(content).rank), content


@pytest.mark.parametrize("rank, degree", [(2, 6), (3, 5)])
def test_kostant_count_is_the_chi_e_block_dimension(rank, degree):
    # the chi's span a quantum plane that commutes with the e's, so a block
    # has the dimension of its e-counts' block: the Kostant count of those
    a = chi_e_alphabet(rank)
    ech = ReferenceOracle(a, chi_e_relations(a))
    roots = positive_roots(rank)
    for d in range(degree + 1):
        for content in _compositions(d, 2 * rank):
            assert (kostant_count(content[rank:], roots)
                    == _perm_count(content) - ech._block(content).rank), content


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_dropping_a_root_fails(rank):
    # mutation control: without any one positive root both closed forms
    # miss the counts
    degree = 6
    counts = normal_word_counts(complete(base_rules(rank), degree), degree)
    roots = positive_roots(rank)
    ech = ReferenceOracle(x_alphabet(rank), serre_relations(x_alphabet(rank)))
    chi_e = ReferenceOracle(chi_e_alphabet(rank),
                            chi_e_relations(chi_e_alphabet(rank)))
    for k in range(len(roots)):
        fewer = roots[:k] + roots[k + 1:]
        assert pbw_series(rank, degree, fewer) != counts, roots[k]
        # the block of the dropped root itself loses its root vector
        content = roots[k]
        assert (kostant_count(content, fewer)
                != _perm_count(content) - ech._block(content).rank), roots[k]
        # and so does the chi-e block of the same e-counts, with one chi
        content = (1,) + (0,) * (rank - 1) + roots[k]
        assert (kostant_count(roots[k], fewer)
                != _perm_count(content) - chi_e._block(content).rank), roots[k]
