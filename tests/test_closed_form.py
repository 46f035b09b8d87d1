"""The third reference: closed-form dimensions from the root system alone."""

import pytest

from pbw_reference import kostant_count, pbw_series, positive_roots
from reference_echelon import ReferenceOracle, _compositions, _perm_count
from qserre.freealg import serre_relations, x_alphabet
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


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_dropping_a_root_fails(rank):
    # mutation control: without any one positive root both closed forms
    # miss the counts
    degree = 6
    counts = normal_word_counts(complete(base_rules(rank), degree), degree)
    roots = positive_roots(rank)
    ech = ReferenceOracle(x_alphabet(rank), serre_relations(x_alphabet(rank)))
    for k in range(len(roots)):
        fewer = roots[:k] + roots[k + 1:]
        assert pbw_series(rank, degree, fewer) != counts, roots[k]
        # the block of the dropped root itself loses its root vector
        content = roots[k]
        assert (kostant_count(content, fewer)
                != _perm_count(content) - ech._block(content).rank), roots[k]
