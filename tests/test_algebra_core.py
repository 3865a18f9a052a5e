"""The direct tuple arithmetic of Su2Vec, the memoised index sort and
the input checks of the exact algebra."""

import itertools
import math
from fractions import Fraction

import pytest

from g2flow.algebra import LieForm, Su2Vec, _sort_sign


def _reference_sort_sign(indices):
    """Insertion sort counting transpositions; None on a repeat."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    if len(set(idx)) < len(idx):
        return None
    return tuple(idx), sign


def test_sort_sign_matches_insertion_sort():
    for p in (1, 2, 3):
        for idx in itertools.product(range(7), repeat=p):
            assert _sort_sign(idx) == _reference_sort_sign(idx), idx
    longer = [(3, 1, 2, 0), (0, 1, 2, 3), (6, 5, 4, 3, 2),
              (2, 0, 2, 5), (1, 4, 0, 6, 3, 5), (6, 5, 4, 3, 2, 1, 0),
              (0, 1, 2, 3, 4, 5, 6), (5, 3, 1, 6, 4, 2, 0),
              (1, 2, 3, 4, 5, 6, 1)]
    for idx in longer:
        assert _sort_sign(idx) == _reference_sort_sign(idx), idx
    assert _sort_sign((2, 0, 2, 5)) is None
    assert _sort_sign((6, 5, 4, 3, 2, 1, 0)) == ((0, 1, 2, 3, 4, 5, 6), -1)


@pytest.mark.parametrize("one", [1, Fraction(1, 3), 0.5],
                         ids=["int", "Fraction", "float"])
def test_su2vec_arithmetic_keeps_the_component_type(one):
    u = Su2Vec(one, 2 * one, 3 * one)
    v = Su2Vec(-one, one, 0 * one)
    for w in (u + v, u - v, -u, u * 2, 2 * u, u * one):
        assert all(type(x) is type(one) for x in w), w
    assert u + v == Su2Vec(0, 3 * one, 3 * one)
    assert u - v == Su2Vec(2 * one, one, 3 * one)
    assert -u == Su2Vec(-one, -2 * one, -3 * one)
    assert u * 2 == 2 * u == Su2Vec(2 * one, 4 * one, 6 * one)


def test_su2vec_equality_is_element_wise():
    nan = float("nan")
    v = Su2Vec(nan, 0, 0)
    assert not v == v
    assert v != v
    assert not v == Su2Vec(nan, 0, 0)
    assert Su2Vec(-0.0, 0, 0).is_zero()
    assert Su2Vec(-0.0, 0, 0) == Su2Vec(0, 0, 0)
    assert not Su2Vec(0, 0, math.inf).is_zero()


def test_su2vec_takes_one_triple_or_three_components():
    assert Su2Vec((1, 2, 3)) == Su2Vec([1, 2, 3]) == Su2Vec(1, 2, 3)
    assert Su2Vec(Su2Vec(1, 2, 3)) == Su2Vec(1, 2, 3)
    for args in [(1, 2), (1, 2, 3, 4), (5,), ((1, 2),), ((1, 2, 3, 4),),
                 ()]:
        with pytest.raises(ValueError):
            Su2Vec(*args)


def test_su2vec_basis_index_is_one_to_three():
    assert [Su2Vec.basis(i, 1) for i in (1, 2, 3)] == [
        Su2Vec(1, 0, 0), Su2Vec(0, 1, 0), Su2Vec(0, 0, 1)]
    assert Su2Vec.basis(2, Fraction(1, 2)) == Su2Vec(0, Fraction(1, 2), 0)
    for i in (0, -1, 4):
        with pytest.raises(ValueError):
            Su2Vec.basis(i, 1)


@pytest.mark.parametrize("indices", [(1, 9), (1,), (1, 2, 3), (-1, 2),
                                     (), (7, 0)])
def test_coefficient_rejects_impossible_indices(indices):
    form = LieForm(2, {(4, 5): Su2Vec(1, 0, 0)})
    with pytest.raises(ValueError, match="indices in 0..6"):
        form.coefficient(*indices)


def test_coefficient_repeated_index_keeps_its_error():
    form = LieForm(2, {(4, 5): Su2Vec(1, 0, 0)})
    with pytest.raises(ValueError, match="repeated index"):
        form.coefficient(4, 4)
    assert form.coefficient(5, 4) == Su2Vec(-1, 0, 0)
    assert form.coefficient(0, 6) == Su2Vec(0, 0, 0)


def test_lie_form_names_the_first_bad_index_and_drops_zeros():
    with pytest.raises(ValueError, match=r"bad index \(2, 1\) for degree 2"):
        LieForm(2, {(1, 2): Su2Vec(1, 0, 0), (2, 1): Su2Vec(1, 0, 0),
                    (9,): Su2Vec(1, 0, 0)})
    form = LieForm(2, {(1, 2): Su2Vec(0, -0.0, 0), (1, 3): Su2Vec(0, 1, 0)})
    assert form.coeffs == {(1, 3): Su2Vec(0, 1, 0)}
    assert LieForm(1).is_zero()
