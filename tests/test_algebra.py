import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g2flow.algebra import (BASIS_NAMES, ConnectionCoeffs, LieForm, Su2Vec,
                            bracket, curvature_direct, curvature_lemma2,
                            exterior_derivative, random_rational_connection)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
vecs = st.builds(Su2Vec, fracs, fracs, fracs)


def T(i):
    return Su2Vec.basis(i, 1)


@pytest.mark.parametrize("degree, idx", [(2, (1,)), (1, (7,)), (2, (2, 1)),
                                         (2, (1, 1)), (8, None)],
                         ids=["wrong-length", "index-7", "decreasing",
                              "repeated", "degree-8"])
def test_lie_form_rejects_bad_indices(degree, idx):
    with pytest.raises(ValueError):
        LieForm(degree, {} if idx is None else {idx: T(1)})


def test_basis_brackets():
    assert bracket(T(1), T(2)) == Su2Vec(0, 0, 2)
    assert bracket(T(2), T(3)) == Su2Vec(2, 0, 0)
    assert bracket(T(3), T(1)) == Su2Vec(0, 2, 0)
    assert bracket(T(1), T(1)).is_zero()


@given(vecs, vecs)
def test_bracket_antisymmetry(u, v):
    assert bracket(u, v) == -1 * bracket(v, u)


@given(vecs, vecs, vecs)
def test_bracket_jacobi(u, v, w):
    total = (bracket(u, bracket(v, w)) + bracket(v, bracket(w, u))
             + bracket(w, bracket(u, v)))
    assert total.is_zero()


@given(st.lists(st.tuples(st.integers(0, 6), vecs), max_size=5))
def test_d_squared_vanishes_on_one_forms(entries):
    form = LieForm(1, {(i,): v for i, v in entries if not v.is_zero()})
    dd = exterior_derivative(exterior_derivative(form))
    assert dd.is_zero()


def test_d_refuses_degree_three():
    cube = LieForm(3, {(1, 2, 3): Su2Vec(1, 0, 0)})
    with pytest.raises(ValueError):
        exterior_derivative(cube)


def test_coefficient_sign_convention():
    form = LieForm(2, {(4, 5): Su2Vec(Fraction(1), 0, 0)})
    assert form.coefficient(4, 5) == Su2Vec(1, 0, 0)
    assert form.coefficient(5, 4) == Su2Vec(-1, 0, 0)
    with pytest.raises(ValueError):
        form.coefficient(4, 4)


def test_basis_names_fixed():
    assert BASIS_NAMES == ("dt", "e1+", "e2+", "e3+", "e1-", "e2-", "e3-")


@given(st.integers(0, 10 ** 9))
def test_curvature_routes_agree(seed):
    conn = random_rational_connection(random.Random(seed))
    assert curvature_direct(conn) == curvature_lemma2(conn)


def test_curvature_routes_agree_nondiagonal():
    rng = random.Random(7)
    for _ in range(50):
        conn = random_rational_connection(rng)
        direct = curvature_direct(conn)
        lemma = curvature_lemma2(conn)
        assert direct == lemma
        assert direct.degree == 2


@pytest.mark.parametrize("sign", [1, -1])
def test_flat_diagonal_curvature_zero(sign):
    conn = ConnectionCoeffs.from_diagonal(
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(sign), Fraction(sign), Fraction(sign)))
    assert curvature_direct(conn).is_zero()
    assert curvature_lemma2(conn).is_zero()


def test_canonical_curvature_block_values():
    conn = ConnectionCoeffs.from_diagonal((1, 1, 1), (0, 0, 0))
    curv = curvature_direct(conn)
    assert curv.coefficient(4, 5) == Su2Vec(0, 0, -2)
    assert curv.coefficient(4, 6) == Su2Vec(0, 2, 0)
    assert curv.coefficient(5, 6) == Su2Vec(-2, 0, 0)


def test_diagonal_scaling_of_minus_block():
    for w in (Fraction(1, 3), Fraction(2), Fraction(-1, 2)):
        conn = ConnectionCoeffs.from_diagonal((w, w, w), (0, 0, 0))
        curv = curvature_direct(conn)
        assert curv.coefficient(5, 6) == Su2Vec(-2 * w, 0, 0)
        assert curv.coefficient(2, 3) == Su2Vec(2 * w * (w - 1), 0, 0)
