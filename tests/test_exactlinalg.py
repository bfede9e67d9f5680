"""Exact elimination: certificates must be decisions, not estimates."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gometrics import exactlinalg as ela
from gometrics.scalars import Quad

entry = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def test_rref_identity_and_pivots():
    m = [[2, 0], [0, 3]]
    red, pivots = ela.rref(m)
    assert red == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rank_rectangular():
    assert ela.rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert ela.rank([[1, 2], [3, 4]]) == 2
    assert ela.rank([]) == 0
    assert ela.rank([[0, 0], [0, 0]]) == 0


def test_solve_inconsistent_returns_none():
    assert ela.solve([[1, 1], [1, 1]], [1, 2]) == (None, 1)
    x, rank = ela.solve([[1, 1], [1, 1]], [2, 2])
    assert x is not None and x[0] + x[1] == 2
    assert rank == 1


def test_solve_free_variables_zeroed():
    assert ela.solve([[1, 1, 0]], [5]) == ([Q(5), Q(0), Q(0)], 1)


@settings(max_examples=60)
@given(small_matrix(3, 3), st.lists(entry, min_size=3, max_size=3))
def test_solve_roundtrip(m, xs):
    b = ela.matvec(m, xs)
    x, rank = ela.solve(m, b)
    assert x is not None
    assert ela.matvec(m, x) == b
    assert rank == ela.rank(m)


@settings(max_examples=60)
@given(small_matrix(3, 4))
def test_nullspace_annihilates(m):
    for v in ela.nullspace(m):
        assert ela.vec_is_zero(ela.matvec(m, v))
    assert len(ela.nullspace(m)) == 4 - ela.rank(m)


def test_int_rows_never_contaminate_with_floats():
    # plain int rows once leaked float 1.0 out of elimination; a Quad
    # column then crashed on Quad * float
    q = Quad(0, 1, 21)
    m = [
        [1, 2, 0],
        [3, -1, q],
        [-100, 0, 0],
    ]
    red, _ = ela.rref(m)
    for row in red:
        for x in row:
            assert not isinstance(x, float)
    sol, rank = ela.solve(m, [0, q, 0])
    assert sol is not None and rank == 3
    assert all(not isinstance(x, float) for x in sol)


def test_eliminations_refuse_float_entries():
    # exact zero tests on rounded floats decide nothing
    m = [[Q(1), 0.1], [Q(2), Q(3)]]
    for call in (
        lambda: ela.rref(m),
        lambda: ela.rank(m),
        lambda: ela.nullspace(m),
        lambda: ela.solve([[Q(1), Q(2)]], [0.5]),
        lambda: ela.in_span([[1, 0.0]], [Q(1), Q(0)]),
        lambda: ela.in_span([], [0.0]),  # the span of no vectors is {0}
    ):
        with pytest.raises(TypeError, match="float"):
            call()


def test_rref_over_quadratic_field():
    q = Quad(0, 1, 21)  # sqrt(21)
    m = [[q, 21], [1, q]]
    assert ela.rank(m) == 1
    null = ela.nullspace(m)
    assert len(null) == 1
    assert ela.vec_is_zero(ela.matvec(m, null[0]))


def test_in_span_and_span_rank():
    vs = [[1, 0, 1], [0, 1, 1]]
    assert ela.in_span(vs, [2, 3, 5])
    assert not ela.in_span(vs, [0, 0, 1])
    assert ela.span_rank(vs + [[1, 1, 2]]) == 2
    assert ela.in_span([], [0, 0])
    assert not ela.in_span([], [1, 0])


def test_gram_schmidt_orthogonalizes_and_drops_dependents():
    def inner(u, v):
        return ela.dot(u, v)

    basis = ela.gram_schmidt([[1, 1, 0], [1, 0, 0], [2, 1, 0]], inner)
    assert len(basis) == 2
    assert inner(basis[0], basis[1]) == 0
    # weighted pairing with integer inputs must stay exact
    def winner(u, v):
        return sum(a * w * b for a, w, b in zip(u, (7, 1, 1), v))

    basis = ela.gram_schmidt([[1, 1, 1], [1, 0, 0]], winner)
    assert winner(basis[0], basis[1]) == 0
    assert all(not isinstance(x, float) for v in basis for x in v)


def test_intersect_spans():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    mid = ela.intersect_spans(a, b)
    assert len(mid) == 1
    assert ela.in_span([[0, 1, 0]], mid[0])
    assert ela.intersect_spans(a, []) == []


@settings(max_examples=40)
@given(small_matrix(2, 4), small_matrix(2, 4))
def test_intersect_spans_is_contained_in_both(a, b):
    for v in ela.intersect_spans(a, b):
        assert ela.in_span(a, v)
        assert ela.in_span(b, v)


