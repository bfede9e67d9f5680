"""Integer elimination against the Fraction Gauss-Jordan it replaced.

``reference_rref`` is the elimination ``exactlinalg.rref`` ran before it
cleared denominators: Gauss-Jordan on Fraction and Quad entries, one
division per pivot row.  The reduced row echelon form is unique, so the
integer path must return the same pivots and the same entries, of the
same types, on matrices over Q and over Q(sqrt d) for the radicands of
the su3(k, l) fields.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gometrics import exactlinalg as ela
from gometrics.scalars import Quad, exact_div

RADICANDS = (7, 13, 21, 39, 57)


def reference_rref(m):
    """Fraction Gauss-Jordan: (rref_rows, pivot_columns)."""
    a = [[Q(x) if isinstance(x, int) else x for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [exact_div(x, pv) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


rational = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def entries(d):
    """int, Fraction and, over Q(sqrt d), Quad entries; zero often."""
    options = [st.just(0), st.integers(-9, 9), rational]
    if d is not None:
        options.append(st.builds(lambda a, b: Quad(a, b, d) if b else a, rational, rational))
    return st.one_of(options)


@st.composite
def matrices(draw, d=None):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    ent = entries(d)
    m = [[draw(ent) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):  # a zero row
        m[draw(st.integers(0, rows - 1))] = [0] * cols
    if draw(st.booleans()):  # a zero column
        c = draw(st.integers(0, cols - 1))
        for row in m:
            row[c] = 0
    if rows >= 2 and draw(st.booleans()):  # a dependent row: rank deficient
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        f = draw(ent)
        m[i] = [x + f * y for x, y in zip(m[j], m[(j + 1) % rows])]
    return m


fields = st.sampled_from((None,) + RADICANDS)


def assert_same(got, want):
    assert got == want
    for row_g, row_w in zip(got, want):
        assert [type(x) for x in row_g] == [type(x) for x in row_w]


@settings(max_examples=300, deadline=None)
@given(fields.flatmap(matrices))
def test_rref_matches_fraction_gauss_jordan(m):
    red, pivots = ela.rref(m)
    ref, ref_pivots = reference_rref(m)
    assert pivots == ref_pivots
    assert_same(red, ref)
    assert all(isinstance(x, (Q, Quad)) for row in red for x in row)


@settings(max_examples=200, deadline=None)
@given(fields.flatmap(matrices), st.data())
def test_solve_rank_and_nullspace_match_the_reference(m, data):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    ref, pivots = reference_rref(m)
    assert ela.rank(m) == len(pivots)
    if rows:
        null = ela.nullspace(m)
        free = [c for c in range(cols) if c not in pivots]
        want = []
        for f in free:
            v = [Q(0)] * cols
            v[f] = Q(1)
            for r, c in enumerate(pivots):
                v[c] = -ref[r][f]
            want.append(v)
        assert_same(null, want)
    # a right-hand side outside the column space when m is rank deficient
    b = data.draw(st.lists(rational, min_size=rows, max_size=rows))
    red, aug_pivots = reference_rref([row + [v] for row, v in zip(m, b)])
    x, rank_m = ela.solve(m, b)
    if cols in aug_pivots:
        assert x is None and rank_m == len(aug_pivots) - 1
    else:
        want = [Q(0)] * cols
        for r, c in enumerate(aug_pivots):
            want[c] = red[r][cols]
        assert_same([x], [want])
        assert rank_m == len(aug_pivots)


def test_inconsistent_right_hand_side_over_a_quadratic_field():
    r = Quad(0, 1, 21)
    m = [[r, 21], [1, r], [0, 0]]  # rank 1: row 0 is sqrt(21) times row 1
    assert ela.solve(m, [Q(1), Q(0), Q(0)]) == (None, 1)
    assert reference_rref([row + [v] for row, v in zip(m, [1, 0, 0])])[1] == [0, 2]
    x, rank_m = ela.solve(m, [r, Q(1), Q(0)])
    assert rank_m == 1 and x == [Q(1), Q(0)]


@pytest.mark.parametrize("d, e", [(7, 13), (21, 57), (39, 7)])
def test_mixed_radicands_raise(d, e):
    m = [[Quad(0, 1, d), Quad(1, 1, e)], [1, 2]]
    with pytest.raises(ValueError, match="mixed radicands"):
        reference_rref(m)
    with pytest.raises(ValueError, match="mixed radicands"):
        ela.rref(m)
    # a zero irrational part carries no radicand
    assert ela.rref([[Quad(0, 1, d), Quad(2, 0, e)]])[1] == [0]
