"""Field arithmetic in Q(sqrt(D)): closure, exactness, ordering."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gometrics.scalars import (
    Quad,
    exact_div,
    exact_sqrt,
    format_scalar,
    is_exact,
    squarefree_decompose,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
small_ints = st.integers(min_value=-30, max_value=30)


def quad(a, b, d=21):
    return Quad(a, b, d)


def test_squarefree_decompose_basics():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(4) == (2, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(84) == (2, 21)
    assert squarefree_decompose(49 * 5) == (7, 5)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


@given(st.integers(min_value=1, max_value=100000))
def test_squarefree_decompose_reconstructs(n):
    s, d = squarefree_decompose(n)
    assert s * s * d == n
    # d squarefree: no prime square divides it
    p = 2
    while p * p <= d:
        assert d % (p * p) != 0
        p += 1


def test_quad_requires_honest_radicand():
    with pytest.raises(ValueError):
        Quad(1, 1, 1)
    with pytest.raises(ValueError):
        Quad(1, 1, 0)


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(ValueError):
        quad(0, 1, 21) + quad(0, 1, 57)
    # a rational-valued Quad can cross fields freely
    assert quad(3, 0, 21) + quad(0, 1, 57) == quad(3, 1, 57)


@given(rationals, rationals, rationals, rationals)
def test_quad_field_laws(a, b, c, e):
    x = quad(a, b)
    y = quad(c, e)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    assert x * (y + quad(1, 0)) == x * y + x
    if y:
        assert (x * y) / y == x


@given(rationals, rationals)
def test_quad_float_agrees(a, b):
    x = quad(a, b)
    assert float(x) == pytest.approx(float(a) + float(b) * 21 ** 0.5, abs=1e-9)


@given(rationals, rationals)
def test_quad_sign_matches_float(a, b):
    x = quad(a, b)
    s = x.sign()
    f = float(x)
    if abs(f) > 1e-9:
        assert s == (1 if f > 0 else -1)
    assert (x > 0) == (s > 0)
    assert abs(x).sign() >= 0


@given(rationals, rationals, small_ints)
def test_quad_int_interop_stays_exact(a, b, n):
    x = quad(a, b)
    assert is_exact(x + n) and is_exact(x * n) and is_exact(n - x)
    if n:
        assert is_exact(x / n)
    if x:
        y = n / x
        assert is_exact(y)
        assert y * x == n


def test_rational_results_demote_to_fraction_not_int():
    # (sqrt(21))^2 = 21 must come back as an exact rational, never int,
    # so that a later result / result keeps exact division semantics
    r = quad(0, 1) * quad(0, 1)
    assert isinstance(r, Q)
    assert r == 21
    assert isinstance(quad(2, 1) - quad(0, 1), Q)
    assert isinstance((quad(0, 1) / quad(0, 1)), Q)


@given(small_ints, small_ints)
def test_exact_div_never_floats(p, q_):
    if q_ == 0:
        return
    r = exact_div(p, q_)
    assert isinstance(r, Q)
    assert r == Q(p, q_)


def test_exact_div_quad_operands():
    assert exact_div(quad(0, 1), quad(0, 1)) == 1
    assert exact_div(4, quad(2, 0)) == 2
    assert exact_div(Q(3, 2), 3) == Q(1, 2)


def test_exact_sqrt_cases():
    assert exact_sqrt(Q(9, 4)) == Q(3, 2)
    assert exact_sqrt(0) == 0
    r = exact_sqrt(Q(1, 21), 21)
    assert r == Quad(0, Q(1, 21), 21)
    assert r * r == Q(1, 21)
    with pytest.raises(ValueError):
        exact_sqrt(2)
    with pytest.raises(ValueError):
        exact_sqrt(-1)


def test_format_and_parse():
    assert format_scalar(Q(11, 9)) == "11/9"
    assert format_scalar(5) == "5"
    assert format_scalar(quad(0, Q(2, 21))) == "0+2/21*sqrt(21)"
    assert format_scalar(quad(1, Q(-5, 42))) == "1-5/42*sqrt(21)"
    assert format_scalar(quad(7, 0)) == "7"
    assert format_scalar(0.5) == "0.5"


def test_scalar_sign():
    # 2*sqrt(21) dominates 5, sqrt(21) does not
    assert quad(-5, 2).sign() == 1
    assert quad(-5, 1).sign() == -1
    assert quad(5, -1).sign() == 1


def test_quad_equality_and_hash():
    assert quad(Q(1, 2), 0) == Q(1, 2)
    assert hash(quad(Q(1, 2), 0)) == hash(Q(1, 2))
    assert quad(1, 1) != quad(1, 1, 57)
    assert quad(3, 0, 21) == quad(3, 0, 57)


def test_quad_refuses_float_operands():
    # float work converts with float() first; a Quad never rounds silently
    x = quad(1, Q(1, 3))  # 1 + sqrt(21)/3
    operations = (
        lambda: x * 2.0,
        lambda: 2.0 * x,
        lambda: x + 0.5,
        lambda: 0.5 - x,
        lambda: x / 2.0,
        lambda: 1.0 / x,
        lambda: x < 4.5,
        lambda: 4.5 >= x,
    )
    for op in operations:
        with pytest.raises(TypeError):
            op()
