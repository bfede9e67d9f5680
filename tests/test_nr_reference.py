"""Natural-reductivity detection against the general construction.

``detect_naturally_reductive`` reads each block sum's transverse and
ideal coefficients off the block coefficients.  The reference below is
the general test it replaced: for each block sum h it forms the
orthogonal complement m, checks that A preserves h and acts on m as one
scalar by applying A to every basis vector, and reads the ideal
coefficients vector by vector.  Both must give the same verdict,
subalgebra, coefficients and candidate count.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gometrics import exactlinalg as ela
from gometrics.cli import build_target
from gometrics.metrics import (
    detect_naturally_reductive,
    is_adapted,
    max_right_isometry_algebra,
    subalgebra_block_sums,
)
from gometrics.scalars import exact_div
from gometrics.spaces import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    g2_decomposition,
    g2_metric,
)


def _coefficient_of(metric, v):
    """The coefficient of the block containing v; None if v straddles."""
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        if block.contains(v):
            return a
    return None


def reference_detect(L, metric):
    """(found, subalgebra, transverse, ideal, checked) by the general test."""
    exact = metric.is_exact
    tol = 0 if exact else 1e-10

    def vanishes(vec):
        if exact:
            return ela.vec_is_zero(vec)
        return max(abs(float(x)) for x in vec) <= tol

    checked = 0
    for h in subalgebra_block_sums(metric.decomposition):
        checked += 1
        m = h.orthogonal_complement()
        if not all(vanishes(m.project(metric.apply(b))) for b in h.basis):
            continue
        x = None
        ok = True
        for b in m.basis:
            img = metric.apply(b)
            c = exact_div(L.inner_product(img, b), L.inner_product(b, b))
            if not vanishes([u - c * v for u, v in zip(img, b)]):
                ok = False
                break
            if x is None:
                x = c
            elif exact:
                if x != c:
                    ok = False
                    break
            elif abs(float(x) - float(c)) > tol * max(1.0, abs(float(x))):
                ok = False
                break
        if not ok:
            continue
        if exact:
            if not max_right_isometry_algebra(L, metric).contains_subspace(h):
                continue
        elif not is_adapted(metric, h):
            continue
        ideal = tuple(
            _coefficient_of(metric, b) for b in h.basis if _coefficient_of(metric, b) is not None
        )
        return True, h, x, ideal, checked
    return False, None, None, (), checked


def assert_matches_reference(L, metric):
    res = detect_naturally_reductive(L, metric)
    found, h, x, ideal, checked = reference_detect(L, metric)
    assert res.found == found
    assert res.subalgebra is h
    assert res.ideal_coefficients == ideal
    assert res.checked == checked
    if metric.is_exact or x is None:
        assert res.transverse_coefficient == x
    else:
        # the reference reads x as a float Rayleigh quotient <A b, b> / <b, b>
        assert abs(res.transverse_coefficient - x) <= 1e-12 * abs(x)
    return res


G2_CASES = [
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    tuple(Q(c) for c in (1, 2, 3, 4, 5)),
    tuple(float(c) for c in EINSTEIN_SET_2),
    (1.0, 1.0, 1.0, 1.0, 1.0),
]


@pytest.mark.parametrize("coeffs", G2_CASES)
def test_g2_metrics_match_reference(coeffs):
    dec = g2_decomposition()
    assert_matches_reference(dec.algebra, g2_metric(*coeffs, decomposition=dec))


def test_g2_set3_corners_match_reference():
    dec = g2_decomposition()
    for k in range(32):
        signs = [1.0 if k >> i & 1 else -1.0 for i in range(5)]
        pert = [c + s * 1e-6 for c, s in zip(EINSTEIN_SET_3, signs)]
        res = assert_matches_reference(dec.algebra, g2_metric(*pert, decomposition=dec))
        assert not res.found


@pytest.mark.parametrize(
    "space,coeffs",
    [
        ("lie:su3", (1, 1, 1, 2, 2)),
        ("lie:su3", (1, 2, 3, 4, 5)),
        ("lie:su3", (1, 1, 2, 2, 2)),
        ("lie:su3", (2, 2, 2, 2, 2)),
        ("lie:su2", (2, 1, 1)),
        ("lie:su2", (1, 1, 1)),
        ("lie:su2", (1, 2, 3)),
    ],
)
def test_group_targets_match_reference(space, coeffs):
    L, metric = build_target(space, [Q(c) for c in coeffs])
    assert_matches_reference(L, metric)


# few values, so that coefficients repeat and many block sums qualify
_VALUES = st.sampled_from([Q(1), Q(2), Q(11, 9), Q(1, 3)])


@given(space=st.sampled_from(["lie:g2", "lie:su3"]), coeffs=st.lists(_VALUES, min_size=5, max_size=5))
@settings(max_examples=30, deadline=None)
def test_repeated_rational_coefficients_match_reference(space, coeffs):
    L, metric = build_target(space, coeffs)
    assert_matches_reference(L, metric)
