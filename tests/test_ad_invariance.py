"""Subspace constructions that use ad-invariance against direct references.

``max_right_isometry_algebra`` and ``normalizer`` pair [e_i, u] with w as
<e_i, [u, w]>, ``centralizer`` reads the adjoint matrices, and
``center`` is the Killing kernel.  The references below bracket every
unit vector and pair the result, or read the dense structure tensor, as
the direct definitions do; both must give the same exact bases.
"""

from fractions import Fraction as Q

import pytest

from gometrics import exactlinalg as ela
from gometrics.cli import build_target
from gometrics.liealg import Subspace, centralizer, normalizer
from gometrics.metrics import max_right_isometry_algebra
from gometrics.spaces import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    aloff_wallach,
    aw_extended_presentation,
    g2_decomposition,
    g2_metric,
)


def _unit(n, i):
    e = [Q(0)] * n
    e[i] = Q(1)
    return e


def _bracket_rows(L, pairs):
    """Rows [<[e_i, u], w> for i] for each (u, w)."""
    n = L.dim
    rows = []
    for u, w in pairs:
        cols = [L.bracket(_unit(n, i), u) for i in range(n)]
        rows.append([L.inner_product(c, w) for c in cols])
    return rows


def _solutions(L, rows):
    """{x : r . x = 0 for every row r}, all of g when there are no rows."""
    if not rows:
        return Subspace.from_indices(L, range(L.dim))
    return Subspace.from_vectors(L, ela.nullspace(rows))


def reference_kernel(L, metric):
    groups = {}
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        groups.setdefault(a, []).extend(block.basis)
    eig = list(groups.values())
    pairs = [
        (u, w)
        for a, ea in enumerate(eig)
        for b, eb in enumerate(eig)
        if a != b
        for u in ea
        for w in eb
    ]
    return _solutions(L, _bracket_rows(L, pairs))


def reference_normalizer(L, p):
    comp = p.orthogonal_complement()
    return _solutions(L, _bracket_rows(L, [(b, w) for b in p.basis for w in comp.basis]))


def reference_centralizer(L, p):
    n = L.dim
    rows = [
        [sum((L.structure[i][j][k] * b[j] for j in range(n)), Q(0)) for i in range(n)]
        for b in p.basis
        for k in range(n)
    ]
    return _solutions(L, rows)


def reference_center(L):
    n = L.dim
    rows = [[L.structure[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    return Subspace.from_vectors(L, ela.nullspace(rows))


def assert_subspaces_match(L, subspaces):
    assert L.center.basis == reference_center(L).basis
    for p in subspaces:
        assert centralizer(L, p).basis == reference_centralizer(L, p).basis
        assert normalizer(L, p).basis == reference_normalizer(L, p).basis


def _g2_corner():
    signs = (1, -1, 1, -1, 1)
    return tuple(c + s * 1e-6 for c, s in zip(EINSTEIN_SET_3, signs))


@pytest.mark.parametrize(
    "coeffs",
    [EINSTEIN_SET_1, EINSTEIN_SET_2, EINSTEIN_SET_3, _g2_corner()],
    ids=["set1", "set2", "set3", "corner"],
)
def test_g2_kernel_matches_reference(coeffs):
    dec = g2_decomposition()
    L = dec.algebra
    metric = g2_metric(*coeffs, decomposition=dec)
    kernel = max_right_isometry_algebra(L, metric)
    assert kernel.basis == reference_kernel(L, metric).basis
    assert_subspaces_match(L, [kernel, dec.block(2), dec.su3like])


@pytest.mark.parametrize("coeffs", [(1, 1, 1, 2, 2), (1, 2, 3, 4, 5)])
def test_su3_kernel_matches_reference(coeffs):
    L, metric = build_target("lie:su3", tuple(Q(c) for c in coeffs))
    kernel = max_right_isometry_algebra(L, metric)
    assert kernel.basis == reference_kernel(L, metric).basis
    assert_subspaces_match(L, [kernel] + list(metric.decomposition.blocks))


def test_aloff_wallach_isotropy_matches_reference():
    space = aloff_wallach(2, 1).space
    assert_subspaces_match(space.algebra, [space.isotropy, space.complement])


def test_extended_presentation_matches_reference():
    ext = aw_extended_presentation(aloff_wallach(2, 1), Q(1), Q(2), Q(3), Q(4))
    L = ext.algebra
    assert L.center.dim == 1
    assert_subspaces_match(L, [ext.space.isotropy, ext.space.complement])


def test_lower_pairs_like_the_inner_product():
    cases = [
        build_target("lie:su3", (Q(1),) * 5)[0],
        g2_decomposition().algebra,
        aw_extended_presentation(aloff_wallach(2, 1), Q(1), Q(2), Q(3), Q(4)).algebra,
    ]
    for L in cases:
        n = L.dim
        vectors = [[Q((3 * i + s) % 7 - 3, 1 + i % 2) for i in range(n)] for s in range(3)]
        vectors.append(_unit(n, n - 1))
        for v in vectors:
            for x in vectors:
                assert ela.dot(L.lower(v), x) == L.inner_product(x, v)

