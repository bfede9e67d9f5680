"""Compiled geodesic systems, exact ``apply`` and exact sampling against
the per-call computations they replaced.

``reference_system`` is the builder the four GO formulations used before
their systems were compiled: one bracket per generator and one for the
right-hand side, each paired with the formulation's pairing basis.
``reference_apply`` projects onto every block, and ``reference_samples``
adds c * b over every entry of each ambient basis vector.  Exact results
must be equal entry for entry, of the same types; float systems must
agree to 1e-12 relative to the largest entry.
"""

from fractions import Fraction as Q

import numpy as np
import pytest

from gometrics import cli
from gometrics.gocheck import sample_tangent_vectors
from gometrics.liealg import Subspace, centralizer
from gometrics.metrics import make_metric, max_right_isometry_algebra
from gometrics.spaces import (
    EINSTEIN_SET_2,
    aloff_wallach,
    aw_extended_presentation,
    aw_metric,
    g2_decomposition,
    g2_metric,
)


def reference_system(L, ax, X, generators, pair):
    cols = [pair(L.bracket(ax, w)) for w in generators]
    rhs = [-v for v in pair(L.bracket(ax, X))]
    rows = [[c[i] for c in cols] for i in range(len(rhs))]
    return rows, rhs


def reference_apply(metric, v):
    out = [Q(0)] * metric.parent.dim
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        p = block.project(v)
        out = [x + a * y for x, y in zip(out, p)]
    return out


def reference_samples(decomposition, count, seed):
    rng = np.random.default_rng(seed)
    amb = decomposition.ambient
    out = []
    for _ in range(count):
        v = [Q(0)] * decomposition.parent.dim
        nonzero = False
        for b in amb.basis:
            c = int(rng.integers(-9, 10))
            if c:
                nonzero = True
                v = [x + Q(c) * y for x, y in zip(v, b)]
        if not nonzero:
            v = [x + y for x, y in zip(v, amb.basis[0])]
        out.append(v)
    return out


def _pairing(L, basis):
    return lambda v: [L.inner_product(v, y) for y in basis]


def _cases(coeffs):
    """(name, system, algebra, generators, pairing, metric, directions) of
    the four formulations on W[2,1] and W[5,2], and the group case on G2
    and su3."""
    out = []
    exact = all(isinstance(c, Q) for c in coeffs)
    for pair in ((2, 1), (5, 2)):
        aw = aloff_wallach(*pair)
        L, space = aw.algebra, aw.space
        h, m = space.isotropy, space.complement
        metric = aw_metric(aw, *coeffs)
        xs = sample_tangent_vectors(aw.blocks, 4, seed=1, exact=exact)
        ext = aw_extended_presentation(aw, *coeffs)
        out.append((
            "direct", ext.space.geodesic_system(), ext.algebra, ext.space.isotropy.basis,
            _pairing(ext.algebra, ext.space.complement.basis), ext.metric,
            [ext.lift(x) for x in xs],
        ))
        axis = Subspace.from_indices(L, (1,), label="axis")
        out.append((
            "reduced", space.geodesic_system(axis), L, h.basis + axis.basis,
            _pairing(L, m.basis), metric, xs,
        ))
        cm = centralizer(L, h).intersect(m)
        out.append((
            "normal_transitive", space.normal_transitive_system, L, h.basis + cm.basis,
            _pairing(L, h.orthogonal_complement().basis), metric, xs,
        ))
    dec = g2_decomposition()
    g2 = dec.algebra, g2_metric(*EINSTEIN_SET_2, decomposition=dec)
    su3 = cli.build_target("lie:su3", (Q(1), Q(2), Q(3), Q(4), Q(5)))
    for L, metric in (g2, su3):
        if not exact:
            metric = make_metric(metric.decomposition, [a * 1.0 for a in metric.coefficients])
        kernel = max_right_isometry_algebra(L, metric)
        xs = sample_tangent_vectors(metric.decomposition, 4, seed=2, exact=exact)
        out.append(("lie_group", kernel.bracket_system, L, kernel.basis, list, metric, xs))
    return out


def test_exact_systems_match_the_bracket_and_pair_builder():
    cases = _cases((Q(1), Q(2), Q(3), Q(1, 2)))
    assert sorted({c[0] for c in cases}) == ["direct", "lie_group", "normal_transitive", "reduced"]
    for name, system, L, gens, pair, metric, xs in cases:
        for x in xs:
            ax = metric.apply(x)
            rows, rhs = system.equations(ax, x)
            want_rows, want_rhs = reference_system(L, ax, x, gens, pair)
            assert (rows, rhs) == (want_rows, want_rhs), name
            got = [type(v) for row in rows + [rhs] for v in row]
            assert got == [type(v) for row in want_rows + [want_rhs] for v in row], name


def test_float_systems_match_the_bracket_and_pair_builder():
    for name, system, L, gens, pair, metric, xs in _cases((1.0, 2.0, 3.0, 0.5)):
        for x in xs:
            ax = metric.apply(x)
            rows, rhs = system.equations(ax, x)
            want_rows, want_rhs = reference_system(L, ax, x, gens, pair)
            for got, want in ((rows, want_rows), (rhs, want_rhs)):
                want = np.array(want, dtype=float)
                scale = float(np.abs(want).max(initial=0.0))
                assert np.abs(np.asarray(got) - want).max(initial=0.0) <= 1e-12 * scale, name


def test_exact_apply_matches_the_projection_loop():
    dec = g2_decomposition()
    aw = aloff_wallach(5, 2)
    ext = aw_extended_presentation(aw, Q(1), Q(2), Q(3), Q(4))
    metrics = [
        g2_metric(*EINSTEIN_SET_2, decomposition=dec),
        g2_metric(1, 2, 3, 4, 5, decomposition=dec),
        aw_metric(aw, Q(1, 2), Q(3), Q(1), Q(7, 3)),
        ext.metric,
        cli.build_target("lie:su3", (Q(1), Q(1), Q(1), Q(2), Q(2)))[1],
    ]
    for metric in metrics:
        n = metric.parent.dim
        vecs = sample_tangent_vectors(metric.decomposition, 3, seed=4, exact=True)
        vecs.append([Q(i + 1, 3) for i in range(n)])  # leaves the ambient span for W[5,2]
        for v in vecs:
            got, want = metric.apply(v), reference_apply(metric, v)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("seed", range(5))
def test_exact_samples_match_the_dense_loop(seed):
    decs = [g2_decomposition().blocks, aloff_wallach(2, 1).blocks, aloff_wallach(5, 2).blocks]
    decs.append(aw_extended_presentation(aloff_wallach(2, 1), 1, 1, 1, 1).blocks)
    for dec in decs:
        got = sample_tangent_vectors(dec, 6, seed=seed, exact=True)
        want = reference_samples(dec, 6, seed)
        assert got == want
        assert [type(x) for v in got for x in v] == [type(x) for v in want for x in v]

