"""Block-diagonal metric endomorphisms and their symmetry detectors."""

from fractions import Fraction as Q

import numpy as np
import pytest

from gometrics.liealg import Subspace, build_su2, build_su3
from gometrics.metrics import (
    MetricEndomorphism,
    MetricValidationError,
    ModuleDecomposition,
    detect_naturally_reductive,
    is_adapted,
    make_metric,
    max_right_isometry_algebra,
    subalgebra_block_sums,
)
from gometrics.spaces import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    g2_decomposition,
    g2_metric,
)


def su2_axes():
    alg = build_su2()
    blocks = tuple(Subspace.from_indices(alg, (i,), label=f"axis{i}") for i in range(3))
    return alg, ModuleDecomposition(parent=alg, blocks=blocks)


def su3_blocks():
    alg = build_su3(2, 1)
    idx = ((0,), (1,), (2, 3), (4, 5), (6, 7))
    blocks = tuple(Subspace.from_indices(alg, i) for i in idx)
    return alg, ModuleDecomposition(parent=alg, blocks=blocks)


def test_validation_rejects_bad_input():
    alg, dec = su2_axes()
    with pytest.raises(MetricValidationError):
        make_metric(dec, (1, 2))  # wrong arity
    with pytest.raises(MetricValidationError):
        make_metric(dec, (1, -2, 3))
    with pytest.raises(MetricValidationError):
        make_metric(dec, (1.0, 0.0, 1.0))
    with pytest.raises(MetricValidationError, match="finite"):
        make_metric(dec, (1.0, float("inf"), 1.0))
    with pytest.raises(MetricValidationError):
        ModuleDecomposition(parent=alg, blocks=())


def test_decomposition_rejects_overlap_and_nonorthogonal():
    alg = build_su3(2, 1)
    a = Subspace.from_indices(alg, (0, 1))
    b = Subspace.from_indices(alg, (1, 2))
    with pytest.raises(MetricValidationError):
        ModuleDecomposition(parent=alg, blocks=(a, b))
    v = Subspace.from_vectors(alg, [[Q(1)] * 2 + [Q(0)] * 6])
    with pytest.raises(MetricValidationError):
        ModuleDecomposition(parent=alg, blocks=(v, a))


def test_apply_exact_and_float_agree():
    alg, dec = su3_blocks()
    m = make_metric(dec, (Q(2), Q(3), Q(5, 2), Q(1), Q(7)))
    assert m.is_exact
    v = [Q(i - 3) for i in range(8)]
    exact = m.apply(v)
    fl = m.matrix_np @ np.array([float(x) for x in v])
    assert np.abs(np.array([float(x) for x in exact]) - fl).max() < 1e-12


def test_max_right_isometry_su2():
    alg, dec = su2_axes()
    # all distinct: only the zero element commutes with A in ad form
    assert max_right_isometry_algebra(alg, make_metric(dec, (1, 2, 3))).dim == 0
    # one repeated pair: rotation in that plane survives
    assert max_right_isometry_algebra(alg, make_metric(dec, (2, 1, 1))).dim == 1
    # bi-invariant: everything
    assert max_right_isometry_algebra(alg, make_metric(dec, (1, 1, 1))).dim == 3


def test_max_right_isometry_g2_sets():
    dec = g2_decomposition()
    alg = dec.algebra
    assert max_right_isometry_algebra(alg, g2_metric(*EINSTEIN_SET_1)).dim == 14
    k2 = max_right_isometry_algebra(alg, g2_metric(*EINSTEIN_SET_2))
    assert k2.dim == 8
    assert k2.contains_subspace(dec.su3like)
    k3 = max_right_isometry_algebra(alg, g2_metric(*EINSTEIN_SET_3))
    assert k3.dim == 4
    # the kernel for distinct coefficients is the torus plus nothing else
    # from the off-diagonal modules; it is closed under the bracket
    from gometrics.liealg import is_subalgebra

    assert is_subalgebra(alg, k3)


def test_is_adapted():
    dec = g2_decomposition()
    alg = dec.algebra
    m2 = g2_metric(*EINSTEIN_SET_2)
    assert is_adapted(m2, dec.su3like)
    blocks = dec.blocks.blocks
    m3 = g2_metric(*EINSTEIN_SET_3)
    assert is_adapted(m3, blocks[1])  # p2 commutes with every projection
    assert not is_adapted(m3, blocks[2])


def test_subalgebra_block_sums_shapes():
    dec = g2_decomposition()
    sums = subalgebra_block_sums(dec.blocks)
    labels = {s.label for s in sums}
    assert "p1+p2+p5" in labels
    assert "p1+p2+p4" in labels
    dims = [s.dim for s in sums]
    assert dims == sorted(dims, reverse=True)
    assert dims[0] == 14


def test_detect_naturally_reductive_su2():
    alg, dec = su2_axes()
    res = detect_naturally_reductive(alg, make_metric(dec, (Q(2), Q(1), Q(1))))
    assert res.found
    assert res.subalgebra.dim == 1
    assert res.transverse_coefficient == 1
    assert set(res.ideal_coefficients) == {2}
    res = detect_naturally_reductive(alg, make_metric(dec, (Q(1), Q(2), Q(3))))
    assert not res.found


def test_detect_naturally_reductive_g2():
    dec = g2_decomposition()
    alg = dec.algebra
    res = detect_naturally_reductive(alg, g2_metric(*EINSTEIN_SET_2))
    assert res.found
    assert res.subalgebra.dim == 8
    assert res.transverse_coefficient == Q(11, 9)
    assert set(res.ideal_coefficients) == {1}
    res3 = detect_naturally_reductive(alg, g2_metric(*EINSTEIN_SET_3))
    assert not res3.found
    # bi-invariant: the whole algebra qualifies with empty transverse part
    res1 = detect_naturally_reductive(alg, g2_metric(*EINSTEIN_SET_1))
    assert res1.found and res1.subalgebra.dim == 14


def test_metric_gram_is_symmetric_positive():
    alg, dec = su3_blocks()
    m = make_metric(dec, (2.0, 1.0, 1.5, 0.5, 3.0))
    g = alg.inner_np @ m.matrix_np  # g(x, y) = <A x, y>
    assert np.abs(g - g.T).max() < 1e-12
    assert np.linalg.eigvalsh(g).min() > 0
