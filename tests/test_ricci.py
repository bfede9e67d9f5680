"""Ricci tensor and Einstein checks against closed-form oracles."""

import json
import math
import os
import random
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest

from gometrics import ricci
from gometrics import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    ModuleDecomposition,
    Subspace,
    build_su2,
    build_su3,
    einstein_check,
    g2_decomposition,
    g2_metric,
    make_metric,
    ricci_left_invariant,
)

SU2 = build_su2()


def su2_metric(a1, a2, a3):
    blocks = [
        Subspace.from_indices(SU2, [i], label=f"axis{i}") for i in range(3)
    ]
    dec = ModuleDecomposition(parent=SU2, blocks=tuple(blocks))
    return make_metric(dec, [a1, a2, a3])


def su2_ricci_oracle(a1, a2, a3):
    """Diagonal Ricci entries in the metric-orthonormal frame.

    With pairwise-orthogonal axes of equal bi-invariant length, a frame
    vector f_i = e_i / sqrt(g(e_i, e_i)) turns the brackets into
    [f_i, f_j] = lam_k f_k with lam_k = nu * sqrt(a_k / (a_i a_j)), and
    the sectional data collapses to a closed form in the three lam's.
    """
    nu = 1.0 / math.sqrt(2.0)
    a = [float(a1), float(a2), float(a3)]
    lam = [nu * math.sqrt(a[i] / (a[(i + 1) % 3] * a[(i + 2) % 3])) for i in range(3)]
    return [
        0.5 * (lam[i] ** 2 - (lam[(i + 1) % 3] - lam[(i + 2) % 3]) ** 2)
        for i in range(3)
    ]


@pytest.mark.parametrize(
    "coeffs",
    [
        (Q(1), Q(1), Q(1)),
        (Q(2), Q(1), Q(1)),
        (Q(1), Q(2), Q(3)),
        (Q(3, 2), Q(5, 7), Q(4)),
    ],
)
def test_su2_ricci_matches_closed_form(coeffs):
    res = ricci_left_invariant(SU2, su2_metric(*coeffs))
    want = su2_ricci_oracle(*coeffs)
    assert np.allclose(np.diag(res.ricci_on), want, atol=1e-12)
    off = res.ricci_on - np.diag(np.diag(res.ricci_on))
    assert np.max(np.abs(off)) <= 1e-12


def test_su2_float_metric_agrees_with_exact():
    exact = ricci_left_invariant(SU2, su2_metric(Q(1), Q(2), Q(3)))
    approx = ricci_left_invariant(SU2, su2_metric(1.0, 2.0, 3.0))
    assert np.allclose(exact.ricci_on, approx.ricci_on, atol=1e-10)
    assert exact.ricci_exact is not None
    assert approx.ricci_exact is None


def test_su2_round_metric_is_einstein_quarter():
    chk = einstein_check(SU2, su2_metric(Q(1), Q(1), Q(1)))
    assert chk.is_einstein and chk.decided_exactly
    assert abs(chk.einstein_constant - 0.25) <= 1e-15
    assert chk.deviation <= 1e-15


def test_su2_squashed_metric_not_einstein():
    # diag(1, 1, c): the two Ricci eigenvalues are c/4 and (2 - c)/4,
    # so only c = 1 closes the gap.
    chk = einstein_check(SU2, su2_metric(Q(1), Q(1), Q(2)))
    assert not chk.is_einstein
    assert chk.decided_exactly
    d = np.diag(chk.ricci.ricci_on)
    assert np.allclose(sorted(d), [0.0, 0.0, 0.5], atol=1e-12)


def test_biinvariant_killing_metric_is_quarter_einstein_g2():
    dec = g2_decomposition()
    # -B is the ambient pairing here, so the identity endomorphism is
    # the bi-invariant metric itself.
    chk = einstein_check(dec.algebra, g2_metric(1, 1, 1, 1, 1, dec))
    assert chk.is_einstein and chk.decided_exactly
    assert abs(chk.einstein_constant - 0.25) <= 1e-12
    n = dec.algebra.dim
    assert np.allclose(chk.ricci.ricci_on, 0.25 * np.eye(n), atol=1e-12)


def test_biinvariant_killing_metric_is_quarter_einstein_su3():
    L = build_su3(2, 1)
    blocks = [
        Subspace.from_indices(L, [0], label="z"),
        Subspace.from_indices(L, [1], label="x0"),
        Subspace.from_indices(L, [2, 3], label="m1"),
        Subspace.from_indices(L, [4, 5], label="m2"),
        Subspace.from_indices(L, [6, 7], label="m3"),
    ]
    dec = ModuleDecomposition(parent=L, blocks=tuple(blocks))
    # ambient pairing is -Killing/12, so coefficient 12 everywhere makes
    # the metric equal to -Killing.
    scale = 1 / L.lambda_minus_b
    assert scale == 12
    chk = einstein_check(L, make_metric(dec, [scale] * 5))
    assert chk.is_einstein and chk.decided_exactly
    assert abs(chk.einstein_constant - 0.25) <= 1e-12


def test_einstein_constant_scales_inversely_with_metric():
    # Ricci is scale-invariant as a bilinear form, so scaling the metric
    # by c divides the orthonormal-frame constant by c.
    L = build_su3(2, 1)
    blocks = [Subspace.from_indices(L, [i], label=str(i)) for i in range(L.dim)]
    dec = ModuleDecomposition(parent=L, blocks=tuple(blocks))
    one = einstein_check(L, make_metric(dec, [Q(1)] * L.dim))
    twelve = einstein_check(L, make_metric(dec, [Q(12)] * L.dim))
    assert one.is_einstein and twelve.is_einstein
    assert abs(one.einstein_constant - 12 * twelve.einstein_constant) <= 1e-12


def test_g2_second_einstein_set_exact():
    dec = g2_decomposition()
    chk = einstein_check(dec.algebra, g2_metric(*EINSTEIN_SET_2, dec))
    assert chk.is_einstein and chk.decided_exactly
    assert chk.deviation <= 1e-15
    # constant distinct from the bi-invariant one
    assert abs(chk.einstein_constant - 0.25) > 1e-3


def test_g2_third_einstein_set_numerical():
    dec = g2_decomposition()
    chk = einstein_check(dec.algebra, g2_metric(*EINSTEIN_SET_3, dec), tolerance=1e-5)
    assert chk.is_einstein
    assert not chk.decided_exactly
    assert chk.deviation <= 1e-7
    tight = einstein_check(
        dec.algebra, g2_metric(*EINSTEIN_SET_3, dec), tolerance=1e-12
    )
    assert not tight.is_einstein


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4])
def test_float_einstein_verdict_is_scale_free(scale):
    # Einstein is a property of the metric up to scale: the deviation is
    # judged relative to |c|, while the reported deviation stays absolute
    dec = g2_decomposition()
    for base, want in ((EINSTEIN_SET_3, True), ((1, 2, 3, 4, 5), False)):
        unit = einstein_check(dec.algebra, g2_metric(*map(float, base), dec), tolerance=1e-5)
        chk = einstein_check(
            dec.algebra, g2_metric(*(float(c) * scale for c in base), dec), tolerance=1e-5
        )
        assert chk.is_einstein == unit.is_einstein == want
        assert not chk.decided_exactly
        assert chk.deviation == pytest.approx(unit.deviation / scale, rel=1e-6)
        assert chk.einstein_constant == pytest.approx(unit.einstein_constant / scale, rel=1e-9)


def test_g2_generic_metric_not_einstein():
    dec = g2_decomposition()
    chk = einstein_check(dec.algebra, g2_metric(1, 2, 3, 4, 5, dec))
    assert not chk.is_einstein
    assert chk.decided_exactly
    assert chk.deviation > 1e-3


def test_ricci_on_is_symmetric():
    dec = g2_decomposition()
    res = ricci_left_invariant(dec.algebra, g2_metric(*EINSTEIN_SET_3, dec))
    assert np.allclose(res.ricci_on, res.ricci_on.T, atol=1e-12)


def test_scalar_curvature_is_trace():
    res = ricci_left_invariant(SU2, su2_metric(Q(1), Q(2), Q(3)))
    assert abs(res.scalar_curvature - float(np.trace(res.ricci_on))) <= 1e-12


def test_einstein_check_json_round_trip():
    chk = einstein_check(SU2, su2_metric(Q(1), Q(1), Q(1)))
    doc = chk.to_json_dict()
    assert doc["schema"] == "1" and doc["kind"] == "einstein-check"
    assert doc["is_einstein"] is True and doc["decided_exactly"] is True
    json.dumps(doc)


def park_sakane_ricci(L, blocks, x):
    """r_k with Ric = r_k g on block k, for the background -B (Park-Sakane
    1997): r_k = 1/(2 x_k) + (1/(4 d_k)) sum_ij [ijk] x_k/(x_i x_j)
    - (1/(2 d_k)) sum_ij [kij] x_j/(x_k x_i), where [ijk] sums
    <[e_a, e_b], e_c>^2 / (|e_a|^2 |e_b|^2 |e_c|^2) over the block bases."""
    r = range(len(blocks))

    def squared(u, v, w):
        s = L.inner_product(L.bracket(u, v), w)  # Quad has no **
        return s * s / (L.inner_product(u, u) * L.inner_product(v, v) * L.inner_product(w, w))

    triple = {
        (i, j, k): sum(
            (
                squared(u, v, w)
                for u in blocks[i].basis
                for v in blocks[j].basis
                for w in blocks[k].basis
            ),
            Q(0),
        )
        for i in r
        for j in r
        for k in r
    }
    out = []
    for k in r:
        d = blocks[k].dim
        out.append(
            1 / (2 * x[k])
            + sum(triple[i, j, k] * x[k] / (x[i] * x[j]) for i in r for j in r) / (4 * d)
            - sum(triple[k, i, j] * x[j] / (x[k] * x[i]) for i in r for j in r) / (2 * d)
        )
    return out


@pytest.mark.parametrize("seed", range(3))
def test_g2_ricci_matches_park_sakane_block_formula(seed):
    rng = random.Random(seed)
    x = [Q(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(5)]
    dec = g2_decomposition()
    res = ricci_left_invariant(dec.algebra, g2_metric(*x, dec))
    ric, grams = res.ricci_exact, res.gram_exact
    n = dec.algebra.dim
    assert all(not ric[a][b] for a in range(n) for b in range(n) if a != b)
    want = park_sakane_ricci(dec.algebra, dec.blocks.blocks, x)
    owner = [k for k, block in enumerate(dec.blocks.blocks) for _ in block.basis]
    assert [ric[a][a] / grams[a] for a in range(n)] == [want[k] for k in owner]


def test_ricci_keeps_no_numpy_memory_alive_across_calls():
    # Distinct rescalings of set 3, so that no value repeats.  Only blocks
    # that numpy allocates under a ricci.py frame are read: the
    # interpreter's free lists keep a bounded number of recycled floats,
    # lists and tuples traced at whatever line first allocated them.
    dec = g2_decomposition()
    metrics = [
        g2_metric(*(c * (1 + k / 1000) for c in EINSTEIN_SET_3), decomposition=dec)
        for k in range(105)
    ]
    for metric in metrics[:5]:
        ricci_left_invariant(dec.algebra, metric)
    in_ricci = [tracemalloc.Filter(True, ricci.__file__, all_frames=True)]
    in_numpy = [tracemalloc.Filter(True, os.path.join(os.path.dirname(np.__file__), "*"))]
    tracemalloc.start(25)
    try:
        before = tracemalloc.take_snapshot().filter_traces(in_ricci).filter_traces(in_numpy)
        for metric in metrics[5:]:
            ricci_left_invariant(dec.algebra, metric)
        after = tracemalloc.take_snapshot().filter_traces(in_ricci).filter_traces(in_numpy)
    finally:
        tracemalloc.stop()
    grown = [d for d in after.compare_to(before, "traceback") if d.size_diff > 0]
    assert not grown, [f"{d.traceback[-1]}: {d.size_diff:+} B" for d in grown[:3]]
