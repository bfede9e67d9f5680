"""Homogeneous-space constructions: the SU(3)/S^1 family and the
five-block splitting of the compact exceptional algebra."""

import itertools
import json
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gometrics import (
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    ClassificationRefused,
    Subspace,
    aloff_wallach,
    aw_extended_presentation,
    aw_go_classify,
    aw_metric,
    aw_obstruction,
    aw_symbolic_go_witness,
    g2_block_bracket_csv,
    g2_decomposition,
    g2_metric,
    go_feasible_direct,
    go_feasible_normal_transitive,
    go_feasible_reduced,
    is_subalgebra,
    module_product,
    reproduce_main_theorem,
)
from gometrics import exactlinalg as ela
from gometrics.metrics import MetricValidationError, ModuleDecomposition
from gometrics.liealg import CompactLieAlgebra
from gometrics.scalars import format_scalar
from gometrics.spaces import _aw_ambient, _killing_profile

from test_structure_table_reference import reference_ad_matrix

AW = aloff_wallach(2, 1)


def tangent_points_low_degree(n=7):
    """Unit vectors plus all sums needed to pin a cubic polynomial map."""
    pts = []
    for i in range(n):
        e = [Q(0)] * n
        e[i] = Q(1)
        pts.append(e)
    for i, j in itertools.combinations(range(n), 2):
        e = [Q(0)] * n
        e[i], e[j] = Q(1), Q(1)
        pts.append(e)
        e2 = [Q(0)] * n
        e2[i], e2[j] = Q(1), Q(2)
        pts.append(e2)
        e3 = [Q(0)] * n
        e3[i], e3[j] = Q(2), Q(1)
        pts.append(e3)
    for i, j, k in itertools.combinations(range(n), 3):
        e = [Q(0)] * n
        e[i], e[j], e[k] = Q(1), Q(1), Q(1)
        pts.append(e)
    pts.append([Q(1, 2), Q(-2, 3), Q(3), Q(-1, 5), Q(7, 2), Q(-1), Q(4, 7)])
    pts.append([Q(3), Q(1, 7), Q(-5, 2), Q(2), Q(0), Q(9, 4), Q(-1, 3)])
    return pts


def plane_cubic(a):
    """The cubic invariant of the plane coordinates (a1..a6)."""
    return a[2] * a[4] * a[5] - a[2] * a[3] * a[6] + a[1] * a[3] * a[5] + a[1] * a[4] * a[6]


# --------------------------------------------------------------- family


def test_aloff_wallach_basic_data():
    assert (AW.k, AW.l, AW.m) == (2, 1, -3)
    assert AW.L_val == 14
    assert AW.algebra.dim == 8
    assert AW.algebra.field_d == 21
    assert [b.dim for b in AW.blocks.blocks] == [2, 2, 2, 1]
    assert AW.space.is_orthogonal
    # f is the square root of 2 / (3 L)
    f2 = AW.f * AW.f
    assert f2 == Q(2, 3 * AW.L_val)


@pytest.mark.parametrize(
    "k,l", [(0, 1), (-1, 2), (2, 4), (0, 0), (1, 2)]
)
def test_aloff_wallach_rejects_bad_weights(k, l):
    with pytest.raises(ValueError):
        aloff_wallach(k, l)


def test_aloff_wallach_rejects_bool_weights():
    with pytest.raises(ValueError):
        aloff_wallach(True, 1)


def test_classification_refuses_special_weights():
    with pytest.raises(ClassificationRefused):
        aw_go_classify(1, 0)
    with pytest.raises(ClassificationRefused):
        aw_go_classify(1, 1)


# ----------------------------------------------------------- obstruction


def test_obstruction_matches_cubic_formula_on_spanning_points():
    # each component is a fixed multiple of one cubic polynomial, so
    # agreement on a degree-3 spanning family plus random rational
    # points pins the identity
    x1, x2, x3 = Q(3), Q(5, 2), Q(7)
    for a in tangent_points_low_degree():
        o = aw_obstruction(AW, x1, x2, x3, a)
        p = plane_cubic([Q(0)] + a[1:])
        want = ((x2 - x3) * p, (x3 - x1) * p, (x1 - x2) * p)
        assert o == want


def test_obstruction_ignores_axis_coordinate():
    x1, x2, x3 = Q(1), Q(2), Q(4)
    base = [Q(0), Q(1), Q(2), Q(3), Q(-1), Q(1), Q(-2)]
    moved = [Q(9)] + base[1:]
    assert aw_obstruction(AW, x1, x2, x3, base) == aw_obstruction(AW, x1, x2, x3, moved)


def test_obstruction_vanishes_for_equal_plane_coefficients():
    probe = (Q(0), Q(1), Q(0), Q(1), Q(0), Q(1), Q(0))
    assert aw_obstruction(AW, Q(2), Q(2), Q(2), probe) == (Q(0), Q(0), Q(0))
    o = aw_obstruction(AW, Q(1), Q(2), Q(3), probe)
    assert o == (Q(-1), Q(2), Q(-1))  # cubic equals 1 at the probe


@given(
    coords=st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    coeffs=st.tuples(
        st.sampled_from([Q(1), Q(2), Q(3), Q(1, 2), Q(5, 3)]),
        st.sampled_from([Q(1), Q(2), Q(3), Q(1, 2), Q(5, 3)]),
        st.sampled_from([Q(1), Q(2), Q(3), Q(1, 2), Q(5, 3)]),
    ),
)
@settings(max_examples=40, deadline=None)
def test_obstruction_components_sum_to_zero(coords, coeffs):
    a = [Q(c) for c in coords]
    o1, o2, o3 = aw_obstruction(AW, *coeffs, a)
    assert o1 + o2 + o3 == 0


def test_obstruction_works_on_other_weights():
    aw = aloff_wallach(3, 1)
    probe = (Q(0), Q(1), Q(0), Q(1), Q(0), Q(1), Q(0))
    o = aw_obstruction(aw, Q(1), Q(2), Q(3), probe)
    assert o == (Q(-1), Q(2), Q(-1))
    assert sum(o) == 0


# --------------------------------------------------------------- witness


def test_symbolic_witness_confirms_equal_coefficient_family():
    w = aw_symbolic_go_witness(AW, Q(2), Q(5))
    assert w["commutator_vanishes"]
    assert w["compensated_vector_proportional_to_AX"]
    assert w["compensator_is_isometry"]


def test_symbolic_witness_rates_match_geometry():
    x, x4 = Q(1), Q(3)
    w = aw_symbolic_go_witness(AW, x, x4)
    scale = (x4 - x) / x
    beta = scale * (AW.l - AW.m) * AW.f
    gamma = scale * (AW.m - AW.k) * AW.f
    from gometrics import format_scalar

    assert w["axis_compensator_per_a0"] == format_scalar(scale)
    assert w["beta_per_a0"] == format_scalar(beta)
    assert w["gamma_per_a0"] == format_scalar(gamma)
    # numeric cross-check of the first rate: 2 * 4 / sqrt(21)
    assert abs(float(beta) - scale * 4 * math.sqrt(1 / 21)) <= 1e-15


def test_symbolic_witness_trivial_for_matching_axis():
    w = aw_symbolic_go_witness(AW, Q(2), Q(2))
    assert w["axis_compensator_per_a0"] == "0"
    assert w["commutator_vanishes"]


def _monomial_points_deg2(n):
    """Evaluation points that determine a homogeneous quadratic map."""
    pts = []
    for i in range(n):
        e = [Q(0)] * n
        e[i] = Q(1)
        pts.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = [Q(0)] * n
            e[i] = Q(1)
            e[j] = Q(1)
            pts.append(e)
    return pts


def _random_rational_point(n, seed):
    r = random.Random(seed)
    return [Q(r.randint(-9, 9), r.randint(1, 6)) for _ in range(n)]


def reference_symbolic_witness(aw, x, x4, seed):
    """The witness's identity fields with one full bracket per point:
    [A X, X + W] = 0 is quadratic per coordinate, so zero, the degree-2
    monomial points and one random rational point (30 in all) prove it."""
    x, x4 = Q(x), Q(x4)
    scale = (x4 - x) / x
    points = [[Q(0)] * 7] + _monomial_points_deg2(7) + [_random_rational_point(7, seed)]
    assert len(points) == 30
    commutator_zero = proportional = True
    for a in points:
        full = _aw_ambient(a)
        ax = [c * v for c, v in zip([Q(1), x4] + [x] * 6, full)]
        t = list(full)
        t[1] = full[1] + scale * a[0]
        commutator_zero &= all(not v for v in aw.algebra.bracket(ax, t))
        proportional &= all(not (ti - ai / x) for ti, ai in zip(t, ax))
    return {
        "x": format_scalar(x),
        "x4": format_scalar(x4),
        "axis_compensator_per_a0": format_scalar(scale),
        "beta_per_a0": format_scalar(scale * (aw.l - aw.m) * aw.f),
        "gamma_per_a0": format_scalar(scale * (aw.m - aw.k) * aw.f),
        "commutator_vanishes": commutator_zero,
        "compensated_vector_proportional_to_AX": proportional,
    }


@pytest.mark.parametrize("pair", [(2, 1), (3, 2), (5, 2)])
def test_symbolic_witness_matches_the_bracket_loop_with_one_bracket(pair, monkeypatch):
    aw = aloff_wallach(*pair)
    planes = Subspace.from_indices(aw.algebra, range(2, 8))
    for x, x4 in ((1, 1), (1, 3), (2, 1), (2, 3), (Q(3, 7), Q(5, 2))):
        kernel = aw.blocks.commutation_kernel((Q(x), Q(x), Q(x), Q(x4)))
        # the check discriminates: off x = x4, no plane vector is an isometry
        assert kernel.intersect(planes).dim == (6 if x == x4 else 0)
        brackets = []

        def counting(self, u, v, bracket=CompactLieAlgebra.bracket):
            brackets.append((u, v))
            return bracket(self, u, v)

        monkeypatch.setattr(CompactLieAlgebra, "bracket", counting)
        got = aw_symbolic_go_witness(aw, x, x4)
        monkeypatch.undo()
        # with the partition's kernel cached, the axis against the isotropy
        assert len(brackets) == 1, f"{len(brackets)} bracket calls"
        assert got.pop("compensator_is_isometry") is True
        for seed in range(3):
            assert got == reference_symbolic_witness(aw, x, x4, seed)


def test_symbolic_witness_reports_an_axis_outside_the_kernel(monkeypatch):
    # a kernel without the axis: the compensator is no isometry, so
    # neither the witness nor the classification may confirm the family
    def planes_only(self, coefficients):
        return Subspace.from_indices(self.parent, range(2, 8))

    monkeypatch.setattr(ModuleDecomposition, "commutation_kernel", planes_only)
    w = aw_symbolic_go_witness(AW, Q(1), Q(3))
    assert w["compensator_is_isometry"] is False
    assert w["commutator_vanishes"] and w["compensated_vector_proportional_to_AX"]
    doc = aw_go_classify(2, 1)
    assert doc["symbolic_go_confirmed"] is False
    assert not any(w["compensator_is_isometry"] for w in doc["symbolic_go_witnesses"])


def test_symbolic_witness_rejects_nonpositive_coefficients():
    with pytest.raises(ValueError):
        aw_symbolic_go_witness(AW, Q(0), Q(1))
    with pytest.raises(ValueError):
        aw_symbolic_go_witness(AW, Q(1), Q(-2))


# ---------------------------------------------------------- classification


def test_classification_report_is_complete_and_exact():
    doc = aw_go_classify(2, 1)
    assert doc["kind"] == "aw-go-classification"
    assert doc["non_go_grid_all_certified"]
    assert doc["symbolic_go_confirmed"]
    assert doc["obstruction_probes_consistent"]
    assert len(doc["non_go_grid"]) >= 10
    for entry in doc["non_go_grid"]:
        assert entry["obstruction_sum_zero"]
        assert entry["obstruction_nonzero"]
        for chk in entry["checks"]:
            assert chk["status"] == "infeasible"
            assert chk["method"] == "exact"
            assert chk["detail"]["certificate"] == "exact-rank"
    json.dumps(doc)


def test_classification_is_deterministic():
    a = json.dumps(aw_go_classify(2, 1, seed=5), sort_keys=True)
    b = json.dumps(aw_go_classify(2, 1, seed=5), sort_keys=True)
    assert a == b


# ------------------------------------------------- extended presentation


def test_extended_presentation_preserves_lengths():
    ext = aw_extended_presentation(AW, Q(1), Q(2), Q(3), Q(5))
    base_metric = aw_metric(AW, Q(1), Q(2), Q(3), Q(5))
    xs = [
        [Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)],
        [Q(2), Q(1), Q(-1), Q(3), Q(0), Q(1), Q(1)],
        [Q(0), Q(0), Q(0), Q(0), Q(0), Q(1), Q(-2)],
    ]
    for a in xs:
        amb = [Q(0)] + a
        lifted = ext.lift(a)
        g_base = AW.algebra.inner_product(base_metric.apply(amb), amb)
        g_ext = ext.algebra.inner_product(ext.metric.apply(lifted), lifted)
        assert g_base == g_ext


def test_extended_lift_shape():
    ext = aw_extended_presentation(AW, Q(1), Q(1), Q(1), Q(1))
    v = ext.lift([Q(2), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)])
    assert v == [Q(0), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0), Q(-1)]
    assert ext.space.complement.contains(v)
    with pytest.raises(ValueError):
        ext.lift([Q(1)] * 8)  # nonzero isotropy component
    with pytest.raises(ValueError):
        ext.lift([Q(1)] * 5)


def test_extended_presentation_agrees_with_base_formulations():
    # plain geodesic system on the extension vs compensated systems on
    # the base, for a non-GO metric and for a GO metric
    axis = Subspace.from_indices(AW.algebra, (1,), label="axis")
    for coeffs, want in (
        ((Q(1), Q(2), Q(3), Q(1)), "infeasible"),
        ((Q(2), Q(2), Q(2), Q(5)), "feasible"),
    ):
        ext = aw_extended_presentation(AW, *coeffs)
        base_metric = aw_metric(AW, *coeffs)
        probe = [Q(0), Q(1), Q(0), Q(1), Q(0), Q(1), Q(0)]
        amb = [Q(0)] + probe
        direct_ext = go_feasible_direct(ext.space, ext.metric, ext.lift(probe))
        reduced = go_feasible_reduced(AW.space, base_metric, amb, extra=axis)
        nt = go_feasible_normal_transitive(AW.space, base_metric, amb)
        assert direct_ext.status == reduced.status == nt.status == want


# ------------------------------------------------------------ five blocks


def spans_equal(a: Subspace, b: Subspace) -> bool:
    return a.dim == b.dim and all(a.contains(v) for v in b.basis)


def test_block_dimensions_and_named_subalgebras():
    dec = g2_decomposition()
    assert dec.dims == (1, 3, 4, 2, 4)
    assert dec.algebra.dim == 14
    assert dec.torus.dim == 2
    p = [dec.block(i) for i in range(1, 6)]
    assert spans_equal(dec.su2su2, p[0].sum(p[1], label="s").sum(p[3], label="s"))
    assert spans_equal(dec.su3like, p[0].sum(p[1], label="s").sum(p[4], label="s"))
    assert is_subalgebra(dec.algebra, dec.su2su2)
    assert is_subalgebra(dec.algebra, dec.su3like)


def test_killing_profile_of_g2_subalgebras():
    dec = g2_decomposition()
    L = dec.algebra
    whole = Subspace.from_indices(L, range(L.dim))
    assert _killing_profile(L, dec.torus) == (2, 2, False)
    assert _killing_profile(L, dec.block(2)) == (3, 1, True)
    assert _killing_profile(L, dec.su3like) == (8, 2, True)
    assert _killing_profile(L, whole) == (14, 2, True)


def reference_killing_profile(L, p):
    """(dim, rank, negative_definite) with p rebuilt as an algebra in its
    own basis: definiteness read off the eigenvalues of its Killing
    matrix, rank off the kernel of ad of a regular element."""
    table = []
    for bi in p.basis:
        row = []
        for bj in p.basis:
            v = L.bracket(bi, bj)
            if not p.contains(v):
                raise ValueError("subspace is not closed under the bracket")
            row.append(p.coefficients(v))
        table.append(row)
    sub = CompactLieAlgebra(
        name=p.label,
        basis_labels=range(p.dim),
        structure=table,
        inner=[[L.inner_product(a, b) for b in p.basis] for a in p.basis],
    )
    negdef = bool(np.linalg.eigvalsh(np.array(sub.killing, dtype=float)).max() < -1e-9)
    for attempt in range(1, 4):
        g0 = [Q((i + 1) ** attempt) for i in range(p.dim)]
        null = ela.nullspace(reference_ad_matrix(sub, g0))
        if all(
            ela.vec_is_zero(sub.bracket(u, w))
            for u, w in itertools.combinations(null, 2)
        ):
            return p.dim, len(null), negdef
    raise ValueError("no regular element found for the rank computation")


def test_killing_profile_matches_the_killing_matrix_reference():
    dec = g2_decomposition()
    L = dec.algebra
    p = [dec.block(i) for i in range(1, 6)]
    cases = [
        dec.torus,
        p[1],
        p[0].sum(p[3]),
        dec.su2su2,
        dec.su3like,
        Subspace.from_indices(L, range(L.dim)),
    ]
    for sub in cases:
        assert _killing_profile(L, sub) == reference_killing_profile(L, sub)
    assert [_killing_profile(L, sub)[1:] for sub in cases[2:4]] == [(1, True), (2, True)]


def test_killing_profile_refuses_a_subspace_that_is_not_closed():
    dec = g2_decomposition()
    with pytest.raises(ValueError, match="not closed"):
        _killing_profile(dec.algebra, dec.block(3))
    with pytest.raises(ValueError, match="not closed"):
        reference_killing_profile(dec.algebra, dec.block(3))


def test_block_bracket_relations():
    dec = g2_decomposition()
    L = dec.algebra
    p = [dec.block(i) for i in range(1, 6)]

    q35 = module_product(L, p[2], p[4])
    assert q35.dim > 0 and all(p[3].contains(v) for v in q35.basis)

    q45 = module_product(L, p[3], p[4])
    assert q45.dim > 0 and all(p[2].contains(v) for v in q45.basis)

    q34 = module_product(L, p[2], p[3])
    p3p5 = p[2].sum(p[4], label="p3+p5")
    assert all(p3p5.contains(v) for v in q34.basis)
    assert not all(p[2].contains(v) for v in q34.basis)


def test_commuting_pair_inside_six_dimensional_subalgebra():
    dec = g2_decomposition()
    L = dec.algebra
    # the 6-dimensional subalgebra splits into two commuting
    # 3-dimensional ideals, one per root length
    p2 = dec.block(2)
    p4 = dec.block(4)
    long_part = module_product(L, p4, p4).sum(p4, label="long")
    assert long_part.dim == 3
    short = dec.su2su2.intersect(long_part.orthogonal_complement(label="c"), label="short")
    assert short.dim == 3
    for u in long_part.basis:
        for v in short.basis:
            assert all(c == 0 for c in L.bracket(u, v))


def test_block_bracket_csv_table():
    assert g2_block_bracket_csv() == (
        "block_a,block_b,image_blocks\n"
        "p1,p1,0\n"
        "p1,p2,0\n"
        "p1,p3,p3\n"
        "p1,p4,p4\n"
        "p1,p5,p5\n"
        "p2,p2,p2\n"
        "p2,p3,p3\n"
        "p2,p4,0\n"
        "p2,p5,p5\n"
        "p3,p3,p1+p2+p4\n"
        "p3,p4,p3+p5\n"
        "p3,p5,p4\n"
        "p4,p4,p1\n"
        "p4,p5,p3\n"
        "p5,p5,p1+p2\n"
    )


def test_g2_metric_validation():
    with pytest.raises(MetricValidationError):
        g2_metric(1, 2, 3, 4, -5)
    metric = g2_metric(*EINSTEIN_SET_2)
    assert metric.is_exact
    assert metric.coefficients[2] == Q(11, 9)
    assert not g2_metric(*EINSTEIN_SET_3).is_exact


# ------------------------------------------------------------ reproduction


def test_reproduction_driver_all_checks_pass():
    doc = reproduce_main_theorem()
    assert doc["all_checks_passed"]
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "set1-einstein-exact",
        "set1-bi-invariant-form",
        "set1-go-consistent",
        "set2-einstein-exact",
        "set2-naturally-reductive-form",
        "set2-go-consistent",
        "set3-einstein-within-tolerance",
        "set3-no-naturally-reductive-candidate",
        "set3-right-isometry-dim-4",
        "set3-non-go-certified",
        "set3-perturbed-einstein-within-1e-4",
        "set3-perturbed-non-go-stable",
    ]
    corners = doc["perturbations"]["corners"]
    assert corners["count"] == 32
    assert corners["right_isometry_dims"] == [4]
    assert corners["all_non_go_certified"]
    assert doc["perturbations"]["max_einstein_deviation"] <= 1e-4


def test_reproduction_driver_is_deterministic():
    a = json.dumps(reproduce_main_theorem(seed=3), sort_keys=True, indent=2)
    b = json.dumps(reproduce_main_theorem(seed=3), sort_keys=True, indent=2)
    assert a == b
