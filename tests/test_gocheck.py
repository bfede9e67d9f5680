"""Feasibility solver, reductive-space validation, and GO sweeps."""

import json
import os
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gometrics.cli as cli
from gometrics import (
    ModuleDecomposition,
    ReductiveSpace,
    Subspace,
    Tolerances,
    aloff_wallach,
    aw_extended_presentation,
    aw_metric,
    build_su2,
    go_check,
    go_feasible_direct,
    go_feasible_normal_transitive,
    go_feasible_reduced,
    lie_group_go_check,
    make_metric,
    max_right_isometry_algebra,
    sample_tangent_vectors,
)
from gometrics import exactlinalg as ela
from gometrics import gocheck
from gometrics.gocheck import SIGMA_RATIO, SpaceValidationError, solve_linear_feasibility
from gometrics.scalars import Quad

SU2 = build_su2()


def su2_metric(a1, a2, a3):
    blocks = tuple(
        Subspace.from_indices(SU2, [i], label=f"axis{i}") for i in range(3)
    )
    return make_metric(ModuleDecomposition(parent=SU2, blocks=blocks), [a1, a2, a3])


def basis_vec(i, n=3):
    v = [Q(0)] * n
    v[i] = Q(1)
    return v


# ---------------------------------------------------------------- solver


def test_solver_exact_feasible():
    rows = [[Q(1), Q(0)], [Q(0), Q(2)]]
    res = solve_linear_feasibility(rows, [Q(3), Q(4)])
    assert res.status == "feasible" and res.method == "exact"
    assert res.witness == (Q(3), Q(2))
    assert res.residual_rel == 0.0


def test_solver_exact_infeasible_has_rank_certificate():
    rows = [[Q(1)], [Q(1)]]
    res = solve_linear_feasibility(rows, [Q(1), Q(2)])
    assert res.status == "infeasible" and res.method == "exact"
    assert res.witness is None
    assert res.detail["certificate"] == "exact-rank"
    assert res.detail["rank_augmented"] == res.detail["rank"] + 1


def _reference_decision(m, b):
    """Solve [M|b], then rank M and rank [M|b]: three eliminations."""
    cols = len(m[0])
    red, pivots = ela.rref([row + [v] for row, v in zip(m, b)])
    rank_m, rank_aug = len(ela.rref(m)[1]), len(pivots)
    if cols in pivots:
        return "infeasible", None, rank_m, rank_aug
    x = [Q(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return "feasible", tuple(x), rank_m, rank_aug


@st.composite
def exact_systems(draw):
    """Systems over Q or Q(sqrt 21): consistent, arbitrary, or with a
    dependent row."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if draw(st.booleans()):
        entry = small
    else:
        entry = st.builds(lambda a, b: Quad(a, b, 21), small, small)
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    kind = draw(st.sampled_from(["consistent", "arbitrary", "deficient"]))
    if kind == "deficient" and nrows > 1:
        c = draw(entry)
        m[-1] = [x + c * y for x, y in zip(m[0], m[-2])]
    if kind == "consistent":
        b = ela.matvec(m, [draw(entry) for _ in range(ncols)])
    else:
        b = [draw(entry) for _ in range(nrows)]
    return m, b


@settings(max_examples=100, deadline=None)
@given(exact_systems())
def test_solver_exact_decision_matches_three_eliminations(system):
    m, b = system
    status, witness, rank_m, rank_aug = _reference_decision(m, b)
    x, rank = ela.solve(m, b)
    assert (None if x is None else tuple(x), rank) == (witness, rank_m)
    res = solve_linear_feasibility(m, b)
    assert (res.status, res.witness, res.method) == (status, witness, "exact")
    if status == "infeasible":
        assert (res.detail["rank"], res.detail["rank_augmented"]) == (rank_m, rank_aug)


def test_solver_float_thresholds():
    ok = solve_linear_feasibility([[1.0], [0.0]], [2.0, 0.0])
    assert ok.status == "feasible" and ok.method == "float"
    bad = solve_linear_feasibility([[1.0], [0.0]], [1.0, 1.0])
    assert bad.status == "infeasible"
    assert bad.residual_rel >= 1e-3


def test_solver_gap_on_trusted_spectrum_is_indeterminate_without_retry(monkeypatch):
    # residual between the thresholds on a well-conditioned system: the
    # float residual decides, and the high-precision retry never runs
    def no_retry(*args, **kwargs):
        raise AssertionError("mpmath retry on a trusted spectrum")

    monkeypatch.setattr(gocheck, "_mpmath_retry", no_retry)
    res = solve_linear_feasibility([[1.0], [0.0]], [1.0, 1e-6])
    assert (res.status, res.method, res.witness) == ("indeterminate", "float", None)
    assert res.sigma_ratio == 1.0
    assert res.residual_rel == pytest.approx(1e-6, rel=1e-9)


def test_solver_gap_on_ill_conditioned_spectrum_retries_in_mpmath():
    res = solve_linear_feasibility([[1.0, 0.0], [0.0, 1e-7], [0.0, 0.0]], [1.0, 0.0, 1e-6])
    assert res.sigma_ratio == pytest.approx(1e-7) and res.sigma_ratio < SIGMA_RATIO
    assert (res.status, res.method, res.witness) == ("indeterminate", "mpmath", None)
    assert res.residual_rel == pytest.approx(1e-6, rel=1e-9)


# decimal metrics 1e-5 to 1e-7 away from a GO metric: every residual lands
# between the thresholds on a well-conditioned system
NEAR_BOUNDARY = (
    ("aw:2,1", "1,1,1.00001,1"),
    ("aw:5,2", "1.00001,1,1,2"),
    ("lie:g2", "1,1,1,1,1.0000001"),
)


@pytest.mark.parametrize("space,metric", NEAR_BOUNDARY)
def test_near_boundary_gap_is_decided_in_float_as_the_retry_would(space, metric, monkeypatch, capsys):
    solved = []

    def recording(rows, rhs, tolerances=None, scale_hint=0.0):
        res = solve_linear_feasibility(rows, rhs, tolerances, scale_hint)
        solved.append((rows, rhs, scale_hint, res))
        return res

    monkeypatch.setattr(gocheck, "solve_linear_feasibility", recording)
    for name in [k for k in os.environ if k.startswith("GOMETRICS_")]:
        monkeypatch.delenv(name)
    rc = cli.main(["go-check", "--space", space, "--metric", metric])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 4 and doc["verdict"] == "indeterminate"
    assert len(doc["checks"]) == len(solved) == 24
    assert {(c["status"], c["method"]) for c in doc["checks"]} == {("indeterminate", "float")}
    # the retry this float decision replaces reproduces its residual
    for rows, rhs, scale_hint, res in solved:
        _, rel = gocheck._mpmath_retry(
            np.array(rows, dtype=float), np.array(rhs, dtype=float), gocheck.ESCALATE_DPS, scale_hint
        )
        assert abs(rel - res.residual_rel) <= 1e-10 * res.residual_rel


def test_solver_zero_rhs_float_feasible():
    res = solve_linear_feasibility([[1.0], [2.0]], [0.0, 0.0])
    assert res.status == "feasible" and res.residual_rel == 0.0


def test_solver_respects_custom_tolerances():
    loose = Tolerances(feasible_rel=1e-2, infeasible_rel=0.5)
    res = solve_linear_feasibility([[1.0], [0.0]], [1.0, 1e-3], tolerances=loose)
    assert res.status == "feasible"


# ------------------------------------------------- reductive space checks


def test_reductive_space_accepts_axis_isotropy():
    h = Subspace.from_indices(SU2, [0], label="h")
    m = Subspace.from_indices(SU2, [1, 2], label="m")
    sp = ReductiveSpace(algebra=SU2, isotropy=h, complement=m)
    assert sp.is_orthogonal


def test_reductive_space_rejects_wrong_dimensions():
    h = Subspace.from_indices(SU2, [0], label="h")
    m = Subspace.from_indices(SU2, [2], label="m")
    with pytest.raises(SpaceValidationError):
        ReductiveSpace(algebra=SU2, isotropy=h, complement=m)


def test_reductive_space_rejects_overlap():
    h = Subspace.from_indices(SU2, [0], label="h")
    m = Subspace(SU2, ([Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(1)]), label="m")
    with pytest.raises(SpaceValidationError):
        ReductiveSpace(algebra=SU2, isotropy=h, complement=m)


def test_reductive_space_rejects_non_subalgebra_isotropy():
    h = Subspace.from_indices(SU2, [0, 1], label="h")
    m = Subspace.from_indices(SU2, [2], label="m")
    with pytest.raises(SpaceValidationError):
        ReductiveSpace(algebra=SU2, isotropy=h, complement=m)


def test_reductive_space_rejects_non_invariant_complement():
    h = Subspace.from_indices(SU2, [2], label="h")
    m = Subspace(SU2, ([Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(1)]), label="m")
    with pytest.raises(SpaceValidationError):
        ReductiveSpace(algebra=SU2, isotropy=h, complement=m)


# ------------------------------------------------------ left-invariant GO


def test_su2_round_metric_every_direction_feasible():
    metric = su2_metric(Q(1), Q(1), Q(1))
    for i in range(3):
        res = lie_group_go_check(SU2, metric, basis_vec(i))
        assert res.status == "feasible" and res.method == "exact"


def test_su2_two_equal_coefficients_is_go():
    cert = go_check(SU2, su2_metric(Q(2), Q(1), Q(1)), count=12, exact=True)
    assert cert.verdict == "go-consistent"
    assert all(r.method == "exact" for r in cert.results)


def test_su2_three_distinct_coefficients_is_not_go():
    cert = go_check(SU2, su2_metric(Q(1), Q(2), Q(3)), count=12, exact=True)
    assert cert.verdict == "non-go-certified"


def test_su2_distinct_axes_stay_feasible_mixed_directions_fail():
    metric = su2_metric(Q(1), Q(2), Q(3))
    kernel = max_right_isometry_algebra(SU2, metric)
    assert kernel.dim == 0
    for i in range(3):
        assert lie_group_go_check(SU2, metric, basis_vec(i)).status == "feasible"
    mixed = [Q(1), Q(1), Q(0)]
    res = lie_group_go_check(SU2, metric, mixed)
    assert res.status == "infeasible"
    assert res.detail["certificate"] == "exact-rank"


def test_float_infeasible_metric_flags_residual_and_sigma():
    metric = su2_metric(1.0, 2.0, 3.0)
    res = lie_group_go_check(SU2, metric, [1.0, 1.0, 0.0])
    assert res.status == "infeasible" and res.method == "float"
    assert res.residual_rel >= 1e-3
    assert res.sigma_ratio is None or res.sigma_ratio >= 1e-6


@given(
    scale=st.sampled_from([Q(1, 3), Q(1, 2), Q(2), Q(5), Q(7, 2)]),
    xs=st.lists(st.integers(-4, 4), min_size=3, max_size=3).filter(any),
)
@settings(max_examples=25, deadline=None)
def test_feasibility_invariant_under_metric_and_direction_scaling(scale, xs):
    metric = su2_metric(Q(1), Q(2), Q(3))
    x = [Q(v) for v in xs]
    base = lie_group_go_check(SU2, metric, x)
    scaled = make_metric(metric.decomposition, [a * scale for a in metric.coefficients])
    scaled_metric = lie_group_go_check(SU2, scaled, x)
    scaled_x = lie_group_go_check(SU2, metric, [scale * v for v in x])
    assert base.status == scaled_metric.status == scaled_x.status


# ------------------------------------------------------------- sampling


def aw_setup():
    aw = aloff_wallach(2, 1)
    return aw, aw_metric(aw, Q(1), Q(1), Q(1), Q(1))


def test_samples_are_deterministic_per_seed():
    aw, metric = aw_setup()
    a = sample_tangent_vectors(metric.decomposition, 6, seed=3)
    b = sample_tangent_vectors(metric.decomposition, 6, seed=3)
    c = sample_tangent_vectors(metric.decomposition, 6, seed=4)
    assert a == b
    assert a != c


def test_exact_samples_stay_exact():
    aw, metric = aw_setup()
    xs = sample_tangent_vectors(metric.decomposition, 5, seed=0, exact=True)
    for x in xs:
        assert all(isinstance(v, Q) for v in x)


# ------------------------------------------------- sweeps and aggregation


def test_verdict_aggregation_prefers_infeasible():
    metric = su2_metric(Q(1), Q(2), Q(3))
    samples = [basis_vec(0), [Q(1), Q(1), Q(0)]]
    cert = go_check(SU2, metric, samples=samples)
    assert cert.verdict == "non-go-certified"
    assert [r.status for r in cert.results] == ["feasible", "infeasible"]


def test_go_check_json_reports_are_byte_identical():
    aw, metric = aw_setup()
    out = []
    for _ in range(2):
        cert = go_check(aw.space, metric, count=6, seed=11, exact=True)
        out.append(json.dumps(cert.to_json_dict(), sort_keys=True, indent=2))
    assert out[0] == out[1]


def test_formulations_agree_on_aw_normal_metric():
    aw, metric = aw_setup()
    xs = sample_tangent_vectors(metric.decomposition, 5, seed=7, exact=True)
    for x in xs:
        d = go_feasible_direct(aw.space, metric, x)
        r = go_feasible_reduced(aw.space, metric, x)
        n = go_feasible_normal_transitive(aw.space, metric, x)
        assert d.status == r.status == n.status == "feasible"


def test_direct_requires_complement_membership():
    aw, metric = aw_setup()
    bad = [Q(1)] + [Q(0)] * (aw.algebra.dim - 1)  # the isotropy line
    with pytest.raises(ValueError):
        go_feasible_direct(aw.space, metric, bad)


def test_normal_transitive_requires_complement_membership():
    # A Z = 0 on the isotropy line Z, so each of its systems reads 0 = 0:
    # the default form would call this non-GO metric go-consistent
    aw = aloff_wallach(2, 1)
    metric = aw_metric(aw, Q(1), Q(2), Q(3), Q(1))
    Z = list(aw.space.isotropy.basis[0])
    with pytest.raises(ValueError, match="X must lie in the complement"):
        go_check(aw.space, metric, samples=[Z])


def test_direct_requires_metric_image_in_complement():
    # blocks e1 +- e2 mix the isotropy line e1 into the metric, so A e2
    # leaves the complement and the geodesic system is not defined
    h = Subspace.from_indices(SU2, [1], label="h")
    m = Subspace.from_indices(SU2, [0, 2], label="m")
    space = ReductiveSpace(algebra=SU2, isotropy=h, complement=m)
    blocks = (
        Subspace.from_vectors(SU2, [[Q(0), Q(1), Q(1)]], label="plus"),
        Subspace.from_vectors(SU2, [[Q(0), Q(1), Q(-1)]], label="minus"),
        Subspace.from_indices(SU2, [0], label="axis0"),
    )
    metric = make_metric(ModuleDecomposition(parent=SU2, blocks=blocks), [Q(1), Q(2), Q(1)])
    with pytest.raises(ValueError):
        go_feasible_direct(space, metric, basis_vec(2))
    with pytest.raises(ValueError):
        go_feasible_reduced(space, metric, basis_vec(2))


def _projected_system(space, metric, X, generators):
    """The geodesic lemma as written: <proj_m [W + X, Y], A X> = 0 for
    every Y in the complement basis, as rows (over W) and right side."""
    L, m = space.algebra, space.complement
    ax = metric.apply(X)
    rows = [
        [L.inner_product(m.project(L.bracket(w, y)), ax) for w in generators]
        for y in m.basis
    ]
    rhs = [-L.inner_product(m.project(L.bracket(X, y)), ax) for y in m.basis]
    return rows, rhs


# directions in two tangent blocks each, coordinates (Z, X0, X1..X6):
# m1 + m2, m1 + m3, m1 + m4 and m2 + m3
_TWO_BLOCK_DIRECTIONS = tuple(
    [Q(c) for c in x]
    for x in (
        (0, 0, 1, 2, -1, 3, 0, 0),
        (0, 0, 2, -1, 0, 0, 1, 1),
        (0, 3, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, -2, 3, 1),
    )
)


@pytest.mark.parametrize("k,l", [(2, 1), (3, 2)])
def test_direct_and_reduced_solve_the_projected_system(k, l):
    aw = aloff_wallach(k, l)
    axis = Subspace.from_indices(aw.algebra, (1,), label="axis")
    iso = list(aw.space.isotropy.basis)
    statuses = set()
    for coeffs in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 3, 1)):
        coeffs = [Q(c) for c in coeffs]
        metric = aw_metric(aw, *coeffs)
        ext = aw_extended_presentation(aw, *coeffs)
        for x in _TWO_BLOCK_DIRECTIONS:
            cases = [
                (aw.space, metric, x, iso, go_feasible_direct(aw.space, metric, x)),
                (
                    aw.space, metric, x, iso + list(axis.basis),
                    go_feasible_reduced(aw.space, metric, x, extra=axis),
                ),
                (
                    ext.space, ext.metric, ext.lift(x), list(ext.space.isotropy.basis),
                    go_feasible_direct(ext.space, ext.metric, ext.lift(x)),
                ),
            ]
            for space, mt, X, gens, res in cases:
                rows, rhs = _projected_system(space, mt, X, gens)
                assert res.method == "exact"
                if res.status == "feasible":
                    for row, b in zip(rows, rhs):
                        assert sum((r * z for r, z in zip(row, res.witness)), Q(0)) == b
                else:
                    assert res.status == "infeasible"
                    aug = [r + [b] for r, b in zip(rows, rhs)]
                    assert ela.rank(aug) == ela.rank(rows) + 1
                statuses.add(res.status)
    assert statuses == {"feasible", "infeasible"}


def test_go_check_rejects_an_empty_sweep():
    metric = su2_metric(Q(1), Q(2), Q(3))
    for count in (0, -5):
        with pytest.raises(ValueError):
            go_check(SU2, metric, count=count)
    with pytest.raises(ValueError):
        go_check(SU2, metric, samples=[])


def test_lie_group_formulation_rejects_space_target():
    aw, metric = aw_setup()
    with pytest.raises(ValueError):
        go_check(aw.space, metric, formulation="lie_group", count=1)


def test_normal_transitive_rejects_zero_isotropy():
    # c({0}) = g lets W = -X solve every direction, so no verdict there
    # would mean anything: (1, 2, 3) is not GO, (1, 1, 2) is
    space = ReductiveSpace(
        algebra=SU2, isotropy=Subspace(SU2, ()), complement=Subspace.from_indices(SU2, range(3))
    )
    for coeffs in ((1, 2, 3), (1, 1, 2)):
        metric = su2_metric(*map(Q, coeffs))
        with pytest.raises(ValueError, match="nonzero isotropy"):
            go_check(space, metric, count=2, exact=True)
    assert go_check(SU2, su2_metric(Q(1), Q(1), Q(2)), count=2, exact=True).verdict == "go-consistent"


def test_certificate_json_shape():
    cert = go_check(SU2, su2_metric(Q(2), Q(1), Q(1)), count=3, exact=True, seed=2)
    doc = cert.to_json_dict()
    assert doc["schema"] == "1" and doc["kind"] == "go-certificate"
    assert doc["verdict"] == "go-consistent"
    assert len(doc["checks"]) == 3
    for entry in doc["checks"]:
        assert entry["status"] == "feasible"
        assert isinstance(entry["direction"], list)
    json.dumps(doc)
