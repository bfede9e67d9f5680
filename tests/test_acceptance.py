"""Acceptance suite: twelve independently checkable criteria.

Each test is one criterion; running pytest -v prints one pass/fail line
per criterion.  Tolerances and runtime windows are asserted inside the
tests themselves.
"""

import itertools
import json
import math
import time
from fractions import Fraction as Q

import numpy as np
import pytest

import gometrics.cli as cli
from gometrics import exactlinalg as ela
from gometrics import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    ModuleDecomposition,
    Subspace,
    aloff_wallach,
    aw_extended_presentation,
    aw_go_classify,
    aw_metric,
    aw_obstruction,
    aw_symbolic_go_witness,
    build_su2,
    build_su3,
    detect_naturally_reductive,
    einstein_check,
    g2_decomposition,
    g2_metric,
    go_check,
    go_feasible_direct,
    go_feasible_normal_transitive,
    go_feasible_reduced,
    is_subalgebra,
    make_metric,
    max_right_isometry_algebra,
    module_product,
    sample_tangent_vectors,
)
from gometrics.liealg import build_compact_from_rootsystem
from gometrics.rootsys import (
    build_g2 as build_g2_roots,
    subsystems_equivalent,
)
from gometrics.rootsys import RootSubsystem

from child import run_python

SU2 = build_su2()


def su2_diag_metric(a1, a2, a3):
    blocks = tuple(
        Subspace.from_indices(SU2, [i], label=f"axis{i}") for i in range(3)
    )
    return make_metric(ModuleDecomposition(parent=SU2, blocks=blocks), [a1, a2, a3])


def test_criterion_01_algebra_validity():
    start = time.perf_counter()
    # exact mode: construction-time validation is an exact-zero check of
    # the Jacobi identity and the invariance of the pairing, so merely
    # building the algebra asserts the residual is identically 0
    su3 = build_su3(2, 1)
    g2 = build_compact_from_rootsystem(build_g2_roots())
    for alg in (su3, g2):
        c = alg.structure_np
        g = alg.inner_np
        jac = (
            np.einsum("adm,bcd->abcm", c, c)
            + np.einsum("bdm,cad->abcm", c, c)
            + np.einsum("cdm,abd->abcm", c, c)
        )
        assert np.max(np.abs(jac)) <= 1e-12
        inv = np.einsum("abk,kc->abc", c, g) + np.einsum("ack,kb->abc", c, g)
        assert np.max(np.abs(inv)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_02_killing_normalization():
    su3 = build_su3(2, 1)
    n = su3.dim
    basis = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            b = ela.dot(basis[i], ela.matvec(su3.killing, basis[j]))
            assert b == -12 * su3.inner_product(basis[i], basis[j])


def brute_force_subsystem_classes(rs):
    """Independent enumeration: all symmetric closed proper subsets."""
    subs = []
    for r in range(len(rs.positive) + 1):
        for combo in itertools.combinations(rs.positive, r):
            roots = set(combo) | {tuple(-x for x in v) for v in combo}
            closed = True
            for a in roots:
                for b in roots:
                    s = tuple(x + y for x, y in zip(a, b))
                    if rs.is_root(s) and s not in roots:
                        closed = False
                        break
                if not closed:
                    break
            if closed and len(roots) < len(rs.roots):
                subs.append(RootSubsystem(parent=rs, roots=frozenset(roots)))
    classes = []
    for sub in subs:
        if not any(
            subsystems_equivalent(rs, sub.roots, rep.roots) for rep in classes
        ):
            classes.append(sub)
    return classes


def test_criterion_03_root_classification(capsys):
    start = time.perf_counter()
    code = cli.main(["roots", "g2"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    reported = doc["closed_symmetric_subsystem_classes"]
    assert len(reported) == 5

    rs = build_g2_roots()
    oracle = brute_force_subsystem_classes(rs)
    assert len(oracle) == 5

    by_label = {rs.label(r): r for r in rs.roots}
    matched = set()
    for entry in reported:
        sub = RootSubsystem(
            parent=rs, roots=frozenset(by_label[s] for s in entry["roots"])
        )
        assert len(sub.roots) == entry["size"]
        hits = [
            i
            for i, rep in enumerate(oracle)
            if i not in matched and subsystems_equivalent(rs, sub.roots, rep.roots)
        ]
        assert len(hits) == 1, f"class {entry} matched {len(hits)} oracle classes"
        matched.add(hits[0])
    assert len(matched) == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_04_five_block_decomposition():
    g2_decomposition.cache_clear()
    start = time.perf_counter()
    dec = g2_decomposition()
    assert dec.dims == (1, 3, 4, 2, 4)
    L = dec.algebra
    p = [dec.block(i) for i in range(1, 6)]

    q35 = module_product(L, p[2], p[4])
    q45 = module_product(L, p[3], p[4])
    q34 = module_product(L, p[2], p[3])
    p3p5 = p[2].sum(p[4], label="p3+p5")
    relations = [
        all(p[3].contains(v) for v in q35.basis),  # [p3,p5] inside p4
        all(p[2].contains(v) for v in q45.basis),  # [p4,p5] inside p3
        all(p3p5.contains(v) for v in q34.basis),  # [p3,p4] inside p3+p5
        q35.dim > 0,                               # [p3,p5] nonzero
        q45.dim > 0,                               # [p4,p5] nonzero
        not all(p[2].contains(v) for v in q34.basis),  # [p3,p4] leaves p3
    ]
    assert all(relations), relations

    assert dec.su2su2.dim == 6 and is_subalgebra(L, dec.su2su2)
    assert dec.su3like.dim == 8 and is_subalgebra(L, dec.su3like)
    for name, span in (("su2su2", dec.su2su2), ("su3like", dec.su3like)):
        expect = {"su2su2": (0, 1, 3), "su3like": (0, 1, 4)}[name]
        joined = p[expect[0]]
        for i in expect[1:]:
            joined = joined.sum(p[i], label="join")
        assert span.dim == joined.dim and all(span.contains(v) for v in joined.basis)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 4 took {elapsed:.2f}s"


def test_criterion_05_ricci_oracle():
    start = time.perf_counter()
    # metric equal to minus the Killing form, on both algebras
    dec = g2_decomposition()
    chk = einstein_check(dec.algebra, g2_metric(1, 1, 1, 1, 1, dec))
    assert chk.is_einstein and chk.deviation <= 1e-12
    assert abs(chk.einstein_constant - 0.25) <= 1e-12

    su3 = build_su3(2, 1)
    blocks = tuple(Subspace.from_indices(su3, [i], label=str(i)) for i in range(8))
    d8 = ModuleDecomposition(parent=su3, blocks=blocks)
    scale = 1 / su3.lambda_minus_b
    chk3 = einstein_check(su3, make_metric(d8, [scale] * 8))
    assert chk3.is_einstein and chk3.deviation <= 1e-12
    assert abs(chk3.einstein_constant - 0.25) <= 1e-12

    nu = 1.0 / math.sqrt(2.0)
    for a in [(1, 2, 3), (2, 1, 1), (3, 5, 7), (1, 1, 1)]:
        res = einstein_check(SU2, su2_diag_metric(*map(Q, a))).ricci
        lam = [
            nu * math.sqrt(a[i] / (a[(i + 1) % 3] * a[(i + 2) % 3]))
            for i in range(3)
        ]
        want = [
            0.5 * (lam[i] ** 2 - (lam[(i + 1) % 3] - lam[(i + 2) % 3]) ** 2)
            for i in range(3)
        ]
        assert np.allclose(np.diag(res.ricci_on), want, atol=1e-12)
        assert np.max(np.abs(res.ricci_on - np.diag(np.diag(res.ricci_on)))) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 5 took {elapsed:.2f}s"


def test_criterion_06_einstein_reproduction():
    start = time.perf_counter()
    dec = g2_decomposition()
    alg = dec.algebra

    one = einstein_check(alg, g2_metric(*EINSTEIN_SET_1, dec))
    assert one.is_einstein and one.deviation <= 1e-12

    two = einstein_check(alg, g2_metric(*EINSTEIN_SET_2, dec))
    assert two.is_einstein and two.deviation <= 1e-12

    three = einstein_check(alg, g2_metric(*EINSTEIN_SET_3, dec), tolerance=1e-5)
    assert three.is_einstein and three.deviation <= 1e-5

    for i in range(5):
        for sgn in (1e-6, -1e-6):
            pert = list(EINSTEIN_SET_3)
            pert[i] += sgn
            e = einstein_check(alg, g2_metric(*pert, dec), tolerance=1e-4)
            assert e.deviation <= 1e-4, (i, sgn, e.deviation)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.2f}s"


def test_criterion_07_natural_reductivity_detection():
    start = time.perf_counter()
    dec = g2_decomposition()
    alg = dec.algebra

    hit = detect_naturally_reductive(alg, g2_metric(*EINSTEIN_SET_2, dec))
    assert hit.found
    assert hit.subalgebra.dim == 8
    assert hit.subalgebra.dim == dec.su3like.dim
    assert all(dec.su3like.contains(v) for v in hit.subalgebra.basis)
    assert hit.transverse_coefficient == Q(11, 9)
    assert set(hit.ideal_coefficients) == {Q(1)}

    miss = detect_naturally_reductive(alg, g2_metric(*EINSTEIN_SET_3, dec))
    assert not miss.found
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 7 took {elapsed:.2f}s"


def test_criterion_08_non_go_certificate():
    start = time.perf_counter()
    dec = g2_decomposition()
    alg = dec.algebra
    metric = g2_metric(*EINSTEIN_SET_3, dec)

    kernel = max_right_isometry_algebra(alg, metric)
    assert kernel.dim == 4
    assert is_subalgebra(alg, kernel)
    expected = dec.block(1).sum(dec.block(2), label="p1+p2")
    assert all(expected.contains(v) for v in kernel.basis)

    cert = go_check(
        alg, metric, formulation="lie_group", count=12, seed=0
    )
    assert cert.verdict == "non-go-certified"
    strong = [
        r
        for r in cert.results
        if r.status == "infeasible"
        and r.residual_rel >= 1e-3
        and r.sigma_ratio is not None
        and r.sigma_ratio >= 1e-6
    ]
    assert strong, "no sampled direction produced a guarded infeasibility"

    for signs in itertools.product((1e-6, -1e-6), repeat=5):
        pert = [c + s for c, s in zip(EINSTEIN_SET_3, signs)]
        pmetric = g2_metric(*pert, dec)
        pker = max_right_isometry_algebra(alg, pmetric)
        assert pker.dim == 4
        pcert = go_check(
            alg, pmetric, formulation="lie_group", count=6, seed=0
        )
        assert pcert.verdict == "non-go-certified", signs
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.2f}s"


def monomial_points_deg2(n=7):
    pts = [[Q(0)] * n]
    for i in range(n):
        e = [Q(0)] * n
        e[i] = Q(1)
        pts.append(e)
    for i, j in itertools.combinations(range(n), 2):
        e = [Q(0)] * n
        e[i], e[j] = Q(1), Q(1)
        pts.append(e)
    return pts


def test_criterion_09_aw_classification():
    start = time.perf_counter()
    probe = (Q(0), Q(1), Q(0), Q(1), Q(0), Q(1), Q(0))
    for k, l in ((2, 1), (3, 1), (3, 2)):
        doc = aw_go_classify(k, l)
        assert doc["non_go_grid_all_certified"], (k, l)
        assert doc["symbolic_go_confirmed"], (k, l)
        assert doc["obstruction_probes_consistent"], (k, l)
        assert len(doc["non_go_grid"]) >= 10
        seen = set()
        for entry in doc["non_go_grid"]:
            plane = tuple(entry["coefficients"][:3])
            assert plane not in seen
            seen.add(plane)
            for chk in entry["checks"]:
                assert chk["status"] == "infeasible"
                assert chk["method"] == "exact"

        aw = aloff_wallach(k, l)
        # closed-form compensator rates, recomputed from the weights
        for x, x4 in ((Q(1), Q(2)), (Q(3), Q(1))):
            w = aw_symbolic_go_witness(aw, x, x4)
            assert w["commutator_vanishes"]
            assert w["compensated_vector_proportional_to_AX"]
            scale = (x4 - x) / x
            from gometrics import format_scalar

            assert w["beta_per_a0"] == format_scalar(scale * (aw.l - aw.m) * aw.f)
            assert w["gamma_per_a0"] == format_scalar(scale * (aw.m - aw.k) * aw.f)

        # obstruction identity and the equal-coefficient boundary on a
        # degree-2 monomial spanning set
        for pt in monomial_points_deg2():
            o = aw_obstruction(aw, Q(2), Q(3), Q(7), pt)
            assert sum(o) == 0
            assert aw_obstruction(aw, Q(5), Q(5), Q(5), pt) == (Q(0), Q(0), Q(0))
        assert aw_obstruction(aw, Q(1), Q(2), Q(3), probe) != (Q(0), Q(0), Q(0))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 9 took {elapsed:.2f}s"


def test_criterion_10_formulation_agreement():
    start = time.perf_counter()
    aw = aloff_wallach(2, 1)
    axis = Subspace.from_indices(aw.algebra, (1,), label="axis")
    cases = [
        ((Q(1), Q(1), Q(1), Q(2)), True, 34),
        ((1.0, 1.0, 1.0, 1.0), False, 33),
        ((Q(1), Q(2), Q(3), Q(1)), True, 33),
    ]
    total = 0
    for coeffs, exact, count in cases:
        metric = aw_metric(aw, *coeffs)
        ext = aw_extended_presentation(aw, *coeffs)
        for x in sample_tangent_vectors(aw.blocks, count, seed=11, exact=exact):
            x = list(x)
            d = go_feasible_direct(ext.space, ext.metric, ext.lift(x))
            r = go_feasible_reduced(aw.space, metric, x, extra=axis)
            n = go_feasible_normal_transitive(aw.space, metric, x)
            assert d.status == r.status == n.status, (coeffs, total)
            total += 1
    assert total == 100
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 10 took {elapsed:.2f}s"


def test_criterion_11_su2_sanity():
    start = time.perf_counter()
    for a, c in ((Q(1), Q(2)), (Q(2), Q(1)), (Q(3), Q(5))):
        cert = go_check(SU2, su2_diag_metric(a, a, c), count=8, exact=True)
        assert cert.verdict == "go-consistent", (a, c)
    bad = go_check(SU2, su2_diag_metric(Q(1), Q(2), Q(3)), count=8, exact=True)
    assert bad.verdict == "non-go-certified"
    assert all(
        r.method == "exact" for r in bad.results if r.status == "infeasible"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 11 took {elapsed:.2f}s"


def test_criterion_12_reproduction_determinism():
    runs = [run_python("-m", "gometrics", "reproduce", "g2-einstein", "--seed", "5") for _ in range(2)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout) > 0
