"""Compact Lie algebra constructions against independent matrix oracles."""

import copy
import hashlib
import itertools
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from gometrics import exactlinalg as ela
from gometrics import liealg
from gometrics.liealg import (
    Subspace,
    abelian,
    build_compact_from_rootsystem,
    build_su2,
    build_su3,
    centralizer,
    direct_sum,
    is_subalgebra,
    module_product,
    normalizer,
)
from gometrics.rootsys import build_a1, build_a2, build_g2
from gometrics.scalars import Quad
from gometrics.spaces import _G2_CARTAN, aloff_wallach


# -- independent oracle: 3x3 anti-hermitian traceless matrices ---------------


def su3_matrix_basis(k, l):
    """Matrix realizations of the eight basis elements for weights (k, l)."""
    m = -k - l
    L = k * k + l * l + m * m

    def E(a, b):
        return np.eye(3, dtype=complex)[:, [a]] @ np.eye(3)[[b], :]

    def R(a, b):
        return E(a, b) - E(b, a)

    def I(a, b):
        return 1j * (E(a, b) + E(b, a))

    f = np.sqrt(2.0 / (3.0 * L))
    Z = 1j * np.diag([k, l, m]).astype(complex)
    X0 = f * 1j * np.diag([l - m, m - k, k - l]).astype(complex)
    return [Z, X0, R(0, 1), I(0, 1), R(0, 2), I(0, 2), R(1, 2), I(1, 2)]


def trace_form(X, Y):
    return -0.5 * np.trace(X @ Y).real


@pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_su3_brackets_match_matrix_oracle(k, l):
    B = su3_matrix_basis(k, l)
    norms = np.array([trace_form(X, X) for X in B])
    alg = build_su3(k, l)
    worst = 0.0
    for i in range(8):
        for j in range(8):
            M = B[i] @ B[j] - B[j] @ B[i]
            coords = np.array([trace_form(M, B[t]) for t in range(8)]) / norms
            ei = [Q(0)] * 8
            ei[i] = Q(1)
            ej = [Q(0)] * 8
            ej[j] = Q(1)
            table = np.array([float(x) for x in alg.bracket(ei, ej)])
            worst = max(worst, np.abs(coords - table).max())
    assert worst <= 1e-12


@pytest.mark.parametrize("k,l", [(2, 1), (3, 2)])
def test_su3_inner_product_matches_trace_form(k, l):
    B = su3_matrix_basis(k, l)
    alg = build_su3(k, l)
    L = k * k + l * l + (k + l) ** 2
    for i in range(8):
        for j in range(8):
            ei = [Q(0)] * 8
            ei[i] = Q(1)
            ej = [Q(0)] * 8
            ej[j] = Q(1)
            got = float(alg.inner_product(ei, ej))
            want = trace_form(B[i], B[j])
            assert got == pytest.approx(want, abs=1e-12)
    # the first basis vector carries squared norm L/2, the rest are unit
    gram = alg.inner_diag
    assert gram[0] == Q(L, 2)
    assert all(g == 1 for g in gram[1:])


def test_su3_killing_is_minus_twelve_times_inner():
    alg = build_su3(2, 1)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            ei = [Q(0)] * n
            ei[i] = Q(1)
            ej = [Q(0)] * n
            ej[j] = Q(1)
            assert ela.dot(ei, ela.matvec(alg.killing, ej)) == -12 * alg.inner_product(ei, ej)


def test_su3_exact_jacobi_and_invariance():
    alg = build_su3(3, 1)
    alg.validate()  # exact Jacobi + inner-product ad-invariance
    assert alg.center.dim == 0
    assert alg.dim - alg.center.dim == 8


def test_su3_field_is_rational_for_equal_weights():
    assert build_su3(1, 1).field_d is None
    assert build_su3(2, 1).field_d == 21


@pytest.mark.parametrize("build", [build_a1, build_a2, build_g2])
def test_chevalley_build_checks_jacobi_once(build, monkeypatch):
    # the constructor's validate() checks Jacobi; the build must not check
    # it a second time
    calls = []
    original = liealg.CompactLieAlgebra.jacobi_residual

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(liealg.CompactLieAlgebra, "jacobi_residual", counted)
    alg = build_compact_from_rootsystem(build())
    assert len(calls) == 1 and calls[0] is alg


def test_g2_construction_exact():
    t0 = time.time()
    alg = build_compact_from_rootsystem(build_g2())
    assert alg.dim == 14
    alg.validate()
    assert time.time() - t0 < 5.0
    assert alg.field_d == 3
    assert alg.center.dim == 0
    assert alg.dim - alg.center.dim == 14
    # killing form of the -B gauge is minus the inner product
    n = alg.dim
    for i in range(n):
        ei = [Q(0)] * n
        ei[i] = Q(1)
        assert ela.dot(ei, ela.matvec(alg.killing, ei)) == -alg.inner_product(ei, ei)


@pytest.mark.parametrize(
    "build, digest",
    [
        (build_su2, "cbc63765bc836cefa268fad22f9fe38f43c356f74e0585156677d04762e1e7aa"),
        (
            lambda: build_compact_from_rootsystem(build_a2()),
            "3d9b3a4f898ba2f97066468283022f7fe6afb065963e6eb910b0b283a427168f",
        ),
        (
            lambda: build_compact_from_rootsystem(build_g2(), cartan_basis=_G2_CARTAN),
            "a278b1fb07d4ae88becc1e2a4b2f958323a0f7635bde49b371918197afefcb2a",
        ),
        (
            lambda: build_compact_from_rootsystem(build_g2()),
            "c5214b4dadebae0be52f8a80bb099b931ac6ff6faae3304a8327e6fec5aade3c",
        ),
        (
            lambda: build_su3(2, 1),
            "bb06e4d9bd4bea1d00b96258074b207ea6dd46a1c67b30a49bbbc4ff4c094db6",
        ),
    ],
)
def test_builders_keep_their_bracket_tables(build, digest):
    # every structure constant and inner-product entry, with its exact type
    alg = build()
    table = repr((sorted(alg._sparse.items()), alg.inner_diag))
    assert hashlib.sha256(table.encode()).hexdigest() == digest


def test_float_structure_jacobi_residual():
    for alg in (build_su3(2, 1), build_compact_from_rootsystem(build_g2())):
        c = alg.structure_np
        # [x,[y,z]] + [y,[z,x]] + [z,[x,y]] contracted over basis triples
        jac = (
            np.einsum("adm,bcd->abcm", c, c)
            + np.einsum("bdm,cad->abcm", c, c)
            + np.einsum("cdm,abd->abcm", c, c)
        )
        assert np.abs(jac).max() <= 1e-12
        g = alg.inner_np
        # ad-invariance: <[x,y],z> + <y,[x,z]> = 0
        inv = np.einsum("abk,kc->abc", c, g) + np.einsum("ack,kb->abc", c, g)
        assert np.abs(inv).max() <= 1e-12


def test_su2_is_three_dimensional_simple():
    alg = build_su2()
    assert alg.dim == 3
    alg.validate()
    assert alg.center.dim == 0
    e = [[Q(1) if i == j else Q(0) for j in range(3)] for i in range(3)]
    v = alg.bracket(e[0], e[1])
    assert any(v)


def test_bracket_float_path_matches_exact():
    alg = build_su3(2, 1)
    rng = np.random.default_rng(5)
    x = rng.integers(-4, 5, size=8)
    y = rng.integers(-4, 5, size=8)
    exact = alg.bracket([Q(int(a)) for a in x], [Q(int(b)) for b in y])
    floats = alg.bracket([float(a) for a in x], [float(b) for b in y])
    assert np.abs(np.array([float(v) for v in exact]) - np.array(floats)).max() < 1e-9


# -- subspaces ---------------------------------------------------------------


def test_subspace_projection_and_coefficients():
    alg = build_su3(2, 1)
    s = Subspace.from_indices(alg, (2, 3), label="plane")
    v = [Q(i) for i in range(8)]
    p = s.project(v)
    assert p[2] == 2 and p[3] == 3
    assert all(p[i] == 0 for i in (0, 1, 4, 5, 6, 7))
    assert s.coefficients(v) == [Q(2), Q(3)]
    assert s.contains(p)
    assert not s.contains(v)


def test_subspace_sum_intersect_complement():
    alg = build_su3(2, 1)
    a = Subspace.from_indices(alg, (0, 1, 2))
    b = Subspace.from_indices(alg, (2, 3))
    assert a.sum(b).dim == 4
    mid = a.intersect(b)
    assert mid.dim == 1 and mid.contains([Q(0)] * 2 + [Q(1)] + [Q(0)] * 5)
    comp = a.orthogonal_complement()
    assert comp.dim == 5
    for u in comp.basis:
        for w in a.basis:
            assert alg.inner_product(u, w) == 0


def test_module_operations_on_su3_planes():
    alg = build_su3(2, 1)
    torus = Subspace.from_indices(alg, (0, 1), label="torus")
    plane12 = Subspace.from_indices(alg, (2, 3))
    assert is_subalgebra(alg, torus)
    assert not is_subalgebra(alg, plane12)
    # torus rotates each plane into itself
    img = module_product(alg, torus, plane12)
    assert img.dim == 2 and plane12.contains_subspace(img)
    cent = centralizer(alg, torus)
    assert cent.dim == 2  # the torus itself, for generic weights
    norm = normalizer(alg, plane12.sum(torus))
    assert norm.contains_subspace(torus)


def test_centralizer_of_isotropy_in_su3():
    # the element fixing the isotropy circle: centralizer of Z is the
    # full torus, so the complement contributes exactly one direction
    alg = build_su3(2, 1)
    z_only = Subspace.from_indices(alg, (0,))
    cent = centralizer(alg, z_only)
    assert cent.dim == 2


def test_centralizer_and_normalizer_without_equations_are_everything():
    # no equations constrain x, so the whole algebra qualifies
    su2 = build_su2()
    whole = Subspace.from_indices(su2, range(3))
    zero = Subspace(su2, ())
    assert normalizer(su2, whole).dim == 3
    assert normalizer(su2, zero).dim == 3
    assert centralizer(su2, zero).dim == 3


def test_direct_sum_and_abelian():
    su2 = build_su2()
    ab = abelian(1, "center")
    total = direct_sum(su2, ab, name="u(2)")
    assert total.dim == 4
    total.validate()
    assert total.center.dim == 1
    # factors commute
    x = [Q(1), Q(0), Q(0), Q(0)]
    y = [Q(0), Q(0), Q(0), Q(1)]
    assert not any(total.bracket(x, y))


def test_validate_rejects_broken_structure():
    alg = build_su2()
    bad = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
    bad[0][1][2] = Q(1)  # [e0,e1] = e2 with no compensating relations
    bad[1][0][2] = Q(-1)
    bad[0][2][1] = Q(1)  # breaks invariance and Jacobi
    bad[2][0][1] = Q(-1)
    with pytest.raises(ValueError):
        liealg.CompactLieAlgebra(
            name="broken",
            basis_labels=("a", "b", "c"),
            structure=bad,
            inner=[[alg.inner[i][j] for j in range(3)] for i in range(3)],
        )


def _plane(inner):
    return liealg.CompactLieAlgebra(
        name="plane",
        basis_labels=("a", "b"),
        structure=[[[Q(0)] * 2 for _ in range(2)] for _ in range(2)],
        inner=[[Q(x) for x in row] for row in inner],
    )


def test_validate_rejects_indefinite_inner_product():
    for inner in ([[0, 0], [0, 1]], [[-2, 0], [0, 1]], [[1, 0], [0, -1]]):
        with pytest.raises(liealg.AlgebraValidationError, match="positive definite"):
            _plane(inner)
    # every builder gives a diagonal inner product, and only those are taken
    for inner in ([[1, 2], [2, 1]], [[-2, 1], [1, -2]], [[2, 1], [1, 2]]):
        with pytest.raises(liealg.AlgebraValidationError, match="not diagonal"):
            _plane(inner)
    assert _plane([[2, 0], [0, 3]]).dim == 2


def _rebuilt(alg, lambda_minus_b, inner=None):
    """alg's structure constants under another lambda or inner product."""
    return liealg.CompactLieAlgebra(
        name=alg.name,
        basis_labels=alg.basis_labels,
        structure=alg.structure,
        inner=alg.inner if inner is None else inner,
        lambda_minus_b=lambda_minus_b,
        field_d=alg.field_d,
    )


def test_validate_rejects_wrong_lambda_on_su3():
    su3 = build_su3(2, 1)
    assert _rebuilt(su3, Q(1, 12)).dim == 8
    with pytest.raises(liealg.AlgebraValidationError, match=r"lambda \* \(-Killing\)"):
        _rebuilt(su3, Q(1, 6))


def test_validate_checks_lambda_beside_a_center():
    # u(2) = su(2) + R: the center term of <e_i, e_j> + lambda B_ij must
    # cancel the center's own inner product, and only lambda = 1 fits su(2)
    u2 = direct_sum(build_su2(), abelian(1))
    assert u2.lambda_minus_b == Q(1)  # su(2)'s: the torus has no derived algebra
    assert _rebuilt(u2, Q(1)).center.dim == 1
    with pytest.raises(liealg.AlgebraValidationError, match=r"lambda \* \(-Killing\)"):
        _rebuilt(u2, Q(2))


def test_direct_sum_with_a_torus_checks_the_other_summands_lambda():
    wrong = copy.copy(build_su2())
    wrong.lambda_minus_b = Q(2)
    for a, b in ((wrong, abelian(1)), (abelian(2), wrong)):
        with pytest.raises(liealg.AlgebraValidationError, match=r"lambda \* \(-Killing\)"):
            direct_sum(a, b)
    # every u(3) extension of an Aloff-Wallach space carries su(3)'s lambda
    assert aloff_wallach(2, 1).extension[0].lambda_minus_b == Q(1, 12)
    assert direct_sum(abelian(1), abelian(2)).lambda_minus_b is None


def test_validate_rejects_inner_product_coupling_center_to_su2():
    u2 = direct_sum(build_su2(), abelian(1))
    inner = [list(row) for row in u2.inner]
    inner[0][3] = inner[3][0] = Q(1, 4)  # still positive definite
    with pytest.raises(liealg.AlgebraValidationError, match="not diagonal"):
        _rebuilt(u2, Q(1), inner=inner)


def _e2(rotation_first):
    """The Euclidean algebra e(2) under the identity inner product.

    ad of the rotation is skew there but ad of a translation is not, so
    the inner product is not ad-invariant (and e(2) is not compact).
    """
    r, t1, t2 = (0, 1, 2) if rotation_first else (2, 0, 1)
    structure = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, c, s in ((r, t1, t2, 1), (r, t2, t1, -1)):
        structure[a][b][c] = Q(s)
        structure[b][a][c] = Q(-s)
    return liealg.CompactLieAlgebra(
        name="e2",
        basis_labels=("a", "b", "c"),
        structure=structure,
        inner=[[Q(int(i == j)) for j in range(3)] for i in range(3)],
    )


@pytest.mark.parametrize("rotation_first", [True, False])
def test_validate_rejects_e2_in_either_basis_order(rotation_first):
    # with the rotation first, every nonzero bracket [e_i, e_j] has i < j
    # on the rotation, so only the reversed pairs reach ad of a translation
    with pytest.raises(liealg.AlgebraValidationError, match="not ad-invariant"):
        _e2(rotation_first)
