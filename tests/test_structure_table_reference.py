"""The integer structure table against the Fraction loops it replaced.

``CompactLieAlgebra`` validates, brackets and computes its Killing form
on integer pairs p + q sqrt(d) (``_table``); centralizers, the center and
commutation kernels reach the elimination as integer rows, and each
Subspace brackets its basis once on integer pairs (``frame_table``).  The
references below are the Fraction and Quad loops that did this before:
the Jacobi and Killing sums over ``_sparse``, the adjoint matrix, the
exact bracket and a decomposition's bracket table.  Every value must be
equal, with equal exact types.
"""

import itertools
from fractions import Fraction as Q

import pytest

from gometrics import exactlinalg as ela
from gometrics.liealg import (
    Subspace,
    abelian,
    build_compact_from_rootsystem,
    build_su2,
    build_su3,
    centralizer,
    direct_sum,
)
from gometrics.metrics import ModuleDecomposition
from gometrics.rootsys import build_a2, build_g2
from gometrics.scalars import Quad, exact_div
from gometrics.spaces import _G2_CARTAN, _killing_profile, aloff_wallach, g2_decomposition

_ZERO = Q(0)


# -- the Fraction loops ------------------------------------------------------


def _basis_bracket(L, i, j):
    if i == j:
        return []
    if i < j:
        return L._sparse.get((i, j), [])
    return [(k, -c) for k, c in L._sparse.get((j, i), [])]


def reference_jacobi_residual(L) -> list:
    """All nonzero Jacobi defects, as (i, j, k, coefficient dict)."""
    n = L.dim
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cab in _basis_bracket(L, a, b):
                        for r, cmc in _basis_bracket(L, m, c):
                            acc[r] = acc.get(r, Q(0)) + cab * cmc
                if any(acc.values()):
                    bad.append((i, j, k, acc))
    return bad


def reference_killing(L):
    """Killing matrix B_ij = tr(ad e_i ad e_j), summed in Fraction and Quad."""
    n = L.dim
    B = [[Q(0)] * n for _ in range(n)]
    # ad(e_i) maps e_j to sum_k c[i][j][k] e_k
    for i in range(n):
        for j in range(i, n):
            tot = Q(0)
            for a in range(n):
                for k, cik in _basis_bracket(L, i, a):
                    cj = L.structure[j][k][a]
                    if cj:
                        tot = tot + cik * cj
            B[i][j] = tot
            B[j][i] = tot
    return tuple(tuple(row) for row in B)


def reference_ad_matrix(L, x):
    """Matrix of ad(x) acting on coordinates (rows = output index)."""
    n = L.dim
    m = [[Q(0)] * n for _ in range(n)]
    for (i, j), ent in L._sparse.items():
        if x[i]:
            for k, c in ent:
                m[k][j] = m[k][j] + x[i] * c
        if x[j]:
            for k, c in ent:
                m[k][i] = m[k][i] - x[j] * c
    return m


def reference_bracket(L, x, y):
    """[x, y] for exact x and y, summed over ``_sparse``."""
    out = [Q(0)] * L.dim
    for (i, j), ent in L._sparse.items():
        xi, yj, xj, yi = x[i], y[j], x[j], y[i]
        if not ((xi and yj) or (xj and yi)):
            continue
        f = xi * yj - xj * yi
        if f:
            for k, c in ent:
                out[k] = out[k] + f * c
    return out


def reference_solution_space(L, rows):
    """{x : r . x = 0 for every row r} of exact rows: all of g without rows."""
    if not rows:
        return Subspace.from_indices(L, range(L.dim))
    return Subspace.from_vectors(L, ela.nullspace(rows))


def reference_center(L):
    return reference_solution_space(L, reference_killing(L))


def reference_centralizer(L, p):
    return reference_solution_space(L, [row for b in p.basis for row in reference_ad_matrix(L, b)])


def reference_frame_table(dec):
    """(frame brackets K, leaking pairs, {(a, b): lower([v_a, v_b])}), one
    Fraction bracket per frame pair a < b; a bracket lies in the ambient
    span exactly when its frame coordinates keep its length."""
    L = dec.parent
    vecs, norms = dec.ambient.basis, dec.ambient._norms
    n = len(vecs)
    zeros = (_ZERO,) * n
    K = [[zeros] * n for _ in range(n)]
    leaks, rows = set(), {}
    for a, b in itertools.combinations(range(n), 2):
        uw = reference_bracket(L, vecs[a], vecs[b])
        if not any(uw):
            continue
        rows[a, b] = tuple(c or _ZERO for c in L.lower(uw))
        coords = [exact_div(L.inner_product(uw, v), nv) for v, nv in zip(vecs, norms)]
        K[a][b] = tuple(c or _ZERO for c in coords)
        K[b][a] = tuple(-c or _ZERO for c in coords)
        kept = sum((c * c * nv for c, nv in zip(coords, norms) if c), _ZERO)
        if kept != L.inner_product(uw, uw):
            leaks.add((a, b))
    return tuple(tuple(row) for row in K), leaks, rows


def reference_bracket_reach(dec, K, leaks):
    owner = dec.frame_owner
    out = {pair: set() for pair in itertools.combinations_with_replacement(range(len(dec.blocks)), 2)}
    for a, b in itertools.combinations(range(len(owner)), 2):
        out[owner[a], owner[b]].update(owner[m] for m, c in enumerate(K[a][b]) if c)
        if (a, b) in leaks:
            out[owner[a], owner[b]].add(None)
    return out


def reference_commutation_kernel(dec, rows, key):
    cls = [key[i] for i in dec.frame_owner]
    return reference_solution_space(dec.parent, [r for (a, b), r in rows.items() if cls[a] != cls[b]])


def reference_killing_profile(L, p):
    """(dim, rank, negative_definite) from centralizers in g cut down to p."""
    if not all(p.contains(reference_bracket(L, a, b)) for a, b in itertools.combinations(p.basis, 2)):
        raise ValueError("subspace is not closed under the bracket")
    negdef = reference_centralizer(L, p).intersect(p).dim == 0
    for attempt in range(1, 4):
        g0 = ela.matvec(list(zip(*p.basis)), [Q((i + 1) ** attempt) for i in range(p.dim)])
        cent = reference_centralizer(L, Subspace.from_vectors(L, [g0])).intersect(p)
        if all(not any(reference_bracket(L, u, w)) for u, w in itertools.combinations(cent.basis, 2)):
            return p.dim, cent.dim, negdef
    raise ValueError("no regular element found for the rank computation")


# -- helpers --------------------------------------------------------------------


def assert_same(a, b):
    """Equal exact values with equal exact types, entry by entry."""
    if isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert type(a) is type(b) and a == b, (a, b)


def _algebras():
    """su(2), A2, G2 in both Cartan bases, su(3) at the five bench weight
    pairs and at (1, 1), direct sums with an abelian summand, and the u(3)
    extension of W[2,1]."""
    return {
        "su2": build_su2(),
        "a2": build_compact_from_rootsystem(build_a2()),
        "g2": build_compact_from_rootsystem(build_g2()),
        "g2-blocks": build_compact_from_rootsystem(build_g2(), cartan_basis=_G2_CARTAN),
        **{f"su3{kl}": build_su3(*kl) for kl in ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (1, 1))},
        "u2": direct_sum(build_su2(), abelian(1)),
        "t2+su2": direct_sum(abelian(2), build_su2()),
        "u3": aloff_wallach(2, 1).extension[0],
    }


ALGEBRAS = _algebras()


def _vectors(L):
    """Exact test vectors: the basis, a dense rational vector and, over
    Q(sqrt d), one with an irrational entry."""
    n = L.dim
    units = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    dense = [Q((3 * i + 1) % 7 - 3, 1 + i % 3) for i in range(n)]
    out = units + [dense]
    if L.field_d:
        out.append([Quad(Q(1, 2), Q(i % 2), L.field_d) if i % 3 else Q(i) for i in range(n)])
    return out


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_killing_jacobi_and_center_match_the_fraction_loops(name):
    L = ALGEBRAS[name]
    assert_same(L.killing, reference_killing(L))
    assert reference_jacobi_residual(L) == [] == L.jacobi_residual()
    assert_same(L.center.basis, reference_center(L).basis)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_brackets_and_centralizers_match_the_fraction_loops(name):
    L = ALGEBRAS[name]
    vectors = _vectors(L)
    for x, y in itertools.product(vectors, repeat=2):
        assert_same(L.bracket(x, y), reference_bracket(L, x, y))
    subspaces = [Subspace(L, ()), Subspace.from_indices(L, range(L.dim))]
    subspaces += [Subspace.from_vectors(L, [v]) for v in vectors]
    subspaces.append(Subspace.from_indices(L, L.cartan_indices))
    for p in subspaces:
        assert_same(centralizer(L, p).basis, reference_centralizer(L, p).basis)


def _decompositions():
    g2 = g2_decomposition()
    su3 = build_su3(2, 1)
    out = {
        "g2": g2.blocks,
        "su3": ModuleDecomposition(su3, tuple(Subspace.from_indices(su3, ix) for ix in ((0,), (1,), (2, 3), (4, 5), (6, 7)))),
        "su2": ModuleDecomposition(ALGEBRAS["su2"], tuple(Subspace.from_indices(ALGEBRAS["su2"], (i,)) for i in range(3))),
        "u3": aloff_wallach(2, 1).extension[2],
    }
    out.update({f"aw{kl}": aloff_wallach(*kl).blocks for kl in ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (1, 1))})
    return out


def _partitions(n):
    """Every partition of n blocks, as a coefficient tuple per partition."""
    if n == 0:
        yield ()
        return
    for rest in _partitions(n - 1):
        for cls in range(max(rest, default=0) + 1):
            yield rest + (cls + 1,)


@pytest.mark.parametrize("name", list(_decompositions()))
def test_frame_table_reach_rows_and_kernels_match_the_fraction_table(name):
    dec = _decompositions()[name]
    fresh = ModuleDecomposition(parent=dec.parent, blocks=dec.blocks, name=dec.name)
    K, leaks, rows = reference_frame_table(fresh)
    assert_same(fresh.frame_brackets, K)
    d, got_leaks, _, (row_den, got_rows) = fresh.ambient.frame_table
    assert got_leaks == leaks
    assert fresh.bracket_reach == reference_bracket_reach(fresh, K, leaks)
    n = fresh.parent.dim
    assert list(got_rows) == list(rows)
    for key, row in got_rows.items():
        assert_same(tuple(ela.pair_value(row[k], row[n + k], row_den, d) for k in range(n)), rows[key])
    for coeffs in _partitions(len(fresh.blocks)):
        kernel = fresh.commutation_kernel(coeffs)
        assert_same(kernel.basis, reference_commutation_kernel(fresh, rows, coeffs).basis)


def test_killing_profiles_match_the_centralizer_reference():
    dec = g2_decomposition()
    L = dec.algebra
    p = [dec.block(i) for i in range(1, 6)]
    cases = [dec.torus, p[1], p[0].sum(p[3]), dec.su2su2, dec.su3like, Subspace.from_indices(L, range(L.dim))]
    for sub in cases:
        assert _killing_profile(L, sub) == reference_killing_profile(L, sub)
        # the centralizers the reference cuts down to sub
        assert_same(centralizer(L, sub).basis, reference_centralizer(L, sub).basis)
        for attempt in range(1, 4):
            g0 = ela.matvec(list(zip(*sub.basis)), [Q((i + 1) ** attempt) for i in range(sub.dim)])
            line = Subspace.from_vectors(L, [g0])
            assert_same(centralizer(L, line).basis, reference_centralizer(L, line).basis)
    su3 = ALGEBRAS["su3(2, 1)"]
    whole = Subspace.from_indices(su3, range(8))
    assert _killing_profile(su3, whole) == reference_killing_profile(su3, whole) == (8, 2, True)
    u2 = ALGEBRAS["u2"]
    whole = Subspace.from_indices(u2, range(4))
    assert _killing_profile(u2, whole) == reference_killing_profile(u2, whole) == (4, 2, False)

