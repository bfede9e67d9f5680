"""Compact Lie algebras with exact structure constants.

An algebra is stored as a basis, a structure-constant tensor over
Q(sqrt(D)), an ad-invariant inner product that is diagonal with
positive entries in that basis, and the factor lambda relating that
inner product to minus the Killing form on the derived subalgebra.  Two
builders matter here:

* ``build_su3(k, l)`` realizes su(3) abstractly in the 8-element basis
  (Z, X0, X1..X6) attached to the weighted circle with weights
  (k, l, -k-l); the 3x3 matrix realization is used only by test oracles.
* ``build_compact_from_rootsystem`` constructs the compact form of the
  algebra of a rank <= 2 root system from Chevalley data, with every
  undetermined sign +1.

Every algebra is validated at construction.  Validation checks what can
fail (antisymmetry, a diagonal inner product with positive entries,
Jacobi, ad-invariance <[x, y], z> = <x, [y, z]>, read through
``lower``, the one dual vector, and lambda); the center is then the
Killing kernel.  ``normalizer`` and the right-isometry kernel in
``metrics`` rely on ad-invariance: they pair [e_i, u] with w as the
i-th coordinate of ``lower([u, w])``, without bracketing unit vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property

import numpy as np

from . import exactlinalg as ela
from . import rootsys
from .scalars import exact_div, exact_sqrt, squarefree_decompose


_ZERO = Q(0)


class AlgebraValidationError(ValueError):
    pass


class CompactLieAlgebra:
    """Finite-dimensional compact (reductive) Lie algebra over Q(sqrt(D)).

    structure[i][j][k] is the e_k coefficient of [e_i, e_j].  The inner
    product must be ad-invariant, diagonal and positive definite; on the
    derived subalgebra it equals lambda_minus_b * (-Killing) when that
    factor is recorded.
    """

    def __init__(
        self,
        name: str,
        basis_labels,
        structure,
        inner,
        lambda_minus_b=None,
        cartan_indices=(),
        field_d: int | None = None,
    ):
        self.name = name
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        self.structure = tuple(
            tuple(tuple(row) for row in plane) for plane in structure
        )
        self.inner = tuple(tuple(row) for row in inner)
        self.lambda_minus_b = lambda_minus_b
        self.cartan_indices = tuple(cartan_indices)
        self.field_d = field_d
        self.validate()

    # -- basic tensors ------------------------------------------------

    @cached_property
    def _sparse(self):
        """{(i, j): [(k, c), ...]} for i < j with nonzero brackets."""
        out = {}
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                ent = [
                    (k, self.structure[i][j][k])
                    for k in range(n)
                    if self.structure[i][j][k]
                ]
                if ent:
                    out[(i, j)] = ent
        return out

    def _basis_bracket(self, i: int, j: int):
        if i == j:
            return []
        if i < j:
            return self._sparse.get((i, j), [])
        return [(k, -c) for k, c in self._sparse.get((j, i), [])]

    @cached_property
    def killing(self):
        """Killing matrix B_ij = tr(ad e_i ad e_j), exact."""
        n = self.dim
        B = [[Q(0)] * n for _ in range(n)]
        # ad(e_i) maps e_j to sum_k c[i][j][k] e_k
        for i in range(n):
            for j in range(i, n):
                tot = Q(0)
                for a in range(n):
                    for k, cik in self._basis_bracket(i, a):
                        cj = self.structure[j][k][a]
                        if cj:
                            tot = tot + cik * cj
                B[i][j] = tot
                B[j][i] = tot
        return tuple(tuple(row) for row in B)

    @cached_property
    def structure_np(self) -> np.ndarray:
        n = self.dim
        c = np.zeros((n, n, n))
        for (i, j), ent in self._sparse.items():
            for k, v in ent:
                c[i, j, k] = float(v)
                c[j, i, k] = -float(v)
        return c

    @cached_property
    def inner_np(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.inner])

    @cached_property
    def inner_diag(self):
        """Diagonal of the inner product, which ``validate`` requires to
        be diagonal."""
        return tuple(self.inner[i][i] for i in range(self.dim))

    # -- operations ----------------------------------------------------

    def bracket(self, x, y):
        """[x, y] in basis coordinates, exact when both inputs are exact."""
        n = self.dim
        if ela.all_exact(x) and ela.all_exact(y):
            out = [Q(0)] * n
            for (i, j), ent in self._sparse.items():
                xi, yj, xj, yi = x[i], y[j], x[j], y[i]
                if not ((xi and yj) or (xj and yi)):
                    continue
                f = xi * yj - xj * yi
                if f:
                    for k, c in ent:
                        out[k] = out[k] + f * c
            return out
        xv = np.asarray([float(v) for v in x])
        yv = np.asarray([float(v) for v in y])
        return list(np.einsum("ijk,i,j->k", self.structure_np, xv, yv))

    def ad_matrix(self, x):
        """Matrix of ad(x) acting on coordinates (rows = output index)."""
        n = self.dim
        m = [[Q(0)] * n for _ in range(n)]
        for (i, j), ent in self._sparse.items():
            if x[i]:
                for k, c in ent:
                    m[k][j] = m[k][j] + x[i] * c
            if x[j]:
                for k, c in ent:
                    m[k][i] = m[k][i] - x[j] * c
        return m

    def inner_product(self, x, y):
        # zero factors are common (sparse brackets); skip their products
        return sum((a * d * b for a, d, b in zip(x, self.inner_diag, y) if a and b), Q(0))

    def lower(self, v):
        """Coordinates of the linear form x -> <x, v>."""
        return [d * x for d, x in zip(self.inner_diag, v)]

    @cached_property
    def center(self) -> "Subspace":
        """The Killing kernel: the center of a validated algebra."""
        return solution_space(self, self.killing, label="center")

    # -- validation -----------------------------------------------------

    def jacobi_residual(self) -> list:
        """All nonzero Jacobi defects, as (i, j, k, coefficient list)."""
        n = self.dim
        bad = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, cab in self._basis_bracket(a, b):
                            for r, cmc in self._basis_bracket(m, c):
                                acc[r] = acc.get(r, Q(0)) + cab * cmc
                    if any(acc.values()):
                        bad.append((i, j, k, acc))
        return bad

    def validate(self) -> None:
        n = self.dim
        if len(self.structure) != n or len(self.inner) != n:
            raise AlgebraValidationError("tensor dimensions do not match basis")
        for i in range(n):
            for j in range(n):
                if i != j and self.inner[i][j]:
                    raise AlgebraValidationError("inner product is not diagonal")
                for k in range(n):
                    if self.structure[i][j][k] + self.structure[j][i][k]:
                        raise AlgebraValidationError("structure tensor not antisymmetric")
        if not all(x > 0 for x in self.inner_diag):
            raise AlgebraValidationError("inner product not positive definite")
        if self.jacobi_residual():
            raise AlgebraValidationError("Jacobi identity fails")
        # ad-invariance: C_ijk = <[e_i,e_j], e_k> is antisymmetric in j, k.
        # C_ijk + C_ikj is nonzero only where [e_i, e_j] or [e_i, e_k] is, so
        # both orders of each nonzero bracket, against every k, cover it.
        zero, low = [Q(0)] * n, {}
        for (i, j), ent in self._sparse.items():
            e = dict(ent)
            low[i, j] = self.lower([e.get(k, _ZERO) for k in range(n)])
            low[j, i] = [-x for x in low[i, j]]
        for (i, j), row in low.items():
            if any(row[k] + low.get((i, k), zero)[j] for k in range(n)):
                raise AlgebraValidationError("inner product is not ad-invariant")
        # ad x is now skew, so B(x, x) = -|ad x|^2: ker B is the center and
        # [g, g] its orthogonal complement (Helgason 1978, ch. II), and
        # lambda reads <e_i, e_j> + lambda B_ij = <e_i, pi_center e_j>.
        if self.lambda_minus_b is not None:
            lam, K, z = self.lambda_minus_b, self.killing, self.center
            forms = [(self.lower(c), nc) for c, nc in zip(z.basis, z._norms)]
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                on_z = sum((exact_div(f[i] * f[j], nc) for f, nc in forms), _ZERO)
                if self.inner[i][j] + lam * K[i][j] - on_z:
                    raise AlgebraValidationError(
                        "inner product is not lambda * (-Killing) on [g,g]"
                    )

    def __repr__(self):
        return f"CompactLieAlgebra({self.name}, dim={self.dim})"


@dataclass(frozen=True)
class Subspace:
    """A subspace of a CompactLieAlgebra with an inner-orthogonal basis.

    The basis is kept pairwise orthogonal but unnormalized: normalizing
    would leave Q(sqrt(D)).  A float orthonormal view is available for
    numerical work.
    """

    parent: CompactLieAlgebra
    basis: tuple
    label: str = ""

    @classmethod
    def from_vectors(cls, parent, vectors, label: str = "") -> "Subspace":
        ortho = ela.gram_schmidt(
            [list(v) for v in vectors], parent.inner_product
        )
        return cls(parent=parent, basis=tuple(tuple(v) for v in ortho), label=label)

    @classmethod
    def from_indices(cls, parent, indices, label: str = "") -> "Subspace":
        vecs = []
        for i in indices:
            v = [Q(0)] * parent.dim
            v[i] = Q(1)
            vecs.append(v)
        return cls.from_vectors(parent, vecs, label=label)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        # the basis is orthogonal, so membership is a zero projection residual
        res = [x - p for x, p in zip(v, self.project(v))]
        return ela.vec_is_zero(res)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    @cached_property
    def _norms(self) -> tuple:
        """<b, b> for each basis vector b, the divisors of every projection."""
        return tuple(self.parent.inner_product(b, b) for b in self.basis)

    def project(self, v):
        out = [Q(0)] * self.parent.dim
        for b, nb in zip(self.basis, self._norms):
            c = exact_div(self.parent.inner_product(v, b), nb)
            if c:
                out = [x + c * y for x, y in zip(out, b)]
        return out

    def coefficients(self, v):
        """Coordinates of the projection of v in this orthogonal basis."""
        return [
            exact_div(self.parent.inner_product(v, b), nb)
            for b, nb in zip(self.basis, self._norms)
        ]

    def sum(self, other: "Subspace", label: str = "") -> "Subspace":
        return Subspace.from_vectors(
            self.parent, list(self.basis) + list(other.basis), label=label
        )

    def intersect(self, other: "Subspace", label: str = "") -> "Subspace":
        vecs = ela.intersect_spans(
            [list(b) for b in self.basis], [list(b) for b in other.basis]
        )
        return Subspace.from_vectors(self.parent, vecs, label=label)

    def orthogonal_complement(self, label: str = "") -> "Subspace":
        vecs = []
        for v in Subspace.from_indices(self.parent, range(self.parent.dim)).basis:
            w = [x - y for x, y in zip(v, self.project(v))]
            if not ela.vec_is_zero(w):
                vecs.append(w)
        return Subspace.from_vectors(self.parent, vecs, label=label)

    @cached_property
    def bracket_system(self) -> "BracketSystem":
        """The system with this basis as generators and coordinates as
        the pairing, compiled on first use (the group case of ``gocheck``)."""
        return BracketSystem(self.parent, self.basis)

    @cached_property
    def onb_np(self) -> np.ndarray:
        """Columns form a float basis orthonormal w.r.t. the inner product."""
        if self.dim == 0:
            return np.zeros((self.parent.dim, 0))
        cols = np.array([[float(x) for x in b] for b in self.basis]).T
        norms = [float(nb) ** 0.5 for nb in self._norms]
        return cols / np.asarray(norms)[None, :]

    def __repr__(self):
        lab = self.label or "subspace"
        return f"Subspace({lab}, dim={self.dim})"


class BracketSystem:
    """The linear system sum_j z_j pair([u, w_j]) = -pair([u, x]) in z,
    compiled once for fixed generators w_j and a pairing: pair(v) lists
    <v, y_i> over a pairing basis y, or the coordinates of v without one.

    The sparse exact tensors S[a, b] = pair([e_a, e_b]) for a < b and
    G[a] = pair([e_a, w_j]) (entry (i, j)), from ``bracket`` and one
    pairing helper, give for u and x

        M = sum_a u_a G[a],   rhs = -sum_{a<b} (u_a x_b - u_b x_a) S[a, b]

    with no bracket or inner product: float input by one numpy
    contraction over float copies of them, exact input on integer pairs
    of them in the frame of a metric's blocks (``in_frame``).
    """

    def __init__(self, L: CompactLieAlgebra, generators, pairing=None):
        self.algebra, self.generators = L, generators
        self.shape = (L.dim if pairing is None else len(pairing), len(generators))
        self._forms = None if pairing is None else [L.lower(y) for y in pairing]

    def _pair(self, ent):  # pair(v) as nonzero (i, value), from v's (k, v_k)
        ent = [(k, c) for k, c in ent if c]
        if self._forms is None:
            return ent
        sums = (sum((c * f[k] for k, c in ent if f[k]), _ZERO) for f in self._forms)
        return [(i, v) for i, v in enumerate(sums) if v]

    @cached_property
    def _float_tensors(self):
        n, (rows, cols) = self.algebra.dim, self.shape
        d, den, G, S = self.in_frame([[int(k == a) for k in range(n)] for a in range(n)], range(n))
        Gf, Sf = np.zeros((n, rows, cols)), np.zeros((n, n, rows))
        for a, entries in enumerate(G):
            for i, j, p, q in entries:
                Gf[a, i, j] = ela.pair_float(p, q, den, d)
        for a, b, entries in S:
            for i, _, p, q in entries:
                Sf[a, b, i] = ela.pair_float(p, q, den, d)
                Sf[b, a, i] = -Sf[a, b, i]
        return Gf, Sf

    def in_frame(self, frame, owner) -> tuple:
        """(d, den, G', S') in a frame v of exact vectors, v_m in block
        owner[m]: G'[m] = pair([v_m, w_j]) as [(i, j, p, q), ..] and S' =
        [(m, m', [(i, cols, p, q), ..]), ..], pair([v_m, v_m']) for m < m'
        in different blocks, all integer pairs (p + q sqrt(d)) / den."""
        L, cols = self.algebra, self.shape[1]
        brackets = ([self._pair(enumerate(L.bracket(u, w))) for w in self.generators] for u in frame)
        G = [[(i, j, v) for j, col in enumerate(row) for i, v in col] for row in brackets]
        pairs = (mn for mn in itertools.combinations(range(len(frame)), 2) if owner[mn[0]] != owner[mn[1]])
        S = [(m, n, col) for m, n in pairs if (col := self._pair(enumerate(L.bracket(frame[m], frame[n]))))]
        d, den, p, q = ela.clear_denominators(e[-1] for ent in [*G, *(c for *_, c in S)] for e in ent)
        pq = iter(zip(p, q))
        G = [[(i, j, *next(pq)) for i, j, _ in ent] for ent in G]
        return d, den, G, [(m, n, [(i, cols, *next(pq)) for i, _ in ent]) for m, n, ent in S]

    def equations(self, u, x):
        """The float system for u and x: numpy arrays (M, rhs)."""
        G, S = self._float_tensors
        uf = np.array([float(v) for v in u])
        xf = np.array([float(v) for v in x])
        return np.tensordot(uf, G, 1), -(xf @ np.tensordot(uf, S, 1))

    def frame_equations(self, tensors, coefficients, coordinates) -> ela.PairRows:
        """[M s | rhs s] for u = A x as ``exactlinalg.PairRows``: from the
        ``in_frame`` tensors, alpha[m] / aden and x's frame coordinates C[m] /
        cden (over alpha's radicand), M = sum_m a_m c_m G'[m] and rhs = -sum
        (a_m - a_m') c_m c_m' S'[m, m'] over m < m', zero in one block."""
        (d, gden, G, S), (_, aden, alpha), (xd, cden, C, _) = tensors, coefficients, coordinates
        if d and xd and d != xd:
            raise ValueError(f"mixed radicands sqrt({d}) and sqrt({xd})")
        d, (rows, cols) = d or xd, self.shape
        out = [[0] * (2 * cols + 2) for _ in range(rows)]
        # scaled by s = aden cden^2 gden; pairs with equal coefficients cancel too
        terms = [((ap * cp + aq * cq * d) * cden, (ap * cq + aq * cp) * cden, ent)
                 for (ap, aq), (cp, cq), ent in zip(alpha, C, G)]
        for m, n, ent in S:
            if alpha[m] != alpha[n]:
                (ap, aq), (bp, bq), (cp, cq), (ep, eq) = alpha[m], alpha[n], C[m], C[n]
                p, q, da, db = cp * ep + cq * eq * d, cp * eq + cq * ep, bp - ap, bq - aq
                terms.append((da * p + db * q * d, da * q + db * p, ent))
        for fp, fq, entries in terms:
            if fp or fq:
                for i, j, p, q in entries:
                    row = out[i]
                    row[j] += fp * p + fq * q * d
                    row[cols + 1 + j] += fp * q + fq * p
        return ela.PairRows(d, out, [aden * cden * cden * gden] * rows)


# -- module-level operations (spec names) --------------------------------


def module_product(L: CompactLieAlgebra, p: Subspace, q: Subspace, label: str = "") -> Subspace:
    """Span of all brackets [p, q], as a Subspace."""
    vecs = []
    for a in p.basis:
        for b in q.basis:
            v = L.bracket(a, b)
            if not ela.vec_is_zero(v):
                vecs.append(v)
    return Subspace.from_vectors(L, vecs, label=label or f"[{p.label},{q.label}]")


def is_subalgebra(L: CompactLieAlgebra, p: Subspace) -> bool:
    for a, b in itertools.combinations(p.basis, 2):
        if not p.contains(L.bracket(a, b)):
            return False
    return True


def solution_space(L: CompactLieAlgebra, rows, label: str = "") -> Subspace:
    """{x in g : r . x = 0 for every row r}: all of g when there are no rows."""
    if not rows:
        return Subspace.from_indices(L, range(L.dim), label=label)
    return Subspace.from_vectors(L, ela.nullspace(rows), label=label)


def centralizer(L: CompactLieAlgebra, p: Subspace, label: str = "") -> Subspace:
    """{x in g : [x, b] = 0 for all b in p}."""
    rows = [row for b in p.basis for row in L.ad_matrix(b)]
    return solution_space(L, rows, label=label or f"c({p.label})")


def normalizer(L: CompactLieAlgebra, p: Subspace, label: str = "") -> Subspace:
    """{x in g : [x, p] inside p}."""
    comp = p.orthogonal_complement()
    # <[e_i, b], w> = <e_i, [b, w]> by ad-invariance
    rows = [L.lower(L.bracket(b, w)) for b in p.basis for w in comp.basis]
    return solution_space(L, rows, label=label or f"n({p.label})")


# -- builders -------------------------------------------------------------


def build_su3(k: int = 2, l: int = 1) -> CompactLieAlgebra:
    """su(3) in the weighted-circle basis (Z, X0, X1..X6).

    Z generates the circle with integer weights (k, l, m), m = -k-l; X0
    is the unit Cartan direction orthogonal to Z; (X1, X2), (X3, X4),
    (X5, X6) span the three coordinate root planes.  The inner product
    is the trace form with B = -12 * inner; lambda = 1/12.
    """
    if (k, l) == (0, 0):
        raise ValueError("weights (0, 0) do not define a circle subgroup")
    m = -k - l
    L = k * k + l * l + m * m
    s, rem = squarefree_decompose(6 * L)
    field_d = None if rem == 1 else rem
    f = exact_sqrt(Q(2, 3 * L), field_d)  # |X0 normalization| = sqrt(2/(3L))
    n = 8
    c = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]

    def setb(i, j, comps):
        for kk, v in comps:
            c[i][j][kk] = v
            c[j][i][kk] = -v

    # plane data: (U index, V index, rate under Z, rate under X0)
    planes = [
        (2, 3, Q(k - l), -3 * f * m),
        (4, 5, Q(k - m), 3 * f * l),
        (6, 7, Q(l - m), -3 * f * k),
    ]
    for (u, v, rz, r0) in planes:
        setb(0, u, [(v, rz)])
        setb(0, v, [(u, -rz)])
        setb(1, u, [(v, r0)])
        setb(1, v, [(u, -r0)])
        setb(u, v, [(0, 2 * rz / L), (1, r0)])
    # cross-plane table of the six off-diagonal planes
    cross = [
        (2, 4, 6, -1), (2, 5, 7, -1), (2, 6, 4, 1), (2, 7, 5, 1),
        (3, 4, 7, 1), (3, 5, 6, -1), (3, 6, 5, 1), (3, 7, 4, -1),
        (4, 6, 2, -1), (4, 7, 3, 1), (5, 6, 3, -1), (5, 7, 2, -1),
    ]
    for i, j, kk, sgn in cross:
        setb(i, j, [(kk, Q(sgn))])

    inner = [[Q(0)] * n for _ in range(n)]
    inner[0][0] = Q(L, 2)
    for i in range(1, n):
        inner[i][i] = Q(1)

    labels = ("Z", "X0", "X1", "X2", "X3", "X4", "X5", "X6")
    return CompactLieAlgebra(
        name=f"su3[w=({k},{l},{m})]",
        basis_labels=labels,
        structure=c,
        inner=inner,
        lambda_minus_b=Q(1, 12),
        cartan_indices=(0, 1),
        field_d=field_d,
    )


def _chevalley_p(rs: rootsys.RootSystem, a, b) -> int:
    """Largest p with b - p*a a root (p >= 0 when b is a root)."""
    p = 0
    cur = tuple(x - y for x, y in zip(b, a))
    while rs.is_root(cur):
        p += 1
        cur = tuple(x - y for x, y in zip(cur, a))
    return p


def build_compact_from_rootsystem(
    rs: rootsys.RootSystem, cartan_basis=None
) -> CompactLieAlgebra:
    """Compact form from root data: basis (t_i; U_g, V_g per positive g).

    Bracket relations: [H, U_g] = <g, H> V_g, [H, V_g] = -<g, H> U_g,
    [U_g, V_g] = g, with <.,.> = -B.  Cross-plane constants come from
    Chevalley structure constants N = +-(p+1), with sign + on every pair
    of positive roots taken in the order of ``rs.positive``; for the rank
    <= 2 systems here that choice satisfies Jacobi, which the constructor
    checks.
    """
    pos = list(rs.positive)
    npos = len(pos)
    if cartan_basis is None:
        cartan_basis = ela.gram_schmidt([list(a) for a in rs.simple], ela.dot)
    tbasis = [tuple(Q(x) for x in v) for v in cartan_basis]
    r = len(tbasis)
    if r != rs.rank:
        raise ValueError("cartan basis does not span the root span")
    for u, v in itertools.combinations(tbasis, 2):
        if rs.inner(u, v) != 0:
            raise ValueError("cartan basis must be orthogonal")

    # field: all root norms must live in Q or a single Q(sqrt(d))
    d_set = set()
    for g in pos:
        q = rs.inner(g, g)
        _, rem = squarefree_decompose(q.numerator * q.denominator)
        if rem != 1:
            d_set.add(rem)
    if len(d_set) > 1:
        raise ValueError(f"root norms need several radicands {sorted(d_set)}")
    field_d = d_set.pop() if d_set else None

    n_of = {g: exact_sqrt(rs.inner(g, g), field_d) / 2 for g in pos}
    idx_of = {g: i for i, g in enumerate(pos)}
    dim = r + 2 * npos

    def u_idx(g):
        return r + 2 * idx_of[g]

    def v_idx(g):
        return r + 2 * idx_of[g] + 1

    def t_coords(g):
        """Coordinates of the root vector g in the orthogonal t-basis."""
        return [rs.inner(g, t) / rs.inner(t, t) for t in tbasis]

    def chevalley_n(a, b):
        """N_{a,b} = +-(p + 1) for positive a, b with a + b a root, with
        the sign + when a precedes b, so that N_{b,a} = -N_{a,b}."""
        if idx_of[a] < idx_of[b]:
            return Q(_chevalley_p(rs, a, b) + 1)
        return -Q(_chevalley_p(rs, b, a) + 1)

    c = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]

    def add(i, j, k, coeff):
        c[i][j][k] += coeff
        c[j][i][k] -= coeff

    for g in pos:
        gu, gv = u_idx(g), v_idx(g)
        for ti in range(r):
            rate = rs.inner(g, tbasis[ti])
            add(ti, gu, gv, rate)
            add(ti, gv, gu, -rate)
        for ti, coeff in enumerate(t_coords(g)):
            add(gu, gv, ti, coeff)
    for i, j in itertools.combinations(range(npos), 2):
        a, b = pos[i], pos[j]
        na, nb = n_of[a], n_of[b]
        au, av, bu, bv = u_idx(a), v_idx(a), u_idx(b), v_idx(b)
        s = tuple(x + y for x, y in zip(a, b))
        if rs.is_root(s):
            S = na * nb * chevalley_n(a, b) / n_of[s]
            su, sv = u_idx(s), v_idx(s)
            add(au, bu, su, S)
            add(av, bv, su, -S)
            add(au, bv, sv, S)
            add(av, bu, sv, S)
        diff = tuple(x - y for x, y in zip(a, b))
        if rs.is_root(diff):
            if diff in idx_of:  # a - b is positive
                g = diff
                Nab = -(rs.inner(g, g) / rs.inner(a, a)) * chevalley_n(b, g)
                D = na * nb * Nab / n_of[g]
                gu, gv = u_idx(g), v_idx(g)
                add(au, bu, gu, -D)
                add(av, bv, gu, -D)
                add(au, bv, gv, D)
                add(av, bu, gv, -D)
            else:  # b - a is positive
                g = tuple(-x for x in diff)
                Nab = (rs.inner(g, g) / rs.inner(b, b)) * chevalley_n(g, a)
                D = na * nb * Nab / n_of[g]
                gu, gv = u_idx(g), v_idx(g)
                add(au, bu, gu, D)
                add(av, bv, gu, D)
                add(au, bv, gv, D)
                add(av, bu, gv, -D)

    inner = [[Q(0)] * dim for _ in range(dim)]
    for ti in range(r):
        inner[ti][ti] = rs.inner(tbasis[ti], tbasis[ti])
    for g in pos:
        inner[u_idx(g)][u_idx(g)] = Q(1)
        inner[v_idx(g)][v_idx(g)] = Q(1)

    labels = [f"t{i + 1}" for i in range(r)]
    for g in pos:
        lab = rs.label(g)
        labels.extend([f"U[{lab}]", f"V[{lab}]"])

    return CompactLieAlgebra(
        name=f"compact[{rs.name}]",
        basis_labels=labels,
        structure=c,
        inner=inner,
        lambda_minus_b=Q(1),
        cartan_indices=tuple(range(r)),
        field_d=field_d,
    )


def build_su2() -> CompactLieAlgebra:
    """su(2) as the compact form of the A1 root system, inner = -B."""
    return build_compact_from_rootsystem(rootsys.build_a1())


def direct_sum(a: CompactLieAlgebra, b: CompactLieAlgebra, name: str = "") -> CompactLieAlgebra:
    if a.field_d is not None and b.field_d is not None and a.field_d != b.field_d:
        raise ValueError("cannot mix quadratic fields in a direct sum")
    n, m = a.dim, b.dim
    dim = n + m
    c = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for off, summand in ((0, a), (n, b)):
        for (i, j), ent in summand._sparse.items():
            for k, v in ent:
                c[off + i][off + j][off + k] = v
                c[off + j][off + i][off + k] = -v
    inner = [list(row) + [Q(0)] * m for row in a.inner] + [[Q(0)] * n + list(row) for row in b.inner]
    # an abelian summand has no derived algebra, so lambda is the other's
    lams = {x.lambda_minus_b for x in (a, b) if x._sparse}
    labels = [f"a.{x}" for x in a.basis_labels] + [f"b.{x}" for x in b.basis_labels]
    return CompactLieAlgebra(
        name=name or f"{a.name}(+){b.name}",
        basis_labels=labels,
        structure=c,
        inner=inner,
        lambda_minus_b=lams.pop() if len(lams) == 1 else None,
        field_d=a.field_d if a.field_d is not None else b.field_d,
    )


def abelian(n: int, name: str = "") -> CompactLieAlgebra:
    """Abelian algebra (torus factor) with identity inner product."""
    c = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    inner = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    return CompactLieAlgebra(
        name=name or f"torus{n}",
        basis_labels=[f"c{i + 1}" for i in range(n)],
        structure=c,
        inner=inner,
        lambda_minus_b=None,
    )
