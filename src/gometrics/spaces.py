"""Concrete homogeneous geometries and the reproduction drivers.

Two families live here.  The first is the seven-dimensional family
W[k,l] = SU(3)/S^1 with the circle embedded through i*diag(k, l, m),
m = -k-l: its tangent space splits into three bracket-rotation planes
and one axis line, and the classification routine decides exactly which
block-diagonal metrics are geodesic-orbit; the witness for the
equal-plane family checks that its axis compensator acts by isometries.
The second is the five-block splitting of the compact 14-dimensional
exceptional algebra, with its block relations read off the
decomposition's bracket table and the type of each named subalgebra
read off centralizers; ``reproduce_main_theorem`` re-checks the three
Einstein coefficient sets on it, including the one that is Einstein but
certifiably not geodesic-orbit.

Everything here that depends only on the weights or the group is built
and validated once per process: ``aloff_wallach(k, l)`` returns the same
W[k,l] (algebra, space and tangent blocks) for the same weights, its
u(3) extension is built on first use and kept on it, and
``g2_decomposition()`` is built once.  Only a metric is built per call,
so caches kept on a decomposition (right-isometry kernels, block sums,
bracket coordinates) carry over from one metric to the next.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache

from . import exactlinalg as ela
from .gocheck import (
    SIGMA_RATIO,
    ReductiveSpace,
    Tolerances,
    go_check,
    go_feasible_normal_transitive,
    sample_tangent_vectors,
)
from .liealg import (
    CompactLieAlgebra,
    Subspace,
    abelian,
    build_compact_from_rootsystem,
    build_su3,
    centralizer,
    direct_sum,
    is_subalgebra,
)
from .metrics import (
    MetricEndomorphism,
    ModuleDecomposition,
    detect_naturally_reductive,
    make_metric,
    max_right_isometry_algebra,
)
from .ricci import einstein_check
from .rootsys import build_g2
from .scalars import exact_sqrt, format_scalar, is_exact


class ClassificationRefused(ValueError):
    """Raised when a space falls outside the validity of a classification."""


# ---------------------------------------------------------------------------
# The SU(3)/S^1 family
# ---------------------------------------------------------------------------

# Pairs whose isometry group is strictly larger than the generic one; the
# block classification below does not apply to them.
_SPECIAL_WEIGHTS = {(1, 0), (1, 1)}


@dataclass(frozen=True)
class AloffWallach:
    """Reductive presentation of W[k,l] = SU(3)/S^1.

    The ambient algebra basis is (Z, X0, X1..X6) where Z spans the
    isotropy line, X0 the orthogonal axis inside the diagonal torus, and
    (X1,X2), (X3,X4), (X5,X6) the three off-diagonal planes.  blocks
    orders the tangent modules (m1, m2, m3, m4) = (plane 12, plane 13,
    plane 23, axis).
    """

    k: int
    l: int
    m: int
    L_val: int
    f: object
    space: ReductiveSpace
    blocks: ModuleDecomposition

    @property
    def algebra(self) -> CompactLieAlgebra:
        return self.space.algebra

    @property
    def name(self) -> str:
        return f"W[{self.k},{self.l}]"

    @cached_property
    def extension(self) -> tuple:
        """(algebra, space, blocks) of the centrally extended presentation,
        built once; see ``aw_extended_presentation``."""
        u3 = direct_sum(self.algebra, abelian(1, name="center"), name=f"u(3)[{self.k},{self.l}]")
        n = u3.dim

        def vec(pairs):
            v = [Q(0)] * n
            for i, c in pairs:
                v[i] = Q(c)
            return v

        h = Subspace.from_vectors(u3, [vec([(0, 1)]), vec([(1, 1), (8, 1)])], label="h+")
        comp_vecs = [vec([(1, 1), (8, -1)])] + [vec([(i, 1)]) for i in range(2, 8)]
        comp = Subspace.from_vectors(u3, comp_vecs, label="m+")
        space = ReductiveSpace(algebra=u3, isotropy=h, complement=comp, name=f"{self.name}+center")
        blocks = ModuleDecomposition(
            parent=u3,
            blocks=(
                Subspace.from_indices(u3, (2, 3), label="m1"),
                Subspace.from_indices(u3, (4, 5), label="m2"),
                Subspace.from_indices(u3, (6, 7), label="m3"),
                Subspace.from_vectors(u3, [vec([(1, 1), (8, -1)])], label="m4-"),
            ),
            name=f"{self.name}+center tangent blocks",
        )
        return u3, space, blocks


def aloff_wallach(k: int, l: int) -> AloffWallach:
    """W[k,l] for integers k >= l >= 0, (k,l) != (0,0), gcd 1.

    Built once per process for each pair; the checks run on every call,
    so True or 2.0 never reach the cache as 1 or 2.
    """
    if not isinstance(k, int) or not isinstance(l, int) or isinstance(k, bool) or isinstance(l, bool):
        raise ValueError("weights must be plain integers")
    if k < 0 or l < 0:
        raise ValueError("weights must satisfy k >= l >= 0")
    if k < l:
        raise ValueError("weights must be ordered k >= l")
    if (k, l) == (0, 0):
        raise ValueError("weights (0,0) give no circle")
    if math.gcd(k, l) != 1:
        raise ValueError(f"weights must be coprime, got gcd {math.gcd(k, l)}")
    return _build_aloff_wallach(k, l)


@lru_cache(maxsize=None)
def _build_aloff_wallach(k: int, l: int) -> AloffWallach:
    m = -k - l
    lval = k * k + l * l + m * m
    # the two standard quadratic expressions for the circle data agree
    assert 2 * (k * k + l * l + m * m - k * l - k * m - l * m) == 3 * lval
    alg = build_su3(k, l)
    f = exact_sqrt(Q(2, 3 * lval), alg.field_d)
    h = Subspace.from_indices(alg, (0,), label="h")
    comp = Subspace.from_indices(alg, range(1, 8), label="m")
    space = ReductiveSpace(algebra=alg, isotropy=h, complement=comp, name=f"W[{k},{l}]")
    blocks = ModuleDecomposition(
        parent=alg,
        blocks=(
            Subspace.from_indices(alg, (2, 3), label="m1"),
            Subspace.from_indices(alg, (4, 5), label="m2"),
            Subspace.from_indices(alg, (6, 7), label="m3"),
            Subspace.from_indices(alg, (1,), label="m4"),
        ),
        name=f"W[{k},{l}] tangent blocks",
    )
    return AloffWallach(k=k, l=l, m=m, L_val=lval, f=f, space=space, blocks=blocks)


def aw_metric(aw: AloffWallach, x1, x2, x3, x4) -> MetricEndomorphism:
    """Block metric with coefficients (x1, x2, x3) on the planes and x4
    on the axis; the background inner product has gram diag(L/2, 1, .., 1).
    """
    return make_metric(aw.blocks, (x1, x2, x3, x4))


def _aw_ambient(X):
    """Lift tangent coordinates (a0..a6) to ambient algebra coordinates."""
    a = list(X)
    if len(a) != 7:
        raise ValueError("tangent coordinates must have length 7")
    zero = Q(0) if ela.all_exact(a) else 0.0
    return [zero] + a


def aw_obstruction(aw: AloffWallach, x1, x2, x3, X):
    """Per-plane obstruction scalars for the geodesic system.

    For X with tangent coordinates (a0..a6) these are the inner products
    of [A X, X] against the plane components of X.  They do not depend
    on the axis coefficient or on compensators from the isotropy line or
    the axis, because those only rotate inside each plane.  They vanish
    identically exactly when x1 = x2 = x3.
    """
    a = list(X)
    if len(a) != 7:
        raise ValueError("tangent coordinates must have length 7")
    full = _aw_ambient(a)
    one = full[0] * 0 + 1 if ela.all_exact(full) else 1.0
    scale = [one, x1, x1, x2, x2, x3, x3]
    ax = [full[0]] + [s * c for s, c in zip(scale, a)]
    u = aw.algebra.bracket(full, ax)
    o1 = u[2] * a[1] + u[3] * a[2]
    o2 = u[4] * a[3] + u[5] * a[4]
    o3 = u[6] * a[5] + u[7] * a[6]
    return (o1, o2, o3)


def aw_symbolic_go_witness(aw: AloffWallach, x, x4) -> dict:
    """Exact witness for the equal-plane-coefficient metrics.

    For x1 = x2 = x3 = x the compensator W = ((x4 - x)/x) * a0 * X0
    (axis direction, no isotropy part) makes X + W proportional to A X:
    A and X + W act on tangent coordinates by c = (x4, x, .., x) and
    tau = (1 + (x4 - x)/x, 1, .., 1), so A X = x (X + W) exactly when
    tau_j = c_j / x for every j, and then [A X, X + W] = 0.  W is a GO
    compensator because the axis acts by isometries (Alekseevsky-
    Nikonorov 2009): it lies in the commutation kernel of the metric's
    partition and commutes with the isotropy.  The first two diagonal
    rates of the compensator in the 3x3 picture are returned per unit
    a0; they are (x4/x - 1)(l - m) f and (x4/x - 1)(m - k) f.
    """
    x = Q(x)
    x4 = Q(x4)
    if x <= 0 or x4 <= 0:
        raise ValueError("metric coefficients must be positive")
    scale = (x4 - x) / x
    c = [x4] + [x] * 6
    tau = [1 + scale] + [Q(1)] * 6
    proportional = all(t == ci / x for t, ci in zip(tau, c))
    axis = aw.blocks.blocks[3].basis[0]
    isometry = aw.blocks.commutation_kernel((x, x, x, x4)).contains(axis) and all(
        ela.vec_is_zero(aw.algebra.bracket(axis, z)) for z in aw.space.isotropy.basis
    )
    return {
        "x": format_scalar(x),
        "x4": format_scalar(x4),
        "axis_compensator_per_a0": format_scalar(scale),
        "beta_per_a0": format_scalar(scale * (aw.l - aw.m) * aw.f),
        "gamma_per_a0": format_scalar(scale * (aw.m - aw.k) * aw.f),
        "commutator_vanishes": proportional,
        "compensated_vector_proportional_to_AX": proportional,
        "compensator_is_isometry": isometry,
    }


# Grid of plane coefficients with (x1, x2, x3) not all equal; the first
# three rows keep the documented example tuples.
_NON_GO_GRID = (
    (Q(1), Q(2), Q(3), Q(1)),
    (Q(2), Q(1), Q(1), Q(5)),
    (Q(1), Q(1), Q(2), Q(1)),
    (Q(3), Q(1), Q(2), Q(2)),
    (Q(1), Q(3), Q(1), Q(1)),
    (Q(2), Q(3), Q(5), Q(1)),
    (Q(1, 2), Q(1), Q(1), Q(1)),
    (Q(5), Q(5), Q(1), Q(3)),
    (Q(1), Q(1, 2), Q(1, 3), Q(1)),
    (Q(7), Q(2), Q(2), Q(1)),
    (Q(2), Q(2), Q(3), Q(3)),
    (Q(4), Q(1), Q(4), Q(1)),
)

# Tangent probe with nonzero cubic invariant: a1 = a3 = a5 = 1.
_PROBE = (Q(0), Q(1), Q(0), Q(1), Q(0), Q(1), Q(0))


def aw_go_classify(k: int, l: int, seed: int = 0, tolerances: Tolerances | None = None) -> dict:
    """Decide which block metrics on W[k,l] are geodesic-orbit.

    Produces exact infeasibility certificates for a grid of metrics with
    unequal plane coefficients, an exact witness for the equal-plane
    family, and obstruction probes tying the two together.  Refuses the
    two weight pairs whose isometry group is larger than generic.
    """
    if (k, l) in _SPECIAL_WEIGHTS:
        raise ClassificationRefused(
            f"W[{k},{l}] has extra isometries; the block classification "
            "below does not apply to it"
        )
    aw = aloff_wallach(k, l)
    tol = tolerances or Tolerances()
    grid_entries = []
    all_infeasible = True
    directions = [_aw_ambient(_PROBE)]
    directions += sample_tangent_vectors(aw.blocks, 1, seed=seed, exact=True)
    for coeffs in _NON_GO_GRID:
        metric = aw_metric(aw, *coeffs)
        checks = []
        for X in directions:
            res = go_feasible_normal_transitive(aw.space, metric, X, tolerances=tol)
            if res.status != "infeasible":
                all_infeasible = False
            checks.append(
                {
                    "direction": [format_scalar(c) for c in X],
                    "status": res.status,
                    "method": res.method,
                    "detail": dict(res.detail),
                    "residual_rel": res.residual_rel,
                }
            )
        o1, o2, o3 = aw_obstruction(aw, coeffs[0], coeffs[1], coeffs[2], _PROBE)
        grid_entries.append(
            {
                "coefficients": [format_scalar(c) for c in coeffs],
                "checks": checks,
                "obstruction_at_probe": [format_scalar(o) for o in (o1, o2, o3)],
                "obstruction_sum_zero": o1 + o2 + o3 == 0,
                "obstruction_nonzero": any(o != 0 for o in (o1, o2, o3)),
            }
        )
    witnesses = [
        aw_symbolic_go_witness(aw, x, x4)
        for x, x4 in ((Q(1), Q(1)), (Q(1), Q(3)), (Q(2), Q(1)), (Q(2), Q(3)))
    ]
    symbolic_ok = all(
        w["commutator_vanishes"]
        and w["compensated_vector_proportional_to_AX"]
        and w["compensator_is_isometry"]
        for w in witnesses
    )
    obstruction_ok = all(
        e["obstruction_sum_zero"] and e["obstruction_nonzero"] for e in grid_entries
    )
    return {
        "schema": "1",
        "kind": "aw-go-classification",
        "space": aw.name,
        "k": k,
        "l": l,
        "non_go_grid": grid_entries,
        "non_go_grid_all_certified": all_infeasible,
        "symbolic_go_witnesses": witnesses,
        "symbolic_go_confirmed": symbolic_ok,
        "obstruction_probes_consistent": obstruction_ok,
        "conclusion": (
            "block metrics on "
            + aw.name
            + " are geodesic-orbit exactly when x1 = x2 = x3: every grid "
            "metric with unequal plane coefficients is certified infeasible "
            "and the equal-coefficient family carries an exact compensator "
            "witness for all tangent directions"
        ),
    }


@dataclass(frozen=True)
class AWExtendedPresentation:
    """W[k,l] presented through the centrally extended algebra u(3).

    A central line K0 is appended and the isotropy enlarged to
    span(Z, X0 + K0); the axis direction of the tangent space becomes
    X0 - K0 with doubled metric coefficient, so that lifted directions
    keep their length.  On this presentation the isotropy alone already
    contains the axis compensator, which makes the plain geodesic
    system agree with the compensated ones on the base presentation.
    """

    algebra: CompactLieAlgebra
    space: ReductiveSpace
    blocks: ModuleDecomposition
    metric: MetricEndomorphism

    def lift(self, X):
        """Map base tangent coordinates (a0..a6) to the extended complement."""
        a = list(X)
        if len(a) == 8:
            if a[0] != 0:
                raise ValueError("vector has an isotropy component")
            a = a[1:]
        if len(a) != 7:
            raise ValueError("tangent coordinates must have length 7")
        half = a[0] / 2
        return [a[0] * 0] + [half] + a[1:] + [-half]


def aw_extended_presentation(aw: AloffWallach, x1, x2, x3, x4) -> AWExtendedPresentation:
    """The centrally extended presentation carrying the same metric; only
    the metric is built per call."""
    u3, space, blocks = aw.extension
    metric = make_metric(blocks, (x1, x2, x3, 2 * x4))
    return AWExtendedPresentation(
        algebra=u3, space=space, blocks=blocks, metric=metric
    )


# ---------------------------------------------------------------------------
# The five-block splitting of the compact exceptional algebra
# ---------------------------------------------------------------------------

_G2_CARTAN = ((1, 0, -1), (-1, 2, -1))

_G2_BLOCKS = (
    ("p1", ("t1",)),
    ("p2", ("t2", "U[alpha]", "V[alpha]")),
    ("p3", ("U[alpha+beta]", "V[alpha+beta]", "U[beta]", "V[beta]")),
    ("p4", ("U[alpha+2beta]", "V[alpha+2beta]")),
    ("p5", ("U[2alpha+3beta]", "V[2alpha+3beta]", "U[alpha+3beta]", "V[alpha+3beta]")),
)

# the blocks that the bracket of two blocks reaches, by 0-based index
_G2_REACH = {(0, 1): (), (1, 3): (), (2, 4): (3,), (3, 4): (2,), (2, 3): (2, 4)}


@dataclass(frozen=True)
class G2Decomposition:
    """Five-module splitting of the 14-dimensional compact algebra.

    Blocks p1..p5 have dimensions (1, 3, 4, 2, 4); p1 + p2 + p4 closes
    to a commuting pair of 3-dimensional simple subalgebras and
    p1 + p2 + p5 closes to an 8-dimensional rank-2 compact simple
    subalgebra.  All invariants are checked exactly at construction.
    """

    algebra: CompactLieAlgebra
    blocks: ModuleDecomposition
    torus: Subspace
    su2su2: Subspace
    su3like: Subspace

    def block(self, i: int) -> Subspace:
        return self.blocks.blocks[i - 1]

    @property
    def dims(self) -> tuple:
        return tuple(b.dim for b in self.blocks.blocks)


def _killing_profile(L: CompactLieAlgebra, p: Subspace):
    """(dim, rank, negative_definite) of a subalgebra, exactly.

    A subalgebra of a compact algebra is compact, so its Killing form is
    negative definite exactly when its center, the centralizer of p in
    p, is 0 (Helgason 1978, ch. II).  Rank is the dimension of the
    centralizer of a regular element inside p, checked to be abelian.
    """
    if not is_subalgebra(L, p):
        raise ValueError("subspace is not closed under the bracket")
    negdef = centralizer(L, p).intersect(p).dim == 0
    for attempt in range(1, 4):
        weights = [Q((i + 1) ** attempt) for i in range(p.dim)]
        g0 = ela.matvec(list(zip(*p.basis)), weights)
        cent = centralizer(L, Subspace.from_vectors(L, [g0])).intersect(p)
        if all(
            ela.vec_is_zero(L.bracket(u, w))
            for u, w in itertools.combinations(cent.basis, 2)
        ):
            return p.dim, cent.dim, negdef
    raise ValueError("no regular element found for the rank computation")


@lru_cache(maxsize=1)
def g2_decomposition() -> G2Decomposition:
    """Build and exactly validate the five-block splitting."""
    alg = build_compact_from_rootsystem(build_g2(), cartan_basis=_G2_CARTAN)
    index = {lab: i for i, lab in enumerate(alg.basis_labels)}
    subs = [
        Subspace.from_indices(alg, [index[n] for n in names], label=lab)
        for lab, names in _G2_BLOCKS
    ]
    blocks = ModuleDecomposition(parent=alg, blocks=tuple(subs), name="five blocks")
    p1, p2, p3, p4, p5 = subs
    if tuple(s.dim for s in subs) != (1, 3, 4, 2, 4):
        raise ValueError("unexpected block dimensions")

    # torus = p1 plus a line of p2: the blocks are orthogonal, so
    # t = p1 + (t intersect p2) once t contains p1 and lies in p1 + p2
    cartan = Subspace.from_indices(alg, alg.cartan_indices, label="t")
    if not (cartan.contains_subspace(p1) and p1.sum(p2).contains_subspace(cartan)):
        raise ValueError("torus does not split across p1 and p2")

    # exact relations between the blocks
    reach = blocks.bracket_reach
    for (i, j), want in _G2_REACH.items():
        if reach[i, j] != set(want):
            image = "+".join(f"p{k + 1}" for k in want) or "0"
            raise ValueError(f"[p{i + 1}, p{j + 1}] should reach {image}")

    sums = dict(zip(blocks.block_sum_indices, blocks.block_sums))
    su2su2, su3like = sums.get((0, 1, 3)), sums.get((0, 1, 4))
    if su2su2 is None or su3like is None:
        raise ValueError("p1 + p2 + p4 and p1 + p2 + p5 should close to subalgebras")
    # [p2, p1 + p4] = 0, and p1 + p4 closes: p1 + p2 + p4 does, and
    # <[p4, p1 + p4], p2> = <p4, [p1 + p4, p2]> = 0
    for factor in (p2, sums[0, 3]):
        dim, _, negdef = _killing_profile(alg, factor)
        if dim != 3 or not negdef:
            raise ValueError("each factor should be compact simple of dimension 3")

    dim, rank, negdef = _killing_profile(alg, su3like)
    if (dim, rank, negdef) != (8, 2, True):
        raise ValueError("p1 + p2 + p5 should be compact of dimension 8 and rank 2")

    return G2Decomposition(
        algebra=alg,
        blocks=blocks,
        torus=cartan,
        su2su2=su2su2,
        su3like=su3like,
    )


def g2_metric(u1, u2, u3, u4, u5, decomposition: G2Decomposition | None = None) -> MetricEndomorphism:
    """Block metric with coefficient u_i on p_i, background gram -B."""
    dec = decomposition or g2_decomposition()
    return make_metric(dec.blocks, (u1, u2, u3, u4, u5))


def g2_block_bracket_csv(decomposition: G2Decomposition | None = None) -> str:
    """CSV matrix of which blocks receive each pairwise bracket."""
    dec = decomposition or g2_decomposition()
    lines = ["block_a,block_b,image_blocks"]
    for (i, j), reach in dec.blocks.bracket_reach.items():
        image = "+".join(f"p{k + 1}" for k in sorted(reach - {None}))
        lines.append(f"p{i + 1},p{j + 1},{image if reach else 0}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Einstein coefficient sets and the reproduction driver
# ---------------------------------------------------------------------------

EINSTEIN_SET_1 = (Q(1), Q(1), Q(1), Q(1), Q(1))
EINSTEIN_SET_2 = (Q(1), Q(1), Q(11, 9), Q(11, 9), Q(1))
# stored to the eight published digits; dependent checks perturb by 1e-6
EINSTEIN_SET_3 = (1.0851961, 0.69929486, 0.93245951, 1.0225069, 1.0)

_PERTURBATION = 1e-6


def _natural_reductive_summary(result) -> dict:
    return {
        "found": result.found,
        "subalgebra": result.subalgebra.label if result.found else None,
        "dim": result.subalgebra.dim if result.found else None,
        "transverse_coefficient": (
            None
            if not result.found or result.transverse_coefficient is None
            else format_scalar(result.transverse_coefficient)
            if is_exact(result.transverse_coefficient)
            else float(result.transverse_coefficient)
        ),
        "ideal_coefficients": [
            format_scalar(c) if is_exact(c) else float(c)
            for c in result.ideal_coefficients
        ],
        "candidates_checked": result.checked,
    }


def reproduce_main_theorem(
    seed: int = 0,
    einstein_tolerance: float = 1e-5,
    tolerances: Tolerances | None = None,
) -> dict:
    """Re-check the three Einstein coefficient sets on the five blocks.

    For each set the driver reports the Einstein verdict, the
    naturally-reductive detection, and a geodesic-orbit certificate over
    12 sampled directions; for the float set it adds per-coefficient
    Einstein perturbations and a sweep of corner perturbations under
    which the non-geodesic-orbit verdict must persist.  Deterministic for
    a fixed seed.
    """
    tol = tolerances or Tolerances()
    dec = g2_decomposition()
    alg = dec.algebra
    sets = (EINSTEIN_SET_1, EINSTEIN_SET_2, EINSTEIN_SET_3)
    entries = []
    checks = []

    def add_check(name: str, passed: bool):
        checks.append({"name": name, "passed": bool(passed)})

    for idx, coeffs in enumerate(sets, start=1):
        metric = g2_metric(*coeffs, decomposition=dec)
        ein = einstein_check(alg, metric, tolerance=einstein_tolerance)
        nat = detect_naturally_reductive(alg, metric)
        kernel = max_right_isometry_algebra(alg, metric)
        cert = go_check(
            alg,
            metric,
            formulation="lie_group",
            count=12,
            seed=seed,
            exact=metric.is_exact,
            tolerances=tol,
        )
        entries.append(
            {
                "coefficients": [
                    format_scalar(c) if is_exact(c) else float(c) for c in coeffs
                ],
                "einstein": ein.to_json_dict(),
                "naturally_reductive": _natural_reductive_summary(nat),
                "right_isometry_algebra_dim": kernel.dim,
                "geodesic_orbit": cert.to_json_dict(),
            }
        )
        if idx == 1:
            add_check("set1-einstein-exact", ein.is_einstein and ein.decided_exactly)
            add_check("set1-bi-invariant-form", nat.found and nat.subalgebra.dim == alg.dim)
            add_check("set1-go-consistent", cert.verdict == "go-consistent")
        elif idx == 2:
            add_check("set2-einstein-exact", ein.is_einstein and ein.decided_exactly)
            add_check(
                "set2-naturally-reductive-form",
                nat.found
                and nat.subalgebra.dim == 8
                and nat.transverse_coefficient == Q(11, 9)
                and set(nat.ideal_coefficients) == {Q(1)},
            )
            add_check("set2-go-consistent", cert.verdict == "go-consistent")
        else:
            add_check("set3-einstein-within-tolerance", ein.is_einstein)
            add_check("set3-no-naturally-reductive-candidate", not nat.found)
            add_check("set3-right-isometry-dim-4", kernel.dim == 4)
            add_check("set3-non-go-certified", cert.verdict == "non-go-certified")

    # perturbation analysis around the float set
    base = EINSTEIN_SET_3
    per_coeff = []
    worst = 0.0
    for i in range(5):
        for sgn in (1.0, -1.0):
            pert = list(base)
            pert[i] += sgn * _PERTURBATION
            e = einstein_check(alg, g2_metric(*pert, decomposition=dec), tolerance=1e-4)
            worst = max(worst, e.deviation)
            per_coeff.append(
                {
                    "index": i,
                    "delta": sgn * _PERTURBATION,
                    "deviation": e.deviation,
                    "within_1e-4": e.deviation <= 1e-4,
                }
            )
    corner_dims = set()
    corners_non_go = True
    corner_count = 0
    # the corner metrics share one decomposition: the seed draws one sample
    corner_samples = sample_tangent_vectors(dec.blocks, 6, seed=seed)
    for signs in itertools.product((1.0, -1.0), repeat=5):
        corner_count += 1
        pert = [c + s * _PERTURBATION for c, s in zip(base, signs)]
        metric = g2_metric(*pert, decomposition=dec)
        kernel = max_right_isometry_algebra(alg, metric)
        corner_dims.add(kernel.dim)
        cert = go_check(
            alg,
            metric,
            formulation="lie_group",
            seed=seed,
            samples=corner_samples,
            tolerances=tol,
        )
        if cert.verdict != "non-go-certified":
            corners_non_go = False
    add_check("set3-perturbed-einstein-within-1e-4", worst <= 1e-4)
    add_check("set3-perturbed-non-go-stable", corners_non_go and corner_dims == {4})

    return {
        "schema": "1",
        "kind": "g2-einstein-reproduction",
        "seed": seed,
        "tolerances": {
            "einstein": einstein_tolerance,
            "feasible_rel": tol.feasible_rel,
            "infeasible_rel": tol.infeasible_rel,
            "sigma_ratio": SIGMA_RATIO,
        },
        "parameter_sets": entries,
        "perturbations": {
            "per_coefficient": per_coeff,
            "max_einstein_deviation": worst,
            "corners": {
                "count": corner_count,
                "right_isometry_dims": sorted(corner_dims),
                "all_non_go_certified": corners_non_go,
            },
        },
        "checks": checks,
        "all_checks_passed": all(c["passed"] for c in checks),
    }
