"""Geodesic-orbit feasibility checks.

For a reductive homogeneous space with invariant metric g(u, v) =
<A u, v>, a direction X in the tangent space is a geodesic-orbit
direction iff a compensator Z in the isotropy algebra exists with

    <[X + Z, Y]_m, A X> = 0   for all Y in m.

That is a linear system M z = b in Z, so feasibility is decided by
linear algebra: exactly when the inputs are exact, by one elimination of
[M | b] over Q(sqrt(D)) that yields a witness or, for an inconsistent
system, rank M and rank [M | b] = rank M + 1; numerically (least squares
plus singular-value analysis) otherwise.  A float residual between the
thresholds is indeterminate; only an ill-conditioned system there is
retried in arbitrary precision (mpmath, imported for that retry alone).
SVD least squares is backward stable, so on a well-conditioned system a
retry on the same float64-rounded input reproduces the float residual
and could change no decision.

All four formulations share one builder, ``_geodesic_system``: for
generators w_j it solves sum_j z_j p([A X, w_j]) = -p([A X, X]) for a
linear pairing p chosen by the formulation.  Each (algebra, generators,
pairing) is compiled once into a ``liealg.BracketSystem``, kept on the
object that owns that data: the ``ReductiveSpace`` for the direct form,
the reduced form (one per extra Subspace) and the normal-transitive
form, and the cached right-isometry kernel Subspace for the group case.
A direction makes no bracket, projection or inner product.  An exact
one is decided in the frame of the metric's blocks, where A is
diagonal: X is cleared to integer frame coordinates once, and the
system compiled in that frame gives augmented rows [M s | b s] over
Z[sqrt(D)] that ``solve_linear_feasibility`` eliminates; only witness
entries become Fraction or Quad.  A float one takes one numpy
contraction.  For the direct and reduced systems p pairs against the
complement basis, which gives the lemma's system entry for entry: with
proj_m the orthogonal projection (self-adjoint) and A X in m,

    <proj_m [W, Y], A X> = <[W, Y], A X> = -<Y, [W, A X]> = <[A X, W], Y>

by ad-invariance of the inner product, which
``CompactLieAlgebra.validate`` checks.  So A X must lie in the
complement: an exact X outside it is rejected, and so is an exact
metric whose blocks do not span it.  The normal-transitive system pairs
against the orthogonal complement of the isotropy algebra and takes
generators from the isotropy and from its centralizer in the
complement, both computed once per space.  A left-invariant metric on
the group itself is handled by ``lie_group_go_check``: coordinates are
the pairing and the generators span the commutation kernel of the metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property

import numpy as np

from . import exactlinalg as ela
from .liealg import BracketSystem, CompactLieAlgebra, Subspace, centralizer, is_subalgebra
from .metrics import MetricEndomorphism, ModuleDecomposition, max_right_isometry_algebra
from .scalars import format_scalar, is_exact


class SpaceValidationError(ValueError):
    pass


# smallest kept singular value over the largest below which a float
# residual is not trusted, and the digits of the mpmath retry that such
# an untrusted system in the gap gets
SIGMA_RATIO = 1e-6
ESCALATE_DPS = 50


@dataclass(frozen=True)
class Tolerances:
    """Decision thresholds for float feasibility.

    A system counts as feasible when the relative residual of the least
    squares solution is at most ``feasible_rel``; as infeasible when the
    relative residual is at least ``infeasible_rel`` and the singular
    value spectrum is trustworthy (smallest kept singular value at least
    ``SIGMA_RATIO`` times the largest).  Anything between is
    indeterminate.  Only when the spectrum is not trustworthy is it first
    retried at ``ESCALATE_DPS`` decimal digits, which can then find it
    feasible but never infeasible.
    """

    feasible_rel: float = 1e-9
    infeasible_rel: float = 1e-3


@dataclass(frozen=True)
class ReductiveSpace:
    """Homogeneous-space data: algebra, isotropy subalgebra, complement.

    The complement must satisfy [isotropy, complement] inside complement
    and span the algebra together with the isotropy.
    """

    algebra: CompactLieAlgebra
    isotropy: Subspace
    complement: Subspace
    name: str = ""

    def __post_init__(self):
        L = self.algebra
        h, m = self.isotropy, self.complement
        if h.parent is not L or m.parent is not L:
            raise SpaceValidationError("subspaces belong to a different algebra")
        if h.dim + m.dim != L.dim:
            raise SpaceValidationError("isotropy and complement do not sum to g")
        joint = list(h.basis) + list(m.basis)
        if ela.span_rank([list(v) for v in joint]) != L.dim:
            raise SpaceValidationError("isotropy and complement overlap")
        if h.dim and not is_subalgebra(L, h):
            raise SpaceValidationError("isotropy is not a subalgebra")
        for w in h.basis:
            for y in m.basis:
                if not m.contains(L.bracket(w, y)):
                    raise SpaceValidationError("complement is not ad(isotropy)-invariant")

    @cached_property
    def _systems(self) -> dict:
        """Compiled direct and reduced systems by extra generators, filled
        by ``geodesic_system``."""
        return {}

    def geodesic_system(self, extra: Subspace | None = None) -> BracketSystem:
        """The system of the direct form (no extra) or the reduced form:
        the isotropy plus extra as generators, paired against the
        complement basis; compiled once per extra Subspace."""
        if extra not in self._systems:
            gens = self.isotropy.basis + (extra.basis if extra is not None else ())
            self._systems[extra] = BracketSystem(self.algebra, gens, self.complement.basis)
        return self._systems[extra]

    @cached_property
    def normal_transitive_system(self) -> BracketSystem:
        """The normal-transitive system, compiled once: the isotropy plus
        its centralizer in the complement as generators, paired against
        the orthogonal complement of the isotropy."""
        L, h = self.algebra, self.isotropy
        cm = centralizer(L, h).intersect(self.complement, label="centralizer-in-complement")
        return BracketSystem(L, h.basis + cm.basis, h.orthogonal_complement(label="h-perp").basis)

    @cached_property
    def _complement_perp(self) -> tuple:
        return self.complement.orthogonal_complement().basis

    def in_complement(self, v) -> bool:
        """Exact membership of v in the complement: v is orthogonal to the
        orthogonal complement of the complement, computed once."""
        L = self.algebra
        return not any(L.inner_product(v, y) for y in self._complement_perp)

    @property
    def is_orthogonal(self) -> bool:
        for u in self.isotropy.basis:
            for v in self.complement.basis:
                if self.algebra.inner_product(u, v):
                    return False
        return True


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible" | "indeterminate"
    residual_rel: float
    witness: tuple | None
    # "exact" | "float" | "mpmath" (the retry of an ill-conditioned system)
    method: str
    sigma_ratio: float | None = None
    detail: dict = field(default_factory=dict)


def _lstsq_stats(Mf: np.ndarray, bf: np.ndarray, scale_hint: float = 0.0):
    z, *_ = np.linalg.lstsq(Mf, bf, rcond=None)
    resid = Mf @ z - bf
    mnorm = float(np.linalg.norm(Mf, "fro")) if Mf.size else 0.0
    # residuals are judged against the natural magnitude of the system,
    # not just |b|: b can be pure rounding noise (e.g. bi-invariant
    # metrics, where the exact right side vanishes identically)
    denom = max(
        float(np.linalg.norm(bf)),
        mnorm * float(np.linalg.norm(z)),
        mnorm * scale_hint,
    )
    rel = float(np.linalg.norm(resid)) / denom if denom > 0 else 0.0
    s = np.linalg.svd(Mf, compute_uv=False) if Mf.size else np.array([])
    if s.size and s[0] > 0:
        cutoff = max(Mf.shape) * np.finfo(float).eps * s[0]
        kept = s[s > cutoff]
        sratio = float(kept[-1] / s[0]) if kept.size else None
    else:
        sratio = None
    return z, rel, sratio


def _mpmath_retry(Mf: np.ndarray, bf: np.ndarray, dps: int, scale_hint: float = 0.0):
    """Least squares through an SVD at dps digits; returns (z, rel)."""
    import mpmath as mp

    with mp.workdps(dps):
        A = mp.matrix(Mf.tolist())
        b = mp.matrix([[v] for v in bf.tolist()])
        U, S, V = mp.svd_r(A)
        smax = max((S[i] for i in range(S.rows)), default=mp.mpf(0))
        z = mp.matrix(A.cols, 1)
        if smax > 0:
            cut = smax * mp.mpf(10) ** (-(dps - 10))
            Utb = U.T * b
            y = mp.matrix(S.rows, 1)
            for i in range(S.rows):
                y[i] = Utb[i] / S[i] if S[i] > cut else mp.mpf(0)
            z = V.T * y
        r = A * z - b
        rnorm = mp.norm(r)
        mnorm = mp.mnorm(A, "f")
        denom = max(mp.norm(b), mnorm * mp.norm(z), mnorm * mp.mpf(scale_hint))
        rel = float(rnorm / denom) if denom > 0 else 0.0
        return [float(z[i]) for i in range(z.rows)], rel


def solve_linear_feasibility(
    rows, rhs, tolerances: Tolerances | None = None, scale_hint: float = 0.0
) -> FeasibilityResult:
    """Decide solvability of (rows) z = rhs.

    Exact inputs get an exact decision from one elimination of
    [rows | rhs], which a compiled ``BracketSystem`` passes as one
    ``exactlinalg.PairRows`` with rhs None.  Float inputs go through
    least squares with the threshold policy from ``tolerances``;
    scale_hint carries the natural magnitude of the unknowns (for the
    geodesic systems, the background norm of the sampled direction) so
    the relative residual is invariant under scaling the direction or
    the metric.  A residual above ``feasible_rel`` on a trusted spectrum
    is decided in float64 (infeasible or indeterminate); only an
    untrusted spectrum goes to the ``ESCALATE_DPS``-digit retry, which
    can only settle it feasible.
    """
    tol = tolerances or Tolerances()
    if rhs is not None and all(ela.all_exact(r) for r in rows) and ela.all_exact(rhs):
        rows, rhs = ela.pair_rows([list(r) + [b] for r, b in zip(rows, rhs)]), None
    if rhs is None:
        ncols = len(rows.rows[0]) // 2 - 1 if rows.rows else 0
        if any(r[ncols] or r[-1] for r in rows.rows):
            sol, rank_m = ela.solve_augmented(rows)
        else:
            sol = [Q(0)] * ncols  # the witness elimination would find
        if sol is not None:
            detail = {"certificate": "exact-solution"}
            return FeasibilityResult("feasible", 0.0, tuple(sol), "exact", detail=detail)
        # informative float residual for the report
        floats = rows.floats()
        _, rel, sratio = _lstsq_stats(
            np.array([r[:-1] for r in floats]), np.array([r[-1] for r in floats]), scale_hint
        )
        return FeasibilityResult(
            "infeasible", rel, None, "exact", sigma_ratio=sratio,
            detail={"certificate": "exact-rank", "rank": rank_m, "rank_augmented": rank_m + 1},
        )
    Mf = np.array(rows, dtype=float)
    bf = np.array(rhs, dtype=float)
    if not np.linalg.norm(bf):
        return FeasibilityResult("feasible", 0.0, tuple([0.0] * len(rows[0])), "float")
    z, rel, sratio = _lstsq_stats(Mf, bf, scale_hint)
    if rel <= tol.feasible_rel:
        return FeasibilityResult("feasible", rel, tuple(float(v) for v in z), "float", sigma_ratio=sratio)
    if sratio is None or sratio >= SIGMA_RATIO:
        # condition number at most 1/SIGMA_RATIO: a retry on the same
        # rounded input would reproduce rel, so the float decides
        status = "infeasible" if rel >= tol.infeasible_rel else "indeterminate"
        return FeasibilityResult(status, rel, None, "float", sigma_ratio=sratio)
    z2, rel2 = _mpmath_retry(Mf, bf, ESCALATE_DPS, scale_hint)
    if rel2 <= tol.feasible_rel:
        return FeasibilityResult("feasible", rel2, tuple(z2), "mpmath", sigma_ratio=sratio)
    return FeasibilityResult("indeterminate", rel2, None, "mpmath", sigma_ratio=sratio)


def _norm_hint(L: CompactLieAlgebra, x) -> float:
    # inner_product's terms on float copies, in order: float * Fraction rounds the Fraction first
    total = 0.0
    for f, d in zip(map(float, x), L.inner_np.diagonal().tolist()):
        total += f * d * f
    return total ** 0.5


def _geodesic_system(system, metric, X, tolerances, space=None, extra=None) -> FeasibilityResult:
    """Solve sum_j z_j pair([A X, w_j]) = -pair([A X, X]) over the compiled
    system's generators w_j, after checking a space's X and extra: in the
    frame of an exact metric, which must span the complement, for exact X."""
    dec, exact = metric.decomposition, ela.all_exact(X) and metric.is_exact
    if exact:
        if system not in dec.frame_systems:
            amb = dec.ambient
            if space is not None and not (
                amb.dim == space.complement.dim and space.complement.contains_subspace(amb)
            ):
                raise ValueError("the metric's blocks must span the complement")
            dec.frame_systems[system] = system.in_frame(amb.basis, dec.frame_owner)
        coords = dec.frame_coordinates(X, metric.frame_coefficients[0])
        inside = coords[3]
    else:
        inside = space is None or not ela.all_exact(X) or space.in_complement(X)
    if not inside:
        raise ValueError("X must lie in the complement")
    for u in extra.basis if extra is not None else ():
        _validate_skew_generator(space, metric, u)
    if exact:
        rows, rhs = system.frame_equations(dec.frame_systems[system], metric.frame_coefficients, coords), None
    else:
        rows, rhs = system.equations(metric.apply(X), X)
    return solve_linear_feasibility(rows, rhs, tolerances, scale_hint=_norm_hint(system.algebra, X))


def go_feasible_reduced(
    space: ReductiveSpace,
    metric: MetricEndomorphism,
    X,
    extra: Subspace | None = None,
    tolerances: Tolerances | None = None,
) -> FeasibilityResult:
    """Geodesic system for X with compensators from isotropy plus extra.

    Extra generators must act on the complement by metric-skew
    operators, exactly for float coefficients too; this is validated
    once per metric, space and generator (``_validate_skew_generator``,
    memo ``metric.skew_generators``).  X and A X must lie in the
    complement, which is checked for exact input.
    """
    return _geodesic_system(space.geodesic_system(extra), metric, X, tolerances, space, extra)


def go_feasible_direct(
    space: ReductiveSpace,
    metric: MetricEndomorphism,
    X,
    tolerances: Tolerances | None = None,
) -> FeasibilityResult:
    """Geodesic system for X with compensators from the isotropy only."""
    return go_feasible_reduced(space, metric, X, extra=None, tolerances=tolerances)


def _validate_skew_generator(space: ReductiveSpace, metric: MetricEndomorphism, u) -> None:
    """Raise unless ad(u) acts on the complement by a metric-skew operator.

    ad(u) is skew for <., .>, so it is skew for <A ., .> exactly when it
    commutes with A and preserves the complement.  The metric's blocks
    span the complement, so the first condition is u in the metric's
    ``commutation_kernel``, which is exact for float coefficients too;
    it is tested first, so a generator failing both is not metric-skew.
    """
    key = (space, tuple(u))
    if key in metric.skew_generators:
        return
    if not metric.decomposition.commutation_kernel(metric.coefficients).contains(u):
        raise SpaceValidationError("extra generator is not metric-skew")
    bracket = space.algebra.bracket
    if not all(space.in_complement(bracket(u, y)) for y in space.complement.basis):
        raise SpaceValidationError("extra generator does not preserve the complement")
    metric.skew_generators.add(key)


def go_feasible_normal_transitive(
    space: ReductiveSpace,
    metric: MetricEndomorphism,
    X,
    tolerances: Tolerances | None = None,
) -> FeasibilityResult:
    """Bracket-compensator system: find V in the isotropy algebra and W
    in its centralizer intersected with the complement such that
    [A X, X + V + W] falls back into the isotropy algebra.

    Reading a solution as a geodesic-orbit compensator needs every such
    W to act by a metric isometry.  With isotropy {0} the centralizer is
    all of g, W = -X always solves, and the verdict would be vacuous, so
    that space is rejected; ``lie_group_go_check`` handles a group.
    An exact X must lie in the complement, as in ``go_feasible_direct``.
    """
    if space.isotropy.dim == 0:
        raise ValueError("the normal-transitive formulation needs a nonzero isotropy")
    return _geodesic_system(space.normal_transitive_system, metric, X, tolerances, space)


def lie_group_go_check(
    L: CompactLieAlgebra,
    metric: MetricEndomorphism,
    X,
    tolerances: Tolerances | None = None,
) -> FeasibilityResult:
    """Left-invariant case: X is geodesic-orbit iff some W with
    [ad W, A] = 0 satisfies [A X, X + W] = 0.

    The kernel subspace (all such W) is read from the per-partition
    cache of ``max_right_isometry_algebra``, so it is solved once per
    coefficient partition.  Infeasibility over the kernel certifies that
    X is not a geodesic-orbit direction for any presentation of the
    isometry group.
    """
    kernel = max_right_isometry_algebra(L, metric)
    return _geodesic_system(kernel.bracket_system, metric, X, tolerances)


def sample_tangent_vectors(
    decomposition: ModuleDecomposition,
    count: int,
    seed: int = 0,
    exact: bool = False,
):
    """Deterministic tangent samples from the span of a decomposition.

    Float samples are unit directions, normally distributed over the
    ambient span.  With exact=True coordinates are small integers over
    the frame of the ambient span, so downstream checks stay in exact
    arithmetic.
    """
    rng = np.random.default_rng(seed)
    amb = decomposition.ambient
    out = []
    for _ in range(count):
        if exact:
            d, den, frame, *_ = decomposition.integer_frame
            # one batch draws the integers one call per frame vector would
            c = rng.integers(-9, 10, size=len(frame)).tolist()
            if not any(c):
                c[0] = 1
            pairs = ela.pair_combination([(x, 0) for x in c], frame, decomposition.parent.dim, d)
            v = [ela.pair_value(p, q, den, d) for p, q in pairs]
        else:
            # adding 0.0 turns a -0.0 entry into 0.0
            v = amb.onb_np @ rng.standard_normal(amb.dim) + 0.0
            nv = np.linalg.norm(v)
            if nv == 0:
                v = amb.onb_np[:, 0]
                nv = 1.0
            v = list(v / nv)
        out.append(v)
    return out


@dataclass(frozen=True)
class GOCertificate:
    """Aggregated geodesic-orbit verdict over a sample of directions.

    verdict: "go-consistent" when every sampled direction admitted a
    compensator, "non-go-certified" when at least one direction was
    certified infeasible, "indeterminate" otherwise.
    """

    target: str
    formulation: str
    metric_coefficients: tuple
    verdict: str
    results: tuple
    samples: tuple
    seed: int
    tolerances: Tolerances

    def to_json_dict(self) -> dict:
        def fmt_vec(v):
            return [format_scalar(x) if is_exact(x) else float(x) for x in v]

        entries = []
        for x, r in zip(self.samples, self.results):
            entries.append(
                {
                    "direction": fmt_vec(x),
                    "status": r.status,
                    "residual_rel": r.residual_rel,
                    "method": r.method,
                    "sigma_ratio": r.sigma_ratio,
                    "witness": fmt_vec(r.witness) if r.witness is not None else None,
                    "detail": dict(r.detail),
                }
            )
        return {
            "schema": "1",
            "kind": "go-certificate",
            "target": self.target,
            "formulation": self.formulation,
            "metric_coefficients": fmt_vec(self.metric_coefficients),
            "verdict": self.verdict,
            "seed": self.seed,
            "strategy": "sphere",
            "tolerances": {
                "feasible_rel": self.tolerances.feasible_rel,
                "infeasible_rel": self.tolerances.infeasible_rel,
                "sigma_ratio": SIGMA_RATIO,
                "escalate_dps": ESCALATE_DPS,
            },
            "checks": entries,
        }


def go_check(
    target,
    metric: MetricEndomorphism,
    formulation: str = "auto",
    count: int = 24,
    seed: int = 0,
    exact: bool = False,
    samples=None,
    extra: Subspace | None = None,
    tolerances: Tolerances | None = None,
) -> GOCertificate:
    """Run a feasibility sweep and aggregate the verdict.

    target is either a CompactLieAlgebra (left-invariant case) or a
    ReductiveSpace.  Directions come from ``samples`` when given,
    otherwise from ``sample_tangent_vectors`` with the stated seed, so
    reports are reproducible byte for byte.  No directions
    (``count`` below 1 or empty ``samples``) raise ValueError.
    """
    tol = tolerances or Tolerances()
    group_mode = isinstance(target, CompactLieAlgebra)
    if formulation == "auto":
        formulation = "lie_group" if group_mode else "normal_transitive"
    if samples is None:
        samples = sample_tangent_vectors(
            metric.decomposition, count, seed=seed, exact=exact
        )
    samples = [list(x) for x in samples]
    if not samples:
        # a verdict over no directions would certify nothing
        raise ValueError("go_check needs at least one direction")
    results = []
    for x in samples:
        if formulation == "lie_group":
            if not group_mode:
                raise ValueError("lie_group formulation needs an algebra target")
            results.append(lie_group_go_check(target, metric, x, tolerances=tol))
        elif formulation == "direct":
            results.append(go_feasible_direct(target, metric, x, tolerances=tol))
        elif formulation == "reduced":
            results.append(go_feasible_reduced(target, metric, x, extra=extra, tolerances=tol))
        elif formulation == "normal_transitive":
            results.append(go_feasible_normal_transitive(target, metric, x, tolerances=tol))
        else:
            raise ValueError(f"unknown formulation {formulation!r}")
    statuses = {r.status for r in results}
    if "infeasible" in statuses:
        verdict = "non-go-certified"
    elif "indeterminate" in statuses:
        verdict = "indeterminate"
    else:
        verdict = "go-consistent"
    name = target.name if group_mode else (target.name or target.algebra.name)
    return GOCertificate(
        target=name,
        formulation=formulation,
        metric_coefficients=tuple(metric.coefficients),
        verdict=verdict,
        results=tuple(results),
        samples=tuple(tuple(x) for x in samples),
        seed=seed,
        tolerances=tol,
    )
