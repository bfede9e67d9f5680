"""Ricci curvature of left-invariant metrics on compact Lie groups.

The metric is g(x, y) = <A x, y> for a block-scalar positive A with
coefficients x.  By the Koszul formula in the frame of concatenated
block bases, every Ricci entry is a fixed Laurent polynomial in x whose
coefficients depend only on the decomposition; it is compiled once per
decomposition (``ModuleDecomposition.ricci_polynomial``) and evaluated
exactly for each metric, a float coefficient being the dyadic rational
it holds.  Exact metrics decide Einstein with no tolerance; for float
metrics only the summary (trace, Einstein constant, deviation) is float
arithmetic, and the verdict is a tolerance check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from .liealg import CompactLieAlgebra
from .metrics import MetricEndomorphism, check_covers
from .scalars import Quad, exact_div


@dataclass(frozen=True)
class RicciResult:
    """Ricci data in the metric-orthonormal frame.

    ricci_on is the Ricci tensor in the g-orthonormal frame of block
    basis vectors, each divided by its metric length.  For exact
    metrics ricci_exact holds the tensor in the unnormalized block-basis
    frame together with the diagonal metric grams, which is enough to
    decide the Einstein property exactly.
    """

    ricci_on: np.ndarray
    scalar_curvature: float
    einstein_constant: float
    deviation: float
    ricci_exact: tuple | None = None
    gram_exact: tuple | None = None
    einstein_exact: bool | None = None


def _exact_ricci(L: CompactLieAlgebra, metric: MetricEndomorphism):
    """Ric in the frame v of block bases, evaluated from the
    decomposition's ``ricci_polynomial``, with the grams g_a = x_A <v_a, v_a>.

    A float coefficient is read as the dyadic rational it holds, so a
    float metric gets the exact tensor of its values."""
    dec = metric.decomposition
    x = [a if isinstance(a, Quad) else Q(a) for a in metric.coefficients]
    grams = [x[i] * nv for i, nv in zip(dec.frame_owner, dec.ambient._norms)]
    monomials = {}
    for e in {e for terms in dec.ricci_polynomial.values() for e in terms}:
        # multiply and divide: Quad has no **
        value = Q(1)
        for xi, ei in zip(x, e):
            for _ in range(abs(ei)):
                value = value * xi if ei > 0 else value / xi
        monomials[e] = value
    n = len(grams)
    ric = [[Q(0)] * n for _ in range(n)]
    for (b, d), terms in dec.ricci_polynomial.items():
        ric[b][d] = ric[d][b] = sum((c * monomials[e] for e, c in terms.items()), Q(0))
    return ric, grams


def ricci_left_invariant(L: CompactLieAlgebra, metric: MetricEndomorphism) -> RicciResult:
    """Ricci tensor of the left-invariant metric, on the whole group."""
    check_covers(L, metric)
    n = L.dim
    ric, grams = _exact_ricci(L, metric)
    root = np.array([float(g) ** 0.5 for g in grams])
    ric_on = np.array([[float(r) for r in row] for row in ric]) / np.outer(root, root)
    tr = float(ric_on.diagonal().sum())
    c = tr / n
    dev = float(np.linalg.norm(ric_on - c * np.eye(n), "fro")) / n ** 0.5
    ricci_exact = gram_exact = einstein_exact = None
    if metric.is_exact:
        consts = [exact_div(ric[a][a], grams[a]) for a in range(n)]
        einstein_exact = all(k == consts[0] for k in consts) and all(
            not ric[a][b] for a in range(n) for b in range(n) if a != b
        )
        ricci_exact = tuple(tuple(row) for row in ric)
        gram_exact = tuple(grams)
    return RicciResult(
        ricci_on=ric_on,
        scalar_curvature=tr,
        einstein_constant=c,
        deviation=dev,
        ricci_exact=ricci_exact,
        gram_exact=gram_exact,
        einstein_exact=einstein_exact,
    )


@dataclass(frozen=True)
class EinsteinCheck:
    is_einstein: bool
    deviation: float
    einstein_constant: float
    scalar_curvature: float
    decided_exactly: bool
    tolerance: float
    ricci: RicciResult

    def to_json_dict(self) -> dict:
        return {
            "schema": "1",
            "kind": "einstein-check",
            "is_einstein": self.is_einstein,
            "deviation": self.deviation,
            "einstein_constant": self.einstein_constant,
            "scalar_curvature": self.scalar_curvature,
            "decided_exactly": self.decided_exactly,
            "tolerance": self.tolerance,
        }


def einstein_check(
    L: CompactLieAlgebra, metric: MetricEndomorphism, tolerance: float = 1e-9
) -> EinsteinCheck:
    """Einstein decision: exact when the metric is exact; otherwise the
    frame-orthonormal deviation must be within ``tolerance`` relative to
    |c|, the Einstein constant, so that rescaling the metric does not
    change the verdict.  The reported ``deviation`` stays absolute.
    """
    res = ricci_left_invariant(L, metric)
    if res.einstein_exact is not None:
        verdict = res.einstein_exact
        decided_exactly = True
    else:
        verdict = res.deviation <= tolerance * abs(res.einstein_constant)
        decided_exactly = False
    return EinsteinCheck(
        is_einstein=verdict,
        deviation=res.deviation,
        einstein_constant=res.einstein_constant,
        scalar_curvature=res.scalar_curvature,
        decided_exactly=decided_exactly,
        tolerance=tolerance,
        ricci=res,
    )
