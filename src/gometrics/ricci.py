"""Ricci curvature of left-invariant metrics on compact Lie groups.

The metric is g(x, y) = <A x, y> for a block-scalar positive A.  All
curvature data is computed from the Koszul formula in a frame of
concatenated block bases, where g is diagonal: with structure
components C[a][b][c] = g([b_a, b_b], b_c) the connection components
are G[a][b][c] = (C[a][b][c] - C[b][c][a] + C[c][a][b]) / 2, and

  Ric[b][d] = sum_a (1/g_a) [ sum_m (G[b][d][m] G[a][m][a]
                                     - G[a][d][m] G[b][m][a]) / g_m
                              - sum_m K[a][b][m] G[m][d][a] ]

with K the bracket coordinates in the frame, which depend only on the
decomposition and are kept on it.  Exact metrics get an
exact tensor (so Einstein can be decided with no tolerance); float
metrics go through numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from .liealg import CompactLieAlgebra
from .metrics import MetricEndomorphism, MetricValidationError
from .scalars import exact_div


@dataclass(frozen=True)
class RicciResult:
    """Ricci data in the metric-orthonormal frame.

    frame_np columns are g-orthonormal basis vectors (algebra
    coordinates); ricci_on is the Ricci tensor in that frame.  For exact
    metrics ricci_exact holds the tensor in the unnormalized block-basis
    frame together with the diagonal metric grams, which is enough to
    decide the Einstein property exactly.
    """

    frame_np: np.ndarray
    ricci_on: np.ndarray
    scalar_curvature: float
    einstein_constant: float
    deviation: float
    ricci_exact: tuple | None = None
    gram_exact: tuple | None = None
    einstein_exact: bool | None = None


def _frame_vectors(metric: MetricEndomorphism):
    """Concatenated exact block bases and their metric grams g_a."""
    vecs, grams = [], []
    L = metric.parent
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        for b in block.basis:
            vecs.append(list(b))
            grams.append(a * L.inner_product(b, b))
    return vecs, grams


def ricci_left_invariant(L: CompactLieAlgebra, metric: MetricEndomorphism) -> RicciResult:
    """Ricci tensor of the left-invariant metric, on the whole group."""
    if L is not metric.parent:
        raise MetricValidationError("metric belongs to a different algebra")
    if metric.decomposition.dim != L.dim:
        raise MetricValidationError("metric must cover the whole algebra")
    n = L.dim
    vecs, grams = _frame_vectors(metric)
    exact = metric.is_exact

    if exact:
        K = metric.decomposition.frame_brackets
        C = [
            [
                [grams[c] * K[a][b][c] for c in range(n)]
                for b in range(n)
            ]
            for a in range(n)
        ]
        G = [
            [
                [
                    exact_div(C[a][b][c] - C[b][c][a] + C[c][a][b], 2)
                    for c in range(n)
                ]
                for b in range(n)
            ]
            for a in range(n)
        ]
        ric = [[Q(0)] * n for _ in range(n)]
        for b in range(n):
            for d in range(b, n):
                tot = Q(0)
                for a in range(n):
                    inner_sum = Q(0)
                    for m in range(n):
                        t1 = G[b][d][m] * G[a][m][a] - G[a][d][m] * G[b][m][a]
                        if t1:
                            inner_sum = inner_sum + exact_div(t1, grams[m])
                        t2 = K[a][b][m] * G[m][d][a]
                        if t2:
                            inner_sum = inner_sum - t2
                    if inner_sum:
                        tot = tot + exact_div(inner_sum, grams[a])
                ric[b][d] = tot
                ric[d][b] = tot
        consts = [exact_div(ric[a][a], grams[a]) for a in range(n)]
        c0 = consts[0]
        einstein_exact = all(c == c0 for c in consts) and all(
            not ric[a][b] for a in range(n) for b in range(n) if a != b
        )
        ric_on = np.array(
            [
                [
                    float(ric[a][b]) / (float(grams[a]) ** 0.5 * float(grams[b]) ** 0.5)
                    for b in range(n)
                ]
                for a in range(n)
            ]
        )
        frame = np.array(
            [[float(x) for x in v] for v in vecs]
        ).T / np.sqrt(np.array([float(g) for g in grams]))[None, :]
        ricci_exact = tuple(tuple(row) for row in ric)
        gram_exact = tuple(grams)
    else:
        frame_cols = []
        for v, g in zip(vecs, grams):
            frame_cols.append(np.array([float(x) for x in v]) / float(g) ** 0.5)
        frame = np.array(frame_cols).T
        cs = L.structure_np
        T = np.einsum("ia,jb,ijk->abk", frame, frame, cs)
        gg = L.inner_np @ metric.matrix_np
        # trilinear components g([f_a, f_b], f_c); in the g-orthonormal
        # frame these are also the bracket coordinates
        C = np.einsum("abk,kl,lc->abc", T, gg, frame)
        G = (C - np.transpose(C, (2, 0, 1)) + np.transpose(C, (1, 2, 0))) / 2.0
        ric_on = (
            np.einsum("bdm,ama->bd", G, G)
            - np.einsum("adm,bma->bd", G, G)
            - np.einsum("abm,mda->bd", C, G)
        )
        ric_on = (ric_on + ric_on.T) / 2.0
        ricci_exact = None
        gram_exact = None
        einstein_exact = None

    tr = float(np.trace(ric_on))
    c = tr / n
    dev = float(np.linalg.norm(ric_on - c * np.eye(n), "fro")) / n ** 0.5
    return RicciResult(
        frame_np=frame,
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
