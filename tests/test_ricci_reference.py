"""The compiled Ricci polynomial against the two per-metric computations
it replaced.

``reference_ricci_loop`` is the O(n^4) exact Koszul loop over the frame
of block bases, and ``reference_ricci_einsum`` the numpy contraction
that float metrics went through.  The compiled tensor must equal the
loop's exactly, for exact metrics and, read as dyadic rationals, for
float ones; the float summary must match the numpy path to 1e-12.
"""

import random
from fractions import Fraction as Q

import numpy as np
import pytest

from gometrics import cli
from gometrics.metrics import make_metric
from gometrics.ricci import _exact_ricci, ricci_left_invariant
from gometrics.scalars import exact_div
from gometrics.spaces import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    g2_decomposition,
    g2_metric,
)


def _frame(metric):
    """Concatenated exact block bases and their metric grams g_a."""
    L = metric.parent
    vecs, grams = [], []
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        for b in block.basis:
            vecs.append(list(b))
            grams.append(a * L.inner_product(b, b))
    return vecs, grams


def reference_ricci_loop(metric):
    """Ric[b][d] in the frame of block bases, summed term by term."""
    n = metric.parent.dim
    _, grams = _frame(metric)
    K = metric.decomposition.frame_brackets
    C = [[[grams[c] * K[a][b][c] for c in range(n)] for b in range(n)] for a in range(n)]
    G = [
        [[exact_div(C[a][b][c] - C[b][c][a] + C[c][a][b], 2) for c in range(n)] for b in range(n)]
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
            ric[b][d] = ric[d][b] = tot
    return ric, grams


def reference_ricci_einsum(metric):
    """Ric in the g-orthonormal frame, from numpy contractions of the
    float structure tensor."""
    L = metric.parent
    vecs, grams = _frame(metric)
    frame = np.array(
        [np.array([float(x) for x in v]) / float(g) ** 0.5 for v, g in zip(vecs, grams)]
    ).T
    T = np.einsum("ia,jb,ijk->abk", frame, frame, L.structure_np)
    C = np.einsum("abk,kl,lc->abc", T, L.inner_np @ metric.matrix_np, frame)
    G = (C - np.transpose(C, (2, 0, 1)) + np.transpose(C, (1, 2, 0))) / 2.0
    ric_on = (
        np.einsum("bdm,ama->bd", G, G)
        - np.einsum("adm,bma->bd", G, G)
        - np.einsum("abm,mda->bd", C, G)
    )
    return (ric_on + ric_on.T) / 2.0


def _g2(coeffs):
    dec = g2_decomposition()
    return dec.algebra, g2_metric(*coeffs, decomposition=dec)


def _target(spec, coeffs):
    return cli.build_target(spec, list(coeffs))


_RNG = random.Random(20161207)
_RANDOM_G2 = [
    tuple(Q(_RNG.randint(1, 30), _RNG.randint(1, 30)) for _ in range(5)) for _ in range(4)
]

EXACT = [
    ("g2-set1", lambda: _g2(EINSTEIN_SET_1)),
    ("g2-set2", lambda: _g2(EINSTEIN_SET_2)),
    *((f"g2-random{i}", lambda c=c: _g2(c)) for i, c in enumerate(_RANDOM_G2)),
    # the su(3) structure constants live in Q(sqrt(21))
    ("su3-11122", lambda: _target("lie:su3", map(Q, (1, 1, 1, 2, 2)))),
    ("su3-12345", lambda: _target("lie:su3", map(Q, (1, 2, 3, 4, 5)))),
    ("su3-mixed", lambda: _target("lie:su3", (Q(3, 2), Q(1), Q(2), Q(1), Q(7)))),
    ("su2-112", lambda: _target("lie:su2", map(Q, (1, 1, 2)))),
    ("su2-123", lambda: _target("lie:su2", map(Q, (1, 2, 3)))),
    ("su2-mixed", lambda: _target("lie:su2", (Q(3, 2), Q(5, 7), Q(4)))),
]

FLOAT = [
    ("g2-set3", lambda: _g2(EINSTEIN_SET_3)),
    ("g2-random", lambda: _g2(map(float, _RANDOM_G2[0]))),
    ("su3", lambda: _target("lie:su3", (1.0, 2.5, 3.0, 0.1, 5.0))),
    ("su2", lambda: _target("lie:su2", (1.0, 2.0, 1.0 / 3.0))),
]


@pytest.mark.parametrize("build", [b for _, b in EXACT], ids=[i for i, _ in EXACT])
def test_compiled_exact_tensor_matches_loop(build):
    L, metric = build()
    res = ricci_left_invariant(L, metric)
    ric, grams = reference_ricci_loop(metric)
    assert res.ricci_exact == tuple(tuple(row) for row in ric)
    assert res.gram_exact == tuple(grams)
    n = L.dim
    consts = [exact_div(ric[a][a], grams[a]) for a in range(n)]
    diagonal = all(not ric[a][b] for a in range(n) for b in range(n) if a != b)
    assert res.einstein_exact == (diagonal and all(c == consts[0] for c in consts))


@pytest.mark.parametrize("build", [b for _, b in FLOAT], ids=[i for i, _ in FLOAT])
def test_float_tensor_is_the_exact_tensor_of_its_values(build):
    L, metric = build()
    dyadic = make_metric(metric.decomposition, [Q(a) for a in metric.coefficients])
    ric, grams = _exact_ricci(L, metric)
    assert (ric, grams) == reference_ricci_loop(dyadic)
    res = ricci_left_invariant(L, metric)
    assert res.ricci_exact is None and res.einstein_exact is None
    assert np.max(np.abs(res.ricci_on - reference_ricci_einsum(metric))) <= 1e-12
