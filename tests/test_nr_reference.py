"""Adaptedness, natural-reductivity detection and metric-skewness against
the general constructions.

``is_adapted``, ``detect_naturally_reductive`` and the reduced
formulation's check of an extra generator all read the decomposition's
commutation kernel, for exact and float metrics alike.  The references
below are the loops that kernel replaced:

* ``reference_is_adapted`` applies A and ad(W) to every block basis
  vector and compares both compressions to the ambient span;
* ``reference_detect`` forms, for each block sum h, the orthogonal
  complement m, checks that A preserves h and acts on m as one scalar by
  applying A to every basis vector, tests adaptedness by the loop above
  and reads the ideal coefficients vector by vector;
* ``reference_skew`` brackets the extra generator with every complement
  basis vector and compares A on both sides.

They test float metrics against absolute tolerances, which are
meaningful only for coefficients near 1; every float case here is.
Both sides must give the same verdicts, subalgebra, coefficients and
candidate count.  The tests at the end check the two consequences of an
exact kernel: a float metric answers like its exact twin, and rescaling
a float metric changes no answer.
"""

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gometrics import exactlinalg as ela
from gometrics.cli import build_target
from gometrics.gocheck import SpaceValidationError, _validate_skew_generator, go_feasible_reduced
from gometrics.liealg import Subspace
from gometrics.metrics import (
    detect_naturally_reductive,
    is_adapted,
    make_metric,
    subalgebra_block_sums,
)
from gometrics.scalars import exact_div
from gometrics.spaces import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    aloff_wallach,
    aw_metric,
    g2_decomposition,
    g2_metric,
)


def _vanishes(metric, vec, tol):
    if metric.is_exact:
        return ela.vec_is_zero(vec)
    return max(abs(float(x)) for x in vec) <= tol


def reference_is_adapted(metric, vectors) -> bool:
    """A proj[W, b] = proj[W, A b] for every W in vectors and every block
    basis vector b, proj the projection onto the ambient span; float
    metrics against 1e-12."""
    L = metric.parent
    amb = metric.decomposition.ambient
    for W in vectors:
        for block in metric.decomposition.blocks:
            for b in block.basis:
                lhs = amb.project(L.bracket(W, metric.apply(b)))
                rhs = metric.apply(amb.project(L.bracket(W, b)))
                if not _vanishes(metric, [x - y for x, y in zip(lhs, rhs)], 1e-12):
                    return False
    return True


def _coefficient_of(metric, v):
    """The coefficient of the block containing v; None if v straddles."""
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        if block.contains(v):
            return a
    return None


def reference_detect(L, metric):
    """(found, subalgebra, transverse, ideal, checked) by the general test."""
    exact = metric.is_exact
    tol = 0 if exact else 1e-10
    checked = 0
    for h in subalgebra_block_sums(metric.decomposition):
        checked += 1
        m = h.orthogonal_complement()
        if not all(_vanishes(metric, m.project(metric.apply(b)), tol) for b in h.basis):
            continue
        x = None
        ok = True
        for b in m.basis:
            img = metric.apply(b)
            c = exact_div(L.inner_product(img, b), L.inner_product(b, b))
            if not _vanishes(metric, [u - c * v for u, v in zip(img, b)], tol):
                ok = False
                break
            if x is None:
                x = c
            elif exact:
                if x != c:
                    ok = False
                    break
            elif abs(float(x) - float(c)) > tol * max(1.0, abs(float(x))):
                ok = False
                break
        if not ok or not reference_is_adapted(metric, h.basis):
            continue
        ideal = tuple(
            _coefficient_of(metric, b) for b in h.basis if _coefficient_of(metric, b) is not None
        )
        return True, h, x, ideal, checked
    return False, None, None, (), checked


def assert_matches_reference(L, metric):
    res = detect_naturally_reductive(L, metric)
    found, h, x, ideal, checked = reference_detect(L, metric)
    assert res.found == found
    assert res.subalgebra is h
    assert res.ideal_coefficients == ideal
    assert res.checked == checked
    if metric.is_exact or x is None:
        assert res.transverse_coefficient == x
    else:
        # the reference reads x as a float Rayleigh quotient <A b, b> / <b, b>
        assert abs(res.transverse_coefficient - x) <= 1e-12 * abs(x)
    return res


G2_CASES = [
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    tuple(Q(c) for c in (1, 2, 3, 4, 5)),
    tuple(float(c) for c in EINSTEIN_SET_2),
    (1.0, 1.0, 1.0, 1.0, 1.0),
]


@pytest.mark.parametrize("coeffs", G2_CASES)
def test_g2_metrics_match_reference(coeffs):
    dec = g2_decomposition()
    assert_matches_reference(dec.algebra, g2_metric(*coeffs, decomposition=dec))


def test_g2_set3_corners_match_reference():
    dec = g2_decomposition()
    for k in range(32):
        signs = [1.0 if k >> i & 1 else -1.0 for i in range(5)]
        pert = [c + s * 1e-6 for c, s in zip(EINSTEIN_SET_3, signs)]
        res = assert_matches_reference(dec.algebra, g2_metric(*pert, decomposition=dec))
        assert not res.found


@pytest.mark.parametrize(
    "space,coeffs",
    [
        ("lie:su3", (1, 1, 1, 2, 2)),
        ("lie:su3", (1, 2, 3, 4, 5)),
        ("lie:su3", (1, 1, 2, 2, 2)),
        ("lie:su3", (2, 2, 2, 2, 2)),
        ("lie:su2", (2, 1, 1)),
        ("lie:su2", (1, 1, 1)),
        ("lie:su2", (1, 2, 3)),
    ],
)
def test_group_targets_match_reference(space, coeffs):
    L, metric = build_target(space, [Q(c) for c in coeffs])
    assert_matches_reference(L, metric)


# few values, so that coefficients repeat and many block sums qualify
_VALUES = st.sampled_from([Q(1), Q(2), Q(11, 9), Q(1, 3)])


@given(space=st.sampled_from(["lie:g2", "lie:su3"]), coeffs=st.lists(_VALUES, min_size=5, max_size=5))
@settings(max_examples=30, deadline=None)
def test_repeated_rational_coefficients_match_reference(space, coeffs):
    L, metric = build_target(space, coeffs)
    assert_matches_reference(L, metric)


def _candidates(dec):
    """Every block sum that is a subalgebra, every block, every basis line."""
    lines = [Subspace.from_indices(dec.parent, (i,)) for i in range(dec.parent.dim)]
    return list(subalgebra_block_sums(dec)) + list(dec.blocks) + lines


def test_is_adapted_matches_reference():
    # G2, the su3 target, and the W[2,1] tangent blocks and those of its
    # u(3) extension, which span less than g
    aw = aloff_wallach(2, 1)
    su3 = build_target("lie:su3", (Q(1),) * 5)[1].decomposition
    rng = random.Random(0)
    values = (Q(1), Q(2), Q(11, 9))
    for dec in (g2_decomposition().blocks, su3, aw.blocks, aw.extension[2]):
        subs = _candidates(dec)
        n = len(dec.blocks)
        partitions = [(Q(1),) * n, tuple(Q(i + 1) for i in range(n))]
        partitions += [tuple(rng.choice(values) for _ in range(n)) for _ in range(3)]
        for coeffs in partitions:
            metric = make_metric(dec, coeffs)
            for sub in subs:
                assert is_adapted(metric, sub) == reference_is_adapted(metric, sub.basis), (
                    dec.name, coeffs, sub.label,
                )


_NOT_SKEW = "extra generator is not metric-skew"
_NOT_PRESERVED = "extra generator does not preserve the complement"


def reference_skew(space, metric, u):
    """The message the per-vector test raises for the extra generator u,
    None when it accepts; float metrics against 1e-10."""
    L, m = space.algebra, space.complement
    for y in m.basis:
        img = L.bracket(u, y)
        if not m.contains(img):
            return _NOT_PRESERVED
        lhs = m.project(L.bracket(u, metric.apply(y)))
        if not _vanishes(metric, [a - b for a, b in zip(lhs, metric.apply(img))], 1e-10):
            return _NOT_SKEW
    return None


def _skew_message(space, metric, u):
    try:
        _validate_skew_generator(space, metric, u)
    except SpaceValidationError as exc:
        return str(exc)
    return None


def _generators(L):
    """Every basis line of g and every sum of two basis vectors."""
    unit = [[Q(int(i == j)) for j in range(L.dim)] for i in range(L.dim)]
    return unit + [[a + b for a, b in zip(u, v)] for u, v in itertools.combinations(unit, 2)]


@pytest.mark.parametrize("k,l", [(2, 1), (3, 1), (5, 2), (4, 1)])
def test_skew_validation_matches_reference(k, l):
    aw = aloff_wallach(k, l)
    space = aw.space
    for coeffs in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 3, 1), (2, 1, 1, 3), (1, 1, 2, 2)):
        for exact in (True, False):
            metric = aw_metric(aw, *(Q(c) if exact else float(c) for c in coeffs))
            for u in _generators(aw.algebra):
                got, want = _skew_message(space, metric, u), reference_skew(space, metric, u)
                if got == want:
                    continue
                # the kernel is tested first, so a generator failing both
                # conditions is reported as not metric-skew
                assert (got, want) == (_NOT_SKEW, _NOT_PRESERVED), (coeffs, u)
                assert not reference_is_adapted(metric, [u])


# the bench's W[k,l] metrics, one GO (x1 = x2 = x3) and one not per pair
AW_METRICS = {
    (2, 1): ("1,1,1,2", "1,2,3,1"),
    (3, 1): ("2,2,2,3", "2,1,1,5"),
    (3, 2): ("3/2,3/2,3/2,1", "1,1,2,1"),
    (4, 1): ("1,1,1,1/2", "3,1,2,2"),
    (5, 2): ("2,2,2,1", "1,3,1,1"),
}


def _detect_summary(L, metric):
    r = detect_naturally_reductive(L, metric)
    return r.found, r.subalgebra, r.transverse_coefficient, r.ideal_coefficients, r.checked


def test_float_metrics_answer_like_their_exact_twins():
    dec = g2_decomposition()
    L = dec.algebra
    subs = _candidates(dec.blocks)
    floats = [c for c in G2_CASES if not all(isinstance(x, (int, Q)) for x in c)]
    assert len(floats) == 3
    for coeffs in floats:
        fl = g2_metric(*coeffs, decomposition=dec)
        twin = g2_metric(*(Q(c) for c in coeffs), decomposition=dec)
        assert not fl.is_exact and twin.is_exact
        assert [is_adapted(fl, s) for s in subs] == [is_adapted(twin, s) for s in subs]
        # Fraction(x) == x for a float x compares the values exactly
        assert _detect_summary(L, fl) == _detect_summary(L, twin)
    for (k, l), specs in AW_METRICS.items():
        aw = aloff_wallach(k, l)
        subs = _candidates(aw.blocks)
        for spec in specs:
            exact = [Q(t) for t in spec.split(",")]
            fl, twin = aw_metric(aw, *map(float, exact)), aw_metric(aw, *exact)
            assert [is_adapted(fl, s) for s in subs] == [is_adapted(twin, s) for s in subs]
            for u in _generators(aw.algebra):
                assert _skew_message(aw.space, fl, u) == _skew_message(aw.space, twin, u)


SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e5, 1e6, 1e8)


def test_float_answers_do_not_change_when_the_metric_is_rescaled():
    dec = g2_decomposition()
    L = dec.algebra
    for exact in (EINSTEIN_SET_1, EINSTEIN_SET_2):
        want = detect_naturally_reductive(L, g2_metric(*exact, decomposition=dec))
        for s in SCALES:
            metric = g2_metric(*(float(c) * s for c in exact), decomposition=dec)
            res = detect_naturally_reductive(L, metric)
            assert (res.found, res.subalgebra.dim, res.checked) == (
                want.found, want.subalgebra.dim, want.checked,
            ), s
    for k, l in ((2, 1), (5, 2)):
        aw = aloff_wallach(k, l)
        axis = Subspace.from_indices(aw.algebra, (1,), label="axis")
        x = [0.0] + [1.0] * (aw.algebra.dim - 1)
        for spec in AW_METRICS[k, l]:
            statuses = set()
            for s in SCALES:
                metric = aw_metric(aw, *(float(Q(t)) * s for t in spec.split(",")))
                statuses.add(go_feasible_reduced(aw.space, metric, x, extra=axis).status)
            assert len(statuses) == 1, (spec, statuses)
