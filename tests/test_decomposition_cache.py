"""Facts computed once per decomposition against their uncached constructions.

``max_right_isometry_algebra`` keeps one kernel per coefficient partition
on the decomposition, ``subalgebra_block_sums`` one tuple per
decomposition, ``bracket_reach`` reads the decomposition's one bracket
table, and ``detect_naturally_reductive`` tests adaptedness of a
metric by kernel containment.  The references below compute each
fact from scratch for one metric, as the direct definitions do; both
must give the same exact bases and verdicts.
"""

import itertools
from fractions import Fraction as Q

import pytest

from gometrics import exactlinalg as ela
from gometrics.cli import build_target, main
from gometrics.gocheck import (
    FeasibilityResult,
    SpaceValidationError,
    go_check,
    go_feasible_reduced,
    solve_linear_feasibility,
)
from gometrics.liealg import CompactLieAlgebra, Subspace, build_su2, is_subalgebra
from gometrics.metrics import (
    MetricEndomorphism,
    MetricValidationError,
    ModuleDecomposition,
    detect_naturally_reductive,
    make_metric,
    max_right_isometry_algebra,
    partition_key,
    subalgebra_block_sums,
)
from gometrics.scalars import Quad
from gometrics.spaces import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    aloff_wallach,
    aw_extended_presentation,
    aw_metric,
    g2_decomposition,
    g2_metric,
)


def reference_kernel(L, metric):
    """{W : [ad W, A] = 0}, solved for this metric alone."""
    eig = {}  # the block bases merged per distinct coefficient
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        eig.setdefault(a, []).extend(block.basis)
    rows = [
        L.lower(L.bracket(u, w))
        for ea, eb in itertools.combinations(eig.values(), 2)
        for u in ea
        for w in eb
    ]
    if not rows:
        return Subspace.from_indices(L, range(L.dim))
    return Subspace.from_vectors(L, ela.nullspace(rows))


def reference_block_sums(decomposition):
    """Every sum of blocks, tested by ``is_subalgebra`` on its own basis."""
    L, blocks = decomposition.parent, decomposition.blocks
    out = []
    for r in range(len(blocks), 0, -1):
        for combo in itertools.combinations(range(len(blocks)), r):
            s = blocks[combo[0]]
            for i in combo[1:]:
                s = s.sum(blocks[i])
            if is_subalgebra(L, s):
                label = "+".join(blocks[i].label or f"block{i + 1}" for i in combo)
                out.append((label, s.basis))
    out.sort(key=lambda entry: -len(entry[1]))
    return out


def reference_bracket_reach(decomposition):
    """Each block bracket projected onto every block in turn; what no
    block takes leaves the ambient span."""
    L, blocks = decomposition.parent, decomposition.blocks
    out = {}
    for i, j in itertools.combinations_with_replacement(range(len(blocks)), 2):
        reach = out[i, j] = set()
        for u in blocks[i].basis:
            for w in blocks[j].basis:
                rest = L.bracket(u, w)
                for k, block in enumerate(blocks):
                    part = block.project(rest)
                    if not ela.vec_is_zero(part):
                        reach.add(k)
                        rest = [x - y for x, y in zip(rest, part)]
                if not ela.vec_is_zero(rest):
                    reach.add(None)
    return out


def _g2_corners():
    return [
        tuple(c + s * 1e-6 for c, s in zip(EINSTEIN_SET_3, signs))
        for signs in itertools.product((1.0, -1.0), repeat=5)
    ]


def _targets():
    dec = g2_decomposition()
    out = [
        (dec.algebra, g2_metric(*c, decomposition=dec))
        for c in [EINSTEIN_SET_1, EINSTEIN_SET_2, EINSTEIN_SET_3] + _g2_corners()
    ]
    for spec, coeffs in (
        ("lie:su3", (1, 1, 1, 2, 2)),
        ("lie:su3", (1, 2, 3, 4, 5)),
        ("lie:su2", (1, 1, 1)),
        ("lie:su2", (1, 1, 2)),
        ("lie:su2", (1, 2, 3)),
    ):
        out.append(build_target(spec, tuple(Q(c) for c in coeffs)))
    return out


def test_kernel_matches_uncached_reference():
    targets = _targets()
    assert len(targets) == 40
    for L, metric in targets:
        assert max_right_isometry_algebra(L, metric).basis == reference_kernel(L, metric).basis


def test_metrics_with_one_partition_share_one_kernel():
    dec = g2_decomposition()
    L = dec.algebra
    set3 = max_right_isometry_algebra(L, g2_metric(*EINSTEIN_SET_3, decomposition=dec))
    for corner in _g2_corners():
        assert max_right_isometry_algebra(L, g2_metric(*corner, decomposition=dec)) is set3
    # exact and float coefficients with the same equalities share too
    a = max_right_isometry_algebra(L, g2_metric(1, 1, 2, 2, 1, decomposition=dec))
    b = max_right_isometry_algebra(L, g2_metric(3.5, 3.5, 0.5, 0.5, 3.5, decomposition=dec))
    assert a is b
    assert a is max_right_isometry_algebra(L, g2_metric(*EINSTEIN_SET_2, decomposition=dec))
    assert a is not set3
    assert partition_key((3, 1, 1, 3.0, 2)) == (0, 1, 1, 0, 4)


def test_block_sums_are_built_once_and_match_reference():
    dec = g2_decomposition()
    sums = subalgebra_block_sums(dec.blocks)
    assert subalgebra_block_sums(dec.blocks) is sums
    decompositions = [dec.blocks, build_target("lie:su3", (Q(1),) * 5)[1].decomposition]
    for k, l in ((1, 1), (2, 1)):
        aw = aloff_wallach(k, l)
        decompositions.append(aw.blocks)  # the complement only, not all of g
        ext = aw_extended_presentation(aw, Q(1), Q(2), Q(3), Q(4))
        decompositions.append(ext.metric.decomposition)
    for d in decompositions:
        got = [(s.label, s.basis) for s in subalgebra_block_sums(d)]
        assert got == reference_block_sums(d)


def test_bracket_reach_matches_the_projection_loop():
    spanning = [
        g2_decomposition().blocks,
        build_target("lie:su3", (Q(1),) * 5)[1].decomposition,
        build_target("lie:su2", (Q(1),) * 3)[1].decomposition,
    ]
    partial = []  # tangent blocks and their u(3) extensions span less than g
    for k, l in ((2, 1), (5, 2)):
        aw = aloff_wallach(k, l)
        partial += [aw.blocks, aw_extended_presentation(aw, Q(1), Q(2), Q(3), Q(4)).blocks]
    for d in spanning + partial:
        fresh = ModuleDecomposition(parent=d.parent, blocks=d.blocks, name=d.name)
        got = fresh.bracket_reach
        assert list(got.items()) == list(reference_bracket_reach(d).items())
        assert any(None in reach for reach in got.values()) == (d in partial)


def _summary(res):
    if not res.found:
        return (False, res.checked)
    return (
        True,
        res.subalgebra.label,
        res.subalgebra.dim,
        res.transverse_coefficient,
        res.ideal_coefficients,
        res.checked,
    )


def test_natural_reductivity_results_are_unchanged():
    dec = g2_decomposition()
    L = dec.algebra
    set2_float = tuple(float(c) for c in EINSTEIN_SET_2)
    cases = [
        (EINSTEIN_SET_1, (True, "p1+p2+p3+p4+p5", 14, None, (Q(1),) * 14, 1)),
        (EINSTEIN_SET_2, (True, "p1+p2+p5", 8, Q(11, 9), (Q(1),) * 8, 2)),
        (EINSTEIN_SET_3, (False, 7)),
        # decimals read adaptedness off the same kernel as exact metrics
        (set2_float, (True, "p1+p2+p5", 8, float(Q(11, 9)), (1.0,) * 8, 2)),
    ]
    for coeffs, want in cases:
        res = detect_naturally_reductive(L, g2_metric(*coeffs, decomposition=dec))
        assert _summary(res) == want, coeffs
    su3, metric = build_target("lie:su3", tuple(Q(c) for c in (1, 1, 1, 2, 2)))
    want = (True, "axis-z+axis-x0+plane-12", 4, Q(2), (Q(1),) * 4, 2)
    assert _summary(detect_naturally_reductive(su3, metric)) == want


def test_exact_zero_right_hand_side_skips_elimination():
    q = Quad(Q(1), Q(2), 3)
    for rows in ([[Q(1), Q(2)], [Q(2), Q(4)]], [[q, Q(1), Q(0)], [Q(2), q * q, Q(5)]]):
        for zero in (Q(0), Quad(Q(0), Q(0), 3)):
            rhs = [zero] * len(rows)
            eliminated = FeasibilityResult(
                "feasible", 0.0, tuple(ela.solve(rows, rhs)[0]), "exact",
                detail={"certificate": "exact-solution"},
            )
            assert solve_linear_feasibility(rows, rhs) == eliminated


def test_kernel_rejects_a_metric_of_another_algebra():
    L = build_su2()
    other = build_su2()
    blocks = tuple(Subspace.from_indices(other, [i]) for i in range(3))
    metric = make_metric(ModuleDecomposition(parent=other, blocks=blocks), (Q(1), Q(1), Q(2)))
    with pytest.raises(MetricValidationError):
        max_right_isometry_algebra(L, metric)
    assert max_right_isometry_algebra(other, metric).dim == 1


def _count_calls(monkeypatch, *sites) -> dict:
    calls = {}
    for owner, name in sites:
        orig = getattr(owner, name)
        calls[name] = 0

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_extra_generators_are_validated_once_per_metric(monkeypatch):
    aw = aloff_wallach(2, 1)
    L = aw.algebra
    axis = Subspace.from_indices(L, (1,), label="axis")
    metric = aw_metric(aw, Q(1), Q(2), Q(3), Q(1))
    x = [Q(0)] + [Q(1)] * (L.dim - 1)
    x = aw.space.complement.project(x)
    first = go_feasible_reduced(aw.space, metric, x, extra=axis)
    assert (aw.space, tuple(axis.basis[0])) in metric.skew_generators
    calls = _count_calls(monkeypatch, (CompactLieAlgebra, "bracket"), (Subspace, "project"))
    again = go_feasible_reduced(aw.space, metric, x, extra=axis)
    assert again == first
    # the reduced system is compiled on the space and A is a matrix of
    # the metric, so a repeated direction brackets and projects nothing
    assert calls == {"bracket": 0, "project": 0}


def test_exact_go_check_brackets_do_not_grow_with_directions(monkeypatch):
    args = ["go-check", "--space", "aw:2,1", "--metric", "1,2,3,1", "--samples"]
    main(args + ["1"])  # builds W[2,1] and compiles its system
    counts = []
    for samples in ("12", "24"):
        calls = _count_calls(monkeypatch, (CompactLieAlgebra, "bracket"))
        assert main(args + [samples]) == 3
        counts.append(calls["bracket"])
        monkeypatch.undo()
    assert counts[0] == counts[1]


@pytest.mark.parametrize("space,metric", [("aw:2,1", "1,2,3,1"), ("lie:g2", "1,2,3,4,5")])
def test_exact_go_check_decides_in_the_frame(monkeypatch, space, metric):
    # an exact direction makes no apply and clears only itself to integers
    args = ["go-check", "--space", space, "--metric", metric, "--samples"]
    main(args + ["1"])  # builds the space and compiles its systems
    counts = []
    for samples in ("12", "24"):
        calls = _count_calls(monkeypatch, (MetricEndomorphism, "apply"), (ela, "clear_denominators"))
        assert main(args + [samples]) == 3
        counts.append(calls)
        monkeypatch.undo()
    assert [c["apply"] for c in counts] == [0, 0]
    # one for the new metric's coefficients, one per direction
    assert [c["clear_denominators"] for c in counts] == [13, 25]


def test_bad_extra_generator_raises_on_every_first_direction():
    aw = aloff_wallach(2, 1)
    L = aw.algebra
    # the axis X0 is metric-skew, X3 is not for distinct coefficients
    extra = Subspace.from_indices(L, (1, 4), label="axis+X3")
    metric = aw_metric(aw, Q(1), Q(2), Q(3), Q(1))
    x = list(aw.space.complement.basis[1])
    for _ in range(2):
        with pytest.raises(SpaceValidationError, match="metric-skew"):
            go_feasible_reduced(aw.space, metric, x, extra=extra)
        with pytest.raises(SpaceValidationError, match="metric-skew"):
            go_check(aw.space, metric, formulation="reduced", extra=extra, count=3, exact=True)
    assert metric.skew_generators == {(aw.space, tuple(extra.basis[0]))}


def test_reach_and_ricci_make_one_bracket_per_frame_pair(monkeypatch):
    dec = g2_decomposition()
    fresh = ModuleDecomposition(parent=dec.algebra, blocks=dec.blocks.blocks)
    calls = _count_calls(monkeypatch, (CompactLieAlgebra, "bracket"))
    assert fresh.bracket_reach == dec.blocks.bracket_reach
    assert fresh.ricci_polynomial == dec.blocks.ricci_polynomial
    # 14 frame vectors: 91 pairs a < b, where the projection loop and a
    # full table made 121 + 196
    assert calls == {"bracket": 91}
