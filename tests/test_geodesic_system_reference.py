"""Compiled geodesic systems, exact ``apply`` and exact sampling against
the per-call computations they replaced.

``reference_system`` is the builder the four GO formulations used before
their systems were compiled: one bracket per generator and one for the
right-hand side, each paired with the formulation's pairing basis.
``reference_equations`` is the Fraction assembly of a compiled system
that came before its integer-pair rows, ``reference_pair_equations``
the integer-pair assembly in standard coordinates from A X and X that
came before directions were decided in the metric's frame, and
``reference_decision`` the exact decision on the Fraction system:
``exactlinalg.solve`` plus ``_lstsq_stats`` on its float copy.
``reference_apply`` projects onto every block, and ``reference_samples``
adds c * b over every entry of each ambient basis vector.  Exact results
must be equal entry for entry, of the same types, and float residuals
bit for bit; float systems must agree to 1e-12 relative to the largest
entry.
"""

import functools
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gometrics import cli
from gometrics import exactlinalg as ela
from gometrics.gocheck import (
    _lstsq_stats,
    _norm_hint,
    go_feasible_direct,
    go_feasible_normal_transitive,
    go_feasible_reduced,
    lie_group_go_check,
    sample_tangent_vectors,
    solve_linear_feasibility,
)
from gometrics.liealg import BracketSystem, Subspace, build_su3, centralizer
from gometrics.metrics import ModuleDecomposition, make_metric, max_right_isometry_algebra
from gometrics.scalars import Quad
from gometrics.spaces import (
    EINSTEIN_SET_2,
    aloff_wallach,
    aw_extended_presentation,
    aw_metric,
    g2_decomposition,
    g2_metric,
)


def reference_system(L, ax, X, generators, pair):
    cols = [pair(L.bracket(ax, w)) for w in generators]
    rhs = [-v for v in pair(L.bracket(ax, X))]
    rows = [[c[i] for c in cols] for i in range(len(rhs))]
    return rows, rhs


def exact_value(p, q, den, d):
    return Quad(Q(p, den), Q(q, den), d) if q else Q(p, den)


@functools.lru_cache(maxsize=8)
def standard_tensors(system):
    """The system's integer tensors in the frame of unit vectors, every
    pair of them kept: G[a] = pair([e_a, w_j]) and S[a, b] = pair([e_a, e_b])."""
    n = system.algebra.dim
    return system.in_frame([[Q(int(k == a)) for k in range(n)] for a in range(n)], range(n))


def reference_equations(system, u, x):
    """(M, rhs) assembled in Fraction and Quad arithmetic from the exact
    tensors G and S of a compiled system."""
    d, den, G, S = standard_tensors(system)
    G = [[(i, j, exact_value(p, q, den, d)) for i, j, p, q in ent] for ent in G]
    S = {(a, b): [(i, exact_value(p, q, den, d)) for i, _, p, q in ent] for a, b, ent in S}
    zero = Q(0)
    rows, cols = system.shape
    M = [[zero] * cols for _ in range(rows)]
    for c, entries in zip(u, G):
        if c:
            for i, j, g in entries:
                M[i][j] = M[i][j] + c * g
    rhs = [zero] * rows
    for (a, b), entries in S.items():
        ua, xb, ub, xa = u[a], x[b], u[b], x[a]
        if (ua and xb) or (ub and xa):
            f = ua * xb - ub * xa
            if f:
                for i, s in entries:
                    rhs[i] = rhs[i] - f * s
    return M, rhs


def reference_pair_equations(system, u, x):
    """The augmented rows [M s | rhs s] for exact u and x as an
    ``exactlinalg.PairRows`` with one integer scale s: u and x cleared to
    integers once each, then assembled from the integer tensors G and S."""
    radicand, den, G, S = standard_tensors(system)
    d, su, up, uq = ela.clear_denominators(u, radicand)
    d, sx, xp, xq = ela.clear_denominators(x, d)
    rows, cols = system.shape
    out = [[0] * (2 * cols + 2) for _ in range(rows)]
    # M s = sum_a (u_a su sx)(G[a] den) with s = su sx den
    for entries, p, q in zip(G, up, uq):
        if p or q:
            p, q = p * sx, q * sx
            for i, j, gp, gq in entries:
                row = out[i]
                row[j] += p * gp + q * gq * d
                row[cols + 1 + j] += p * gq + q * gp
    # rhs s = -sum_{a<b} ((u_a x_b - u_b x_a) su sx)(S[a, b] den)
    for a, b, entries in S:
        fp = up[a] * xp[b] - up[b] * xp[a] + (uq[a] * xq[b] - uq[b] * xq[a]) * d
        fq = up[a] * xq[b] + uq[a] * xp[b] - up[b] * xq[a] - uq[b] * xp[a]
        if fp or fq:
            for i, _, sp, sq in entries:
                row = out[i]
                row[cols] -= fp * sp + fq * sq * d
                row[-1] -= fp * sq + fq * sp
    return ela.PairRows(d, out, [su * sx * den] * rows)


def frame_rows(system, metric, x):
    """The rows the formulations decide for exact x: assembled in the
    metric's frame from x's frame coordinates."""
    dec = metric.decomposition
    coords = dec.frame_coordinates(x, metric.frame_coefficients[0])
    assert coords[3], "x leaves the frame's span"
    if system not in dec.frame_systems:
        dec.frame_systems[system] = system.in_frame(dec.ambient.basis, dec.frame_owner)
    return system.frame_equations(dec.frame_systems[system], metric.frame_coefficients, coords)


def reference_decision(rows, rhs, scale_hint):
    """(status, witness, rank, residual_rel, sigma_ratio) of the exact
    decision on the Fraction system."""
    if ela.vec_is_zero(rhs):
        return "feasible", tuple([Q(0)] * len(rows[0])), None, 0.0, None
    sol, rank = ela.solve(rows, rhs)
    if sol is not None:
        return "feasible", tuple(sol), None, 0.0, None
    _, rel, sratio = _lstsq_stats(np.array(rows, dtype=float), np.array(rhs, dtype=float), scale_hint)
    return "infeasible", None, rank, rel, sratio


def exact_entries(system):
    """The Fraction and Quad entries that integer-pair rows stand for."""
    out = []
    for row, den in zip(system.rows, system.dens):
        c = len(row) // 2
        out.append([exact_value(p, q, den, system.d) for p, q in zip(row[:c], row[c:])])
    return out


def float_reprs(pairs):
    """repr() of every float the integer-pair rows give."""
    return [list(map(repr, row)) for row in pairs.floats()]


def split_equations(pairs):
    """(M, rhs) of integer-pair rows, as exact entries."""
    assert isinstance(pairs, ela.PairRows)
    entries = exact_entries(pairs)
    return [r[:-1] for r in entries], [r[-1] for r in entries]


def _types(rows, rhs):
    return [type(v) for row in rows + [rhs] for v in row]


def assert_same_decision(system, u, x, scale_hint, pairs=None):
    """The integer decision on pairs (by default the standard-coordinate
    rows) against ``reference_decision``: status, witness values and
    types, ranks, and the float residual and singular value ratio bit for
    bit."""
    rows, rhs = reference_equations(system, u, x)
    pairs = pairs or reference_pair_equations(system, u, x)
    res = solve_linear_feasibility(pairs, None, scale_hint=scale_hint)
    status, witness, rank, rel, sratio = reference_decision(rows, rhs, scale_hint)
    assert (res.status, res.witness, res.method) == (status, witness, "exact")
    if witness is not None:
        assert [type(v) for v in res.witness] == [type(v) for v in witness]
    assert res.detail.get("rank") == rank
    if rank is not None:
        assert res.detail["rank_augmented"] == rank + 1
    assert repr(res.residual_rel) == repr(rel)
    assert repr(res.sigma_ratio) == repr(sratio)
    return status


def reference_apply(metric, v):
    out = [Q(0)] * metric.parent.dim
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        p = block.project(v)
        out = [x + a * y for x, y in zip(out, p)]
    return out


def reference_samples(decomposition, count, seed):
    rng = np.random.default_rng(seed)
    amb = decomposition.ambient
    out = []
    for _ in range(count):
        v = [Q(0)] * decomposition.parent.dim
        nonzero = False
        for b in amb.basis:
            c = int(rng.integers(-9, 10))
            if c:
                nonzero = True
                v = [x + Q(c) * y for x, y in zip(v, b)]
        if not nonzero:
            v = [x + y for x, y in zip(v, amb.basis[0])]
        out.append(v)
    return out


def _pairing(L, basis):
    return lambda v: [L.inner_product(v, y) for y in basis]


def _cases(coeffs):
    """(name, system, algebra, generators, pairing, metric, directions,
    decide) of the four formulations on W[2,1] and W[5,2], and the group
    case on G2, su3 and su2; decide(X) is the formulation's public call."""
    out = []
    exact = all(isinstance(c, Q) for c in coeffs)
    for pair in ((2, 1), (5, 2)):
        aw = aloff_wallach(*pair)
        L, space = aw.algebra, aw.space
        h, m = space.isotropy, space.complement
        metric = aw_metric(aw, *coeffs)
        xs = sample_tangent_vectors(aw.blocks, 4, seed=1, exact=exact)
        ext = aw_extended_presentation(aw, *coeffs)
        out.append((
            "direct", ext.space.geodesic_system(), ext.algebra, ext.space.isotropy.basis,
            _pairing(ext.algebra, ext.space.complement.basis), ext.metric,
            [ext.lift(x) for x in xs], functools.partial(go_feasible_direct, ext.space, ext.metric),
        ))
        axis = Subspace.from_indices(L, (1,), label="axis")
        out.append((
            "reduced", space.geodesic_system(axis), L, h.basis + axis.basis,
            _pairing(L, m.basis), metric, xs,
            functools.partial(go_feasible_reduced, space, metric, extra=axis),
        ))
        cm = centralizer(L, h).intersect(m)
        out.append((
            "normal_transitive", space.normal_transitive_system, L, h.basis + cm.basis,
            _pairing(L, h.orthogonal_complement().basis), metric, xs,
            functools.partial(go_feasible_normal_transitive, space, metric),
        ))
    dec = g2_decomposition()
    g2 = dec.algebra, g2_metric(*EINSTEIN_SET_2, decomposition=dec)
    su3 = cli.build_target("lie:su3", (Q(1), Q(2), Q(3), Q(4), Q(5)))
    su2 = cli.build_target("lie:su2", (Q(1), Q(2), Q(3)))  # over Q
    for L, metric in (g2, su3, su2):
        if not exact:
            metric = make_metric(metric.decomposition, [a * 1.0 for a in metric.coefficients])
        kernel = max_right_isometry_algebra(L, metric)
        xs = sample_tangent_vectors(metric.decomposition, 4, seed=2, exact=exact)
        out.append((
            "lie_group", kernel.bracket_system, L, kernel.basis, list, metric, xs,
            functools.partial(lie_group_go_check, L, metric),
        ))
    return out


def test_exact_systems_match_the_bracket_and_pair_builder():
    cases = _cases((Q(1), Q(2), Q(3), Q(1, 2)))
    assert sorted({c[0] for c in cases}) == ["direct", "lie_group", "normal_transitive", "reduced"]
    for name, system, L, gens, pair, metric, xs, _ in cases:
        for x in xs:
            ax = metric.apply(x)
            want_rows, want_rhs = reference_system(L, ax, x, gens, pair)
            for pairs in (frame_rows(system, metric, x), reference_pair_equations(system, ax, x)):
                rows, rhs = split_equations(pairs)
                assert (rows, rhs) == (want_rows, want_rhs), name
                assert _types(rows, rhs) == _types(want_rows, want_rhs), name
            # the Fraction assembly of the same tensors gives the same system
            assert reference_equations(system, ax, x) == (want_rows, want_rhs), name


@pytest.mark.parametrize("coeffs", [(Q(1), Q(2), Q(3), Q(1, 2)), (Q(1), Q(1), Q(1), Q(2))])
def test_exact_decisions_match_the_fraction_system(coeffs):
    statuses = set()
    for name, system, L, gens, pair, metric, xs, _ in _cases(coeffs):
        for x in xs:
            ax, hint = metric.apply(x), _norm_hint(L, x)
            statuses.add(assert_same_decision(system, ax, x, hint))
            assert_same_decision(system, ax, x, hint, frame_rows(system, metric, x))
    assert statuses == {"feasible", "infeasible"}


# su3(k, l) over Q and over Q(sqrt d): d = 3, 7, 13, 21, 39, 57
FIELDS = {0: (1, 1), 3: (1, 0), 7: (4, 1), 13: (5, 2), 21: (2, 1), 39: (3, 1), 57: (3, 2)}


@functools.lru_cache(maxsize=None)
def _su3(d):
    L = build_su3(*FIELDS[d])
    assert (L.field_d or 0) == d
    return L


@st.composite
def compiled_systems(draw):
    """A system compiled on su3 over one of the fields, with generators, a
    pairing (or coordinates), u and x over the same field; x is a
    combination of the generators (a consistent system), u (a zero
    right-hand side), or arbitrary."""
    d = draw(st.sampled_from(sorted(FIELDS)))
    L = _su3(d)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    entry = small if not d else st.one_of(small, st.builds(lambda a, b: Quad(a, b, d) if b else a, small, small))
    vec = st.lists(st.one_of(st.just(Q(0)), entry), min_size=L.dim, max_size=L.dim)
    gens = draw(st.lists(vec, max_size=3))
    pairing = draw(st.one_of(st.none(), st.lists(vec, min_size=1, max_size=4)))
    u = draw(vec)
    kind = draw(st.sampled_from(["consistent", "zero", "arbitrary"]))
    if kind == "consistent":
        x = [Q(0)] * L.dim
        for w in gens:
            c = draw(entry)
            x = [a + c * b for a, b in zip(x, w)]
    else:
        x = u if kind == "zero" else draw(vec)
    return L, BracketSystem(L, gens, pairing), u, x


def _unit(i, n=8):
    return [Q(int(k == i)) for k in range(n)]


@settings(max_examples=150, deadline=None)
@given(compiled_systems())
# over Q: [X0, Z] = 0 while [X0, X1] is not, an inconsistent system
@example((_su3(0), BracketSystem(_su3(0), [_unit(0)], None), _unit(1), _unit(2)))
def test_integer_decisions_match_the_fraction_system_over_each_field(case):
    L, system, u, x = case
    pairs = reference_pair_equations(system, u, x)
    rows, rhs = split_equations(pairs)
    want_rows, want_rhs = reference_equations(system, u, x)
    assert (rows, rhs) == (want_rows, want_rhs)
    assert _types(rows, rhs) == _types(want_rows, want_rhs)
    # float() of every entry the integer pairs stand for, bit for bit
    want = [[repr(float(v)) for v in row] + [repr(float(b))] for row, b in zip(want_rows, want_rhs)]
    assert [[repr(v) for v in row] for row in pairs.floats()] == want
    # and the float copies of the tensors are float() of their exact entries
    G, S = system._float_tensors
    d, den, Gi, Si = standard_tensors(system)
    assert [G[a, i, j] for a, ent in enumerate(Gi) for i, j, *_ in ent] == [
        float(exact_value(p, q, den, d)) for ent in Gi for *_, p, q in ent
    ]
    assert [(S[a, b, i], S[b, a, i]) for a, b, ent in Si for i, *_ in ent] == [
        (float(v), -float(v)) for *_, ent in Si for *_, p, q in ent for v in [exact_value(p, q, den, d)]
    ]
    # and every other entry of the float copies is zero
    assert np.count_nonzero(G) == sum(map(len, Gi)) and np.count_nonzero(S) == 2 * sum(len(e) for *_, e in Si)
    assert_same_decision(system, u, x, _norm_hint(L, x))


def _two_block_metric(L, a, b):
    blocks = (Subspace.from_indices(L, range(4)), Subspace.from_indices(L, range(4, 8)))
    return make_metric(ModuleDecomposition(parent=L, blocks=blocks), (a, b))


@st.composite
def frame_cases(draw):
    """A compiled system of ``compiled_systems`` with a metric whose blocks
    split the unit vectors, its coefficients over the same field."""
    L, system, _, x = draw(compiled_systems())
    owner = draw(st.lists(st.integers(0, 2), min_size=L.dim, max_size=L.dim))
    classes = [[i for i, b in enumerate(owner) if b == k] for k in sorted(set(owner))]
    blocks = tuple(Subspace.from_indices(L, c) for c in classes)
    d = L.field_d or 0
    positive = st.fractions(min_value=Q(1, 3), max_value=3, max_denominator=3)
    small = st.fractions(-1, 1, max_denominator=2)
    quad = st.builds(lambda a, b: Quad(10 + a, b, d) if b else 10 + a, positive, small)
    coefficients = [draw(st.one_of(positive, quad) if d else positive) for _ in blocks]
    return L, system, make_metric(ModuleDecomposition(parent=L, blocks=blocks), coefficients), x


@settings(max_examples=40, deadline=None)
@given(frame_cases())
def test_frame_rows_match_the_standard_rows_over_each_field(case):
    L, system, metric, x = case
    got = frame_rows(system, metric, x)
    ax = reference_apply(metric, x)
    want = reference_pair_equations(system, ax, x)
    assert split_equations(got) == split_equations(want)
    assert float_reprs(got) == float_reprs(want)
    assert_same_decision(system, ax, x, _norm_hint(L, x), got)


def test_zero_right_hand_side_of_a_compiled_system_skips_elimination(monkeypatch):
    # built first: validating an algebra eliminates to find its center;
    # with equal coefficients every pair of frame vectors cancels
    algebras = [_su3(d) for d in (0, 21)]
    metrics = [_two_block_metric(L, Q(3), Q(3)) for L in algebras]
    monkeypatch.setattr(ela, "_eliminate", None)  # any elimination would raise
    for L, metric in zip(algebras, metrics):
        system = BracketSystem(L, [[Q(1)] + [Q(0)] * 7], None)
        u = [Q(i + 1) for i in range(L.dim)]
        res = solve_linear_feasibility(frame_rows(system, metric, u), None)
        assert (res.status, res.witness) == ("feasible", (Q(0),))
        assert type(res.witness[0]) is Q


def test_mixed_radicands_raise():
    L = _su3(21)  # tensors over Q(sqrt 21)
    system = BracketSystem(L, [[Q(1)] + [Q(0)] * 7], None)
    x = [Quad(1, 1, 3)] + [Q(1)] * 7
    with pytest.raises(ValueError, match="mixed radicands"):
        frame_rows(system, _two_block_metric(L, Q(1), Q(2)), x)
    with pytest.raises(ValueError, match="mixed radicands"):
        frame_rows(system, _two_block_metric(L, Q(1), Quad(1, 1, 3)), [Q(1)] * 8)
    with pytest.raises(ValueError, match="mixed radicands"):
        solve_linear_feasibility([[Quad(1, 1, 3)], [Quad(1, 1, 21)]], [Q(1), Q(0)])


def test_deciding_a_compiled_direction_makes_only_the_witness_scalars(monkeypatch):
    made = {"fraction": 0, "quad": 0}
    new, init = Q.__dict__["__new__"], Quad.__init__

    def counting_new(*args, **kwargs):
        made["fraction"] += 1
        return new(*args, **kwargs)

    def counting_init(self, *args):
        made["quad"] += 1
        init(self, *args)

    statuses = set()
    for coeffs in ((Q(1), Q(2), Q(3), Q(1, 2)), (Q(1), Q(1), Q(1), Q(2))):
        for name, system, L, gens, pair, metric, xs, _ in _cases(coeffs):
            frame_rows(system, metric, xs[0])  # compiles the frame tensors
            for x in xs:
                made.update(fraction=0, quad=0)
                monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
                monkeypatch.setattr(Quad, "__init__", counting_init)
                res = solve_linear_feasibility(frame_rows(system, metric, x), None)
                monkeypatch.undo()
                statuses.add(res.status)
                # a witness entry costs at most a Quad and four Fractions (its
                # two parts and their copies in Quad.__init__); the free
                # entries share one zero
                witness = res.witness or ()
                quads = sum(isinstance(v, Quad) for v in witness)
                assert made["quad"] == quads, name
                assert made["fraction"] <= (1 + 4 * len(witness) if witness else 0), name
    assert statuses == {"feasible", "infeasible"}


def _rational_directions(metric, count, seed):
    """Directions with non-integer rational frame coordinates."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = [Q(0)] * metric.parent.dim
        for v in metric.decomposition.ambient.basis:
            c = Q(rng.randint(-9, 9), rng.randint(1, 7))
            x = [a + c * b for a, b in zip(x, v)]
        out.append(x)
    return out


@pytest.mark.parametrize(
    "coeffs", [(Q(1), Q(2), Q(3), Q(1, 2)), (Q(1), Q(1), Q(1), Q(2)), (Q(2, 3), Q(5), Q(1, 7), Q(3))]
)
def test_frame_path_matches_the_apply_then_assemble_reference(coeffs):
    statuses = set()
    for name, system, L, gens, pair, metric, xs, decide in _cases(coeffs):
        for x in xs + _rational_directions(metric, 3, seed=len(xs)):
            got = frame_rows(system, metric, x)
            want = reference_pair_equations(system, reference_apply(metric, x), x)
            assert split_equations(got) == split_equations(want), name
            assert float_reprs(got) == float_reprs(want), name
            res, ref = decide(x), solve_linear_feasibility(want, None, scale_hint=_norm_hint(L, x))
            assert (res.status, res.witness, res.detail) == (ref.status, ref.witness, ref.detail), name
            assert [type(v) for v in res.witness or ()] == [type(v) for v in ref.witness or ()], name
            assert repr((res.residual_rel, res.sigma_ratio)) == repr((ref.residual_rel, ref.sigma_ratio))
            statuses.add(res.status)
    assert statuses == {"feasible", "infeasible"}


def _bench_decompositions():
    decs = [g2_decomposition().blocks]
    for pair in ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2)):
        aw = aloff_wallach(*pair)
        decs += [aw.blocks, aw.extension[2]]
    for spec, n in (("lie:su3", 5), ("lie:su2", 3)):
        decs.append(cli.build_target(spec, (Q(1),) * n)[1].decomposition)
    return decs


def test_norm_hint_is_the_float_inner_product_of_the_float_copy():
    for dec in _bench_decompositions():
        L = dec.parent
        vecs = sample_tangent_vectors(dec, 4, seed=5, exact=True) + sample_tangent_vectors(dec, 4, seed=5)
        vecs += [[Q(i - 3, 7) for i in range(L.dim)], [Q(0)] * L.dim, [0.0] * L.dim]
        for x in vecs:
            f = [float(v) for v in x]
            assert _norm_hint(L, x) == float(L.inner_product(f, f)) ** 0.5


def test_batched_draws_equal_one_draw_per_call():
    for seed in range(21):
        for n in (3, 7, 8, 9, 14):
            batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                want = [int(single.integers(-9, 10)) for _ in range(n)]
                assert batched.integers(-9, 10, size=n).tolist() == want


def test_float_systems_match_the_bracket_and_pair_builder():
    for name, system, L, gens, pair, metric, xs, _ in _cases((1.0, 2.0, 3.0, 0.5)):
        for x in xs:
            ax = metric.apply(x)
            rows, rhs = system.equations(ax, x)
            want_rows, want_rhs = reference_system(L, ax, x, gens, pair)
            for got, want in ((rows, want_rows), (rhs, want_rhs)):
                want = np.array(want, dtype=float)
                scale = float(np.abs(want).max(initial=0.0))
                assert np.abs(np.asarray(got) - want).max(initial=0.0) <= 1e-12 * scale, name


def test_exact_apply_matches_the_projection_loop():
    dec = g2_decomposition()
    aw = aloff_wallach(5, 2)
    ext = aw_extended_presentation(aw, Q(1), Q(2), Q(3), Q(4))
    metrics = [
        g2_metric(*EINSTEIN_SET_2, decomposition=dec),
        g2_metric(1, 2, 3, 4, 5, decomposition=dec),
        aw_metric(aw, Q(1, 2), Q(3), Q(1), Q(7, 3)),
        ext.metric,
        cli.build_target("lie:su3", (Q(1), Q(1), Q(1), Q(2), Q(2)))[1],
    ]
    for metric in metrics:
        n = metric.parent.dim
        vecs = sample_tangent_vectors(metric.decomposition, 3, seed=4, exact=True)
        vecs.append([Q(i + 1, 3) for i in range(n)])  # leaves the ambient span for W[5,2]
        for v in vecs:
            got, want = metric.apply(v), reference_apply(metric, v)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("seed", range(5))
def test_exact_samples_match_the_dense_loop(seed):
    decs = [g2_decomposition().blocks, aloff_wallach(2, 1).blocks, aloff_wallach(5, 2).blocks]
    decs.append(aw_extended_presentation(aloff_wallach(2, 1), 1, 1, 1, 1).blocks)
    for dec in decs:
        got = sample_tangent_vectors(dec, 6, seed=seed, exact=True)
        want = reference_samples(dec, 6, seed)
        assert got == want
        assert [type(x) for v in got for x in v] == [type(x) for v in want for x in v]

