"""Compiled geodesic systems, exact ``apply`` and exact sampling against
the per-call computations they replaced.

``reference_system`` is the builder the four GO formulations used before
their systems were compiled: one bracket per generator and one for the
right-hand side, each paired with the formulation's pairing basis.
``reference_equations`` is the Fraction assembly of a compiled system
that came before its integer-pair rows, and ``reference_decision`` the
exact decision on it: ``exactlinalg.solve`` plus ``_lstsq_stats`` on its
float copy.  ``reference_apply`` projects onto every block, and
``reference_samples`` adds c * b over every entry of each ambient basis
vector.  Exact results must be equal entry for entry, of the same types,
and float residuals bit for bit; float systems must agree to 1e-12
relative to the largest entry.
"""

import functools
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gometrics import cli
from gometrics import exactlinalg as ela
from gometrics.gocheck import _lstsq_stats, _norm_hint, sample_tangent_vectors, solve_linear_feasibility
from gometrics.liealg import BracketSystem, Subspace, build_su3, centralizer
from gometrics.metrics import make_metric, max_right_isometry_algebra
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


def reference_equations(system, u, x):
    """(M, rhs) assembled in Fraction and Quad arithmetic from the exact
    tensors G and S of a compiled system."""
    d, den = system.radicand, system.denominator
    G = [[(i, j, exact_value(p, q, den, d)) for i, j, p, q in ent] for ent in system.generator_brackets]
    S = {(a, b): [(i, exact_value(p, q, den, d)) for i, p, q in ent] for a, b, ent in system.pair_brackets}
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


def split_equations(system, u, x):
    """(M, rhs) of the compiled system's integer-pair rows, as exact entries."""
    pairs, none = system.equations(u, x)
    assert none is None and isinstance(pairs, ela.PairRows)
    entries = exact_entries(pairs)
    return [r[:-1] for r in entries], [r[-1] for r in entries]


def _types(rows, rhs):
    return [type(v) for row in rows + [rhs] for v in row]


def assert_same_decision(system, u, x, scale_hint):
    """The integer decision against ``reference_decision``: status, witness
    values and types, ranks, and the float residual and singular value
    ratio bit for bit."""
    rows, rhs = reference_equations(system, u, x)
    pairs, none = system.equations(u, x)
    res = solve_linear_feasibility(pairs, none, scale_hint=scale_hint)
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
    """(name, system, algebra, generators, pairing, metric, directions) of
    the four formulations on W[2,1] and W[5,2], and the group case on G2,
    su3 and su2."""
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
            [ext.lift(x) for x in xs],
        ))
        axis = Subspace.from_indices(L, (1,), label="axis")
        out.append((
            "reduced", space.geodesic_system(axis), L, h.basis + axis.basis,
            _pairing(L, m.basis), metric, xs,
        ))
        cm = centralizer(L, h).intersect(m)
        out.append((
            "normal_transitive", space.normal_transitive_system, L, h.basis + cm.basis,
            _pairing(L, h.orthogonal_complement().basis), metric, xs,
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
        out.append(("lie_group", kernel.bracket_system, L, kernel.basis, list, metric, xs))
    return out


def test_exact_systems_match_the_bracket_and_pair_builder():
    cases = _cases((Q(1), Q(2), Q(3), Q(1, 2)))
    assert sorted({c[0] for c in cases}) == ["direct", "lie_group", "normal_transitive", "reduced"]
    for name, system, L, gens, pair, metric, xs in cases:
        for x in xs:
            ax = metric.apply(x)
            rows, rhs = split_equations(system, ax, x)
            want_rows, want_rhs = reference_system(L, ax, x, gens, pair)
            assert (rows, rhs) == (want_rows, want_rhs), name
            assert _types(rows, rhs) == _types(want_rows, want_rhs), name
            # the Fraction assembly of the same tensors gives the same system
            assert reference_equations(system, ax, x) == (want_rows, want_rhs), name


@pytest.mark.parametrize("coeffs", [(Q(1), Q(2), Q(3), Q(1, 2)), (Q(1), Q(1), Q(1), Q(2))])
def test_exact_decisions_match_the_fraction_system(coeffs):
    statuses = set()
    for name, system, L, gens, pair, metric, xs in _cases(coeffs):
        for x in xs:
            statuses.add(assert_same_decision(system, metric.apply(x), x, _norm_hint(L, x)))
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
    rows, rhs = split_equations(system, u, x)
    want_rows, want_rhs = reference_equations(system, u, x)
    assert (rows, rhs) == (want_rows, want_rhs)
    assert _types(rows, rhs) == _types(want_rows, want_rhs)
    # float() of every entry the integer pairs stand for, bit for bit
    pairs, _ = system.equations(u, x)
    want = [[repr(float(v)) for v in row] + [repr(float(b))] for row, b in zip(want_rows, want_rhs)]
    assert [[repr(v) for v in row] for row in pairs.floats()] == want
    # and the float copies of the tensors are float() of their exact entries
    G, S = system._float_tensors
    d, den = system.radicand, system.denominator
    assert [G[a, i, j] for a, ent in enumerate(system.generator_brackets) for i, j, *_ in ent] == [
        float(exact_value(p, q, den, d)) for ent in system.generator_brackets for *_, p, q in ent
    ]
    assert [(S[a, b, i], S[b, a, i]) for a, b, ent in system.pair_brackets for i, *_ in ent] == [
        (float(v), -float(v)) for *_, ent in system.pair_brackets for _, p, q in ent
        for v in [exact_value(p, q, den, d)]
    ]
    assert_same_decision(system, u, x, _norm_hint(L, x))


def test_zero_right_hand_side_of_a_compiled_system_skips_elimination(monkeypatch):
    # built first: validating an algebra eliminates to find its center
    algebras = [_su3(d) for d in (0, 21)]
    monkeypatch.setattr(ela, "_eliminate", None)  # any elimination would raise
    for L in algebras:
        system = BracketSystem(L, [[Q(1)] + [Q(0)] * 7], None)
        u = [Q(i + 1) for i in range(L.dim)]
        res = solve_linear_feasibility(*system.equations(u, u))
        assert (res.status, res.witness) == ("feasible", (Q(0),))
        assert type(res.witness[0]) is Q


def test_mixed_radicands_raise():
    L = _su3(21)  # tensors over Q(sqrt 21)
    system = BracketSystem(L, [[Q(1)] + [Q(0)] * 7], None)
    u = [Quad(1, 1, 3)] + [Q(1)] * 7
    x = [Q(0), Q(1)] + [Q(0)] * 6
    with pytest.raises(ValueError, match="mixed radicands"):
        system.equations(u, x)
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
        for name, system, L, gens, pair, metric, xs in _cases(coeffs):
            for x in xs:
                ax = metric.apply(x)
                made.update(fraction=0, quad=0)
                monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
                monkeypatch.setattr(Quad, "__init__", counting_init)
                res = solve_linear_feasibility(*system.equations(ax, x))
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


def test_float_systems_match_the_bracket_and_pair_builder():
    for name, system, L, gens, pair, metric, xs in _cases((1.0, 2.0, 3.0, 0.5)):
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

