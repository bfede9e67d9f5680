"""Spaces, group targets and presentations built once per process.

``aloff_wallach`` keeps one W[k,l] per weight pair, W[k,l] keeps its
u(3) extension, and the CLI keeps one su(3) and one su(2) group target;
only metrics are built per call.  These tests check the identities, that
argument checks still run before the cache, that a repeated command
validates no algebra, and that a command run after others in the same
process writes the bytes of a fresh process.  They also compare the
exact Gram-Schmidt and the cached Ricci bracket coordinates against
their uncached constructions, and check that the Ricci polynomial is
compiled once per decomposition, on first use.
"""

import os
from fractions import Fraction as Q

import pytest

import gometrics.cli as cli
from gometrics import exactlinalg as ela
from gometrics.gocheck import go_check, sample_tangent_vectors
from gometrics.liealg import CompactLieAlgebra, Subspace, build_su3
from gometrics.metrics import MetricValidationError, ModuleDecomposition, make_metric
from gometrics.ricci import _exact_ricci, ricci_left_invariant
from gometrics.scalars import exact_div
from gometrics.spaces import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    aloff_wallach,
    aw_extended_presentation,
    g2_decomposition,
    g2_metric,
)

from child import run_python


@pytest.fixture
def clean_env(monkeypatch):
    """No GOMETRICS_* overrides, in this process or in its children."""
    for name in [k for k in os.environ if k.startswith("GOMETRICS_")]:
        monkeypatch.delenv(name)


# ------------------------------------------------------------------ identity


def test_aloff_wallach_is_built_once_per_pair():
    assert aloff_wallach(2, 1) is aloff_wallach(2, 1)
    assert aloff_wallach(2, 1) is not aloff_wallach(5, 2)


def test_extended_presentation_shares_everything_but_the_metric():
    aw = aloff_wallach(2, 1)
    a = aw_extended_presentation(aw, Q(1), Q(2), Q(3), Q(1))
    b = aw_extended_presentation(aw, 1.0, 1.0, 1.0, 2.0)
    assert a.algebra is b.algebra
    assert a.space is b.space
    assert a.blocks is b.blocks
    assert a.metric is not b.metric
    assert a.metric.coefficients == (Q(1), Q(2), Q(3), Q(2))
    assert b.metric.coefficients == (1.0, 1.0, 1.0, 4.0)


def test_group_targets_are_built_once():
    for spec, coeffs in (("lie:su3", (1, 1, 1, 2, 2)), ("lie:su2", (1, 1, 2))):
        first_alg, first_metric = cli.build_target(spec, [Q(c) for c in coeffs])
        again_alg, again_metric = cli.build_target(spec, [float(c) for c in coeffs])
        assert first_alg is again_alg
        assert first_metric.decomposition is again_metric.decomposition
        assert first_metric is not again_metric


@pytest.mark.parametrize("weights", [(True, 1), (2.0, 1), (1, True), (2, 1.0)])
def test_weight_checks_run_before_the_cache(weights):
    # (True, 1) == (1, 1) and (2.0, 1) == (2, 1) as cache keys
    aloff_wallach(1, 1)
    aloff_wallach(2, 1)
    with pytest.raises(ValueError, match="plain integers"):
        aloff_wallach(*weights)


# ------------------------------------------------------ one validation each


def _go_check_pass():
    for space, metrics in (
        ("aw:2,1", ("1,2,3,1", "1.0,2.0,3.0,1.0")),
        ("aw:5,2", ("1,3,1,1", "1.00001,1,1,2")),
        ("lie:su3", ("1,1,1,2,2", "1.0,2.0,3.0,4.0,5.0")),
        ("lie:su2", ("1,1,2", "1.0,2.0,3.0")),
    ):
        for metric in metrics:
            cli.main(["go-check", "--space", space, "--metric", metric, "--samples", "2"])
    aw = aloff_wallach(2, 1)
    for coeffs in ((Q(1), Q(2), Q(3), Q(1)), (1.0, 1.0, 1.0, 2.0)):
        ext = aw_extended_presentation(aw, *coeffs)
        samples = sample_tangent_vectors(aw.blocks, 2, exact=ext.metric.is_exact)
        go_check(ext.space, ext.metric, formulation="direct", samples=[ext.lift(x) for x in samples])


def test_repeated_commands_validate_no_algebra(clean_env, monkeypatch, capsys):
    calls = []
    validate = CompactLieAlgebra.validate

    def counting(self):
        calls.append(self.name)
        return validate(self)

    monkeypatch.setattr(CompactLieAlgebra, "validate", counting)
    _go_check_pass()
    calls.clear()
    _go_check_pass()
    capsys.readouterr()
    assert calls == []


# --------------------------------------------------- warm caches keep bytes

_INTERLEAVED = (
    ("aw:2,1", "1,2,3,1"),
    ("aw:2,1", "1.0,2.0,3.0,1.0"),
    ("aw:2,1", "1,1,1,2"),
    ("lie:su3", "1,1,1,2,2"),
    ("lie:su3", "1.0,1.0,1.0,2.0,2.0"),
    ("lie:su3", "1,2,3,4,5"),
    ("lie:su2", "1,1,2"),
)


def test_interleaved_go_checks_match_cold_processes(clean_env, capsys):
    for space, metric in _INTERLEAVED:
        args = ["go-check", "--space", space, "--metric", metric]
        warm_rc = cli.main(args)
        warm = capsys.readouterr().out
        cold = run_python("-m", "gometrics", *args)
        assert cold.returncode == warm_rc, (args, cold.stderr)
        assert warm == cold.stdout.decode(), args


# ------------------------------------------------------------ Gram-Schmidt


def reference_gram_schmidt(vectors, inner):
    """The loop before norms were kept: <b, b> per basis vector and input."""
    basis = []
    for v in vectors:
        w = list(v)
        for b in basis:
            coeff = exact_div(inner(w, b), inner(b, b))
            if coeff:
                w = [x - coeff * y for x, y in zip(w, b)]
        if any(x for x in w):
            basis.append(w)
    return basis


def _all_brackets(L):
    units = [[Q(int(i == j)) for j in range(L.dim)] for i in range(L.dim)]
    return [L.bracket(u, w) for u in units for w in units]


@pytest.mark.parametrize("name", ["su3(5,2)", "g2", "u(3)"])
def test_gram_schmidt_matches_reference_on_all_brackets(name):
    L = {
        "su3(5,2)": lambda: aloff_wallach(5, 2).algebra,
        "g2": lambda: g2_decomposition().algebra,
        "u(3)": lambda: aloff_wallach(2, 1).extension[0],
    }[name]()
    vectors = _all_brackets(L)
    got = ela.gram_schmidt(vectors, L.inner_product)
    assert got == reference_gram_schmidt(vectors, L.inner_product)
    assert len(got) == L.dim - L.center.dim


def test_gram_schmidt_matches_reference_with_repeats_and_dependents():
    def inner(u, v):
        weights = (1, 2, 3, 5)
        return sum((w * a * b for w, a, b in zip(weights, u, v)), Q(0))

    vectors = [
        [1, 2, 0, 0],
        [1, 2, 0, 0],
        [0, 0, 0, 0],
        [2, 4, 0, 0],
        [1, 0, 1, 0],
        [2, 2, 1, 0],
        [0, 1, 1, 1],
        [Q(1, 2), 0, 0, 3],
        [3, 1, 4, 1],
        [1, 1, 1, 1],
    ]
    got = ela.gram_schmidt(vectors, inner)
    assert got == reference_gram_schmidt(vectors, inner)
    assert len(got) == 4


# -------------------------------------------------- Ricci bracket coordinates


def reference_frame_brackets(L, decomposition):
    """Bracket coordinates in the frame of block bases, as ``ricci``
    computed them per metric."""
    vecs = [list(b) for block in decomposition.blocks for b in block.basis]
    n = len(vecs)
    brackets = [[L.bracket(vecs[a], vecs[b]) for b in range(n)] for a in range(n)]
    norms = [L.inner_product(v, v) for v in vecs]
    return tuple(
        tuple(
            tuple(exact_div(L.inner_product(brackets[a][b], vecs[m]), norms[m]) for m in range(n))
            for b in range(n)
        )
        for a in range(n)
    )


def _ricci_targets():
    dec = g2_decomposition()
    su3, su3_metric = cli.build_target("lie:su3", [Q(1), Q(1), Q(1), Q(2), Q(2)])
    return [
        (dec.algebra, g2_metric(*EINSTEIN_SET_1, decomposition=dec)),
        (dec.algebra, g2_metric(*EINSTEIN_SET_2, decomposition=dec)),
        (su3, su3_metric),
        (dec.algebra, g2_metric(*EINSTEIN_SET_3, decomposition=dec)),
    ]


def _exact_parts(L, metric):
    res = ricci_left_invariant(L, metric)
    return _exact_ricci(L, metric), res.ricci_exact, res.gram_exact, res.einstein_exact


@pytest.mark.parametrize("index", range(4))
def test_cached_ricci_coordinates_match_uncached_computation(index):
    L, metric = _ricci_targets()[index]
    dec = metric.decomposition
    assert dec.frame_brackets == reference_frame_brackets(L, dec)
    # a decomposition with the same blocks whose coordinates and Ricci
    # polynomial are built for this metric alone gives the same exact Ricci
    # data as the shared one, which other metrics have already used
    ricci_left_invariant(L, make_metric(dec, [Q(i + 1) for i in range(len(dec.blocks))]))
    fresh = ModuleDecomposition(parent=L, blocks=dec.blocks, name=dec.name)
    warm = _exact_parts(L, metric)
    assert warm == _exact_parts(L, make_metric(fresh, metric.coefficients))
    assert (warm[3] is not None) == metric.is_exact


def test_ricci_polynomial_is_built_once_per_decomposition():
    dec = g2_decomposition()
    fresh = ModuleDecomposition(parent=dec.algebra, blocks=dec.blocks.blocks)
    assert "ricci_polynomial" not in vars(fresh)
    ricci_left_invariant(dec.algebra, make_metric(fresh, EINSTEIN_SET_2))
    built = vars(fresh)["ricci_polynomial"]
    ricci_left_invariant(dec.algebra, make_metric(fresh, EINSTEIN_SET_3))
    ricci_left_invariant(dec.algebra, make_metric(fresh, (1, 2, 3, 4, 5)))
    assert vars(fresh)["ricci_polynomial"] is built


def test_g2_decomposition_does_not_compile_the_ricci_polynomial(clean_env):
    # a fresh process: set-up alone must not pay for the Ricci polynomial
    code = (
        "from gometrics.spaces import g2_decomposition; "
        "print(sorted(vars(g2_decomposition().blocks)))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "ricci_polynomial" not in proc.stdout.decode()


def test_ricci_rejects_a_metric_of_another_algebra():
    other_alg = build_su3(2, 1)
    blocks = tuple(Subspace.from_indices(other_alg, (i,)) for i in range(8))
    other = ModuleDecomposition(parent=other_alg, blocks=blocks)
    with pytest.raises(MetricValidationError, match="different algebra"):
        ricci_left_invariant(build_su3(2, 1), make_metric(other, [Q(1)] * 8))


def test_set_up_makes_its_exact_structure_on_integers(clean_env):
    # Fraction constructions (calls of Fraction.__new__) while a fresh
    # process builds the G2 decomposition and W[2,1].  Validation, the
    # Killing form, centralizers and bracket tables in Fraction and Quad
    # arithmetic made 40,289 of them on CPython 3.11; on integer structure
    # tables it is 5,207.  The bound is a third of the Fraction set-up.
    code = (
        "import fractions\n"
        "from gometrics import spaces\n"
        "raw = fractions.Fraction.__dict__['__new__']\n"
        "new = raw.__func__ if isinstance(raw, staticmethod) else raw\n"
        "count = [0]\n"
        "def counted(*args, **kwargs):\n"
        "    count[0] += 1\n"
        "    return new(*args, **kwargs)\n"
        "fractions.Fraction.__new__ = staticmethod(counted)\n"
        "spaces.g2_decomposition()\n"
        "spaces.aloff_wallach(2, 1)\n"
        "print(count[0])\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 40289 // 3
