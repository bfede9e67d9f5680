"""The three workloads: their operations and what each output must satisfy.

An operation is a timed call into the program (through ``gometrics.cli.main``
where the CLI exposes it, the public API otherwise) plus an untimed check
of its output against ``checks``.  Expected verdicts come from the
literature, not from earlier output of the program:

* on W[k,l], a block metric is geodesic orbit exactly when x1 = x2 = x3;
* naturally reductive metrics are geodesic orbit (Kostant), so G2 sets 1
  and 2 and the su3 metric (1,1,1,2,2) are GO;
* on a compact simple group a GO metric is naturally reductive (Gordon),
  so G2 set 3 (the paper's theorem), (1,2,3,4,5) on G2 and on su3 are not;
* a float metric a hair away from a GO one with unequal coefficients is
  never reported go-consistent.

Program functions are looked up through their modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from gometrics import cli, gocheck, liealg, metrics, ricci, spaces

import checks as ck
from checks import require

WORKLOADS = ("g2-reproduce", "exact-go-sweep", "float-go-sweep")

# admissible weight pairs; each su3(k,l) lives over its own Q(sqrt d),
# d = 21, 39, 57, 7, 13
AW_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2))
# one GO (x1 = x2 = x3) and one non-GO metric per pair
AW_METRICS = {
    (2, 1): ("1,1,1,2", "1,2,3,1"),
    (3, 1): ("2,2,2,3", "2,1,1,5"),
    (3, 2): ("3/2,3/2,3/2,1", "1,1,2,1"),
    (4, 1): ("1,1,1,1/2", "3,1,2,2"),
    (5, 2): ("2,2,2,1", "1,3,1,1"),
}
LIE_METRICS = (
    ("lie:su3", "1,1,1,2,2", "go"),
    ("lie:su3", "1,2,3,4,5", "non-go"),
    ("lie:g2", "1,1,11/9,11/9,1", "go"),
    ("lie:g2", "1,2,3,4,5", "non-go"),
)
G2_SET_3 = "1.0851961,0.69929486,0.93245951,1.0225069,1.0"
# float metrics within 1e-5 of a GO metric, with unequal coefficients
NEAR_BOUNDARY = (
    ("aw:2,1", "1,1,1.00001,1"),
    ("aw:5,2", "1.00001,1,1,2"),
    ("lie:g2", "1,1,1,1,1.0000001"),
)
FORMULATION_PAIRS = ((2, 1), (5, 2))
FORMULATION_SAMPLES = 4
# exact go-checks sample fewer directions than the CLI default of 24, so
# that a round of exact-go-sweep stays near four seconds and a run holds
# several whole rounds
EXACT_SAMPLES = 12
EINSTEIN_SCALES = (1e-6, 1.0, 1e4)
EINSTEIN_TOLERANCE = 1e-5  # the CLI default for --tol-einstein
TOL_FEAS = 1e-9  # the CLI default for --tol-feas

# Operations that fail every run because of a known fault: the float
# Einstein verdict compares an absolute deviation, so it changes when the
# metric is rescaled.
KNOWN_FAULTS = {"einstein:set3@1e-06", "einstein:control@10000"}

_EXITS = {"go-consistent": 0, "non-go-certified": 3, "indeterminate": 4}


@dataclass
class Op:
    """call is timed; report renders its output (with the exit code, for a
    CLI command); check(output, report text) raises CheckFailed."""

    name: str
    call: Callable[[], object]
    report: Callable[[object], tuple]
    check: Callable[[object, str], None]


def cli_report(out):
    rc, text = out
    return text, rc


def json_report(doc):
    return json.dumps(doc, sort_keys=True), None


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(args)
    return rc, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def decimal(spec: str) -> str:
    """The same metric written with decimals, which selects float mode."""
    return ",".join(repr(float(Fraction(t))) for t in spec.split(","))


def is_go_spec(spec: str) -> bool:
    vals = [Fraction(t) for t in spec.split(",")]
    return vals[0] == vals[1] == vals[2]


class Context:
    """Per-run caches for the checks; filled with tracing switched off."""

    def __init__(self, seed: int, built: dict):
        self.seed = seed
        self.built = built
        self._systems: dict = {}
        self._exact_twins: dict = {}

    def cached(self, key, make):
        if key not in self._systems:
            self._systems[key] = make()
        return self._systems[key]

    def target_system(self, space: str, spec: str):
        """The GO system the CLI solves for ``--space space --metric spec``."""

        def make():
            coeffs, any_decimal = cli.parse_metric_spec(spec)
            if any_decimal:
                coeffs = [float(c) for c in coeffs]
            target, metric = cli.build_target(space, coeffs)
            if isinstance(target, liealg.CompactLieAlgebra):
                kernel = metrics.max_right_isometry_algebra(target, metric)
                dim = ck.kernel_dim_np(target, metric)
                require(kernel.dim == dim, f"kernel dim {kernel.dim}, SVD gives {dim}")
                return ck.GOSystem("lie_group", target, metric, kernel.basis)
            return self.coset_system(target, metric, "normal_transitive")

        return self.cached(("target", space, spec), make)

    def coset_system(self, space, metric, formulation, extra=None):
        L = space.algebra
        h = space.isotropy
        require(space.is_orthogonal, "complement is not orthogonal to the isotropy")
        if formulation == "normal_transitive":
            cm = liealg.centralizer(L, h).intersect(space.complement)
            # the W part must commute with h and be orthogonal to it
            for w in cm.basis:
                require(ck.brackets_vanish(L, w, h.basis), "centralizer basis")
                require(not any(L.inner_product(w, v) for v in h.basis), "centralizer basis")
            gens = list(h.basis) + list(cm.basis)
            return ck.GOSystem("normal_transitive", L, metric, gens, h.basis)
        gens = list(h.basis) + (list(extra.basis) if extra is not None else [])
        return ck.GOSystem("geodesic", L, metric, gens, h.basis)

    def exact_verdict(self, space: str, spec: str) -> str:
        """Verdict of the exact counterpart of a float metric (4 samples)."""
        key = (space, spec)
        if key not in self._exact_twins:
            rc, text = run_cli(
                ["go-check", "--space", space, "--metric", spec, "--samples", "4",
                 "--seed", str(self.seed)]
            )
            self._exact_twins[key] = json.loads(text)["verdict"]
        return self._exact_twins[key]


def setup(workload: str) -> dict:
    """Build, once, every algebra, space and decomposition the workload uses."""
    built = {"g2": spaces.g2_decomposition(), "aw": {}, "axis": {}}
    if workload != "g2-reproduce":
        for pair in AW_PAIRS:
            aw = spaces.aloff_wallach(*pair)
            built["aw"][pair] = aw
            built["axis"][pair] = liealg.Subspace.from_indices(aw.algebra, (1,), label="axis")
        built["su3"] = liealg.build_su3(2, 1)  # the algebra behind lie:su3
    return built


# -- operations ---------------------------------------------------------------


def go_check_op(ctx: Context, space: str, spec: str, expected: str, exact_twin=None,
                samples=None) -> Op:
    args = ["go-check", "--space", space, "--metric", spec, "--seed", str(ctx.seed)]
    if samples is not None:
        args += ["--samples", str(samples)]

    def check(out, text):
        rc = out[0]
        doc = json.loads(text)
        require(rc == _EXITS[doc["verdict"]], f"exit code {rc} for {doc['verdict']}")
        ck.check_certificate(doc, ctx.target_system(space, spec), expected, TOL_FEAS)
        if exact_twin is not None:
            twin = ctx.exact_verdict(space, exact_twin)
            require(twin == doc["verdict"], f"exact verdict {twin}, float {doc['verdict']}")

    return Op(f"go-check:{space}:{spec}", lambda: run_cli(args), cli_report, check)


def _check_aw_classification(ctx: Context, doc: dict) -> None:
    require(doc["non_go_grid_all_certified"], "grid not certified")
    require(doc["symbolic_go_confirmed"], "symbolic witness not confirmed")
    require(doc["obstruction_probes_consistent"], "obstruction probes inconsistent")
    k, l = doc["k"], doc["l"]
    aw = ctx.built["aw"][(k, l)]
    for entry in doc["non_go_grid"]:
        coeffs = [Fraction(c) for c in entry["coefficients"]]
        require(not coeffs[0] == coeffs[1] == coeffs[2], "grid metric is GO by the literature")
        system = ctx.cached(
            ("grid", k, l, tuple(coeffs)),
            lambda: ctx.coset_system(aw.space, spaces.aw_metric(aw, *coeffs), "normal_transitive"),
        )
        for chk in entry["checks"]:
            require(
                chk["status"] == "infeasible" and chk["method"] == "exact",
                "grid direction not certified",
            )
            res = system.infeasible_residual(chk["direction"])
            require(res >= ck.EXACT_INFEASIBLE_FLOOR, f"rebuilt residual {res:.3e}")
    rng = random.Random(ctx.seed)
    for w in doc["symbolic_go_witnesses"]:
        x, x4 = Fraction(w["x"]), Fraction(w["x4"])
        alg = ctx.cached(("exact-alg", k, l), lambda: ck.ExactAlgebra(aw.algebra))
        A = ck.ExactMetric(alg, spaces.aw_metric(aw, x, x, x, x4))
        X = alg.vec([0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(7)])
        W = alg.zero()
        W[1] = X[1] * ((x4 - x) / x)  # axis compensator ((x4 - x)/x) a0 X0
        XW = [a + b for a, b in zip(X, W)]
        require(not any(alg.bracket(A.apply(X), XW)), "symbolic GO witness fails")


def reproduce_aw_op(ctx: Context) -> Op:
    args = ["reproduce", "aw-classification", "--seed", str(ctx.seed)]

    def check(out, text):
        require(out[0] == 0, f"exit code {out[0]}")
        _check_aw_classification(ctx, json.loads(text))

    return Op("reproduce:aw-classification", lambda: run_cli(args), cli_report, check)


def aw_classify_op(ctx: Context, k: int, l: int) -> Op:
    return Op(
        f"aw_go_classify:{k},{l}",
        lambda: spaces.aw_go_classify(k, l, seed=ctx.seed),
        json_report,
        lambda doc, text: _check_aw_classification(ctx, doc),
    )


def formulation_ops(ctx: Context, pair, spec: str, exact: bool) -> list:
    """Direct on the extended presentation, reduced with the axis, and
    normal-transitive, on the same directions; they must agree."""
    aw = ctx.built["aw"][pair]
    axis = ctx.built["axis"][pair]
    coeffs = [Fraction(t) if exact else float(Fraction(t)) for t in spec.split(",")]
    expected = "go" if is_go_spec(spec) else "non-go"
    shared: dict = {}
    tag = f"{pair[0]},{pair[1]}:{spec}:{'exact' if exact else 'float'}"

    def samples():
        return gocheck.sample_tangent_vectors(
            aw.blocks, FORMULATION_SAMPLES, seed=ctx.seed, exact=exact
        )

    def run_direct():
        ext = spaces.aw_extended_presentation(aw, *coeffs)
        lifted = [ext.lift(x) for x in samples()]
        return ext, gocheck.go_check(ext.space, ext.metric, formulation="direct", samples=lifted)

    def run_reduced():
        metric = spaces.aw_metric(aw, *coeffs)
        cert = gocheck.go_check(
            aw.space, metric, formulation="reduced", extra=axis, samples=samples()
        )
        return metric, cert

    def run_normal():
        metric = spaces.aw_metric(aw, *coeffs)
        cert = gocheck.go_check(
            aw.space, metric, formulation="normal_transitive", samples=samples()
        )
        return metric, cert

    def report(out):
        return json_report(out[1].to_json_dict())

    def make_check(kind):
        def check(out, text):
            obj = out[0]
            doc = json.loads(text)
            # the direct form runs on the extended presentation it returned
            space, metric = (obj.space, obj.metric) if kind == "direct" else (aw.space, obj)
            extra = axis if kind == "reduced" else None
            system = ctx.cached((kind, tag), lambda: ctx.coset_system(space, metric, kind, extra))
            ck.check_certificate(doc, system, expected, TOL_FEAS)
            shared[kind] = [e["status"] for e in doc["checks"]]
            if kind == "normal_transitive":
                require(
                    shared.get("direct") == shared.get("reduced") == shared[kind],
                    f"formulations disagree: {shared}",
                )

        return check

    return [
        Op(f"direct:{tag}", run_direct, report, make_check("direct")),
        Op(f"reduced:{tag}", run_reduced, report, make_check("reduced")),
        Op(f"normal_transitive:{tag}", run_normal, report, make_check("normal_transitive")),
    ]


def _einstein_reference(ctx, coeffs):
    return ctx.cached(("ricci", tuple(coeffs)), lambda: ck.ricci_besse(
        ctx.built["g2"].algebra, spaces.g2_metric(*coeffs, decomposition=ctx.built["g2"])
    ))


def reproduce_g2_op(ctx: Context) -> Op:
    args = ["reproduce", "g2-einstein", "--seed", str(ctx.seed)]
    dec = ctx.built["g2"]
    L = dec.algebra

    def check(out, text):
        doc = json.loads(text)
        sets = (spaces.EINSTEIN_SET_1, spaces.EINSTEIN_SET_2, spaces.EINSTEIN_SET_3)
        expected = ("go", "go", "non-go")
        for idx, (coeffs, entry, want) in enumerate(zip(sets, doc["parameter_sets"], expected), 1):
            metric = spaces.g2_metric(*coeffs, decomposition=dec)
            const, dev = _einstein_reference(ctx, coeffs)
            rep = entry["einstein"]
            require(rep["is_einstein"], f"set {idx} not Einstein")
            require(abs(rep["einstein_constant"] - const) <= 1e-9 * abs(const),
                    f"set {idx} constant")
            require(abs(rep["deviation"] - dev) <= 1e-9, f"set {idx} deviation")
            require(entry["right_isometry_algebra_dim"] == ck.kernel_dim_np(L, metric),
                    f"set {idx} kernel dim")
            require(entry["naturally_reductive"]["found"] == (want == "go"),
                    f"set {idx} natural reductivity")
            system = ctx.cached(("g2-set", idx), lambda: ck.GOSystem(
                "lie_group", L, metric, metrics.max_right_isometry_algebra(L, metric).basis
            ))
            ck.check_certificate(entry["geodesic_orbit"], system, want, TOL_FEAS)
        set1, set3 = doc["parameter_sets"][0], doc["parameter_sets"][2]
        require(set1["einstein"]["einstein_constant"] == 0.25, "set 1 constant is not 1/4")
        require(abs(_einstein_reference(ctx, sets[0])[0] - 0.25) <= 1e-12,
                "Besse constant of set 1")
        require(set1["right_isometry_algebra_dim"] == 14, "set 1 kernel dim")
        require(_einstein_reference(ctx, sets[2])[1] <= EINSTEIN_TOLERANCE, "set 3 deviation")
        require(set3["right_isometry_algebra_dim"] == 4, "set 3 kernel dim")
        # per-coefficient perturbations and the 32 corners around set 3
        for p in doc["perturbations"]["per_coefficient"]:
            pert = list(sets[2])
            pert[p["index"]] += p["delta"]
            _, dev = _einstein_reference(ctx, pert)
            require(abs(p["deviation"] - dev) <= 1e-9 and dev <= 1e-4, "perturbed deviation")
        corners = doc["perturbations"]["corners"]
        require(corners["count"] == 32 and corners["all_non_go_certified"], "corners")
        corner_metrics = (
            spaces.g2_metric(*[c + s * 1e-6 for c, s in zip(sets[2], signs)], decomposition=dec)
            for signs in itertools.product((1.0, -1.0), repeat=5)
        )
        dims = ctx.cached("corner-dims", lambda: {ck.kernel_dim_np(L, m) for m in corner_metrics})
        require(dims == {4} and corners["right_isometry_dims"] == [4], "corner kernel dims")
        # the program's own expectations come last, after the independent ones
        require(out[0] == 0 and doc["all_checks_passed"], f"exit code {out[0]}")

    return Op("reproduce:g2-einstein", lambda: run_cli(args), cli_report, check)


def einstein_probe_op(ctx: Context, label: str, base, scale: float) -> Op:
    dec = ctx.built["g2"]
    coeffs = [float(c) * scale for c in base]
    want = label == "set3"

    def call():
        return ricci.einstein_check(
            dec.algebra, spaces.g2_metric(*coeffs, decomposition=dec), tolerance=EINSTEIN_TOLERANCE
        )

    def check(res, text):
        const, dev = _einstein_reference(ctx, coeffs)
        require(abs(res.einstein_constant - const) <= 1e-9 * abs(const), "Einstein constant")
        # Einstein is a scale-free property: judge |Ric - cI| against |c|
        require((dev / abs(const) <= EINSTEIN_TOLERANCE) == want, "reference verdict")
        require(res.is_einstein == want, f"is_einstein={res.is_einstein} at scale {scale:g}")

    return Op(
        f"einstein:{label}@{scale:g}", call, lambda res: json_report(res.to_json_dict()), check
    )


def build_ops(workload: str, ctx: Context) -> list:
    if workload == "g2-reproduce":
        ops = [reproduce_g2_op(ctx)]
        bases = (("set3", spaces.EINSTEIN_SET_3), ("control", (1, 2, 3, 4, 5)))
        for label, base in bases:
            ops += [einstein_probe_op(ctx, label, base, s) for s in EINSTEIN_SCALES]
        return ops
    exact = workload == "exact-go-sweep"
    ops = []
    if exact:
        ops.append(reproduce_aw_op(ctx))  # W[2,1]
        ops += [aw_classify_op(ctx, k, l) for k, l in AW_PAIRS[1:]]
    for pair in AW_PAIRS:
        space = f"aw:{pair[0]},{pair[1]}"
        for spec in AW_METRICS[pair]:
            want = "go" if is_go_spec(spec) else "non-go"
            if exact:
                ops.append(go_check_op(ctx, space, spec, want, samples=EXACT_SAMPLES))
            else:
                ops.append(go_check_op(ctx, space, decimal(spec), want, exact_twin=spec))
    for pair in FORMULATION_PAIRS:
        for spec in AW_METRICS[pair]:
            ops += formulation_ops(ctx, pair, spec, exact)
    for space, spec, want in LIE_METRICS:
        if exact:
            ops.append(go_check_op(ctx, space, spec, want, samples=EXACT_SAMPLES))
        else:
            ops.append(go_check_op(ctx, space, decimal(spec), want, exact_twin=spec))
    if not exact:
        ops.append(go_check_op(ctx, "lie:g2", G2_SET_3, "non-go"))
        ops += [go_check_op(ctx, space, spec, "not-go-consistent") for space, spec in NEAR_BOUNDARY]
    return ops
