"""Command-line entry point.

Three commands:

* ``roots {a2,g2}``: root data plus the classification of proper closed
  symmetric subsystems up to Weyl equivalence.
* ``go-check --space SPEC --metric SPEC``: geodesic-orbit feasibility
  sweep; the exit code carries the verdict.
* ``reproduce {aw-classification,g2-einstein}``: end-to-end report with
  a nonzero exit code when any expected verdict fails.

Reports are deterministic: an identical configuration (flags, seed,
environment overrides) produces byte-identical output.  Exit codes:
0 success / geodesic-orbit consistent, 2 usage or malformed input,
3 non-geodesic-orbit certified, 4 indeterminate, 5 reproduction
mismatch.

Each space or group is built and validated once per process (W[k,l] and
the G2 blocks in ``spaces``, the su(3) and su(2) group targets here);
a command builds only its metric.  So a command reuses what earlier
commands in the same process built, kernel caches included, and writes
the same bytes as in a fresh process.  The argument parser is built
once per process as well; every call parses into a fresh namespace.
Each setting is its flag if given, else its ``GOMETRICS_<NAME>``
override, read on every call, else its default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache

from . import rootsys
from .gocheck import Tolerances, go_check
from .liealg import Subspace, build_su2, build_su3
from .metrics import (
    MetricValidationError,
    ModuleDecomposition,
    make_metric,
)
from .spaces import (
    aloff_wallach,
    aw_go_classify,
    g2_decomposition,
    reproduce_main_theorem,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NON_GO = 3
EXIT_INDETERMINATE = 4
EXIT_MISMATCH = 5


class UsageError(ValueError):
    """Malformed command line, environment override, or spec string."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by every command."""

    mode: str
    seed: int
    tol_feas: float
    tol_infeas: float
    tol_einstein: float
    output_path: str | None
    format: str

    def __post_init__(self):
        if self.mode not in ("exact", "float", "auto"):
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.format not in ("json", "csv", "text"):
            raise UsageError(f"unknown format {self.format!r}")
        if self.seed < 0:
            raise UsageError(f"the seed must be non-negative, got {self.seed}")
        for label, value in (
            ("--tol-feas", self.tol_feas),
            ("--tol-infeas", self.tol_infeas),
            ("--tol-einstein", self.tol_einstein),
        ):
            if not 0 < value < math.inf:
                raise UsageError(f"{label} must be positive and finite, got {value}")
        if not self.tol_feas < self.tol_infeas:
            raise UsageError(
                "--tol-feas must be strictly below --tol-infeas "
                f"({self.tol_feas} >= {self.tol_infeas})"
            )

    @property
    def tolerances(self) -> Tolerances:
        return Tolerances(
            feasible_rel=self.tol_feas, infeasible_rel=self.tol_infeas
        )


# -- spec parsing -----------------------------------------------------------


def parse_metric_spec(spec: str):
    """Comma-separated entries in [1e-100, 1e100]: "p/q" fractions stay
    exact, anything with a decimal point or exponent becomes a float.

    Returns (values, any_decimal).
    """
    entries = []
    any_decimal = False
    parts = spec.split(",")
    if not spec.strip() or not all(p.strip() for p in parts):
        raise UsageError(f"malformed metric spec {spec!r}")
    for tok in parts:
        tok = tok.strip()
        try:
            if "/" in tok:
                num, _, den = tok.partition("/")
                value = Q(int(num), int(den))
            else:
                try:
                    value = Q(int(tok))
                except ValueError:
                    value = float(tok)
                    any_decimal = True
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad metric entry {tok!r}: {exc}") from exc
        if not value > 0:
            raise UsageError(f"metric entries must be positive, got {tok!r}")
        # a Fraction compares with a float exactly; products of entries
        # outside this range overflow or underflow the float solvers
        if not 1e-100 <= value <= 1e100:
            raise UsageError(f"metric entries must lie in [1e-100, 1e100], got {tok!r}")
        entries.append(value)
    return entries, any_decimal


@lru_cache(maxsize=1)
def _su3_group_target():
    # weights fix the basis normalization only; block structure is shared
    alg = build_su3(2, 1)
    blocks = tuple(
        Subspace.from_indices(alg, idx, label=lab)
        for lab, idx in (
            ("axis-z", (0,)),
            ("axis-x0", (1,)),
            ("plane-12", (2, 3)),
            ("plane-13", (4, 5)),
            ("plane-23", (6, 7)),
        )
    )
    return alg, ModuleDecomposition(parent=alg, blocks=blocks, name="su3 blocks")


@lru_cache(maxsize=1)
def _su2_group_target():
    alg = build_su2()
    blocks = tuple(
        Subspace.from_indices(alg, (i,), label=f"axis{i + 1}") for i in range(3)
    )
    return alg, ModuleDecomposition(parent=alg, blocks=blocks, name="su2 axes")


def _g2_group_target():
    dec = g2_decomposition()
    return dec.algebra, dec.blocks


_GROUP_TARGETS = {
    "g2": _g2_group_target,
    "su3": _su3_group_target,
    "su2": _su2_group_target,
}


def build_target(space_spec: str, coefficients):
    """Resolve a space spec into (target, metric).

    Grammar: "aw:k,l" | "lie:g2" | "lie:su3" | "lie:su2".  The metric
    takes one coefficient per block of the target's decomposition.
    """
    kind, sep, rest = space_spec.partition(":")
    if not sep:
        raise UsageError(f"malformed space spec {space_spec!r}")
    if kind == "aw":
        try:
            k_str, l_str = rest.split(",")
            k, l = int(k_str), int(l_str)
        except ValueError as exc:
            raise UsageError(f"bad weights in {space_spec!r}: {exc}") from exc
        try:
            aw = aloff_wallach(k, l)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        target, decomposition = aw.space, aw.blocks
    elif kind == "lie":
        if rest not in _GROUP_TARGETS:
            raise UsageError(f"unknown group {rest!r} in {space_spec!r}")
        target, decomposition = _GROUP_TARGETS[rest]()
    else:
        raise UsageError(f"unknown space kind {kind!r} in {space_spec!r}")
    n_blocks = len(decomposition.blocks)
    if len(coefficients) != n_blocks:
        raise UsageError(
            f"{space_spec!r} needs {n_blocks} metric entries, got {len(coefficients)}"
        )
    return target, make_metric(decomposition, coefficients)


# -- output -----------------------------------------------------------------


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def emit(text: str, output_path: str | None) -> None:
    """Write the report to stdout, or to output_path: straight into an
    existing file that is not regular (a FIFO or a device), else
    atomically, with the mode a plain write would give it under the
    current umask.  A symlink is followed, so its target gets the report
    and the link stays."""
    if output_path is None:
        sys.stdout.write(text)
        return
    path = os.path.realpath(output_path)
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as fh:
                fh.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write to {output_path!r}: {exc}") from exc


def report(config: RunConfig, doc: dict, csv_rows, text_lines) -> None:
    """Emit the report in config.format: doc as JSON, csv_rows (header
    first) as comma-separated lines, or text_lines as they are."""
    if config.format == "json":
        text = render_json(doc)
    elif config.format == "csv":
        text = "\n".join(",".join(str(f) for f in row) for row in csv_rows) + "\n"
    else:
        text = "\n".join(text_lines) + "\n"
    emit(text, config.output_path)


# -- commands ---------------------------------------------------------------

_ROOT_BUILDERS = {"a2": rootsys.build_a2, "g2": rootsys.build_g2}


def cmd_roots(args, config: RunConfig) -> int:
    builder = _ROOT_BUILDERS.get(args.system)
    if builder is None:
        raise UsageError(f"unknown root system {args.system!r}; choose a2 or g2")
    rs = builder()
    classes = rootsys.enumerate_closed_symmetric_subsystems(rs)
    doc = rootsys.to_json_dict(rs)
    doc["closed_symmetric_subsystem_classes"] = []
    rows = [("class", "size", "roots")]
    lines = [
        f"{rs.name}: {len(rs.roots)} roots, rank {rs.rank}",
        f"proper closed symmetric subsystems up to Weyl equivalence: {len(classes)}",
    ]
    for i, sub in enumerate(classes):
        names = sorted(sub.label_set())
        doc["closed_symmetric_subsystem_classes"].append({"size": len(sub.roots), "roots": names})
        rows.append((i, len(sub.roots), "|".join(names)))
        lines.append(f"  class {i}: size {len(sub.roots)}: {', '.join(names) or '(empty)'}")
    report(config, doc, rows, lines)
    return EXIT_OK


_VERDICT_EXITS = {
    "go-consistent": EXIT_OK,
    "non-go-certified": EXIT_NON_GO,
    "indeterminate": EXIT_INDETERMINATE,
}


def cmd_go_check(args, config: RunConfig) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    coefficients, any_decimal = parse_metric_spec(args.metric)
    if config.mode == "exact" and any_decimal:
        raise UsageError(
            "exact mode needs rational metric entries (p/q); got a decimal"
        )
    mode = config.mode
    if mode == "auto":
        mode = "float" if any_decimal else "exact"
    if mode == "float":
        coefficients = [float(c) for c in coefficients]
    target, metric = build_target(args.space, coefficients)
    cert = go_check(
        target,
        metric,
        count=args.samples,
        seed=config.seed,
        exact=(mode == "exact"),
        tolerances=config.tolerances,
    )
    doc = cert.to_json_dict()
    rows = [("sample", "status", "residual_rel", "method")]
    lines = [
        f"{doc['target']}: {doc['verdict']} "
        f"({len(doc['checks'])} directions, seed {doc['seed']})"
    ]
    for i, entry in enumerate(doc["checks"]):
        residual = entry["residual_rel"]
        rows.append((i, entry["status"], repr(residual), entry["method"]))
        lines.append(f"  sample {i}: {entry['status']} residual {residual:.3e}")
    report(config, doc, rows, lines)
    return _VERDICT_EXITS[cert.verdict]


def _reproduce_aw(config: RunConfig):
    doc = aw_go_classify(2, 1, seed=config.seed, tolerances=config.tolerances)
    expectations = [
        ("non-go-grid-certified", doc["non_go_grid_all_certified"]),
        ("symbolic-go-confirmed", doc["symbolic_go_confirmed"]),
        ("obstruction-probes-consistent", doc["obstruction_probes_consistent"]),
    ]
    return doc, expectations


def _reproduce_g2(config: RunConfig):
    doc = reproduce_main_theorem(
        seed=config.seed,
        einstein_tolerance=config.tol_einstein,
        tolerances=config.tolerances,
    )
    expectations = [(c["name"], c["passed"]) for c in doc["checks"]]
    return doc, expectations


def cmd_reproduce(args, config: RunConfig) -> int:
    runners = {"aw-classification": _reproduce_aw, "g2-einstein": _reproduce_g2}
    runner = runners.get(args.target)
    if runner is None:
        raise UsageError(
            f"unknown reproduction target {args.target!r}; "
            "choose aw-classification or g2-einstein"
        )
    doc, expectations = runner(config)
    report(
        config,
        doc,
        [("check", "passed")] + [(name, str(ok).lower()) for name, ok in expectations],
        [f"{args.target}: {len(expectations)} checks"]
        + [f"  {'PASS' if ok else 'FAIL'}  {name}" for name, ok in expectations],
    )
    failing = [name for name, ok in expectations if not ok]
    if failing:
        for name in failing:
            print(f"mismatch: {name}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# -- argument plumbing ------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=("exact", "float", "auto"),
        help="arithmetic mode; auto (the default) is exact for rational "
        "metrics, float when any entry is a decimal",
    )
    parser.add_argument("--seed", type=int, default=None, help="sampling seed")
    parser.add_argument(
        "--tol-feas", type=float, default=None, help="feasibility residual bound"
    )
    parser.add_argument(
        "--tol-infeas", type=float, default=None, help="infeasibility residual bound"
    )
    parser.add_argument(
        "--tol-einstein", type=float, default=None, help="Einstein deviation bound, relative to |c|"
    )
    parser.add_argument(
        "--out", default=None, help="write the report to this file (atomic)"
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default=None, help="output format"
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gometrics",
        description="geodesic-orbit certificates for compact homogeneous spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="root system data and subsystem classes")
    p_roots.add_argument("system", help="a2 or g2")
    _add_common_flags(p_roots)

    p_go = sub.add_parser("go-check", help="geodesic-orbit feasibility sweep")
    p_go.add_argument(
        "--space",
        required=True,
        help='target space: "aw:k,l", "lie:g2", "lie:su3", or "lie:su2"',
    )
    p_go.add_argument(
        "--metric",
        required=True,
        help='comma-separated positive coefficients, rationals ("11/9") or decimals',
    )
    p_go.add_argument(
        "--samples", type=int, default=24, help="number of sampled directions"
    )
    _add_common_flags(p_go)

    p_rep = sub.add_parser("reproduce", help="end-to-end reproduction reports")
    p_rep.add_argument("target", help="aw-classification or g2-einstein")
    _add_common_flags(p_rep)

    return parser


def _setting(args, name: str, default, parse=str):
    """The flag if given, else GOMETRICS_<NAME> read now and parsed, else the default."""
    flag = getattr(args, name)
    if flag is not None:
        return flag
    var = "GOMETRICS_" + name.upper()
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        kind = "an integer" if parse is int else "a number"
        raise UsageError(f"{var} must be {kind}, got {raw!r}") from exc


def make_config(args) -> RunConfig:
    return RunConfig(
        mode=_setting(args, "mode", "auto"),
        seed=_setting(args, "seed", 0, int),
        tol_feas=_setting(args, "tol_feas", 1e-9, float),
        tol_infeas=_setting(args, "tol_infeas", 1e-3, float),
        tol_einstein=_setting(args, "tol_einstein", 1e-5, float),
        output_path=_setting(args, "out", None),
        format=_setting(args, "format", "json"),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "roots": cmd_roots,
        "go-check": cmd_go_check,
        "reproduce": cmd_reproduce,
    }
    try:
        config = make_config(args)
        return handlers[args.command](args, config)
    except (UsageError, MetricValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
