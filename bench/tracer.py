"""Per-layer spans and counts, installed around the program from outside.

``install`` replaces each traced function or method at every name a
caller looks it up by: a function imported into several modules
(``metrics.max_right_isometry_algebra`` is also ``gocheck.`` and
``spaces.max_right_isometry_algebra``) is replaced in each of them.
Spans are kept in memory as arrays (name, parent, start, end) and
written out when the run ends; a layer's self time is its span minus
the part its child spans cover.  Tiny helpers called once per vector
entry (``inner_product``, ``all_exact``, ``vec_is_zero``) get no span,
because timing them would cost more than the work they do;
``Fraction`` and ``Quad`` constructions and ``exact_div`` are counted
without spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

# span family -> traced (module, attribute) or (module, class, attribute)
SPANS = {
    "liealg.build": [
        ("liealg", "build_su3"),
        ("liealg", "build_su2"),
        ("liealg", "build_compact_from_rootsystem"),
        ("liealg", "direct_sum"),
        ("liealg", "abelian"),
    ],
    "liealg.validate": [("liealg", "CompactLieAlgebra", "validate")],
    "liealg.bracket": [("liealg", "CompactLieAlgebra", "bracket")],
    "liealg.project": [("liealg", "Subspace", "project")],
    "liealg.subspace": [
        ("liealg", "Subspace", "from_vectors"),
        ("liealg", "Subspace", "from_indices"),
        ("liealg", "Subspace", "contains"),
        ("liealg", "Subspace", "contains_subspace"),
        ("liealg", "Subspace", "coefficients"),
        ("liealg", "Subspace", "sum"),
        ("liealg", "Subspace", "intersect"),
        ("liealg", "Subspace", "orthogonal_complement"),
        ("liealg", "module_product"),
        ("liealg", "is_subalgebra"),
        ("liealg", "centralizer"),
        ("liealg", "normalizer"),
    ],
    "exactlinalg.rref": [("exactlinalg", "rref")],
    "exactlinalg.solve": [("exactlinalg", "solve")],
    "exactlinalg.rank": [("exactlinalg", "rank")],
    "exactlinalg.nullspace": [("exactlinalg", "nullspace")],
    "exactlinalg.other": [
        ("exactlinalg", "in_span"),
        ("exactlinalg", "span_rank"),
        ("exactlinalg", "gram_schmidt"),
        ("exactlinalg", "intersect_spans"),
    ],
    "metrics.kernel": [("metrics", "max_right_isometry_algebra")],
    "metrics.block_sums": [("metrics", "subalgebra_block_sums")],
    "metrics.detect_nr": [("metrics", "detect_naturally_reductive")],
    "metrics.apply": [("metrics", "MetricEndomorphism", "apply")],
    "metrics.other": [("metrics", "is_adapted"), ("metrics", "make_metric")],
    "ricci.float": [("ricci", "ricci_left_invariant")],  # renamed per call
    "ricci.einstein": [("ricci", "einstein_check")],
    "gocheck.solve_float": [("gocheck", "solve_linear_feasibility")],  # renamed per call
    "gocheck.escalation": [("gocheck", "_mpmath_retry")],
    "gocheck.formulation": [
        ("gocheck", "go_feasible_reduced"),
        ("gocheck", "go_feasible_direct"),
        ("gocheck", "go_feasible_normal_transitive"),
        ("gocheck", "lie_group_go_check"),
    ],
    "gocheck.sample": [("gocheck", "sample_tangent_vectors")],
    "gocheck.go_check": [("gocheck", "go_check")],
    "gocheck.other": [
        ("gocheck", "ReductiveSpace", "__post_init__"),
        ("gocheck", "GOCertificate", "to_json_dict"),
    ],
    "spaces.driver": [
        ("spaces", "aloff_wallach"),
        ("spaces", "aw_metric"),
        ("spaces", "aw_obstruction"),
        ("spaces", "aw_symbolic_go_witness"),
        ("spaces", "aw_go_classify"),
        ("spaces", "aw_extended_presentation"),
        ("spaces", "g2_decomposition"),
        ("spaces", "g2_metric"),
        ("spaces", "g2_block_bracket_csv"),
        ("spaces", "reproduce_main_theorem"),
    ],
    "cli.render": [("cli", "render_json"), ("cli", "emit")],
    "cli.other": [("cli", "build_target"), ("cli", "parse_metric_spec")],
}

# counted without spans
COUNTS = {
    "scalars.exact_div_calls": [("scalars", "exact_div")],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.enabled = False
        self.counts: dict[str, list] = {}
        self.partitions: list = []  # (span index, partition key) per kernel call
        self.rref_cells: list = []  # (span index, rows * cols)
        self.statuses: list = []  # (span index, status) per solve
        self.emitted: list = []  # (span index, bytes) per report
        self.phases: list = []  # (label, first span index, counts at start)
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def counter(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    def mark_phase(self, label: str) -> None:
        self.phases.append((label, len(self.name), {k: c[0] for k, c in self.counts.items()}))

    # -- wrappers ---------------------------------------------------------

    def span(self, family: str, fn, post=None):
        nid = self.name_id(family)
        tr = self
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(tr.current)
            starts.append(clock())
            ends.append(0.0)
            tr.current = idx
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tr.current = parents[idx]
            if post is not None:
                post(idx, args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        cell = self.counter(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.enabled:
                cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "gometrics" and not modname.startswith("gometrics."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _wrap(self, site, make) -> None:
        mod = sys.modules["gometrics." + site[0]]
        if len(site) == 2:
            orig = getattr(mod, site[1])
            self._replace_everywhere(orig, make(orig))
            return
        cls = getattr(mod, site[1])
        raw = cls.__dict__[site[2]]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, site[2], new)
        self._undo.append((cls, site[2], raw))

    def install(self) -> None:
        """Wrap the program's layers; requires ``gometrics`` imported."""
        hooks = {
            "exactlinalg.rref": self._post_rref,
            "metrics.kernel": self._post_kernel,
            "ricci.float": self._post_ricci,
            "gocheck.solve_float": self._post_solve,
        }
        self.name_id("ricci.exact")
        self.name_id("gocheck.solve_exact")
        for family, sites in SPANS.items():
            for site in sites:
                post = self._post_emit if site == ("cli", "emit") else hooks.get(family)
                self._wrap(site, lambda fn, f=family, p=post: self.span(f, fn, p))
        for name, sites in COUNTS.items():
            for site in sites:
                self._wrap(site, lambda fn, n=name: self.count(n, fn))
        frac_new = Fraction.__dict__["__new__"]
        self._wrap_new(Fraction, "scalars.fraction_new", frac_new)
        self._wrap(("scalars", "Quad", "__init__"), lambda fn: self.count("scalars.quad_new", fn))

    def _wrap_new(self, cls, name, raw) -> None:
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        setattr(cls, "__new__", staticmethod(self.count(name, fn)))
        self._undo.append((cls, "__new__", raw))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- hooks --------------------------------------------------------------

    def _post_rref(self, idx, args, result):
        m = args[0]
        self.rref_cells.append((idx, len(m) * (len(m[0]) if m else 0)))

    def _post_kernel(self, idx, args, result):
        # the kernel depends only on which coefficients are equal
        L, metric = args[0], args[1]
        first = {}
        key = tuple(first.setdefault(a, i) for i, a in enumerate(metric.coefficients))
        self.partitions.append((idx, (L.name, key)))

    def _post_ricci(self, idx, args, result):
        if args[1].is_exact:
            self.name[idx] = self.name_id("ricci.exact")

    def _post_solve(self, idx, args, result):
        if result.method == "exact":
            self.name[idx] = self.name_id("gocheck.solve_exact")
        self.statuses.append((idx, result.status))

    def _post_emit(self, idx, args, result):
        self.emitted.append((idx, len(args[0].encode())))

    # -- output ---------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, start, end

    def write(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        np.savez(
            path,
            name=name,
            parent=parent,
            start=start,
            end=end,
            names=np.array(json.dumps(self.names)),
            phases=np.array(json.dumps([(p[0], p[1]) for p in self.phases])),
        )


def _has_ancestor(parent, fam, families) -> np.ndarray:
    """Mask of spans with an ancestor whose family is in ``families``."""
    isf = np.isin(fam, families)
    out = np.zeros(len(parent), dtype=bool)
    p = parent.copy()
    live = p >= 0
    while live.any():
        out[live] |= isf[p[live]]
        p[live] = parent[p[live]]
        live = p >= 0
    return out


def phase_metrics(tr: Tracer, lo: int, hi: int, counts_lo: dict, counts_hi: dict) -> dict:
    """Per-layer metrics of the spans created in [lo, hi)."""
    name, parent, start, end = tr.arrays()
    fam = name[lo:hi]
    par = parent[lo:hi].copy()
    par[par >= 0] -= lo
    dur = end[lo:hi] - start[lo:hi]
    child = np.bincount(par[par >= 0], weights=dur[par >= 0], minlength=len(fam))
    self_t = dur - child
    fid = {n: i for i, n in enumerate(tr.names)}

    def sel(family):
        return fam == fid[family]

    def calls(family):
        return int(np.count_nonzero(sel(family)))

    def incl(family, mask=None):
        m = sel(family) if mask is None else sel(family) & mask
        return float(dur[m].sum())

    def outer_incl(family):
        return incl(family, ~_has_ancestor(par, fam, [fid[family]]))

    def self_of(family):
        return float(self_t[sel(family)].sum())

    def in_range(pairs):
        return [v for i, v in pairs if lo <= i < hi]

    def count(key):
        return counts_hi.get(key, 0) - counts_lo.get(key, 0)

    statuses = in_range(tr.statuses)
    under_formulation = _has_ancestor(par, fam, [fid["gocheck.formulation"]])
    solve_under = incl("gocheck.solve_exact", under_formulation) + incl(
        "gocheck.solve_float", under_formulation
    )
    return {
        "liealg.build_s": outer_incl("liealg.build") - incl("liealg.validate"),
        "liealg.validate_s": incl("liealg.validate"),
        "liealg.bracket_calls": calls("liealg.bracket"),
        "liealg.bracket_s": incl("liealg.bracket"),
        "liealg.project_calls": calls("liealg.project"),
        "liealg.project_s": outer_incl("liealg.project"),
        "liealg.subspace_s": self_of("liealg.subspace"),
        "exactlinalg.rref_calls": calls("exactlinalg.rref"),
        "exactlinalg.rref_cells": sum(in_range(tr.rref_cells)),
        "exactlinalg.rref_s": outer_incl("exactlinalg.rref"),
        "exactlinalg.solve_calls": calls("exactlinalg.solve"),
        "exactlinalg.rank_calls": calls("exactlinalg.rank"),
        "exactlinalg.nullspace_calls": calls("exactlinalg.nullspace"),
        "scalars.fraction_new": count("scalars.fraction_new"),
        "scalars.quad_new": count("scalars.quad_new"),
        "scalars.exact_div_calls": count("scalars.exact_div_calls"),
        "metrics.kernel_calls": calls("metrics.kernel"),
        "metrics.kernel_partitions": len(set(in_range(tr.partitions))),
        "metrics.kernel_s": outer_incl("metrics.kernel"),
        "metrics.block_sums_calls": calls("metrics.block_sums"),
        "metrics.block_sums_s": outer_incl("metrics.block_sums"),
        "metrics.detect_nr_s": outer_incl("metrics.detect_nr"),
        "metrics.apply_calls": calls("metrics.apply"),
        "metrics.apply_s": outer_incl("metrics.apply"),
        "ricci.exact_calls": calls("ricci.exact"),
        "ricci.exact_s": incl("ricci.exact"),
        "ricci.float_calls": calls("ricci.float"),
        "ricci.float_s": incl("ricci.float"),
        "gocheck.solve_exact_calls": calls("gocheck.solve_exact"),
        "gocheck.solve_exact_s": incl("gocheck.solve_exact"),
        "gocheck.solve_float_calls": calls("gocheck.solve_float"),
        "gocheck.solve_float_s": incl("gocheck.solve_float"),
        "gocheck.escalations": calls("gocheck.escalation"),
        "gocheck.escalation_s": incl("gocheck.escalation"),
        "gocheck.system_s": outer_incl("gocheck.formulation") - solve_under,
        "gocheck.sample_s": outer_incl("gocheck.sample"),
        "gocheck.feasible": statuses.count("feasible"),
        "gocheck.infeasible": statuses.count("infeasible"),
        "gocheck.indeterminate": statuses.count("indeterminate"),
        "spaces.self_s": self_of("spaces.driver"),
        "cli.render_s": outer_incl("cli.render"),
        "cli.report_bytes": sum(in_range(tr.emitted)),
        "_top_s": float(dur[par < 0].sum()),
    }
