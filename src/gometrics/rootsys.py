"""Rank-one and rank-two root systems with exact rational coordinates.

Roots live in an ambient rational coordinate frame (for A2 and G2 the
sum-zero hyperplane of Q^3, where every root has integer coordinates).
The bilinear form is ``gram = scale * dot`` with a single global scale
chosen so that the form equals -B restricted to the Cartan subalgebra of
the compact Lie algebra built from the system: the defining identity is
(scale*dot)^{-1} = 2 * sum_{positive roots} a a^T on the root span.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property

from .exactlinalg import dot
from .scalars import format_scalar

Vec = tuple  # tuple of Fraction/int coordinates


def _vec(x) -> Vec:
    return tuple(Q(c) for c in x)


def _vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _vec_neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


@dataclass(frozen=True)
class RootSystem:
    """A finite root system with an exact -B-compatible bilinear form."""

    name: str
    rank: int
    roots: tuple
    positive: tuple
    simple: tuple
    scale: Q
    frame: str
    labels: dict = field(default_factory=dict, compare=False)

    def inner(self, u: Vec, v: Vec):
        return self.scale * dot(u, v)

    def is_root(self, v: Vec) -> bool:
        return v in self._root_set

    @cached_property
    def _root_set(self):
        return frozenset(self.roots)

    @cached_property
    def _weyl(self) -> tuple:
        return weyl_group(self)

    def label(self, v: Vec) -> str:
        return self.labels.get(v, str(tuple(map(str, v))))


@dataclass(frozen=True)
class RootSubsystem:
    """A subset of roots, tracked with its closure and symmetry status."""

    parent: RootSystem
    roots: frozenset

    @property
    def closed(self) -> bool:
        for x, y in itertools.permutations(self.roots, 2):
            s = _vec_add(x, y)
            if self.parent.is_root(s) and s not in self.roots:
                return False
        return True

    def label_set(self) -> frozenset:
        return frozenset(self.parent.label(r) for r in self.roots)


def _check_minus_b_scale(positive, ambient_dim: int) -> Q:
    """Solve (scale*dot)^{-1} = 2 sum a a^T on the root span for scale."""
    ratio = None
    for r in positive:
        image = [
            2 * sum(a[i] * dot(a, r) for a in positive) for i in range(ambient_dim)
        ]
        # image must equal (1/scale) * r
        nz = next(i for i in range(ambient_dim) if r[i])
        cand = Q(image[nz], r[nz])
        if any(image[i] != cand * r[i] for i in range(ambient_dim)):
            raise ValueError("root sum-of-squares is not scalar on the span")
        if ratio is None:
            ratio = cand
        elif ratio != cand:
            raise ValueError("inconsistent -B normalization across roots")
    assert ratio is not None and ratio > 0
    return Q(1) / ratio


def _make(name, simple_named, positive_named, frame, ambient_dim) -> RootSystem:
    positive = [_vec(v) for _, v in positive_named]
    roots = positive + [_vec_neg(v) for v in positive]
    labels = {}
    for lab, v in positive_named:
        labels[_vec(v)] = lab
        labels[_vec_neg(_vec(v))] = "-" + lab
    scale = _check_minus_b_scale(positive, ambient_dim)
    return RootSystem(
        name=name,
        rank=len(simple_named),
        roots=tuple(sorted(roots)),
        positive=tuple(positive),
        simple=tuple(_vec(v) for _, v in simple_named),
        scale=scale,
        frame=frame,
        labels=labels,
    )


def build_a1() -> RootSystem:
    """The rank-1 system {+-alpha} on Q^1; compact form is su(2)."""
    return _make(
        "A1",
        [("alpha", (1,))],
        [("alpha", (1,))],
        frame="Q^1, bilinear form scale*dot",
        ambient_dim=1,
    )


def build_a2() -> RootSystem:
    """A2 in the sum-zero hyperplane of Q^3; compact form is su(3)."""
    alpha, beta = (1, -1, 0), (0, 1, -1)
    return _make(
        "A2",
        [("alpha", alpha), ("beta", beta)],
        [("alpha", alpha), ("beta", beta), ("alpha+beta", (1, 0, -1))],
        frame="sum-zero hyperplane of Q^3, bilinear form scale*dot",
        ambient_dim=3,
    )


def build_g2() -> RootSystem:
    """G2 in the sum-zero hyperplane of Q^3.

    alpha is the long simple root, beta the short one; the six positive
    roots are alpha, beta, alpha+beta, alpha+2beta, alpha+3beta,
    2alpha+3beta, and the long positive roots are alpha, alpha+3beta,
    2alpha+3beta.
    """
    alpha, beta = (-1, 2, -1), (1, -1, 0)
    return _make(
        "G2",
        [("alpha", alpha), ("beta", beta)],
        [
            ("alpha", alpha),
            ("beta", beta),
            ("alpha+beta", (0, 1, -1)),
            ("alpha+2beta", (1, 0, -1)),
            ("alpha+3beta", (2, -1, -1)),
            ("2alpha+3beta", (1, 1, -2)),
        ],
        frame="sum-zero hyperplane of Q^3, bilinear form scale*dot",
        ambient_dim=3,
    )


def reflect(alpha: Vec, h: Vec) -> Vec:
    """Reflection of h in the hyperplane orthogonal to the root alpha."""
    alpha = _vec(alpha)
    h = _vec(h)
    aa = dot(alpha, alpha)
    if aa == 0:
        raise ValueError("cannot reflect in a zero vector")
    c = 2 * dot(h, alpha) / aa
    return tuple(x - c * a for x, a in zip(h, alpha))


def _reflection_matrix(alpha: Vec):
    n = len(alpha)
    cols = []
    for j in range(n):
        e = tuple(Q(1) if i == j else Q(0) for i in range(n))
        cols.append(reflect(alpha, e))
    # rows of the matrix
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_apply(m, v: Vec) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def weyl_group(rs: RootSystem) -> tuple:
    """All Weyl group elements as matrices, via closure of the generators."""
    gens = [_reflection_matrix(a) for a in rs.simple]
    n = len(rs.simple[0])
    ident = tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(seen))


def _canonical_subset_key(rs: RootSystem, roots: frozenset):
    """W-invariant canonical key: minimum over W of the sorted image."""
    best = None
    for w in rs._weyl:
        img = sorted(_mat_apply(w, r) for r in roots)
        if best is None or img < best:
            best = img
    return tuple(best if best is not None else [])


def enumerate_closed_symmetric_subsystems(rs: RootSystem) -> list:
    """Proper closed symmetric subsystems of rs, one per W-equivalence class.

    The full system is excluded; the empty subsystem is included.  Output
    is sorted by (size, canonical key) and each entry is a RootSubsystem
    whose root set is the W-minimal representative of its class.
    """
    keys = set()
    n_pos = len(rs.positive)
    for mask in range(1 << n_pos):
        chosen = [rs.positive[i] for i in range(n_pos) if mask >> i & 1]
        roots = frozenset(chosen + [_vec_neg(r) for r in chosen])
        if len(roots) == len(rs.roots):
            continue  # the full system is excluded
        sub = RootSubsystem(parent=rs, roots=roots)
        if sub.closed:
            keys.add(_canonical_subset_key(rs, sub.roots))
    return [
        RootSubsystem(parent=rs, roots=frozenset(_vec(v) for v in key))
        for key in sorted(keys, key=lambda k: (len(k), k))
    ]


def subsystems_equivalent(rs: RootSystem, a, b) -> bool:
    """True when the two root subsets lie in one Weyl orbit."""
    sa = frozenset(_vec(v) for v in a)
    sb = frozenset(_vec(v) for v in b)
    return _canonical_subset_key(rs, sa) == _canonical_subset_key(rs, sb)


def to_json_dict(rs: RootSystem) -> dict:
    """Canonical serializable document for a root system."""
    n = len(rs.roots[0])
    gram = [
        [format_scalar(rs.scale if i == j else Q(0)) for j in range(n)]
        for i in range(n)
    ]
    return {
        "schema": "1",
        "name": rs.name,
        "rank": rs.rank,
        "frame": rs.frame,
        "scale": format_scalar(rs.scale),
        "roots": [[format_scalar(c) for c in r] for r in rs.roots],
        "positive": [[format_scalar(c) for c in r] for r in rs.positive],
        "gram": gram,
    }
