"""Block-scalar metric endomorphisms on compact Lie algebras.

A left-invariant (or G-invariant coset) metric is encoded as a positive
endomorphism A relative to the background bi-invariant inner product:
g(x, y) = <A x, y>.  Here A acts as a_i * Id on the i-th block of an
orthogonal module decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property

import numpy as np

from . import exactlinalg as ela
from .liealg import CompactLieAlgebra, Subspace, is_subalgebra
from .scalars import exact_div, is_exact


class MetricValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ModuleDecomposition:
    """Pairwise orthogonal blocks spanning an ambient subspace."""

    parent: CompactLieAlgebra
    blocks: tuple
    name: str = ""

    def __post_init__(self):
        if not self.blocks:
            raise MetricValidationError("decomposition needs at least one block")
        for b in self.blocks:
            if b.dim == 0:
                raise MetricValidationError("decomposition contains a zero block")
            if b.parent is not self.parent:
                raise MetricValidationError("block belongs to a different algebra")
        for p, q in itertools.combinations(self.blocks, 2):
            for u in p.basis:
                for v in q.basis:
                    if self.parent.inner_product(u, v):
                        raise MetricValidationError("blocks are not orthogonal")
        total = sum(b.dim for b in self.blocks)
        if self.ambient.dim != total:
            raise MetricValidationError("blocks overlap")

    @cached_property
    def ambient(self) -> Subspace:
        out = self.blocks[0]
        for b in self.blocks[1:]:
            out = out.sum(b)
        return Subspace(parent=self.parent, basis=out.basis, label=self.name or "ambient")

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)


@dataclass(frozen=True)
class MetricEndomorphism:
    """A = sum_i a_i * (projection onto block i), all a_i > 0."""

    decomposition: ModuleDecomposition
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != len(self.decomposition.blocks):
            raise MetricValidationError("one coefficient per block is required")
        for a in self.coefficients:
            if is_exact(a):
                if not a > 0:
                    raise MetricValidationError("metric coefficients must be positive")
            else:
                if not float(a) > 0:
                    raise MetricValidationError("metric coefficients must be positive")

    @property
    def parent(self) -> CompactLieAlgebra:
        return self.decomposition.parent

    @property
    def is_exact(self) -> bool:
        return all(is_exact(a) for a in self.coefficients)

    def apply(self, v):
        """A(v) for v in the ambient span, exact when everything is exact."""
        if self.is_exact and ela.all_exact(v):
            out = [Q(0)] * self.parent.dim
            for a, block in zip(self.coefficients, self.decomposition.blocks):
                p = block.project(v)
                out = [x + a * y for x, y in zip(out, p)]
            return out
        return list(self.matrix_np @ np.asarray([float(x) for x in v]))

    @cached_property
    def matrix_exact(self):
        """Exact matrix of A on the whole algebra (zero off the ambient)."""
        n = self.parent.dim
        cols = []
        for j in range(n):
            e = [Q(0)] * n
            e[j] = Q(1)
            out = [Q(0)] * n
            for a, block in zip(self.coefficients, self.decomposition.blocks):
                p = block.project(e)
                out = [x + a * y for x, y in zip(out, p)]
            cols.append(out)
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))

    @cached_property
    def matrix_np(self) -> np.ndarray:
        n = self.parent.dim
        out = np.zeros((n, n))
        for a, block in zip(self.coefficients, self.decomposition.blocks):
            onb = block.onb_np
            proj = onb @ onb.T @ self.parent.inner_np
            out += float(a) * proj
        return out

    def coefficient_of(self, v):
        """The eigenvalue on the block containing v; None if v straddles."""
        for a, block in zip(self.coefficients, self.decomposition.blocks):
            if block.contains(v):
                return a
        return None

    def eigenspaces(self):
        """Merged blocks per distinct coefficient, as {coefficient: Subspace}.

        Coefficients are compared exactly, so float metrics merge only on
        bit-identical values.
        """
        groups: dict = {}
        for a, block in zip(self.coefficients, self.decomposition.blocks):
            groups.setdefault(a, []).append(block)
        out = {}
        for a, blocks in groups.items():
            s = blocks[0]
            for b in blocks[1:]:
                s = s.sum(b)
            out[a] = s
        return out

    def metric_gram_np(self) -> np.ndarray:
        """Gram matrix of the metric g(x,y) = <Ax, y> in the algebra basis."""
        return self.parent.inner_np @ self.matrix_np

    def scaled(self, factor) -> "MetricEndomorphism":
        return MetricEndomorphism(
            decomposition=self.decomposition,
            coefficients=tuple(a * factor for a in self.coefficients),
        )


def make_metric(decomposition: ModuleDecomposition, coefficients) -> MetricEndomorphism:
    return MetricEndomorphism(
        decomposition=decomposition, coefficients=tuple(coefficients)
    )


def is_adapted(metric: MetricEndomorphism, sub: Subspace) -> bool:
    """Whether A commutes with ad(W) on the ambient span for every W in sub.

    Both sides are composed with the orthogonal projection back onto the
    ambient span, so the test also makes sense when ad(W) leaks outside
    of it.  Exact metrics are tested exactly; float metrics against 1e-12.
    """
    L = metric.parent
    amb = metric.decomposition.ambient
    exact = metric.is_exact
    for W in sub.basis:
        for block in metric.decomposition.blocks:
            for b in block.basis:
                lhs = amb.project(L.bracket(W, metric.apply(b)))
                rhs = metric.apply(amb.project(L.bracket(W, b)))
                diff = [x - y for x, y in zip(lhs, rhs)]
                if exact:
                    if not ela.vec_is_zero(diff):
                        return False
                else:
                    if max(abs(float(x)) for x in diff) > 1e-12:
                        return False
    return True


def max_right_isometry_algebra(L: CompactLieAlgebra, metric: MetricEndomorphism) -> Subspace:
    """Largest subalgebra whose adjoint action commutes with A.

    For a left-invariant metric on a compact group this is the isotropy
    candidate on the right: W is in the result iff [ad W, A] = 0 on g.
    Since [ad W, A] = 0 is equivalent to ad(W) preserving every
    eigenspace of A, only the partition of blocks by coefficient
    equality enters, and the kernel is computed exactly even when the
    coefficient values themselves are floats (floats are merged only on
    bit-identical values).
    """
    n = L.dim
    if metric.decomposition.dim != n:
        raise MetricValidationError("metric must cover the whole algebra")
    eig = list(metric.eigenspaces().values())
    # the components of [e_i, u] off u's eigenspace must vanish, and
    # <[e_i, u], w> = <e_i, [u, w]> by ad-invariance; the rows of a pair
    # (eb, ea) are those of (ea, eb) negated, so one order suffices
    rows = [
        L.lower(L.bracket(u, w))
        for ea, eb in itertools.combinations(eig, 2)
        for u in ea.basis
        for w in eb.basis
    ]
    if not rows:
        # single eigenvalue: A is a multiple of the identity
        return Subspace.from_indices(L, range(n), label="max-right-isometry")
    sub = Subspace.from_vectors(L, ela.nullspace(rows), label="max-right-isometry")
    assert is_subalgebra(L, sub)
    return sub


@dataclass(frozen=True)
class NaturalReductivityResult:
    found: bool
    subalgebra: Subspace | None = None
    transverse_coefficient: object = None
    ideal_coefficients: tuple = ()
    checked: int = 0

    def __bool__(self):
        return self.found


def subalgebra_block_sums(decomposition: ModuleDecomposition):
    """All sums of decomposition blocks that are subalgebras, largest first."""
    L = decomposition.parent
    blocks = decomposition.blocks
    out = []
    for r in range(len(blocks), 0, -1):
        for combo in itertools.combinations(range(len(blocks)), r):
            s = blocks[combo[0]]
            for i in combo[1:]:
                s = s.sum(blocks[i])
            if is_subalgebra(L, s):
                s = Subspace(
                    parent=L,
                    basis=s.basis,
                    label="+".join(blocks[i].label or f"block{i + 1}" for i in combo),
                )
                out.append(s)
    out.sort(key=lambda s: -s.dim)
    return out


def detect_naturally_reductive(
    L: CompactLieAlgebra,
    metric: MetricEndomorphism,
    candidates=None,
) -> NaturalReductivityResult:
    """Search for a subalgebra exhibiting the metric in the standard
    naturally reductive normal form.

    A candidate h certifies the metric when A restricts to h, acts as a
    single scalar x on the orthogonal complement of h, and commutes with
    ad(h) on h itself (scalar on each simple ideal, anything positive on
    the center).  Candidates default to all block sums that are
    subalgebras, visited in descending dimension; a negative answer
    therefore means no candidate certifies, not a proof that none exists
    outside the candidate list.  When every coefficient is distinct the
    block sums are exhaustive, because the complement of any certifying
    subalgebra must be a union of eigenspaces of A.
    """
    if metric.decomposition.dim != L.dim:
        raise MetricValidationError("metric must cover the whole algebra")
    if candidates is None:
        candidates = subalgebra_block_sums(metric.decomposition)
    exact = metric.is_exact
    tol = 0 if exact else 1e-10

    def vanishes(vec) -> bool:
        if exact:
            return ela.vec_is_zero(vec)
        return max(abs(float(x)) for x in vec) <= tol

    checked = 0
    for h in candidates:
        checked += 1
        if h.dim == 0:
            continue
        if not is_subalgebra(L, h):
            continue
        m = h.orthogonal_complement()
        # A must preserve h (and hence m)
        if not all(vanishes(m.project(metric.apply(b))) for b in h.basis):
            continue
        # single scalar on m
        x = None
        ok = True
        for b in m.basis:
            img = metric.apply(b)
            c = exact_div(L.inner_product(img, b), L.inner_product(b, b))
            resid = [u - c * v for u, v in zip(img, b)]
            if not vanishes(resid):
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
        if not ok:
            continue
        if m.dim == 0:
            x = None  # bi-invariant-type certificate: h is everything
        # ad(h)-invariance of A restricted to h
        if not is_adapted(metric, h):
            continue
        ideal_coeffs = tuple(
            metric.coefficient_of(b)
            for b in h.basis
            if metric.coefficient_of(b) is not None
        )
        return NaturalReductivityResult(
            found=True,
            subalgebra=h,
            transverse_coefficient=x,
            ideal_coefficients=ideal_coeffs,
            checked=checked,
        )
    return NaturalReductivityResult(found=False, checked=checked)
