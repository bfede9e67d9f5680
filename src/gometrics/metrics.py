"""Block-scalar metric endomorphisms on compact Lie algebras.

A left-invariant (or G-invariant coset) metric is encoded as a positive
endomorphism A relative to the background bi-invariant inner product:
g(x, y) = <A x, y>.  Here A acts as a_i * Id on the i-th block of an
orthogonal module decomposition.

Facts that depend only on the decomposition are computed lazily, once
per ``ModuleDecomposition``: the block of each vector of the frame of
block bases (``frame_owner``); one table of exact bracket coordinates in
that frame, one bracket per pair of frame vectors (``frame_brackets``),
from which are read the blocks that the bracket of each pair of blocks
reaches (``bracket_reach``), the Ricci tensor as a Laurent polynomial in
the coefficients (``ricci_polynomial``) and the rows of the commutation
kernel of each coefficient partition (``commutation_kernel``, keyed by
``partition_key``); the block sums that are subalgebras, read off the
reach (``block_sum_indices``, ``block_sums``); and the exact projection
onto each block (``block_projections``), from which an exact metric
builds its sparse matrix once (``exact_matrix``).  The kernel depends
only on which coefficients are equal, so it is exact for float metrics
too: a float counts as the value it holds.  The right-isometry algebra,
adaptedness (``is_adapted``, hence ``detect_naturally_reductive``) and
metric-skewness of an extra generator in ``gocheck`` are all read off
it, with no tolerance; a decomposition has at most Bell(len(blocks))
partitions.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property

import numpy as np

from . import exactlinalg as ela
from .liealg import CompactLieAlgebra, Subspace, is_subalgebra, solution_space
from .scalars import exact_div, is_exact


_ZERO = Q(0)


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
        if self.ambient.dim != self.dim:
            raise MetricValidationError("blocks overlap")

    @cached_property
    def ambient(self) -> Subspace:
        vecs = [v for block in self.blocks for v in block.basis]
        return Subspace.from_vectors(self.parent, vecs, label=self.name or "ambient")

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @cached_property
    def frame_owner(self) -> tuple:
        """The block of each frame vector.  The frame, the concatenated
        block bases, is ``ambient.basis``: the blocks are orthogonal, so
        Gram-Schmidt keeps it, and ``ambient._norms`` holds each <v, v>."""
        return tuple(i for i, block in enumerate(self.blocks) for _ in block.basis)

    @cached_property
    def right_isometry_kernels(self) -> dict:
        """Commutation kernels by ``partition_key``, filled by
        ``commutation_kernel``."""
        return {}

    def commutation_kernel(self, coefficients) -> Subspace:
        """{W in g : A commutes with ad(W) compressed to the ambient span},
        for A with these coefficients; computed once per partition.

        For u in a block with coefficient a, A proj[W, u] - proj[W, A u]
        is the sum of (a_k - a) times the component of [W, u] in block k,
        so it vanishes exactly when <[W, u], w> = <W, [u, w]> = 0 for every
        w in a block with another coefficient.  Those rows, over frame
        vectors u and w in different partition classes, cut out the
        kernel; the rows of a pair (w, u) are those of (u, w) negated, so
        the rows ``_frame_table`` keeps for a < b give them all.  When the
        blocks span g the kernel is the right-isometry algebra.
        """
        key = partition_key(coefficients)
        if key not in self.right_isometry_kernels:
            L = self.parent
            cls = [key[i] for i in self.frame_owner]
            rows = [row for (a, b), row in self._frame_table[2].items() if cls[a] != cls[b]]
            sub = solution_space(L, rows, label="max-right-isometry")
            assert self.dim < L.dim or is_subalgebra(L, sub)
            self.right_isometry_kernels[key] = sub
        return self.right_isometry_kernels[key]

    @cached_property
    def _frame_table(self) -> tuple:
        """(``frame_brackets``, the pairs a < b whose bracket leaves the
        ambient span, {(a, b): ``lower([v_a, v_b])``} for a < b with a
        nonzero bracket: the rows of ``commutation_kernel``), from one
        bracket per pair a < b.  A bracket lies in the span exactly when
        its frame coordinates keep its length:
        sum_m K[a][b][m]^2 <v_m, v_m> = <[v_a, v_b], [v_a, v_b]>."""
        L = self.parent
        vecs, norms = self.ambient.basis, self.ambient._norms
        n = len(vecs)
        zeros = (_ZERO,) * n
        K = [[zeros] * n for _ in range(n)]
        leaks, rows = set(), {}
        for a, b in itertools.combinations(range(n), 2):
            uw = L.bracket(vecs[a], vecs[b])
            if not any(uw):
                continue
            rows[a, b] = tuple(c or _ZERO for c in L.lower(uw))
            coords = [exact_div(L.inner_product(uw, v), nv) for v, nv in zip(vecs, norms)]
            K[a][b] = tuple(c or _ZERO for c in coords)
            K[b][a] = tuple(-c or _ZERO for c in coords)
            kept = sum((c * c * nv for c, nv in zip(coords, norms) if c), _ZERO)
            if kept != L.inner_product(uw, uw):
                leaks.add((a, b))
        return tuple(tuple(row) for row in K), leaks, rows

    @property
    def frame_brackets(self) -> tuple:
        """K[a][b][m], the coordinate along v_m of [v_a, v_b], exact, in
        the frame v of concatenated block bases; K[b][a] = -K[a][b], and
        every zero coordinate is one shared zero."""
        return self._frame_table[0]

    @cached_property
    def ricci_polynomial(self) -> dict:
        """Ric[b][d] for b <= d in the frame of ``frame_brackets``, as a
        Laurent polynomial in the block coefficients x: {(b, d): {e: c}}
        with e an exponent tuple over the blocks and c exact; an entry that
        vanishes identically maps to {}.

        With g_a = x_A <v_a, v_a> (A the block of v_a), the Koszul
        connection G[a][b][c] = (C[a][b][c] - C[b][c][a] + C[c][a][b]) / 2,
        C[a][b][c] = g_c K[a][b][c], is linear in x, so in

          Ric[b][d] = sum_a (1/g_a) [ sum_m (G[b][d][m] G[a][m][a]
                                             - G[a][d][m] G[b][m][a]) / g_m
                                      - sum_m K[a][b][m] G[m][d][a] ]

        the G.G sums give terms x_P x_Q / (x_A x_M) and the K.G sum terms
        x_P / x_A."""
        K, owner, norms = self.frame_brackets, self.frame_owner, self.ambient._norms
        n = len(owner)

        def monomial(up, down):
            return tuple(up.count(i) - down.count(i) for i in range(len(self.blocks)))

        # G[a, b, c] as (P, coefficient of x_P) pairs, nonzero entries only
        G = {}
        for a, b, c in itertools.product(range(n), repeat=3):
            lin = [
                (owner[p], exact_div(sign * norms[p] * K[i][j][p], 2))
                for p, i, j, sign in ((c, a, b, 1), (a, b, c, -1), (b, c, a, 1))
                if K[i][j][p]
            ]
            if lin:
                G[a, b, c] = lin
        out = {}
        for b in range(n):
            for d in range(b, n):
                terms = defaultdict(int)
                for a, m in itertools.product(range(n), repeat=2):
                    down = (owner[a], owner[m])
                    for sign, f, h in (
                        (1, G.get((b, d, m), ()), G.get((a, m, a), ())),
                        (-1, G.get((a, d, m), ()), G.get((b, m, a), ())),
                    ):
                        for (p, u), (q, w) in itertools.product(f, h):
                            coeff = exact_div(sign * u * w, norms[a] * norms[m])
                            terms[monomial((p, q), down)] += coeff
                    if K[a][b][m]:
                        for p, u in G.get((m, d, a), ()):
                            terms[monomial((p,), down[:1])] -= exact_div(K[a][b][m] * u, norms[a])
                out[b, d] = {e: c for e, c in terms.items() if c}
        return out

    @cached_property
    def block_projections(self) -> tuple:
        """The orthogonal projection onto each block as exact sparse rows:
        row r of block k lists (c, P_k[r][c]), P_k v = sum_b <v, b>/<b, b> b
        over the block's basis."""
        L = self.parent
        out = []
        for block in self.blocks:
            rows = [defaultdict(int) for _ in range(L.dim)]
            for b, nb in zip(block.basis, block._norms):
                form = L.lower(b)
                for r, br in enumerate(b):
                    for c, fc in enumerate(form):
                        if br and fc:
                            rows[r][c] += exact_div(br * fc, nb)
            out.append(tuple(tuple((c, v) for c, v in row.items() if v) for row in rows))
        return tuple(out)

    @cached_property
    def bracket_reach(self) -> dict:
        """For each pair i <= j of block indices, in order, the set of
        indices of the blocks that [block i, block j] has a component in,
        plus None when it leaves the ambient span; read off
        ``_frame_table``."""
        K, leaks, _ = self._frame_table
        owner = self.frame_owner
        pairs = itertools.combinations_with_replacement(range(len(self.blocks)), 2)
        out = {pair: set() for pair in pairs}
        # owner is nondecreasing, so a < b gives owner[a] <= owner[b]
        for a, b in itertools.combinations(range(len(owner)), 2):
            reach = out[owner[a], owner[b]]
            reach.update(owner[m] for m, c in enumerate(K[a][b]) if c)
            if (a, b) in leaks:
                reach.add(None)
        return out

    @cached_property
    def block_sum_indices(self) -> tuple:
        """Block index tuples of the block sums that are subalgebras,
        largest first.

        The blocks are orthogonal, so a sum of blocks is closed under the
        bracket exactly when each bracket of two of its blocks has
        components in its blocks only (``bracket_reach``).
        """
        reach = self.bracket_reach
        out = [
            combo
            for r in range(len(self.blocks), 0, -1)
            for combo in itertools.combinations(range(len(self.blocks)), r)
            if all(
                reach[i, j] <= set(combo)
                for i, j in itertools.combinations_with_replacement(combo, 2)
            )
        ]
        out.sort(key=lambda combo: -sum(self.blocks[i].dim for i in combo))
        return tuple(out)

    @cached_property
    def block_sums(self) -> tuple:
        """The block sums that are subalgebras, as Subspaces, in the order
        of ``block_sum_indices``."""
        return tuple(
            Subspace.from_vectors(
                self.parent,
                [v for i in combo for v in self.blocks[i].basis],
                label="+".join(self.blocks[i].label or f"block{i + 1}" for i in combo),
            )
            for combo in self.block_sum_indices
        )


@dataclass(frozen=True)
class MetricEndomorphism:
    """A = sum_i a_i * (projection onto block i), all a_i > 0."""

    decomposition: ModuleDecomposition
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != len(self.decomposition.blocks):
            raise MetricValidationError("one coefficient per block is required")
        for a in self.coefficients:
            if not (a if is_exact(a) else float(a)) > 0:
                raise MetricValidationError("metric coefficients must be positive")
            if not (is_exact(a) or math.isfinite(a)):
                raise MetricValidationError(f"metric coefficients must be finite, got {a}")

    @property
    def parent(self) -> CompactLieAlgebra:
        return self.decomposition.parent

    @property
    def is_exact(self) -> bool:
        return all(is_exact(a) for a in self.coefficients)

    def apply(self, v):
        """A(v) for v in the ambient span, exact when everything is exact."""
        if self.is_exact and ela.all_exact(v):
            return [sum((a * v[c] for c, a in row if v[c]), _ZERO) for row in self.exact_matrix]
        return list(self.matrix_np @ np.asarray([float(x) for x in v]))

    @cached_property
    def exact_matrix(self) -> tuple:
        """A = sum_k a_k P_k as exact sparse rows, from the decomposition's
        ``block_projections``; read by ``apply`` for exact coefficients."""
        acc = [defaultdict(int) for _ in range(self.parent.dim)]
        for a, proj in zip(self.coefficients, self.decomposition.block_projections):
            for r, row in enumerate(proj):
                for c, p in row:
                    acc[r][c] += a * p
        return tuple(tuple((c, x) for c, x in row.items() if x) for row in acc)

    @cached_property
    def skew_generators(self) -> set:
        """(space, generator) pairs that ``gocheck`` has validated as
        metric-skew for this metric, so each is checked once."""
        return set()

    @cached_property
    def matrix_np(self) -> np.ndarray:
        n = self.parent.dim
        out = np.zeros((n, n))
        for a, block in zip(self.coefficients, self.decomposition.blocks):
            onb = block.onb_np
            proj = onb @ onb.T @ self.parent.inner_np
            out += float(a) * proj
        return out


def make_metric(decomposition: ModuleDecomposition, coefficients) -> MetricEndomorphism:
    return MetricEndomorphism(
        decomposition=decomposition, coefficients=tuple(coefficients)
    )


def is_adapted(metric: MetricEndomorphism, sub: Subspace) -> bool:
    """Whether A commutes with ad(W) on the ambient span for every W in sub.

    Both sides are composed with the orthogonal projection back onto the
    ambient span, so the test also makes sense when ad(W) leaks outside
    of it.  That holds exactly when sub lies in the decomposition's
    ``commutation_kernel`` for the metric's partition, for exact and
    float coefficients alike.
    """
    kernel = metric.decomposition.commutation_kernel(metric.coefficients)
    return kernel.contains_subspace(sub)


def partition_key(coefficients) -> tuple:
    """Which coefficients are equal: the index of each one's first
    occurrence, so (2, 1, 1) and (5, 3, 3) both give (0, 1, 1).  A float
    counts as the value it holds, so 3.0 equals 3 and floats merge only
    on equal values."""
    first: dict = {}
    return tuple(first.setdefault(a, i) for i, a in enumerate(coefficients))


def check_covers(L: CompactLieAlgebra, metric: MetricEndomorphism) -> None:
    """Raise unless the metric is on L and its blocks span all of L."""
    if L is not metric.parent:
        raise MetricValidationError("metric belongs to a different algebra")
    if metric.decomposition.dim != L.dim:
        raise MetricValidationError("metric must cover the whole algebra")


def max_right_isometry_algebra(L: CompactLieAlgebra, metric: MetricEndomorphism) -> Subspace:
    """Largest subalgebra whose adjoint action commutes with A.

    For a left-invariant metric on a compact group this is the isotropy
    candidate on the right: W is in the result iff [ad W, A] = 0 on g.
    Since [ad W, A] = 0 is equivalent to ad(W) preserving every
    eigenspace of A, only the partition of blocks by coefficient
    equality enters, and the kernel is exact even when the coefficient
    values themselves are floats.  It is the decomposition's
    ``commutation_kernel``, so metrics with the same partition share the
    same Subspace.
    """
    check_covers(L, metric)
    return metric.decomposition.commutation_kernel(metric.coefficients)


@dataclass(frozen=True)
class NaturalReductivityResult:
    found: bool
    subalgebra: Subspace | None = None
    transverse_coefficient: object = None
    ideal_coefficients: tuple = ()
    checked: int = 0

    def __bool__(self):
        return self.found


def subalgebra_block_sums(decomposition: ModuleDecomposition) -> tuple:
    """All sums of decomposition blocks that are subalgebras, largest
    first; computed once per decomposition."""
    return decomposition.block_sums


def detect_naturally_reductive(
    L: CompactLieAlgebra, metric: MetricEndomorphism
) -> NaturalReductivityResult:
    """Search for a subalgebra exhibiting the metric in the standard
    naturally reductive normal form (D'Atri-Ziller).

    A candidate h certifies the metric when A restricts to h, acts as a
    single scalar x on the orthogonal complement of h, and commutes with
    ad(h) on h itself (scalar on each simple ideal, anything positive on
    the center).  The candidates are the block sums that are subalgebras,
    visited in descending dimension.  The blocks are orthogonal and span
    g, so A preserves every block sum h and the complement of h is the
    sum of the blocks outside it: h passes the first two conditions
    exactly when the blocks outside it form one partition class, with
    coefficient x, and its ideal coefficients are the coefficients of the
    blocks in it, one per basis vector.  The third condition is
    ``is_adapted``: on g, A commutes with ad(W) exactly when W is in the
    commutation kernel.  Float coefficients are compared as the values
    they hold, like exact ones, so rescaling a metric keeps the verdict.

    A negative answer means no block sum certifies, not a proof that no
    subalgebra does.  When every coefficient is distinct the block sums
    are exhaustive, because the complement of any certifying subalgebra
    must be a union of eigenspaces of A.
    """
    check_covers(L, metric)
    dec = metric.decomposition
    coeffs = metric.coefficients
    sums = subalgebra_block_sums(dec)
    for checked, (held, h) in enumerate(zip(dec.block_sum_indices, sums), start=1):
        outside = {a for i, a in enumerate(coeffs) if i not in held}
        if len(outside) > 1 or not is_adapted(metric, h):
            continue
        return NaturalReductivityResult(
            found=True,
            subalgebra=h,
            transverse_coefficient=next(iter(outside), None),  # None: h is everything
            ideal_coefficients=tuple(coeffs[i] for i in held for _ in dec.blocks[i].basis),
            checked=checked,
        )
    return NaturalReductivityResult(found=False, checked=len(sums))
