"""Exact dense linear algebra over Q and Q(sqrt(D)).

Matrices are lists of row lists whose entries are int, Fraction, or Quad.
Everything here uses fraction-free-ish Gaussian elimination with exact
zero tests, so ranks and solvability verdicts are certificates, not
numerical estimates.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .scalars import exact_div, is_exact


def _is_zero(x) -> bool:
    return not x


def _exact(x):
    # ints become Fractions so that / stays exact inside elimination
    return Q(x) if isinstance(x, int) else x


def mat_copy(m):
    return [[_exact(x) for x in row] for row in m]


def rref(m):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not _is_zero(a[i][c])), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [exact_div(x, pv) for x in a[r]]
        for i in range(rows):
            if i != r and not _is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def solve(m, b):
    """Solve m x = b with one elimination of [m | b].

    m is rows x cols; b a length-rows vector.  Returns (x, rank of m):
    x is one exact solution with the free variables set to 0, or None
    when the system is inconsistent, and then rank [m | b] = rank m + 1.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [Q(0)] * cols, 0
    aug = [[_exact(x) for x in m[i]] + [_exact(b[i])] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None, len(pivots) - 1  # pivot in the rhs column: inconsistent
    x = [Q(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x, len(pivots)


def nullspace(m):
    """Basis of the kernel of m (list of column vectors as lists)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[Q(1) if i == j else Q(0) for i in range(cols)] for j in range(cols)]
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * cols
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def is_positive_definite(m) -> bool:
    """Exact test that the symmetric matrix m is positive definite.

    Symmetric elimination without row exchanges: m is positive definite
    exactly when every pivot is positive (Sylvester's criterion).
    """
    work = mat_copy(m)
    n = len(work)
    for t in range(n):
        pivot = work[t][t]
        if not pivot > 0:
            return False
        for r in range(t + 1, n):
            factor = exact_div(work[r][t], pivot)
            if not _is_zero(factor):
                for s in range(t, n):
                    work[r][s] -= factor * work[t][s]
    return True


def matvec(m, v):
    return [sum((x * y for x, y in zip(row, v)), Q(0)) for row in m]


def dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Q(0))


def in_span(vectors, v) -> bool:
    """Exact membership of v in span(vectors)."""
    if not vectors:
        return all(_is_zero(x) for x in v)
    cols = [[vec[i] for vec in vectors] for i in range(len(v))]
    return solve(cols, list(v))[0] is not None


def span_rank(vectors) -> int:
    if not vectors:
        return 0
    return rank([list(v) for v in vectors])


def gram_schmidt(vectors, inner):
    """Pairwise inner-orthogonal spanning set (unnormalized), exact.

    ``inner(u, v)`` must be an exact symmetric positive-definite pairing.
    Dependent inputs are dropped.  Each kept vector's <b, b> is computed
    once, and the loop stops when the basis spans the ambient space:
    exact reduction would take every later vector to zero.
    """
    basis, norms = [], []
    for v in vectors:
        if len(basis) == len(v):
            break
        w = list(v)
        for b, nb in zip(basis, norms):
            coeff = exact_div(inner(w, b), nb)
            if not _is_zero(coeff):
                w = [x - coeff * y for x, y in zip(w, b)]
        if any(not _is_zero(x) for x in w):
            basis.append(w)
            norms.append(inner(w, w))
    return basis


def intersect_spans(a_vectors, b_vectors):
    """Basis of span(a) intersect span(b), exact."""
    if not a_vectors or not b_vectors:
        return []
    n = len(a_vectors[0])
    # columns [A | -B]; kernel elements give intersection vectors A ca
    m = [
        [a_vectors[j][i] for j in range(len(a_vectors))]
        + [-b_vectors[j][i] for j in range(len(b_vectors))]
        for i in range(n)
    ]
    out = []
    for ker in nullspace(m):
        vec = [Q(0)] * n
        for j, c in enumerate(ker[: len(a_vectors)]):
            if not _is_zero(c):
                vec = [x + c * y for x, y in zip(vec, a_vectors[j])]
        # dependent inputs can produce zero or repeated vectors; keep an
        # independent subset only
        if any(not _is_zero(x) for x in vec) and not in_span(out, vec):
            out.append(vec)
    return out


def all_exact(values) -> bool:
    return all(is_exact(x) for x in values)


def vec_is_zero(v) -> bool:
    return all(_is_zero(x) for x in v)
