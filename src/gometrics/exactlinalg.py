"""Exact dense linear algebra over Q and Q(sqrt(D)).

Matrices are lists of row lists whose entries are int, Fraction, or Quad;
all irrational Quad entries of one matrix share one radicand D.  Every
exact elimination goes through one Gauss-Jordan core, ``_eliminate``,
which runs fraction-free (in the spirit of Bareiss 1968) on integer
pairs p + q*sqrt(D), scaling rows by integers and dividing each row by
its content.  ``rref``, ``solve`` and ``nullspace`` clear each row's
denominators (``pair_rows``) before it; a caller that already holds
integer pairs, such as a compiled geodesic system, passes its augmented
rows to ``solve_augmented``.  Entries become Fraction and Quad only at
the end.  Zero tests are exact, so ranks and solvability verdicts are
certificates, not numerical estimates; a float entry is refused with
TypeError, two radicands with ValueError.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import NamedTuple

from .scalars import Quad, exact_div, is_exact


def clear_denominators(values, d: int = 0):
    """(d, den, p, q) with values[k] = (p[k] + q[k] sqrt(d)) / den for one
    positive integer den; d is the radicand of the irrational values, or
    the one given (0 for none)."""
    split = []
    for x in values:
        if isinstance(x, Quad):
            if x.b:
                if d and x.d != d:
                    raise ValueError(f"mixed radicands sqrt({d}) and sqrt({x.d})")
                d = x.d
            split.append((x.a, x.b))
        elif isinstance(x, (int, Q)):
            split.append((x, 0))
        else:
            raise TypeError(f"exact elimination refuses {type(x).__name__} entry {x!r}")
    # one pair at a time, as gcd in _combine: lcm(*values) raised RSS 0.3 MiB
    den = 1
    for a, b in split:
        den = math.lcm(den, a.denominator, b.denominator)
    p = [a.numerator * (den // a.denominator) for a, _ in split]
    return d, den, p, [b.numerator * (den // b.denominator) for _, b in split]


def pair_combination(coefficients, rows, size: int, d: int) -> list:
    """sum_r c_r rows[r] as size integer pairs, for integer pairs c_r and
    sparse rows of entries (k, pair), a pair (p, q) standing for p + q sqrt(d)."""
    acc = [(0, 0)] * size
    for (cp, cq), row in zip(coefficients, rows):
        for k, (p, q) in row:
            a, b = acc[k]
            acc[k] = (a + cp * p + cq * q * d, b + cp * q + cq * p)
    return acc


def pair_value(p, q, den, d):
    """(p + q sqrt(d)) / den as a Fraction, or as a Quad when q is nonzero."""
    return Quad(Q(p, den), Q(q, den), d) if q else Q(p, den)


class PairRows(NamedTuple):
    """Row i is [p_0 .. p_{c-1}, q_0 .. q_{c-1}], standing for the entries
    (p_k + q_k sqrt(d)) / dens[i]; d is 0 when no entry is irrational."""

    d: int
    rows: list
    dens: list

    def floats(self):
        """The entries as ``pair_float`` gives them."""
        c = len(self.rows[0]) // 2 if self.rows else 0
        return [
            [pair_float(p, q, den, self.d) for p, q in zip(r[:c], r[c:])]
            for r, den in zip(self.rows, self.dens)
        ]


def pair_float(p, q, den, d):
    """(p + q sqrt(d)) / den, rounded as float() rounds the Fraction or
    Quad it stands for: int / int is correctly rounded."""
    return p / den + q / den * math.sqrt(d) if q else p / den


def pair_rows(m) -> PairRows:
    """m with each row scaled by its common denominator."""
    d, rows, dens = 0, [], []
    for row in m:
        d, den, p, q = clear_denominators(row, d)
        rows.append(p + q)
        dens.append(den)
    return PairRows(d, rows, dens)


def _combine(s, x, f, y, d):
    """s * x - f * y for integer-pair rows x, y and s, f in Z[sqrt d],
    divided by its content."""
    (sp, sq), (fp, fq), c = s, f, len(x) // 2
    xp, xq, yp, yq = x[:c], x[c:], y[:c], y[c:]
    out = [sp * a + sq * d * b - fp * u - fq * d * w for a, b, u, w in zip(xp, xq, yp, yq)]
    out += [sp * b + sq * a - fp * w - fq * u for a, b, u, w in zip(xp, xq, yp, yq)]
    # one entry at a time: gcd(*out) builds a tuple per row width, and on
    # CPython 3.11 that raised the peak memory of a GO sweep by 0.4 MiB
    g = 0
    for v in out:
        g = math.gcd(g, v)
    return [v // g for v in out] if g > 1 else out


def _eliminate(d, a, cols) -> list:
    """Gauss-Jordan on the integer-pair rows a, in place; returns the pivot
    columns.  Each pivot row is first multiplied by its pivot's
    conjugate, so that every pivot is a rational integer; eliminating a
    column then scales the other rows by integers only.  Row i < rank
    stands for its reduced row divided by its pivot a[i][pivots[i]]."""
    rows = len(a)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if a[i][c] or a[i][cols + c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        if a[r][cols + c]:
            a[r] = _combine((a[r][c], -a[r][cols + c]), a[r], (0, 0), a[r], d)
        for i in range(rows):
            if i != r and (a[i][c] or a[i][cols + c]):
                a[i] = _combine((a[r][c], 0), a[i], (a[i][c], a[i][cols + c]), a[r], d)
        pivots.append(c)
        if len(pivots) == rows:
            break
    return pivots


def rref(m):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    The reduced echelon form is unique, so the integer elimination gives
    the one Fraction Gauss-Jordan gives, entry for entry.
    """
    d, a, _ = pair_rows(m)
    cols = len(m[0]) if a else 0
    pivots = _eliminate(d, a, cols)
    out = []
    for i, row in enumerate(a):
        den = row[pivots[i]] if i < len(pivots) else 1
        out.append([pair_value(row[k], row[cols + k], den, d) for k in range(cols)])
    return out, pivots


def rank(m) -> int:
    return len(rref(m)[1])


def solve(m, b):
    """Solve m x = b, m rows x cols and b of length rows, with one
    elimination of [m | b]; see ``solve_augmented``."""
    if not m:
        return [], 0
    return solve_augmented(pair_rows([list(m[i]) + [b[i]] for i in range(len(m))]))


def solve_augmented(system: PairRows):
    """(x, rank of m) for the augmented rows [m | b] of m x = b: x is one
    exact solution with the free variables set to 0, or None when the
    system is inconsistent, and then rank [m | b] = rank m + 1.  Only the
    entries of x become Fraction or Quad."""
    a = list(system.rows)
    cols = len(a[0]) // 2 - 1
    pivots = _eliminate(system.d, a, cols + 1)
    if cols in pivots:
        return None, len(pivots) - 1  # pivot in the rhs column: inconsistent
    x = [Q(0)] * cols
    for row, c in zip(a, pivots):
        x[c] = pair_value(row[cols], row[-1], row[c], system.d)
    return x, len(pivots)


def nullspace(m):
    """Basis of the kernel of m (list of column vectors as lists)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
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


def matvec(m, v):
    return [sum((x * y for x, y in zip(row, v)), Q(0)) for row in m]


def dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Q(0))


def in_span(vectors, v) -> bool:
    """Exact membership of v in span(vectors); an empty set spans {0}."""
    cols = [[vec[i] for vec in vectors] for i in range(len(v))]
    return solve(cols, list(v))[0] is not None


def span_rank(vectors) -> int:
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
            if coeff:
                w = [x - coeff * y for x, y in zip(w, b)]
        if any(w):
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
            if c:
                vec = [x + c * y for x, y in zip(vec, a_vectors[j])]
        # dependent inputs can produce zero or repeated vectors; keep an
        # independent subset only
        if any(vec) and not in_span(out, vec):
            out.append(vec)
    return out


def all_exact(values) -> bool:
    return all(is_exact(x) for x in values)


def vec_is_zero(v) -> bool:
    return not any(v)
