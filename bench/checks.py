"""Checks of the program's outputs that do not reuse its decision code.

The program's objects supply only data: structure constants, the
diagonal inner product, block bases and the coordinate bases in which a
report writes its witnesses.  Every property is then re-evaluated here:

* Ricci tensors from ``structure_np`` with Besse 7.38,
  Ric(X,X) = -1/2 sum |[X,e_i]|^2 - 1/2 B(X,X) + 1/4 sum g([e_i,e_j],X)^2,
  in a g-orthonormal frame (the mean-curvature term vanishes on compact
  groups);
* kernel dimensions of W -> [ad W, A] from a numpy SVD;
* feasible witnesses, exactly over Q(sqrt d) with the ``Surd`` type below
  when the inputs are rational, within ``tol_feas`` otherwise;
* infeasible verdicts, by rebuilding the linear system in floating point
  and requiring a residual well above rounding noise.

A failed property raises ``CheckFailed``.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- exact scalars over Q(sqrt d) ----------------------------------------


class Surd:
    """a + b*sqrt(d) with rational a, b; d = 1 is used for plain rationals."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a, self.b, self.d = a, b, d

    def _lift(self, other):
        if isinstance(other, Surd):
            return other
        return Surd(Fraction(other), Fraction(0), self.d)

    def __add__(self, other):
        o = self._lift(other)
        return Surd(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Surd(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._lift(other)
        return Surd(
            self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        norm = o.a * o.a - o.b * o.b * self.d
        return self * Surd(o.a / norm, -o.b / norm, self.d)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __float__(self):
        return float(self.a) + float(self.b) * self.d ** 0.5


_QUAD_TEXT = re.compile(r"^(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)\*sqrt\((\d+)\)$")


def surd(x, d: int) -> Surd:
    """Lift a program scalar (int, Fraction, Quad) or its report text."""
    if isinstance(x, str):
        m = _QUAD_TEXT.match(x)
        if m is None:
            return Surd(Fraction(x), Fraction(0), d)
        b = Fraction(m[3]) * (-1 if m[2] == "-" else 1)
        require(int(m[4]) == d, f"radicand {m[4]} in a report over Q(sqrt {d})")
        return Surd(Fraction(m[1]), b, d)
    if hasattr(x, "b") and hasattr(x, "d"):  # the program's Quad
        require(x.d == d or not x.b, f"radicand {x.d} in an algebra over Q(sqrt {d})")
        return Surd(Fraction(x.a), Fraction(x.b), d)
    return Surd(Fraction(x), Fraction(0), d)


def is_exact_text(values) -> bool:
    return all(isinstance(v, str) for v in values)


def floats(values, d: int) -> np.ndarray:
    """Report entries (exact text or JSON floats) as a float vector."""
    return np.array([float(surd(v, d)) if isinstance(v, str) else float(v) for v in values])


def brackets_vanish(L, w, vectors) -> bool:
    """[w, v] = 0 for every v, from the structure constants in float."""
    c = np.asarray(L.structure_np)
    x = np.array([float(t) for t in w])
    return all(
        np.abs(_bracket_np(c, x, np.array([float(t) for t in v]))).max() <= 1e-12
        for v in vectors
    )


# -- algebra and metric data ----------------------------------------------


class ExactAlgebra:
    """Bracket and inner product re-evaluated from the structure constants."""

    def __init__(self, L):
        self.n = n = L.dim
        self.d = L.field_d or 1
        for i in range(n):
            for j in range(n):
                require(i == j or not L.inner[i][j], "inner product is not diagonal")
        self.diag = [surd(L.inner[i][i], self.d) for i in range(n)]
        self.table = {}
        for i in range(n):
            for j in range(n):
                terms = [
                    (k, surd(c, self.d)) for k, c in enumerate(L.structure[i][j]) if c
                ]
                if terms:
                    self.table[(i, j)] = terms

    def zero(self):
        return [Surd(Fraction(0), Fraction(0), self.d)] * self.n

    def vec(self, values):
        return [surd(v, self.d) for v in values]

    def bracket(self, x, y):
        out = self.zero()
        xs = [i for i in range(self.n) if x[i]]
        ys = [j for j in range(self.n) if y[j]]
        for i in xs:
            for j in ys:
                terms = self.table.get((i, j))
                if terms:
                    f = x[i] * y[j]
                    for k, c in terms:
                        out[k] = out[k] + f * c
        return out

    def inner(self, x, y):
        tot = Surd(Fraction(0), Fraction(0), self.d)
        for a, g, b in zip(x, self.diag, y):
            if a and b:
                tot = tot + a * g * b
        return tot


class ExactMetric:
    """A = sum_i a_i * (orthogonal projection onto block i)."""

    def __init__(self, alg: ExactAlgebra, metric):
        self.alg = alg
        self.blocks = []
        for a, block in zip(metric.coefficients, metric.decomposition.blocks):
            vecs = [alg.vec(v) for v in block.basis]
            self.blocks.append((surd(a, alg.d), [(v, alg.inner(v, v)) for v in vecs]))

    def apply(self, x):
        out = self.alg.zero()
        for a, vecs in self.blocks:
            for v, vv in vecs:
                c = self.alg.inner(x, v)
                if c:
                    c = a * c / vv
                    out = [o + c * t for o, t in zip(out, v)]
        return out


def metric_matrix_np(L, metric) -> np.ndarray:
    """Matrix of A in algebra coordinates, built from the block bases."""
    G = np.diag([float(L.inner[i][i]) for i in range(L.dim)])
    A = np.zeros((L.dim, L.dim))
    for a, block in zip(metric.coefficients, metric.decomposition.blocks):
        for v in block.basis:
            v = np.array([float(t) for t in v])
            A += float(a) * np.outer(v, v @ G) / float(v @ G @ v)
    return A


def _bracket_np(c, x, y):
    return np.einsum("ijk,i,j->k", c, x, y)


# -- Ricci (Besse 7.38) and kernel dimensions -----------------------------


def ricci_besse(L, metric):
    """(einstein_constant, deviation) with the program's normalisation:
    constant = trace/n, deviation = |Ric - c I|_F / sqrt(n) in a
    g-orthonormal frame."""
    n = L.dim
    c = np.asarray(L.structure_np)
    G = np.diag([float(L.inner[i][i]) for i in range(n)])
    gram = G @ metric_matrix_np(L, metric)
    gram = (gram + gram.T) / 2
    w, V = np.linalg.eigh(gram)
    F = V / np.sqrt(w)[None, :]  # columns are g-orthonormal
    Finv = np.linalg.inv(F)
    D = np.einsum("ia,jb,ijk,ck->abc", F, F, c, Finv)  # [f_a, f_b] in the frame
    ric = (
        -0.5 * np.einsum("aic,bic->ab", D, D)
        - 0.5 * np.einsum("aic,bci->ab", D, D)
        + 0.25 * np.einsum("ija,ijb->ab", D, D)
    )
    ric = (ric + ric.T) / 2
    const = float(np.trace(ric)) / n
    dev = float(np.linalg.norm(ric - const * np.eye(n), "fro")) / n ** 0.5
    return const, dev


def commutation_kernel_np(L, metric):
    """Orthonormal (Euclidean) basis of {W : [ad W, A] = 0}, by SVD."""
    n = L.dim
    c = np.asarray(L.structure_np)
    A = metric_matrix_np(L, metric)
    cols = []
    for k in range(n):
        ad = c[k].T  # ad(e_k)[out, in] = c[k, in, out]
        cols.append((ad @ A - A @ ad).ravel())
    M = np.array(cols).T
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    return vt[rank:].T


def kernel_dim_np(L, metric) -> int:
    return commutation_kernel_np(L, metric).shape[1]


# -- geodesic-orbit certificates ------------------------------------------


def _rel_residual(M, b, x_norm):
    z, *_ = np.linalg.lstsq(M, b, rcond=None)
    r = float(np.linalg.norm(M @ z - b))
    mn = float(np.linalg.norm(M))
    denom = max(float(np.linalg.norm(b)), mn * float(np.linalg.norm(z)), mn * x_norm)
    return r / denom if denom > 0 else 0.0


class GOSystem:
    """One geodesic-orbit formulation, re-derived from its definition.

    kind is "lie_group" (compensator W with [ad W, A] = 0 and
    [AX, X + W] = 0), "geodesic" (direct and reduced forms: Z in the span
    of gens with <[X + Z, Y], AX> = 0 for Y in m) or
    "normal_transitive" ([AX, X + V + W] inside h).  gens is the basis in
    which the program writes its witnesses.
    """

    def __init__(self, kind, L, metric, gens, isotropy=()):
        self.kind = kind
        self.L = L
        self.metric = metric
        self.gens = [list(g) for g in gens]
        self.h = [list(v) for v in isotropy]
        self._exact = None
        self.c = np.asarray(L.structure_np)
        self.G = np.diag([float(L.inner[i][i]) for i in range(L.dim)])
        self.A = metric_matrix_np(L, metric)
        hm = np.array([[float(t) for t in v] for v in self.h]).reshape(-1, L.dim).T
        if hm.size:
            # g-orthogonal projector onto the complement of h
            H = hm @ np.linalg.solve(hm.T @ self.G @ hm, hm.T @ self.G)
        else:
            H = np.zeros((L.dim, L.dim))
        self.P = np.eye(L.dim) - H
        if kind == "lie_group":
            self.sys_gens = commutation_kernel_np(L, metric).T
        else:
            self.sys_gens = np.array([[float(t) for t in g] for g in self.gens])
        U, s, _ = np.linalg.svd(self.P)
        self.m_basis = U[:, s > 1e-9].T  # spans the complement of h

    def exact(self):
        if self._exact is None:
            alg = ExactAlgebra(self.L)
            self._exact = (alg, ExactMetric(alg, self.metric))
        return self._exact

    # witnesses

    def witness_ok_exact(self, X, z) -> bool:
        alg, A = self.exact()
        X = alg.vec(X)
        z = alg.vec(z)
        W = alg.zero()
        for zj, g in zip(z, self.gens):
            if zj:
                W = [w + zj * t for w, t in zip(W, alg.vec(g))]
        AX = A.apply(X)
        XW = [x + w for x, w in zip(X, W)]
        if self.kind == "lie_group":
            if any(alg.bracket(AX, XW)):
                return False
            for i in range(alg.n):
                e = alg.zero()
                e[i] = surd(1, alg.d)
                lhs = alg.bracket(W, A.apply(e))
                rhs = A.apply(alg.bracket(W, e))
                if any(p - q for p, q in zip(lhs, rhs)):
                    return False
            return True
        if self.kind == "normal_transitive":
            r = alg.bracket(AX, XW)
            # r must lie in h: its component orthogonal to h vanishes
            for v in (alg.vec(h) for h in self.h):
                vv = alg.inner(v, v)
                c = alg.inner(r, v) / vv
                r = [a - c * b for a, b in zip(r, v)]
            return not any(r)
        # geodesic form: <[X + Z, Y], AX> = 0 for every basis vector Y of m
        for i in range(alg.n):
            e = alg.zero()
            e[i] = surd(1, alg.d)
            y = [p - q for p, q in zip(e, self._project_h_exact(alg, e))]
            if alg.inner(alg.bracket(XW, y), AX):
                return False
        return True

    def _project_h_exact(self, alg, x):
        out = alg.zero()
        for v in (alg.vec(h) for h in self.h):
            c = alg.inner(x, v) / alg.inner(v, v)
            out = [o + c * t for o, t in zip(out, v)]
        return out

    def witness_residual_float(self, X, z) -> float:
        d = self.L.field_d or 1
        X = floats(X, d)
        W = floats(z, d) @ np.array([[float(t) for t in g] for g in self.gens])
        AX = self.A @ X
        norm = np.linalg.norm
        cmax = float(np.abs(self.c).max())
        scale = cmax * norm(AX) * (norm(X) + norm(W))
        if self.kind == "lie_group":
            r = _bracket_np(self.c, AX, X + W)
            adw = np.einsum("i,ijk->kj", W, self.c)
            comm = norm(adw @ self.A - self.A @ adw) / (cmax * norm(self.A) * max(norm(W), 1e-300))
            return float(max(norm(r) / scale, comm))
        if self.kind == "normal_transitive":
            r = self.P @ _bracket_np(self.c, AX, X + W)
            return float(np.linalg.norm(r)) / scale
        vals = [float(_bracket_np(self.c, X + W, y) @ self.G @ AX) for y in self.m_basis]
        return float(np.linalg.norm(vals)) / scale

    # infeasibility

    def infeasible_residual(self, X) -> float:
        """Relative least-squares residual of the rebuilt float system."""
        X = floats(X, self.L.field_d or 1)
        AX = self.A @ X
        x_norm = float(np.sqrt(X @ self.G @ X))
        if self.kind == "lie_group":
            M = np.array([_bracket_np(self.c, AX, g) for g in self.sys_gens]).T
            b = -_bracket_np(self.c, AX, X)
        elif self.kind == "normal_transitive":
            M = np.array([self.P @ _bracket_np(self.c, AX, g) for g in self.sys_gens]).T
            b = -self.P @ _bracket_np(self.c, AX, X)
        else:
            M = np.array(
                [
                    [_bracket_np(self.c, g, y) @ self.G @ AX for g in self.sys_gens]
                    for y in self.m_basis
                ]
            )
            b = -np.array([_bracket_np(self.c, X, y) @ self.G @ AX for y in self.m_basis])
        if M.size == 0:
            return float(np.linalg.norm(b)) / max(x_norm, 1e-300)
        return _rel_residual(M, b, x_norm)


# Rebuilt residuals below these mark an "infeasible" verdict as unconfirmed:
# far above float64 rounding of an exact system, and a tenth of the
# default infeasibility threshold for a float one.
EXACT_INFEASIBLE_FLOOR = 1e-8
FLOAT_INFEASIBLE_FLOOR = 1e-4


def check_certificate(doc: dict, system: GOSystem, expected: str, tol_feas: float) -> None:
    """Check one go-check report against an expected verdict class.

    expected is "go", "non-go" or "not-go-consistent" (near-boundary
    float metrics: indeterminate and non-go-certified both pass).
    """
    verdict = doc["verdict"]
    if expected == "go":
        require(verdict == "go-consistent", f"expected go-consistent, got {verdict}")
    elif expected == "non-go":
        require(verdict == "non-go-certified", f"expected non-go-certified, got {verdict}")
    else:
        require(
            verdict in ("non-go-certified", "indeterminate"),
            f"near-boundary metric reported {verdict}",
        )
    statuses = {e["status"] for e in doc["checks"]}
    require(doc["checks"], "report has no sampled directions")
    if verdict == "go-consistent":
        require(statuses == {"feasible"}, "go-consistent with a non-feasible direction")
    elif verdict == "non-go-certified":
        require("infeasible" in statuses, "non-go-certified without an infeasible direction")
    for entry in doc["checks"]:
        X = entry["direction"]
        if entry["status"] == "feasible":
            z = entry["witness"]
            require(
                z is not None and len(z) == len(system.gens),
                "witness length differs from the generator count",
            )
            if is_exact_text(X) and is_exact_text(z) and system.metric.is_exact:
                require(
                    system.witness_ok_exact(X, z),
                    "exact witness does not satisfy the geodesic equation",
                )
            else:
                res = system.witness_residual_float(X, z)
                require(res <= tol_feas, f"float witness residual {res:.3e} above {tol_feas}")
        elif entry["status"] == "infeasible":
            floor = EXACT_INFEASIBLE_FLOOR if entry["method"] == "exact" else FLOAT_INFEASIBLE_FLOOR
            res = system.infeasible_residual(X)
            require(res >= floor, f"rebuilt residual {res:.3e} does not confirm infeasibility")
