"""Exact scalar arithmetic over Q and real quadratic extensions Q(sqrt(D)).

All exact linear algebra in this package runs over values of type
``int | Fraction | Quad``.  A ``Quad`` is a + b*sqrt(D) with rational a, b
and a fixed squarefree positive integer D; arithmetic between exact
values never leaves the field, and zero tests are exact.  A Quad does
not mix with floats: arithmetic or ordering against one raises TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s*s*d with d squarefree; return (s, d).  Requires n > 0."""
    if n <= 0:
        raise ValueError(f"need a positive integer, got {n}")
    s, d, p = 1, 1, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def _demote(a: Q, b: Q, d: int):
    """Return a + b*sqrt(d) as a Quad, or as a plain rational when b = 0.

    The rational case stays a Fraction on purpose: plain ints would make
    a later x / y between two results fall into float true division.
    """
    if b:
        return Quad(a, b, d)
    return a


class Quad:
    """a + b*sqrt(d) with a, b rational and d a fixed squarefree integer > 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if d <= 1:
            raise ValueError(f"radicand must be a squarefree integer > 1, got {d}")
        self.a = Q(a)
        self.b = Q(b)
        self.d = d

    def _parts(self, other):
        """Common-field view of (self, other) as coefficient pairs, or None."""
        if isinstance(other, Quad):
            if self.b and other.b and self.d != other.d:
                raise ValueError(
                    f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
                )
            d = self.d if self.b else other.d
            return self.a, self.b, other.a, other.b, d
        if isinstance(other, (int, Q)):
            return self.a, self.b, Q(other), Q(0), self.d
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, e, d = p
        return _demote(a + c, b + e, d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, e, d = p
        return _demote(a - c, b - e, d)

    def __rsub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, e, d = p
        return _demote(c - a, e - b, d)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        a, b, c, e, d = p
        return _demote(a * c + b * e * d, a * e + b * c, d)

    __rmul__ = __mul__

    def _inverse(self) -> "Quad":
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero Quad")
        return Quad(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Q)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _demote(self.a / other, self.b / other, self.d)
        if isinstance(other, Quad):
            return self * other._inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Q, Quad)):
            inv = self._inverse()
            return inv * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            return self.b == 0 and self.a == other
        if isinstance(other, Quad):
            if self.b and other.b and self.d != other.d:
                return False
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: the dominant of a^2 and b^2 d decides
        lhs, rhs = a * a, b * b * self.d
        if lhs == rhs:
            return 0
        return (1 if a > 0 else -1) if lhs > rhs else (1 if b > 0 else -1)

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, Quad):
            return diff.sign()
        return (diff > 0) - (diff < 0)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"Quad({self.a}, {self.b}, sqrt={self.d})"


def is_exact(x) -> bool:
    return isinstance(x, (int, Q, Quad))


def exact_div(x, y):
    """Division that stays exact on int, Fraction and Quad operands.

    Plain int operands would otherwise fall into float true division.
    """
    if isinstance(x, int):
        x = Q(x)
    return x / y


def exact_sqrt(q, d: int | None = None):
    """Exact square root of a nonnegative rational, inside Q or Q(sqrt(d)).

    Returns a Fraction when q is a perfect rational square, a Quad with
    radicand d when q = r^2 * d, and raises ValueError otherwise.
    """
    q = Q(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Q(0)
    num, den = q.numerator, q.denominator
    # sqrt(num/den) = sqrt(num*den)/den
    s, rem = squarefree_decompose(num * den)
    if rem == 1:
        return Q(s, den)
    if d is not None and rem == d:
        return Quad(0, Q(s, den), d)
    raise ValueError(f"sqrt of {q} is not in Q" + (f"(sqrt({d}))" if d else ""))


def format_scalar(x) -> str:
    """Canonical string form: 'p/q' for rationals, 'a+b*sqrt(d)' for Quad."""
    if isinstance(x, Quad):
        if x.b == 0:
            return format_scalar(x.a)
        sb = f"+{x.b}" if x.b > 0 else f"-{-x.b}"
        return f"{x.a}{sb}*sqrt({x.d})"
    if isinstance(x, float):
        return repr(x)
    return str(Q(x))
