"""Real quadratic orders Z[sqrt(d)] and the Pell equation.

Elements are written x + y*sqrt(d) with integer coordinates in the
basis (1, sqrt(d)).  ``d`` must be an integer >= 2 that is not a
perfect square; it is not required to be squarefree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Tuple

from .errors import InternalError, PreconditionError
from .matrix import Matrix


def _check_d(d: int):
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise PreconditionError("d must be an integer >= 2")
    r = isqrt(d)
    if r * r == d:
        raise PreconditionError("d must not be a perfect square")


@dataclass(frozen=True)
class QuadElem:
    """The element x + y*sqrt(d)."""

    x: int
    y: int
    d: int

    def __post_init__(self):
        _check_d(self.d)
        for v in (self.x, self.y):
            if not isinstance(v, int) or isinstance(v, bool):
                raise PreconditionError("coordinates must be integers")

    def _same_order(self, other: "QuadElem"):
        if self.d != other.d:
            raise PreconditionError("elements live in different orders")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._same_order(other)
        return QuadElem(self.x + other.x, self.y + other.y, self.d)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._same_order(other)
        return QuadElem(self.x - other.x, self.y - other.y, self.d)

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.x, -self.y, self.d)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        self._same_order(other)
        return QuadElem(
            self.x * other.x + self.d * self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.d,
        )

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.x, -self.y, self.d)

    def norm(self) -> int:
        """Field norm x^2 - d y^2.  Equals det of :meth:`mult_matrix`."""
        return self.x * self.x - self.d * self.y * self.y

    def trace(self) -> int:
        return 2 * self.x

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if abs(n) != 1:
            raise PreconditionError("only elements of norm +-1 are invertible in the order")
        c = self.conjugate()
        return c if n == 1 else -c

    def __pow__(self, k: int) -> "QuadElem":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = QuadElem(1, 0, self.d)
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def mult_matrix(self) -> Matrix:
        """Multiplication-by-self on column coordinates in the basis (1, sqrt(d))."""
        return Matrix([[self.x, self.y * self.d], [self.y, self.x]])

    def __str__(self) -> str:
        return f"{self.x} + {self.y}*sqrt({self.d})"


@dataclass(frozen=True)
class QuadOrder:
    """The ring Z + Z*sqrt(d)."""

    d: int

    def __post_init__(self):
        _check_d(self.d)

    def element(self, x: int, y: int) -> QuadElem:
        return QuadElem(x, y, self.d)

    def fundamental_unit(self) -> QuadElem:
        a, b = fundamental_pell(self.d)
        return QuadElem(a, b, self.d)

    def conjugation_matrix(self) -> Matrix:
        return Matrix([[1, 0], [0, -1]])


def fundamental_pell(d: int) -> Tuple[int, int]:
    """Least positive solution (a, b) of a^2 - d b^2 = 1.

    Walks the convergents h_i/k_i of sqrt(d) from a0/1: h_i^2 - d k_i^2 is
    (-1)^(i+1) q_(i+1), q is 1 just at the ends of periods, every solution
    is a convergent and numerators grow, so the first odd i with q_(i+1) = 1
    gives the least solution, which is checked once against the equation.
    """
    _check_d(d)
    a0 = isqrt(d)
    m, q = a0, d - a0 * a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    sign = -1  # (-1)^(i+1) while h/k = h_i/k_i and q = q_(i+1)
    while sign * q != 1:
        a = (a0 + m) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        m = a * q - m
        q = (d - m * m) // q
        sign = -sign
    if h * h - d * k * k != 1:
        raise InternalError("the convergent at the end of the period is not a Pell solution")
    return h, k
