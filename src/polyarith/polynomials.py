"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored in ascending degree order with no trailing
zeros, so the zero polynomial is the empty tuple.  Only the operations
needed by the matrix decompositions are provided: euclidean division,
gcd, derivative, squarefree part, evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _normalize(coeffs: Iterable[Scalar]) -> tuple:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(int(c) if c.denominator == 1 else c for c in out)


@dataclass(frozen=True)
class Poly:
    """Polynomial over Q, ``coeffs[i]`` multiplying ``x**i``."""

    coeffs: tuple = ()

    @staticmethod
    def of(*coeffs: Scalar) -> "Poly":
        return Poly(_normalize(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(_normalize(out))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(_normalize(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(_normalize(out))

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        d = other.degree
        lead = Fraction(other.coeffs[-1])
        quo = [Fraction(0)] * max(len(rem) - d, 0)
        for k in reversed(range(len(quo))):
            q = quo[k] = rem[k + d] / lead
            if q:
                for i, c in enumerate(other.coeffs):
                    rem[k + i] -= q * c
        return Poly(_normalize(quo)), Poly(_normalize(rem[:d]))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = Fraction(self.coeffs[-1])
        return Poly(_normalize(c / lead for c in self.coeffs))

    def derivative(self) -> "Poly":
        return Poly(_normalize(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by the euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def squarefree_part(self) -> "Poly":
        """Monic product of the distinct irreducible factors."""
        if self.is_zero():
            raise ZeroDivisionError("squarefree part of the zero polynomial")
        g = self.gcd(self.derivative())
        return (self // g).monic()

    def is_squarefree(self) -> bool:
        return self.gcd(self.derivative()).degree == 0

    def __call__(self, x: Scalar) -> Scalar:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return int(acc) if acc.denominator == 1 else acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)
