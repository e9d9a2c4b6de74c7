"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored in ascending degree order with no trailing
zeros, so the zero polynomial is the empty tuple.  An integral
coefficient is a plain ``int``, and integer polynomials stay in ``int``
through products, division by a monic divisor and evaluation at an
``int``.  Only the operations needed by the matrix decompositions are
provided: euclidean division, gcd, inverse modulo a polynomial,
derivative, squarefree part, evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .matrix import Scalar, _scalar


def _normalize(coeffs: Iterable[Scalar]) -> tuple:
    out = list(map(_scalar, coeffs))
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _primitive(coeffs: Sequence[Scalar]) -> list:
    """The integer polynomial with content 1 that is a positive rational
    multiple of ``coeffs``; the zero polynomial stays empty."""
    den = lcm(*(c.denominator for c in coeffs if type(c) is Fraction))
    ints = [int(c * den) for c in coeffs]
    content = gcd(*ints) or 1
    return [c // content for c in ints]


def _pseudo_remainder(a: list, b: list) -> list:
    """A remainder of ``lead(b)**k * a`` by ``b`` over Z, for integer
    coefficient lists with ``b`` nonzero: each step scales by the leading
    coefficient of ``b`` instead of dividing by it."""
    r = list(a)
    d, lead = len(b) - 1, b[-1]
    while len(r) > d:
        top = r.pop()
        shift = len(r) - d
        if lead != 1:
            r = [x * lead for x in r]
        for i in range(d):
            r[shift + i] -= top * b[i]
        while r and not r[-1]:
            r.pop()
    return r


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
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(_normalize(out))

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        quo = [0] * max(len(rem) - d, 0)
        for k in reversed(range(len(quo))):
            q = quo[k] = rem[k + d] if lead == 1 else Fraction(rem[k + d]) / lead
            if q:
                for i, c in enumerate(other.coeffs):
                    rem[k + i] -= q * c
        return Poly(_normalize(quo)), Poly(_normalize(rem[:d]))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        lead = Fraction(self.coeffs[-1])
        return Poly(_normalize(c / lead for c in self.coeffs))

    def derivative(self) -> "Poly":
        return Poly(_normalize(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd, zero when both are zero.  Denominators are cleared
        and the euclidean algorithm runs on primitive integer polynomials:
        each pseudo-remainder has its content divided out, which keeps
        the coefficients as small as the gcd allows."""
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return Poly(tuple(a)).monic()

    def inverse_mod(self, modulus: "Poly") -> "Poly":
        """The v of degree below ``modulus``'s with ``v * self == 1`` modulo
        ``modulus``, by the extended euclidean algorithm.  Raises
        ZeroDivisionError unless ``self`` is a unit modulo ``modulus`` and
        ``modulus`` has degree at least 1."""
        r0, r1 = modulus, self % modulus
        v0, v1 = Poly(), Poly.of(1)
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1, v0, v1 = r1, r, v1, v0 - q * v1
        if r1.is_zero():
            raise ZeroDivisionError("polynomial is not a unit modulo the modulus")
        return v1 * (1 / Fraction(r1.coeffs[0]))

    def squarefree_part(self) -> "Poly":
        """Monic product of the distinct irreducible factors."""
        if self.is_zero():
            raise ZeroDivisionError("squarefree part of the zero polynomial")
        g = self.gcd(self.derivative())
        return (self // g).monic()

    def is_squarefree(self) -> bool:
        return self.gcd(self.derivative()).degree == 0

    def __call__(self, x: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _scalar(acc)

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
