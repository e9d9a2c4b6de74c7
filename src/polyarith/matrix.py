"""The dense exact matrix and the fraction-free elimination behind it.

This is the core every other module builds on, kept apart so that
reading a document, which needs only :class:`Matrix`, does not load the
lattice, polynomial and exterior routines of :mod:`polyarith.linalg`.
Entries are ``int`` or ``fractions.Fraction``; an integral entry is
always a plain ``int``.  Vectors are plain tuples.  ``M.apply(v)``
treats ``v`` as a column, ``M.apply_left(v)`` as a row.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Tuple, Union

from .errors import PreconditionError

Scalar = Union[int, Fraction]
Vector = Tuple[Scalar, ...]
# A sparse column lists the (row, value) pairs of its nonzero entries,
# rows increasing; a sparse row lists (column, value) pairs the same way.
SparseColumn = Tuple[Tuple[int, Scalar], ...]


def _scalar(c) -> Scalar:
    """``c`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


_INT_ONLY = frozenset((int,))


def _all_int(row: Sequence) -> bool:
    """True when every entry is a plain ``int`` (not ``bool``)."""
    return set(map(type, row)) <= _INT_ONLY


def _norm_row(row) -> tuple:
    """A row as a tuple of normalised entries.  A list or tuple of plain
    ``int`` is taken as it is, and a tuple is shared rather than copied."""
    if (type(row) is tuple or type(row) is list) and _all_int(row):
        return row if type(row) is tuple else tuple(row)
    return tuple(map(_scalar, row))


class Matrix:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("nrows", "ncols", "entries", "_forward", "_inverse")

    def __init__(self, rows: Iterable[Iterable[Scalar]], ncols: Optional[int] = None):
        ent = tuple(map(_norm_row, rows))
        if ent:
            width = len(ent[0])
            if any(len(r) != width for r in ent):
                raise PreconditionError("ragged rows")
            if ncols is not None and ncols != width:
                raise PreconditionError(f"expected {ncols} columns, got {width}")
        else:
            width = 0 if ncols is None else ncols
        self.entries: tuple = ent
        self.nrows: int = len(ent)
        self.ncols: int = width

    # construction helpers

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(_identity_rows(n), ncols=n)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def diagonal(diag: Sequence[Scalar]) -> "Matrix":
        n = len(diag)
        return Matrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[Scalar]], nrows: Optional[int] = None) -> "Matrix":
        if not cols:
            return Matrix([[] for _ in range(nrows or 0)], ncols=0)
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise PreconditionError("ragged columns")
        if nrows is not None and nrows != height:
            raise PreconditionError(f"expected {nrows} rows, got {height}")
        return Matrix([[c[i] for c in cols] for i in range(height)], ncols=len(cols))

    # basic access

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def to_lists(self):
        return [list(r) for r in self.entries]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        return Matrix([[self.entries[i][j] for j in cols] for i in rows], ncols=len(cols))

    # predicates

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for r in self.entries for x in r)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def is_identity(self) -> bool:
        return self.is_square() and all(
            x == (1 if i == j else 0) for i, r in enumerate(self.entries) for j, x in enumerate(r)
        )

    # arithmetic

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.entries))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
            ncols=self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in r] for r in self.entries], ncols=self.ncols)

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise PreconditionError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise PreconditionError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = [other.col(j) for j in range(other.ncols)]
        if _all_int(itertools.chain(*self.entries, *other.entries)):
            rows = [[sum(map(operator.mul, r, c)) for c in cols] for r in self.entries]
        else:
            rows = [[_dot(r, c) for c in cols] for r in self.entries]
        return Matrix(rows, ncols=other.ncols)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s: Scalar) -> "Matrix":
        return Matrix([[s * x for x in r] for r in self.entries], ncols=self.ncols)

    def __pow__(self, k: int) -> "Matrix":
        _require_square(self, "matrix power")
        if k < 0:
            return self.inverse() ** (-k)
        result = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise PreconditionError("vector length mismatch")
        return tuple(_scalar(_dot(r, v)) for r in self.entries)

    def apply_left(self, v: Sequence[Scalar]) -> Vector:
        """Row vector times matrix."""
        if len(v) != self.nrows:
            raise PreconditionError("vector length mismatch")
        if not self.nrows:
            return (0,) * self.ncols
        return tuple(_scalar(_dot(v, col)) for col in zip(*self.entries))

    def transpose(self) -> "Matrix":
        return Matrix([self.col(j) for j in range(self.ncols)], ncols=self.nrows)

    def trace(self) -> Scalar:
        _require_square(self, "trace")
        return _scalar(sum(self.entries[i][i] for i in range(self.nrows)) if self.nrows else 0)

    def det(self) -> Scalar:
        """The determinant, read off the kept forward pass."""
        return self._forward_pass("determinant")[2]

    def inverse(self) -> "Matrix":
        """M^-1, kept: U M^-1 = L solved from the last row up over the kept pass
        [U | L] (Nakos, Turner & Williams 1997); d M^-1, d the last pivot, is integral."""
        kept = getattr(self, "_inverse", None)
        if kept is not None:
            return kept
        rows, d, det = self._forward_pass("inverse")
        if not det:
            raise PreconditionError("matrix is singular")
        n, unit = self.nrows, d in (1, -1)  # for d = +-1, solve for M^-1 itself
        inv = [None] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            acc = row[n:] if unit else [d * x for x in row[n:]]
            for u, x in zip(row[i + 1 : n], inv[i + 1 :]):
                if u:
                    acc = [a - u * y for a, y in zip(acc, x)]
            p = row[i]
            inv[i] = [a // p for a in acc]
        self._inverse = Matrix(inv if unit else [[_quotient(x, d) for x in r] for r in inv], ncols=n)
        return self._inverse

    def _forward_pass(self, what: str) -> tuple:
        """[U | L], the last pivot d and det M of one forward pass on [M | I], kept."""
        kept = getattr(self, "_forward", None)
        if kept is not None:
            return kept
        _require_square(self, what)
        ent, n = self.entries, self.nrows
        aug = [[*r, *e] for r, e in zip(ent, _identity_rows(n))]
        rows, scale = (aug, 1) if all(map(_all_int, ent)) else _integer_rows(aug)
        rows, pivots, d, sign = _eliminate(rows, n, forward=True)
        self._forward = rows, d, 0 if len(pivots) < n else _quotient(sign * d, scale)
        return self._forward

    def rank(self) -> int:
        return len(_eliminate(_integer_rows(self.entries)[0], self.ncols, forward=True)[1])


def _identity_rows(n: int) -> list:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    return sum(x * y for x, y in zip(a, b) if x)


def _require_square(m: Matrix, what: str):
    if not m.is_square():
        raise PreconditionError(f"{what} needs a square matrix")


def _require_integral(m: Matrix, what: str):
    if not m.is_integral():
        raise PreconditionError(f"{what} needs an integer matrix")


# ---------------------------------------------------------------------------
# rational elimination


def _integer_rows(rows) -> Tuple[list, int]:
    """Each row times the lcm of its denominators, as ``int`` lists, and
    the product of those multipliers.  Scaling rows changes neither the
    reduced row echelon form nor the pivots."""
    out = []
    scale = 1
    for row in rows:
        if _all_int(row):
            out.append(list(row))
            continue
        fr = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in fr))
        out.append([x.numerator * (s // x.denominator) for x in fr])
        scale *= s
    return out, scale


def _quotient(x: int, d: int) -> Scalar:
    """``x / d`` as an ``int`` when it is one, else as a ``Fraction``."""
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def _eliminate(rows: list, ncols: int, forward: bool = False):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows,
    pivoting in the first ``ncols`` columns; ``rows`` is reduced in place.

    Each step replaces every other row by ``(p * row - f * pivot_row) //
    prev``, with ``p`` the new pivot, ``f`` the row's entry in the pivot
    column and ``prev`` the previous pivot, and a row with ``f == 0`` by
    ``p * row // prev``.  By Sylvester's identity every entry stays a minor
    of the input, so each division is exact, and at the end every pivot
    entry equals the last pivot ``d``: the pivot rows divided by ``d`` are
    the reduced row echelon form, and ``sign * d`` is the determinant of
    the pivot rows and columns, ``sign`` being the parity of the row swaps.
    Returns ``(rows, pivots, d, sign)``.

    The scaling by ``p / prev`` is lazy.  The factors a row misses multiply
    to ``prev / since``, ``since`` being the pivot of its last update, so
    its next update divides by ``since`` in place of ``prev``, a pivot row
    is first scaled by ``prev / since``, and so is every row at the end.
    With ``forward`` a step clears only the rows below the pivot (Bareiss
    1968), which finds the same pivots and ``d``, and the final scaling is
    skipped: the rows are then an echelon form, not the reduced one.
    """
    nrows = len(rows)
    pivots = []
    prev = sign = 1
    since = [1] * nrows
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            since[r], since[piv] = since[piv], since[r]
            sign = -sign
        if since[r] != prev:
            rows[r] = [x * prev // since[r] for x in rows[r]]
        prow = rows[r]
        p = since[r] = prow[c]
        for i in range(r + 1, nrows) if forward else itertools.chain(range(r), range(r + 1, nrows)):
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(p * x - f * y) // since[i] for x, y in zip(row, prow)]
                since[i] = p
        pivots.append(c)
        prev = p
        r += 1
    if not forward:
        for i, s in enumerate(since):
            if s != prev:
                rows[i] = [x * prev // s for x in rows[i]]
    return rows, pivots, prev, sign
