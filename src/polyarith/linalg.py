"""Exact dense linear algebra over the rationals and over integer lattices.

No floating point anywhere: matrix entries are ``int`` or
``fractions.Fraction`` and every routine is deterministic, so repeated
runs produce identical results.

Conventions
-----------
* Hermite form is row style.  ``hnf(M)`` returns ``(H, U)`` with ``U``
  unimodular, ``U * M == H``, ``H`` in row echelon form with positive
  pivots and every entry above a pivot reduced into ``[0, pivot)``.
  Rows join the reduction one at a time, as in Kannan & Bachem (1979),
  which keeps intermediate entries small.
* ``snf(M)`` returns a :class:`SmithDecomposition` with
  ``U * M * V == D``, nonnegative diagonal, each entry dividing the next.
  It is built from Hermite reductions of the rows and of the columns, on
  the same row kernel as ``hnf``.  ``invariant_factors(M)`` runs the same
  reductions without witnesses and returns the nonzero diagonal.
* ``kernel_lattice(M)`` returns a basis (matrix rows, in Hermite form)
  of the saturated lattice of integer vectors ``x`` with ``M x = 0``.
  Saturated means every integer vector of the rational kernel is an
  integer combination of the basis.
* :class:`Matrix` and the elimination behind it live in
  :mod:`polyarith.matrix`, which needs neither this module nor
  :mod:`polyarith.polynomials`; they are imported here, so that each is
  still ``polyarith.linalg.X``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Dict, Optional, Sequence, Tuple, Union

from .errors import InternalError, PreconditionError
from .matrix import (
    _INT_ONLY,
    Matrix,
    Scalar,
    SparseColumn,
    Vector,
    _all_int,
    _dot,
    _eliminate,
    _identity_rows,
    _integer_rows,
    _norm_row,
    _quotient,
    _require_integral,
    _require_square,
    _scalar,
)
from .polynomials import Poly


def block_diag(*mats: Matrix) -> Matrix:
    total_r = sum(m.nrows for m in mats)
    total_c = sum(m.ncols for m in mats)
    rows = [[0] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.nrows):
            for j in range(m.ncols):
                rows[r0 + i][c0 + j] = m.entries[i][j]
        r0 += m.nrows
        c0 += m.ncols
    return Matrix(rows, ncols=total_c)


def vec(m: Matrix) -> Vector:
    """Rows of ``m`` concatenated into one tuple."""
    return tuple(itertools.chain.from_iterable(m.entries))


# ---------------------------------------------------------------------------
# integer lattice routines


def _xgcd(a: int, b: int):
    """Returns ``(g, x, y)`` with ``g = ax + by`` and ``g = gcd(a, b) >= 0``."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0



def _hermite_rows(rows: list, ncols: int) -> None:
    """Hermite-reduce integer rows in place, with pivots only in the first
    ``ncols`` columns: any later columns ride along, so ``[M | I]`` ends
    as ``[H | U]`` with ``U * M == H``."""
    n = len(rows)
    r = 0
    for c in range(ncols):
        if r == n:
            break
        piv, best = None, 0
        for i in range(r, n):
            x = rows[i][c]
            if x and (piv is None or abs(x) < best):
                piv, best = i, abs(x)
        if piv is None:
            continue
        top = rows[piv]
        rows[piv] = rows[r]
        for i in range(r + 1, n):
            x = rows[i][c]
            if x == 0:
                continue
            row = rows[i]
            a = top[c]
            g, s, t = _xgcd(a, x)
            p, q = a // g, x // g
            if t == 0 and s == 1:  # a divides x: only row i changes
                rows[i] = [z - q * y for y, z in zip(top, row)]
            else:
                top, rows[i] = (
                    [s * y + t * z for y, z in zip(top, row)],
                    [p * z - q * y for y, z in zip(top, row)],
                )
        if top[c] < 0:
            top = [-y for y in top]
        rows[r] = top
        a = top[c]
        for i in range(r):
            q = rows[i][c] // a
            if q:
                rows[i] = [y - q * z for y, z in zip(rows[i], top)]
        r += 1


def _add_rows(rows: Sequence, ncols: int) -> list:
    """The rows Hermite-reduced as by :func:`_hermite_rows`, fed to it one
    at a time as in Kannan & Bachem (1979), so each new row meets rows
    already reduced above their pivots.  Reducing a dense matrix in one go
    lets intermediate entries grow: on a seeded random 40 x 45 matrix with
    entries in [-9, 9] that takes about 400 times as long.  Returns a new
    list and leaves ``rows`` as it was."""
    out: list = []
    for row in rows:
        out.append(row)
        _hermite_rows(out, ncols)
    return out


def _hermite_split(a: list, w: list, ncols: int) -> Tuple[list, list]:
    """The two halves of the rows of ``[a | w]`` reduced by :func:`_add_rows`,
    ``a`` and ``w`` being row lists and ``a`` having ``ncols`` columns."""
    rows = _add_rows([x + y for x, y in zip(a, w)], ncols)
    return [r[:ncols] for r in rows], [r[ncols:] for r in rows]


def hnf(m: Matrix) -> Tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U`` unimodular and ``U * m == H``.  ``H``
    is in row echelon form with positive pivots, entries above each
    pivot reduced into ``[0, pivot)``, zero rows at the bottom.  ``H``
    depends only on the row lattice of ``m``, and so does ``U`` when
    ``H`` has no zero row.
    """
    _require_integral(m, "hnf")
    nr, nc = m.nrows, m.ncols
    h, u = _hermite_split(m.to_lists(), _identity_rows(nr), nc)
    return Matrix(h, ncols=nc), Matrix(u, ncols=nr)


def row_hermite_basis(m: Matrix) -> Matrix:
    """Hermite basis of the lattice spanned by the rows (zero rows dropped)."""
    _require_integral(m, "hnf")
    return Matrix([r for r in _add_rows(m.entries, m.ncols) if any(r)], ncols=m.ncols)


@dataclass(frozen=True)
class SmithDecomposition:
    """Witnessed Smith normal form: ``U * M * V == D``."""

    d: Matrix
    u: Matrix
    v: Matrix

    @property
    def invariant_factors(self) -> Tuple[int, ...]:
        k = min(self.d.nrows, self.d.ncols)
        return tuple(self.d[i, i] for i in range(k) if self.d[i, i] != 0)


def _is_diagonal(a: list) -> bool:
    return all(x == 0 or i == j for i, row in enumerate(a) for j, x in enumerate(row))


def _gcd_lcm(a: list, u: list, vt: list) -> None:
    """Turns each diagonal pair ``x, y`` of the diagonal ``a`` with ``x``
    not dividing ``y`` into ``gcd, lcm`` in place, by a 2 x 2 unimodular
    transform on the rows ``u`` and on the columns ``vt``."""
    limit = min(len(a), len(vt))
    for i in range(limit):
        for j in range(i + 1, limit):
            x, y = a[i][i], a[j][j]
            if x == 0 or y % x == 0:
                continue
            # rows [[s, t], [-y/g, x/g]] and columns [[1, -t*y/g], [1, s*x/g]]
            # send diag(x, y) to diag(g, lcm)
            g, s, t = _xgcd(x, y)
            p, q = x // g, y // g
            a[i][i], a[j][j] = g, p * y
            u[i], u[j] = (
                [s * e + t * f for e, f in zip(u[i], u[j])],
                [-q * e + p * f for e, f in zip(u[i], u[j])],
            )
            vt[i], vt[j] = (
                [e + f for e, f in zip(vt[i], vt[j])],
                [-t * q * e + s * p * f for e, f in zip(vt[i], vt[j])],
            )


def _smith(a: list, u: list, vt: list) -> Tuple[list, list, list]:
    """The Smith reduction behind :func:`snf` and :func:`invariant_factors`.

    ``a`` holds the integer rows, ``u`` one witness row per row of ``a``
    and ``vt`` one per column; every row operation also acts on ``u`` and
    every column operation on ``vt``.  Identity rows give the witnesses
    ``U`` and ``V^T``; zero-width rows give none and cost nothing.  Returns
    the diagonal and both witnesses, after checking the divisibility
    chain."""
    nr, nc = len(a), len(vt)
    while True:
        a, u = _hermite_split(a, u, nc)
        if _is_diagonal(a):
            break
        at, vt = _hermite_split([list(c) for c in zip(*a)], vt, nr)
        a = [list(r) for r in zip(*at)]
        if _is_diagonal(a):
            break
    _gcd_lcm(a, u, vt)
    for i in range(min(nr, nc) - 1):
        di, dj = a[i][i], a[i + 1][i + 1]
        if di == 0 and dj != 0:
            raise InternalError("smith diagonal out of order")
        if di != 0 and dj % di != 0:
            raise InternalError("smith divisibility chain broken")
    return a, u, vt


def snf(m: Matrix) -> SmithDecomposition:
    """Smith normal form with unimodular witnesses.

    Diagonal entries are nonnegative and each divides the next.  As in
    Kannan & Bachem (1979), the rows of ``[A | U]`` and of ``[A^T | V^T]``
    are Hermite-reduced in turn until ``A`` is diagonal, always starting
    with the rows so that the diagonal is nonnegative.  Then each diagonal
    pair ``x, y`` with ``x`` not dividing ``y`` becomes ``gcd, lcm`` by a
    2 x 2 unimodular transform on each side.
    """
    _require_integral(m, "snf")
    nr, nc = m.nrows, m.ncols
    a, u, vt = _smith(m.to_lists(), _identity_rows(nr), _identity_rows(nc))
    return SmithDecomposition(Matrix(a, ncols=nc), Matrix(u, ncols=nr), Matrix.from_cols(vt, nrows=nc))


def invariant_factors(m: Matrix) -> Tuple[int, ...]:
    """The nonzero invariant factors of ``m``, smallest first: the same
    as ``snf(m).invariant_factors``, by the same passes with no witness."""
    _require_integral(m, "invariant_factors")
    a, _, _ = _smith(m.to_lists(), [[]] * m.nrows, [[]] * m.ncols)
    return tuple(a[i][i] for i in range(min(m.nrows, m.ncols)) if a[i][i])


def kernel_lattice(m: Matrix) -> Matrix:
    """Hermite basis (rows) of the saturated integer kernel ``{x : m x = 0}``."""
    _require_integral(m, "kernel_lattice")
    nr, nc = m.nrows, m.ncols
    h, u = _hermite_split(m.transpose().to_lists(), _identity_rows(nc), nr)
    return row_hermite_basis(Matrix([w for r, w in zip(h, u) if not any(r)], ncols=nc))


def lattice_coordinates(basis: Matrix, v: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Integer coordinates of ``v`` in the row lattice of ``basis``, or None.

    ``basis`` rows need not be in Hermite form but must be independent.
    """
    return _hermite_coordinates(*_hermite_pair(basis), v)


def _is_hermite_basis(m: Matrix) -> bool:
    """True when ``m`` is its own Hermite form with no zero row: pivots rise
    and are positive, and every entry above a pivot lies in [0, pivot).
    Then ``hnf(m) == (m, I)``, H being unique and m of full row rank.  One
    pass over the entries, no elimination."""
    last = -1
    for i, row in enumerate(m.entries):
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None or p <= last or row[p] < 0:
            return False
        if any(not 0 <= above[p] < row[p] for above in m.entries[:i]):
            return False
        last = p
    return True


def _hermite_pair(basis: Matrix) -> Tuple[Matrix, Optional[Matrix], Tuple[int, ...]]:
    """``hnf(basis)`` for :func:`_hermite_coordinates`, or ``(basis, None)``,
    None standing for U = I, when the basis is already a Hermite basis;
    then the pivot column of each nonzero row of H."""
    _require_integral(basis, "lattice_coordinates")
    h, u = (basis, None) if _is_hermite_basis(basis) else hnf(basis)
    return h, u, tuple(next(j for j, x in enumerate(row) if x) for row in h.entries if any(row))


def _hermite_coordinates(
    h: Matrix, u: Optional[Matrix], pivots: Sequence[int], v: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    """Back-substitution behind :func:`lattice_coordinates`, given
    ``(H, U) = hnf(basis)`` and the pivots of H's nonzero rows; U = None
    is the identity, so the coordinates in H are the answer."""
    if len(v) != h.ncols:
        raise PreconditionError("vector length mismatch")
    if any(not isinstance(x, int) for x in v):
        raise PreconditionError("lattice_coordinates needs an integer vector")
    rem = list(v)
    y = [0] * h.nrows
    for i, p in enumerate(pivots):
        q, r = divmod(rem[p], h.entries[i][p])
        if r != 0:
            return None
        y[i] = q
        if q:
            rem = [x - q * hx for x, hx in zip(rem, h.entries[i])]
    if any(rem):
        return None
    return tuple(y) if u is None else u.apply_left(y)


# ---------------------------------------------------------------------------
# rational elimination


def _rref(rows, ncols):
    """Reduced row echelon form; returns ``(rows, pivot_columns)``."""
    rows, pivots, d, _ = _eliminate(_integer_rows(rows)[0], ncols)
    if d != 1:
        for i in range(len(pivots)):
            rows[i] = [_quotient(x, d) for x in rows[i]]
    return rows, pivots


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    rows, pivots = _rref(m.to_lists(), m.ncols)
    return Matrix(rows, ncols=m.ncols), tuple(pivots)


def rational_kernel(m: Matrix) -> Matrix:
    """Basis (rows) of the kernel ``{x : m x = 0}`` over Q, in a canonical form.

    One basis vector per free column, carrying entry 1 there.
    """
    rows, pivots = _rref(m.to_lists(), m.ncols)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for f in free:
        vecr = [0] * m.ncols
        vecr[f] = 1
        for i, p in enumerate(pivots):
            vecr[p] = -rows[i][f]
        basis.append(vecr)
    return Matrix(basis, ncols=m.ncols)


def solve(a: Matrix, b: Sequence[Scalar]) -> Optional[Vector]:
    """One exact solution of ``a x = b`` (free variables set to 0), or None."""
    if len(b) != a.nrows:
        raise PreconditionError("right hand side length mismatch")
    aug = [list(r) + [b[i]] for i, r in enumerate(a.entries)]
    rows, pivots = _rref(aug, a.ncols + 1)
    if a.ncols in pivots:
        return None
    x = [0] * a.ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][a.ncols]
    return tuple(x)


# ---------------------------------------------------------------------------
# characteristic structure


def _cleared(rows) -> Tuple[int, list]:
    """e, the lcm of the denominators of the entries, and the rows times e
    as ``int`` lists."""
    e = lcm(*(x.denominator for r in rows for x in r if type(x) is Fraction))
    return e, [[int(x * e) for x in r] for r in rows]


def _int_product(a: list, b: list) -> list:
    """The product of two square ``int`` matrices given as lists of rows,
    over the nonzero entries only."""
    out = []
    for row in a:
        acc = [0] * len(row)
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def _int_powers(a: list, top: int) -> list:
    """A^0, A^1, .. A^top of the square ``int`` rows A, as row lists, up to
    the first zero power, which is left out: a power past the end of the
    list is zero.  A^0 is always there, even when top < 0."""
    powers = [_identity_rows(len(a))]
    for k in range(1, top + 1):
        power = a if k == 1 else _int_product(powers[-1], a)
        if not any(map(any, power)):
            break
        powers.append(power)
    return powers


def _power_sum(coeffs: Sequence[Scalar], e: int, powers: list) -> Matrix:
    """The sum of c_k (A / e)^k, A^k being ``powers[k]`` and zero past the
    end of the list.  With s the lcm of the denominators of the c_k / e^k,
    the sum times s is taken in ``int`` and divided by s once; the c_0
    term goes straight onto the diagonal."""
    n = len(powers[0])
    terms = [(Fraction(c, e**k), k) for k, c in enumerate(coeffs[: len(powers)]) if c]
    s = lcm(*(t.denominator for t, _ in terms))
    scaled = {k: t.numerator * (s // t.denominator) for t, k in terms}
    c0 = scaled.pop(0, 0)
    total = [[0] * i + [c0] + [0] * (n - 1 - i) for i in range(n)]
    for k, f in scaled.items():
        for row, p_row in zip(total, powers[k]):
            for j, v in enumerate(p_row):
                if v:
                    row[j] += f * v
    return Matrix([[_quotient(v, s) for v in row] for row in total], ncols=n)


def char_poly(a: Matrix) -> Poly:
    """Characteristic polynomial ``det(xI - a)``, monic, by Newton's
    identities over Z.  With ``a = A / e``, e the lcm of the denominators,
    the coefficient c_k of x^(n - k) in det(xI - A) is the integer with
    k c_k = -(c_(k-1) tr A + .. + c_0 tr A^k), and is divided by e^k once."""
    _require_square(a, "char_poly")
    n = a.nrows
    e, scaled = _cleared(a.entries)
    traces = [sum(p[i][i] for i in range(n)) for p in _int_powers(scaled, n)]
    traces += [0] * (n + 1 - len(traces))
    desc = [1]
    for k in range(1, n + 1):
        desc.append(-sum(desc[k - i] * traces[i] for i in range(1, k + 1)) // k)
    return Poly.of(*reversed([Fraction(c, e**k) for k, c in enumerate(desc)]))


def min_poly(a: Matrix) -> Poly:
    """Minimal polynomial of ``a``, monic.  Divides :func:`char_poly`."""
    _require_square(a, "min_poly")
    n = a.nrows
    e, scaled = _cleared(a.entries)  # a = A / e with A in int
    vecs = [list(itertools.chain(*p)) for p in _int_powers(scaled, n)]
    vecs += [[0] * (n * n)] * (n + 1 - len(vecs))
    # columns vec(A^0), .., vec(A^n); once A^k depends on the lower powers
    # so do all higher ones, so the pivots are 0..k-1 and column k holds
    # the coordinates r_i of A^k in the lower powers: a^k is the sum of
    # r_i e^(i - k) a^i
    reduced, pivots = _rref(list(zip(*vecs)), n + 1)
    k = len(pivots)
    if k > n or pivots != list(range(k)):
        raise InternalError("no annihilating polynomial of degree <= n found")
    return Poly.of(*(-reduced[i][k] * Fraction(e**i, e**k) for i in range(k)), 1)


def poly_eval(p: Poly, a: Matrix) -> Matrix:
    """``p(a)``: with ``a = A / e``, the sum of the coefficients times the
    powers of A over e^k (:func:`_power_sum`)."""
    _require_square(a, "poly_eval")
    e, scaled = _cleared(a.entries)
    return _power_sum(p.coeffs, e, _int_powers(scaled, p.degree))


@dataclass(frozen=True)
class JordanPair:
    """Multiplicative Jordan decomposition ``a == semisimple * unipotent``.
    ``poly`` is the minimal polynomial of ``semisimple``, which a verdict
    reads; as a function of ``semisimple`` it is left out of repr and ==."""

    semisimple: Matrix
    unipotent: Matrix
    poly: Poly = field(repr=False, compare=False)


def _compose(p: Poly, t: Poly, m: Poly) -> Poly:
    """``p(t)`` modulo ``m``, by Horner's rule."""
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = (acc * t + Poly.of(c)) % m
    return acc


def jordan_chevalley(a: Matrix) -> JordanPair:
    """Multiplicative Jordan decomposition over Q.

    Returns ``JordanPair(s, u, p)`` with ``s * u == u * s == a``, the
    minimal polynomial p of ``s`` squarefree, and ``u - I`` nilpotent.
    The semisimple factor is a polynomial t(a) (Chevalley), found by
    Newton's iteration in Q[x]/(m), m the minimal polynomial of ``a``:
    with g = gcd(m, m') and p = m / g, start from t = x and step
    t <- t - p(t) w mod m, w the inverse of p'(t) modulo g.  Every t is
    x modulo p, so p divides p(t) and p(t) w mod m depends on w only
    modulo m / p = g.  Each step doubles the multiplicity cleared, and
    no factor of m has multiplicity above deg g + 1.  Then s = t(a) by
    one matrix evaluation, u = s^-1 a, and p(s) = 0 and u s = a are
    checked exactly on the matrices.
    """
    _require_square(a, "jordan_chevalley")
    m = min_poly(a)
    if m.coeffs[0] == 0:
        raise PreconditionError("jordan_chevalley needs an invertible matrix")
    g = m.gcd(m.derivative())
    p = m // g
    dp = p.derivative()
    t, cleared = Poly.of(0, 1), 1
    while cleared <= g.degree:
        t = t - (_compose(p, t, m) * _compose(dp, t, g).inverse_mod(g)) % m
        cleared *= 2
    s = poly_eval(t, a)
    if not poly_eval(p, s).is_zero():
        raise InternalError(f"jordan_chevalley, n = {a.nrows}: the semisimple factor is not a root of p")
    u = s.inverse() * a
    if u * s != a:
        raise InternalError(f"jordan_chevalley, n = {a.nrows}: the factors do not commute, u s != a")
    return JordanPair(s, u, p)


def _totient(m: int) -> int:
    phi = m
    for p in _prime_factors(m):
        phi -= phi // p
    return phi


def _prime_factors(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=None)
def _cyclotomic(m: int) -> Poly:
    """Phi_m: x^m - 1 over Phi_k for each proper divisor k of m."""
    p = Poly.of(-1, *[0] * (m - 1), 1)
    for k in range(1, m):
        if m % k == 0:
            p //= _cyclotomic(k)
    return p


def _cyclotomic_order(poly: Poly) -> Optional[int]:
    """Order of a matrix with minimal polynomial ``poly``, or None if
    infinite.  a^k = I exactly when ``poly`` divides x^k - 1, the product
    of Phi_m over m | k.  So the order is the lcm of the m whose Phi_m
    divides it, when those factors exhaust it; a singular matrix keeps x,
    and a repeated factor keeps a Phi_m."""
    rest, order = poly, 1
    # phi(m) >= sqrt(m/2), so phi(m) <= deg forces m <= 2 deg^2
    for m in range(1, 2 * poly.degree**2 + 3):
        if _totient(m) <= rest.degree:
            quo, rem = rest.divmod(_cyclotomic(m))
            if rem.is_zero():
                rest, order = quo, lcm(order, m)
    return order if rest == Poly.of(1) else None


def finite_order(a: Matrix) -> Optional[int]:
    """Multiplicative order of ``a`` in GL(n, Q), or None if infinite."""
    _require_square(a, "finite_order")
    return _cyclotomic_order(min_poly(a))


def nilpotency_index(a: Matrix) -> Optional[int]:
    """Smallest k >= 1 with ``a**k == 0``, or None if not nilpotent."""
    _require_square(a, "nilpotency_index")
    k = len(_int_powers(_cleared(a.entries)[1], a.nrows + 1))
    return k if k <= a.nrows + 1 else None


def _nilpotent_series(nil: Matrix, start: int, coeff, kind: str) -> Matrix:
    """start I + sum of coeff(k) nil^k over k >= 1, up to the first zero
    power: nil^n or earlier when nil is nilpotent, nil^1 when n = 0;
    refused when nil^(n + 1) is not zero.  One :func:`_power_sum` over the
    powers of c nil in ``int``, c the lcm of the denominators of nil."""
    c, scaled = _cleared(nil.entries)
    powers = _int_powers(scaled, nil.nrows + 1)
    if len(powers) > nil.nrows + 1:
        raise PreconditionError(f"matrix is not {kind}")
    return _power_sum([start, *map(coeff, range(1, len(powers)))], c, powers)


def nilpotent_log(u: Matrix) -> Matrix:
    """Logarithm of a unipotent matrix, a finite exact series."""
    _require_square(u, "nilpotent_log")
    nil = u - Matrix.identity(u.nrows)
    return _nilpotent_series(nil, 0, lambda k: Fraction(-(-1) ** k, k), "unipotent")


def nilpotent_exp(m: Matrix) -> Matrix:
    """Exponential of a nilpotent matrix, a finite exact series."""
    _require_square(m, "nilpotent_exp")
    return _nilpotent_series(m, 1, lambda k: Fraction(1, factorial(k)), "nilpotent")


def _dense_rows(cols: Sequence[SparseColumn], rows: Union[int, Sequence[int], None] = None) -> list:
    """The sparse columns as dense row lists: on ``rows`` rows when it is a
    count, else on the given increasing rows, by default the rows that the
    columns touch."""
    if rows is None:
        rows = sorted({r for col in cols for r, _ in col})
    local = range(rows) if isinstance(rows, int) else {r: i for i, r in enumerate(rows)}
    out = [[0] * len(cols) for _ in local]
    for j, col in enumerate(cols):
        for r, v in col:
            out[local[r]][j] = v
    return out


def _dense_columns(cols: Sequence[SparseColumn], rows: Union[int, Sequence[int], None] = None) -> Matrix:
    """``_dense_rows`` as a matrix."""
    return Matrix(_dense_rows(cols, rows), ncols=len(cols))


@functools.lru_cache(maxsize=None)
def _exterior_index(n: int) -> Tuple[Tuple[Tuple[int, ...], ...], Dict[int, int]]:
    """The index sets of range(n) as bitmasks, degree by degree, each degree
    in lexicographic order, and the position of each mask within its
    degree; masks of different degrees never collide, so one dict holds
    every position.  The Koszul complex and the exterior expansion share
    this basis of the exterior algebra."""
    masks = tuple(
        tuple(sum(1 << i for i in key) for key in itertools.combinations(range(n), p))
        for p in range(n + 1)
    )
    return masks, {m: r for ms in masks for r, m in enumerate(ms)}


class ExteriorExpansion:
    """The exterior powers of a square matrix m in ``int``, level by level.

    ``scale`` is c, the lcm of the denominators of m.  ``level(k)`` is
    Lambda^k(c m) as integer sparse columns, index sets in lexicographic
    order, so column J is the image of the wedge of the J-indexed basis
    vectors.  Level k is built once, on first use, from level k - 1 by
    exterior expansion rather than by determinants: column J is column
    J - j_k wedged with c m e_{j_k}, over the nonzero entries only, so a
    diagonal matrix costs O(C(n, k)).  ``columns(k)`` is level k over c^k.
    """

    def __init__(self, m: Matrix):
        _require_square(m, "wedge_power")
        self.scale, cleared = _cleared(m.entries)
        self._images = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*cleared)]
        self.levels = [(((0, 1),),)]

    def level(self, k: int) -> Tuple[SparseColumn, ...]:
        if not 0 <= k <= len(self._images):
            raise PreconditionError("wedge power degree out of range")
        while len(self.levels) <= k:
            self._extend()
        return self.levels[k]

    def _extend(self) -> None:
        """Build the level above the last one built."""
        k, below, images = len(self.levels), self.levels[-1], self._images
        masks, row_of = _exterior_index(len(images))
        lower = masks[k - 1]
        cols = []
        # column J is column J - j of the level below wedged with image j,
        # for j the last index of J
        for top in masks[k]:
            j = top.bit_length() - 1
            rest = below[row_of[top ^ 1 << j]]
            col: dict = {}
            for i, x in images[j]:
                bit = 1 << i
                for s, c in rest:
                    mask = lower[s]
                    if not mask & bit:
                        # e_I ^ e_i = (-1)^(#{t in I : t > i}) e_{I + i}
                        t = row_of[mask | bit]
                        col[t] = col.get(t, 0) + (-x * c if (mask >> i).bit_count() & 1 else x * c)
            cols.append(tuple(sorted((t, v) for t, v in col.items() if v)))
        self.levels.append(tuple(cols))

    def columns(self, k: int) -> Tuple[SparseColumn, ...]:
        """Level k over c^k, the sparse columns of Lambda^k m; level k when c = 1."""
        cols, den = self.level(k), self.scale ** k
        if den == 1:
            return cols
        return tuple(tuple((r, _quotient(v, den)) for r, v in col) for col in cols)


def wedge_power(m: Matrix, p: int) -> Matrix:
    """p-th exterior power as a dense matrix: the p x p minors, index sets
    in lexicographic order (``ExteriorExpansion``)."""
    cols = ExteriorExpansion(m).columns(p)
    return _dense_columns(cols, len(cols))
