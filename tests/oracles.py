"""Independent reference computations for cross-checking the package.

Everything here is written against its own representations (plain lists
of ints, Fractions, sympy matrices) and its own algorithms, so that
agreement with the package is evidence rather than tautology.
"""

import itertools
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_form


def xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def echelon_with_transform(rows, ncols):
    """Integer row echelon form by gcd elimination, tracking the
    unimodular transform: returns (H, U) with U . rows == H."""
    h = [list(r) for r in rows]
    n = len(h)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivot_row = 0
    for col in range(ncols):
        found = None
        for i in range(pivot_row, n):
            if h[i][col]:
                found = i
                break
        if found is None:
            continue
        h[pivot_row], h[found] = h[found], h[pivot_row]
        u[pivot_row], u[found] = u[found], u[pivot_row]
        for i in range(pivot_row + 1, n):
            while h[i][col]:
                g, s, t = xgcd(h[pivot_row][col], h[i][col])
                p = h[pivot_row][col] // g
                q = h[i][col] // g
                new_top_h = [s * x + t * y for x, y in zip(h[pivot_row], h[i])]
                new_bot_h = [-q * x + p * y for x, y in zip(h[pivot_row], h[i])]
                new_top_u = [s * x + t * y for x, y in zip(u[pivot_row], u[i])]
                new_bot_u = [-q * x + p * y for x, y in zip(u[pivot_row], u[i])]
                h[pivot_row], h[i] = new_top_h, new_bot_h
                u[pivot_row], u[i] = new_top_u, new_bot_u
        pivot_row += 1
        if pivot_row == n:
            break
    return h, u


def integer_kernel(rows, ncols):
    """Basis of the lattice {x integer : A x = 0} for the matrix with the
    given rows.  Works on the transpose: rows of the transform matching
    zero rows of the echelon form span the kernel exactly."""
    transpose = [[rows[i][j] for i in range(len(rows))] for j in range(ncols)]
    h, u = echelon_with_transform(transpose, len(rows))
    out = []
    for hr, ur in zip(h, u):
        if all(x == 0 for x in hr):
            out.append(ur)
    return out


def smith_diagonal(rows):
    """Nonzero invariant factors via sympy, smallest first."""
    if not rows or not rows[0]:
        return []
    d = smith_normal_form(sympy.Matrix(rows))
    out = []
    for i in range(min(d.rows, d.cols)):
        v = int(d[i, i])
        if v:
            out.append(abs(v))
    return sorted(out)


def solve_exact(rows, rhs):
    """Unique exact solution of (rows)^T x = rhs for independent rows,
    or None when rhs is outside the span."""
    n = len(rows)
    if n == 0:
        return [] if all(v == 0 for v in rhs) else None
    m = len(rows[0])
    aug = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(rhs[j])] for j in range(m)]
    row = 0
    pivots = []
    for col in range(n):
        piv = None
        for i in range(row, m):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        scale = aug[row][col]
        aug[row] = [x / scale for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for i in range(row, m):
        if aug[i][n]:
            return None
    return [aug[i][n] for i in range(len(pivots))]


def quotient_structure(sup_rows, sub_rows, ncols):
    """(free_rank, torsion) of the quotient of the lattice spanned by
    sup_rows by the sublattice spanned by sub_rows."""
    if not sup_rows:
        if any(any(x for x in r) for r in sub_rows):
            raise ValueError("sublattice is not contained in the lattice")
        return 0, ()
    coords = []
    for v in sub_rows:
        sol = solve_exact(sup_rows, v)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError("sublattice is not contained in the lattice")
        coords.append([int(x) for x in sol])
    factors = smith_diagonal(coords) if coords else []
    free = len(sup_rows) - len(factors)
    torsion = tuple(f for f in factors if f != 1)
    return free, torsion


# ---------------------------------------------------------------------------
# brute-force first cohomology of a finite group


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def finite_group_h1(gen_perms, gen_mats, expected_order):
    """Structure of H^1 for a finite permutation group acting by integer
    matrices, computed from scratch over the full element table.

    gen_perms must generate a faithful copy of the abstract group; the
    closure of (permutation, matrix) pairs is then the graph of the
    action homomorphism.  Unknowns are the cocycle values on every
    element; the defining equations d(gh) = d(g) + g.d(h) are imposed on
    all pairs.  Returns (z_rank, free_rank, torsion).
    """
    n = len(gen_mats[0])
    deg = len(gen_perms[0])
    ident = (tuple(range(deg)), tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    seen = {ident[0]: ident[1]}
    frontier = [ident]
    gens = list(zip(gen_perms, gen_mats))
    while frontier:
        nxt = []
        for perm, mat in frontier:
            for gp, gm in gens:
                pp, mm = _perm_mul(perm, gp), _mat_mul(mat, gm)
                if pp in seen:
                    if seen[pp] != mm:
                        raise ValueError("matrices do not factor through the group")
                else:
                    seen[pp] = mm
                    nxt.append((pp, mm))
        frontier = nxt
    if len(seen) != expected_order:
        raise ValueError(f"closure has order {len(seen)}, expected {expected_order}")

    elements = sorted(seen)
    index = {p: i for i, p in enumerate(elements)}
    mats = {p: seen[p] for p in elements}
    nvars = len(elements) * n
    equations = []
    for g in elements:
        for h in elements:
            gh = _perm_mul(g, h)
            for r in range(n):
                row = [0] * nvars
                row[index[gh] * n + r] += 1
                row[index[g] * n + r] -= 1
                for c in range(n):
                    row[index[h] * n + c] -= mats[g][r][c]
                equations.append(row)
    cocycles = integer_kernel(equations, nvars)

    principal = []
    for c in range(n):
        row = [0] * nvars
        for g in elements:
            for r in range(n):
                row[index[g] * n + r] = mats[g][r][c] - int(r == c)
        principal.append(row)
    free, torsion = quotient_structure(cocycles, principal, nvars)
    return len(cocycles), free, torsion


def pell_brute(d):
    y = 1
    while True:
        target = 1 + d * y * y
        x = sympy.integer_nthroot(target, 2)
        if x[1]:
            return int(x[0]), y
        y += 1


def pell_convergents(d):
    """The first convergent of sqrt(d) that satisfies a^2 - d b^2 = 1,
    tested on every convergent in turn."""
    a0 = sympy.integer_nthroot(d, 2)[0]
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        if h * h - d * k * k == 1:
            return h, k
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def poly_div(num, den):
    """Quotient and remainder of two ascending coefficient lists by
    sympy.div over QQ, as ascending lists of Fractions with no trailing
    zeros (the zero polynomial is the empty list)."""
    x = sympy.Symbol("x")

    def to_sympy(coeffs):
        terms = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in coeffs]
        return sympy.Poly(list(reversed(terms)) or [0], x, domain=sympy.QQ)

    def from_sympy(poly):
        out = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        while out and out[-1] == 0:
            out.pop()
        return out

    q, r = sympy.div(to_sympy(num), to_sympy(den), domain=sympy.QQ)
    return from_sympy(q), from_sympy(r)


def det_exact(rows):
    """Determinant of a square list of rows by Fraction elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def det_inverse_by_sympy(rows):
    """``(det, inverse)`` of a square list of rows by sympy over QQ, each
    value an ``int`` when integral and a ``Fraction`` otherwise; the
    inverse is a tuple of rows, or None when the matrix is singular."""
    n = len(rows)
    if not n:
        return 1, ()

    def back(x):
        return int(x.p) if x.q == 1 else Fraction(int(x.p), int(x.q))

    a = sympy.Matrix(n, n, [sympy.Rational(str(Fraction(x))) for r in rows for x in r])
    det = back(a.det())
    if not det:
        return 0, None
    inv = a.inv()
    return det, tuple(tuple(back(inv[i, j]) for j in range(n)) for i in range(n))


def wedge_minors(rows, p):
    """p-th exterior power by its definition: the p x p minors, row and
    column index sets in lexicographic order."""
    subsets = list(itertools.combinations(range(len(rows)), p))
    return [
        [det_exact([[rows[i][j] for j in cols] for i in rsub]) for cols in subsets]
        for rsub in subsets
    ]


def leibniz_by_forms(bases, p, images):
    """The graded Leibniz rule of the Koszul complex walked form by form:
    for each form xi^K of degree p (``bases[p]``, index tuples by degree)
    and each k in K, each term (mask of M, S, c) of ``images[k]`` with M
    missing K - k adds (-1)^popcount((K - k) & S) c at the form K - k + M.
    One row -> entry dict per form, zero entries kept, filled in the order
    k, then term.  Every form costs a pass, with or without terms."""
    row_of = {sum(1 << i for i in key): r for keys in bases for r, key in enumerate(keys)}
    out = []
    for key in bases[p]:
        mask = sum(1 << i for i in key)
        col = {}
        for k in key:
            rest = mask ^ 1 << k
            for m, s, c in images[k]:
                if rest & m:
                    continue
                r = row_of[rest | m]
                col[r] = col.get(r, 0) + (-c if bin(rest & s).count("1") % 2 else c)
        out.append(col)
    return out


# derivation values letter by letter


def _integer_inverse(rows):
    inv = sympy.Matrix(rows).inv()
    return tuple(tuple(int(inv[i, j]) for j in range(inv.cols)) for i in range(inv.rows))


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _letter_prefixes(mats, w):
    """For each letter of w: the prefix matrix that multiplies its value
    and the sign of that value.  A positive letter x_i contributes
    + (x1 ... x_{i-1}) d(x_i), a negative one - (x1 ... x_i) d(x_i)."""
    prefix = _identity(len(mats[0]))
    out = []
    for idx, exp in w:
        if exp == 1:
            out.append((idx, 1, prefix))
            prefix = _mat_mul(prefix, mats[idx])
        else:
            prefix = _mat_mul(prefix, _integer_inverse(mats[idx]))
            out.append((idx, -1, prefix))
    return out


def word_value_by_letters(mats, values, w):
    """d(w) from the generator values by the product rule, one letter at a time."""
    acc = [0] * len(mats[0])
    for idx, sign, prefix in _letter_prefixes(mats, w):
        img = [sum(p * v for p, v in zip(row, values[idx])) for row in prefix]
        acc = [a + sign * b for a, b in zip(acc, img)]
    return tuple(acc)


def relator_rows_by_letters(mats, w):
    """Coefficient rows of d(w) in the flattened generator values: one
    rank x rank block per generator, laid side by side."""
    n = len(mats[0])
    blocks = [[[0] * n for _ in range(n)] for _ in mats]
    for idx, sign, prefix in _letter_prefixes(mats, w):
        blocks[idx] = [
            [a + sign * b for a, b in zip(brow, prow)]
            for brow, prow in zip(blocks[idx], prefix)
        ]
    return [tuple(itertools.chain.from_iterable(b[i] for b in blocks)) for i in range(n)]


def dihedral_product(a, b):
    """Closed-form law of the infinite dihedral group on forms (k, t) for
    A^k t^t: (k1, t1)(k2, t2) = (k1 + (-1)^t1 k2, t1 xor t2)."""
    (k1, t1), (k2, t2) = a, b
    return (k1 + (-1) ** t1 * k2, t1 ^ t2)


def dihedral_inverse(a):
    k, t = a
    return (k, 1) if t else (-k, 0)


def finite_order_by_powers(a):
    """The multiplicative order of a package ``Matrix`` in GL(n, Q), or None
    if infinite, by matrix powers: an invertible matrix with squarefree
    minimal polynomial has finite order only when A^L = I for
    L = lcm{m : phi(m) <= n}, and the order is then L reduced prime by
    prime while the power stays I."""
    from math import gcd

    from polyarith.linalg import _require_square

    _require_square(a, "finite_order")
    n = a.nrows
    if n == 0:
        return 1
    if a.det() == 0:
        return None
    # the minimal polynomial is squarefree (a is diagonalizable over C)
    # exactly when the squarefree part of the characteristic polynomial,
    # the product of its distinct irreducible factors, vanishes at a
    sym = sympy.Matrix(n, n, [sympy.Rational(x) for r in a.entries for x in r])
    t = sympy.Symbol("t")
    at_a = sympy.zeros(n, n)
    for c in sympy.Poly(sympy.sqf_part(sym.charpoly(t).as_expr()), t).all_coeffs():
        at_a = at_a * sym + c * sympy.eye(n)
    if not at_a.is_zero_matrix:
        return None
    cap = 2 * n * n + 2  # phi(m) >= sqrt(m/2), so phi(m) <= n forces m <= 2 n^2
    big = 1
    for m in range(1, cap + 1):
        if sympy.totient(m) <= n:
            big = big * m // gcd(big, m)
    if not (a ** big).is_identity():
        return None
    order = big
    for p in sympy.primefactors(big):
        while order % p == 0 and (a ** (order // p)).is_identity():
            order //= p
    return order


def jordan_by_matrix_newton(a):
    """The multiplicative Jordan decomposition ``(s, u, p)`` of an invertible
    package ``Matrix``, by Newton's iteration on matrices,
    s <- s - p(s) p'(s)^-1 from s = a, then u = s^-1 a.  p is the monic
    squarefree part of the characteristic polynomial by sympy (it has the
    roots of the minimal polynomial, each once), and p(s) is Horner's rule
    on matrices with the identity scaled by each coefficient."""
    from polyarith.linalg import Matrix
    from polyarith.polynomials import Poly

    n = a.nrows
    sym = sympy.Matrix(n, n, [sympy.Rational(x) for r in a.entries for x in r])
    t = sympy.Symbol("t")
    sqf = sympy.Poly(sympy.sqf_part(sym.charpoly(t).as_expr()), t).monic()
    p = Poly.of(*(Fraction(int(c.p), int(c.q)) for c in reversed(sqf.all_coeffs())))

    def at(q, s):
        acc = Matrix.zero(n, n)
        for c in reversed(q.coeffs):
            acc = acc * s + Matrix.identity(n).scale(c)
        return acc

    s = a
    for _ in range(n + 2):
        ps = at(p, s)
        if ps.is_zero():
            return s, s.inverse() * a, p
        s = s - ps * at(p.derivative(), s).inverse()
    raise AssertionError("newton iteration on matrices did not converge")


# ---------------------------------------------------------------------------
# word products and principal derivations the long way round


def _letter(action, idx, exp):
    """The letter's matrix, x^-1 by sympy rather than by ``Matrix.inverse``,
    which the action itself reads."""
    from polyarith.linalg import Matrix

    m = action.matrices[idx]
    return m if exp == 1 else Matrix(_integer_inverse(m.entries), ncols=m.ncols)


def evaluate_word_from_identity(action, w):
    """The ordered product of a word's letter matrices, started from the
    identity matrix and multiplied letter by letter."""
    from polyarith.linalg import Matrix

    out = Matrix.identity(action.rank)
    for idx, exp in w:
        out = out * _letter(action, idx, exp)
    return out


def fox_matrix_from_identity(action, w):
    """``(F_w, M_w)`` with the running prefix started from the identity: at
    x_j block j gains the prefix before the letter, at x_j^-1 it loses the
    prefix through the letter."""
    from polyarith.linalg import Matrix

    n = action.rank
    rows = [[0] * (n * len(action.matrices)) for _ in range(n)]
    prefix = Matrix.identity(n)
    for idx, exp in w:
        if exp == -1:
            prefix = prefix * _letter(action, idx, -1)
        for row, p in zip(rows, prefix.entries):
            for j, x in enumerate(p):
                row[idx * n + j] += exp * x
        if exp == 1:
            prefix = prefix * _letter(action, idx, 1)
    return Matrix(rows, ncols=n * len(action.matrices)), prefix


def principal_rows_by_apply(action):
    """Row i: the values g . e_i - e_i on the generators, flattened, with
    each M_g applied to the unit vector e_i."""
    n = action.rank
    rows = []
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        rows.append([x - y for m in action.matrices for x, y in zip(m.apply(e), e)])
    return rows


def min_poly_by_factors(rows):
    """Coefficients, ascending, of the monic minimal polynomial of a square
    matrix of rationals: sympy factors the characteristic polynomial, and
    each factor's exponent is lowered while the product still annihilates
    the matrix."""
    n = len(rows)
    a = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for r in rows for x in map(Fraction, r)])
    t = sympy.Symbol("t")
    _, factors = sympy.factor_list(a.charpoly(t).as_expr(), t)
    exps = dict(factors)

    def product(exps):
        prod = sympy.Poly(1, t)
        for f, k in exps.items():
            prod *= sympy.Poly(f, t) ** k
        return prod

    def annihilates(exps):
        acc = sympy.zeros(n, n)
        for c in product(exps).all_coeffs():
            acc = acc * a + c * sympy.eye(n)
        return acc.is_zero_matrix

    for f in list(exps):
        while exps[f] > 0 and annihilates({**exps, f: exps[f] - 1}):
            exps[f] -= 1
    return [Fraction(int(c.p), int(c.q)) for c in reversed(product(exps).monic().all_coeffs())]


# ---------------------------------------------------------------------------
# first cohomology through the derivation lattice


def h1_by_derivation_lattice(pres, action):
    """(free_rank, torsion) of H^1 as the Smith quotient of the derivation
    lattice by the principal one: the coordinates of the principal Hermite
    basis in the Hermite basis of ker C, reduced by ``snf``."""
    from polyarith.cohomology import Derivation, derivation_space, principal_derivations
    from polyarith.linalg import Matrix, snf

    lattice = derivation_space(pres, action)
    coords = []
    for r in principal_derivations(action).entries:
        c = lattice.coordinates(Derivation.unflatten(r, action.rank))
        if c is None:
            raise ValueError("principal derivation outside the derivation lattice")
        coords.append(c)
    if not coords:
        return lattice.rank, ()
    factors = snf(Matrix(coords, ncols=lattice.rank)).invariant_factors
    return lattice.rank - len(factors), tuple(t for t in factors if t > 1)
