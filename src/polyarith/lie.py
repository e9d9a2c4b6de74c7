"""Lie algebra cohomology over Q through the exterior-algebra complex.

A finite dimensional Lie algebra is given by structure constants on an
ordered basis e_0 .. e_{n-1}.  The complex lives on the dual exterior
algebra: degree p has the p-element index sets in lexicographic order
as its basis, and the differential is the antiderivation extending

    (d xi^k)(e_i, e_j) = -c_{ij}^k,

so d of a dual basis vector is minus the corresponding structure
two-form.  d composed with d vanishes exactly when the Jacobi identity
holds, and the identity is also checked directly at construction.

Every structure-constant computation reads the sparse table of nonzero
c_{ij}^k rather than looping over basis vectors: the Jacobi check
expands only the basis triples with a bracket among their pairs, and a
bracket visits only the pairs in the table.  The differential d, the
contraction i_x and the Lie derivative L_x are (anti)derivations built
by one graded Leibniz rule (``_leibniz``), which finds the target form
of each term by a bitmask lookup and its sign by one popcount.

Automorphisms act on forms through the wedge powers of the inverse
transpose; maps on cohomology use the column convention (column i is
the image of class basis vector i), so composition of automorphisms
multiplies the matrices in the same order.  An inner automorphism
exp(ad x) acts as the identity on cohomology: ad x acts on forms by
L_x = d i_x + i_x d (Cartan's formula), which is certified instead of
expanding the wedge powers.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import InternalError, PreconditionError
from .linalg import (
    ExteriorExpansion,
    Matrix,
    Scalar,
    SparseColumn,
    Vector,
    _cleared,
    _dense_columns,
    _dense_rows,
    _eliminate,
    _exterior_index,
    _integer_rows,
    _is_diagonal,
    _norm_row,
    _quotient,
    min_poly,
    nilpotent_exp,
    nilpotent_log,
    rational_kernel,
    rref,
    solve,
)
from .polynomials import _scalar

MAX_DIM_DEFAULT = 14
MAX_DIM_ENV = "POLYARITH_MAX_DIM"


def dimension_cap() -> int:
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return MAX_DIM_DEFAULT
    try:
        cap = int(raw)
    except ValueError:
        raise PreconditionError(f"{MAX_DIM_ENV} must be an integer") from None
    if cap < 1:
        raise PreconditionError(f"{MAX_DIM_ENV} must be positive")
    return cap


def _check_dimension(n: int) -> None:
    """Refuse a dimension above the cap; parsing a document checks it first."""
    cap = dimension_cap()
    if n > cap:
        raise PreconditionError(f"dimension {n} exceeds the cap {cap}; set {MAX_DIM_ENV} to raise it")


class LieAlgebra:
    """Structure constants c_{ij}^k on a fixed basis, with Jacobi checked.

    ``brackets`` maps an index pair (i, j) with i < j to a mapping
    k -> coefficient; pairs and coefficients not listed are zero.
    ``_signed`` holds each pair both ways, with c_{ji}^k = -c_{ij}^k, so
    no reader of [e_j, e_i] flips a sign.
    """

    def __init__(self, dim: int, brackets: Mapping[Tuple[int, int], Mapping[int, Scalar]]):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise PreconditionError("dimension must be a nonnegative integer")
        self.dim = dim
        table: Dict[Tuple[int, int], Tuple[Tuple[int, Scalar], ...]] = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < j < dim):
                raise PreconditionError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            terms = []
            for k in sorted(comps):
                if not 0 <= k < dim:
                    raise PreconditionError(f"bracket target {k} out of range")
                c = _scalar(comps[k])
                if c:
                    terms.append((k, c))
            if terms:
                table[(i, j)] = tuple(terms)
        self._table = table
        self._signed = dict(table)
        for (i, j), terms in table.items():
            self._signed[(j, i)] = tuple((k, -c) for k, c in terms)
        self._check_jacobi()

    def __eq__(self, other) -> bool:
        """Equal when the structure constants on the basis agree."""
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.bracket_table())))

    def bracket_basis(self, i: int, j: int) -> Vector:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise PreconditionError(f"basis index pair ({i}, {j}) out of range for dimension {self.dim}")
        out = [0] * self.dim
        for k, c in self._signed.get((i, j), ()):
            out[k] = c
        return tuple(out)

    def bracket(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        """[u, v]: each pair (i, j) of the table adds u_i v_j - u_j v_i
        times its terms."""
        if len(u) != self.dim or len(v) != self.dim:
            raise PreconditionError(
                f"vector length mismatch: bracket needs vectors of length {self.dim}"
            )
        out: List[Scalar] = [0] * self.dim
        for (i, j), terms in self._table.items():
            coeff = u[i] * v[j] - u[j] * v[i]
            if coeff:
                for k, c in terms:
                    out[k] += coeff * c
        return _norm_row(out)

    def _check_jacobi(self):
        """Expand [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        from ``_signed`` for each basis triple i < j < k holding a table
        pair whose third index also lies in a table pair, in order; the
        other triples have three zero terms, so the cost does not grow
        with dim."""
        table, signed = self._table, self._signed
        used = {i for ij in table for i in ij}
        triples = {tuple(sorted((*ij, k))) for ij in table for k in used if k not in ij}
        for i, j, k in sorted(triples):
            total: Dict[int, Scalar] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in signed.get((a, b), ()):
                    for t, y in signed.get((m, c), ()):
                        total[t] = total.get(t, 0) + x * y
            if any(total.values()):
                raise PreconditionError(
                    f"Jacobi identity fails on basis triple ({i}, {j}, {k})"
                )

    def bracket_table(self) -> List[Tuple[Tuple[int, int], Tuple[Tuple[int, Scalar], ...]]]:
        """Sorted nonzero structure constants: ((i, j), ((k, c), ...))."""
        return sorted(self._table.items())

    def ad(self, x: Sequence[Scalar]) -> Matrix:
        """Matrix of [x, -] on columns, read off ``_signed``: each pair
        (i, j) with x_i nonzero adds x_i times its terms to [x, e_j]."""
        n = self.dim
        if len(x) != n:
            raise PreconditionError(f"vector length mismatch: ad needs a vector of length {n}")
        rows: List[List[Scalar]] = [[0] * n for _ in range(n)]
        for (i, j), terms in self._signed.items():
            if x[i]:
                for k, c in terms:
                    rows[k][j] += x[i] * c
        return Matrix(rows, ncols=n)

    def ad_preimage(self, d: Matrix) -> Optional[Vector]:
        """One x with ad x = d, or None: the n^2 equations
        sum_i x_i c_ij^k = d[k, j], read off ``_signed``, where an entry of
        d that no term reaches must be 0.  d must be n x n."""
        n = self.dim
        if (d.nrows, d.ncols) != (n, n):
            raise PreconditionError(f"matrix shape mismatch: ad_preimage needs a {n} x {n} matrix")
        rows: Dict[Tuple[int, int], List[Scalar]] = {}
        for (i, j), terms in self._signed.items():
            for k, c in terms:
                rows.setdefault((k, j), [0] * n)[i] += c
        if any(d[k, j] for k in range(n) for j in range(n) if (k, j) not in rows):
            return None
        keys = sorted(rows)
        return solve(Matrix([rows[key] for key in keys], ncols=n), [d[key] for key in keys])

    def lower_central_series(self) -> List[Matrix]:
        """Bases of g = g^0 >= g^1 >= ..., where g^{i+1} = [g, g^i], in
        reduced row echelon form.  One pass over ``_signed`` per row x of
        g^i gives [e_a, x] for every a: each pair (i, j) with x_j nonzero
        adds x_j times its terms to [e_i, x], built only for the i reached;
        the nonzero products, by i, are reduced once per term.  Stops after
        the first repeat: the zero subspace (nilpotent) or the stable term."""
        n = self.dim
        series = [Matrix.identity(n)]
        while series[-1].nrows:
            prods = []
            for x in series[-1].entries:
                out: Dict[int, List[Scalar]] = {}
                for (i, j), terms in self._signed.items():
                    if x[j]:
                        row = out.setdefault(i, [0] * n)
                        for k, c in terms:
                            row[k] += x[j] * c
                prods.extend(row for _, row in sorted(out.items()) if any(row))
            reduced, pivots = rref(Matrix(prods, ncols=n))
            series.append(Matrix(reduced.entries[: len(pivots)], ncols=n))
            if len(pivots) == series[-2].nrows:
                break
        return series

    def nilpotency_class(self) -> Optional[int]:
        series = self.lower_central_series()
        if series[-1].nrows != 0:
            return None
        return len(series) - 1

    def is_nilpotent(self) -> bool:
        return self.nilpotency_class() is not None


# ---------------------------------------------------------------------------
# catalog of small algebras


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


def heisenberg(pairs: int = 1) -> LieAlgebra:
    """Dimension 2*pairs + 1, with [e_{2i}, e_{2i+1}] = e_{2 pairs}."""
    dim = 2 * pairs + 1
    return LieAlgebra(dim, {(2 * i, 2 * i + 1): {dim - 1: 1} for i in range(pairs)})


def filiform(n: int) -> LieAlgebra:
    """Maximal-class nilpotent algebra: [e_0, e_i] = e_{i+1} for 1 <= i <= n-2."""
    if n < 3:
        raise PreconditionError("filiform algebras start at dimension 3")
    return LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def free_two_step(generators: int = 3) -> LieAlgebra:
    """Free nilpotent of class two: brackets of generators are independent."""
    g = generators
    pairs = list(itertools.combinations(range(g), 2))
    return LieAlgebra(g + len(pairs), {(i, j): {g + t: 1} for t, (i, j) in enumerate(pairs)})


def strictly_upper(size: int) -> LieAlgebra:
    """Strictly upper triangular size x size matrices."""
    slots = list(itertools.combinations(range(size), 2))
    index = {s: t for t, s in enumerate(slots)}
    brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    # [E_ij, E_kl] = [j == k] E_il - [l == i] E_kj, and i < j, k < l allow
    # at most one of the two
    for (p, (i, j)), (q, (k, l)) in itertools.combinations(enumerate(slots), 2):
        if j == k:
            brackets[(p, q)] = {index[(i, l)]: 1}
        elif l == i:
            brackets[(p, q)] = {index[(k, j)]: -1}
    return LieAlgebra(len(slots), brackets)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for (i, j), terms in a._table.items():
        brackets[(i, j)] = dict(terms)
    for (i, j), terms in b._table.items():
        brackets[(i + a.dim, j + a.dim)] = {k + a.dim: c for k, c in terms}
    return LieAlgebra(a.dim + b.dim, brackets)


def sl2() -> LieAlgebra:
    """sl_2 on the basis (h, e, f); not nilpotent."""
    return LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def nilpotent_catalog() -> Dict[str, LieAlgebra]:
    """Named nilpotent algebras of dimension at most 7."""
    return {
        "heisenberg_3": heisenberg(1),
        "heisenberg_5": heisenberg(2),
        "heisenberg_7": heisenberg(3),
        "filiform_4": filiform(4),
        "filiform_5": filiform(5),
        "filiform_6": filiform(6),
        "filiform_7": filiform(7),
        "free_two_step_6": free_two_step(3),
        "upper_triangular_4": strictly_upper(4),
        "heisenberg_plus_line": direct_sum(heisenberg(1), abelian(1)),
        "heisenberg_pair_6": direct_sum(heisenberg(1), heisenberg(1)),
        "abelian_5": abelian(5),
    }


# ---------------------------------------------------------------------------
# the complex


def _betti(dims: Iterable[int], ranks: Sequence[int]) -> Tuple[int, ...]:
    """dim - rank d^p - rank d^(p-1) in each degree p of a complex."""
    return tuple(dim - ranks[p] - (ranks[p - 1] if p else 0) for p, dim in enumerate(dims))


# A differential, a form action and a basis are stored sparse: a
# differential or a form action as its columns, a basis as its rows.
SparseColumns = Tuple[SparseColumn, ...]


def _components(columns: Iterable[SparseColumn], size: int) -> Callable[[int], int]:
    """Join the rows of every sparse column by a union-find over ``size``
    rows; the returned ``find`` gives two rows the same root exactly when
    a chain of columns links them."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for col in columns:
        if col:
            root = find(col[0][0])
            for r, _ in col[1:]:
                parent[find(r)] = root
    return find


def sparse_rank(columns: Sequence[SparseColumn], nrows: int) -> int:
    """Rank over Q of the nrows-row matrix with the given sparse columns.

    The cost follows the nonzero columns, as empty ones are dropped first.
    Rows that share a column are joined (``_components``), and each block
    of the nonzero pattern is ranked on its own, as ``int`` rows under a
    forward ``_eliminate``.  A block of one column, or of one row (every
    column a single entry), has rank 1 with no elimination.
    """
    columns = [col for col in columns if col]
    find = _components(columns, nrows)
    blocks: Dict[int, List[SparseColumn]] = {}
    for col in columns:
        blocks.setdefault(find(col[0][0]), []).append(col)
    return sum(
        1 if len(cols) == 1 or all(len(col) == 1 for col in cols)
        else len(_eliminate(_integer_rows(_dense_rows(cols))[0], len(cols), forward=True)[1])
        for cols in blocks.values()
    )


def _sparse(vectors: Iterable[Sequence[Scalar]], labels: Sequence[int] = ()) -> List[SparseColumn]:
    """The nonzero (index, entry) pairs of each vector; with ``labels``,
    position i has index ``labels[i]``."""
    return [tuple((j, x) for j, x in zip(labels or range(len(v)), v) if x) for v in vectors]


def _combine(columns: Sequence[SparseColumn], coeffs: Iterable) -> Dict[int, Scalar]:
    """The sum of c * columns[k] over the (k, c) pairs of ``coeffs``, as a
    row -> entry dict without zero entries."""
    out: Dict[int, Scalar] = {}
    for k, c in coeffs:
        if c:
            for r, v in columns[k]:
                out[r] = out.get(r, 0) + c * v
    # most images in the square-zero check are empty: return those as they are
    return {r: v for r, v in out.items() if v} if out else out


def check_square_zero(lower: SparseColumns, upper: SparseColumns, p: int) -> None:
    """Certify upper * lower = 0 column by column, in time linear in the
    nonzeros touched; ``lower`` is d^p and ``upper`` is d^{p+1}."""
    for col in lower:
        if col and _combine(upper, col):
            raise InternalError(f"differential does not square to zero at degree {p}")


def check_chain_map(d: SparseColumns, w_here: SparseColumns, w_up: SparseColumns, c=1) -> None:
    """Certify w_up * d == c * d * w_here column by column, over the
    nonzero entries only; ``d`` is d^p, ``w_here`` and ``w_up`` are c^p and
    c^(p+1) times the form actions in degrees p and p + 1."""
    for d_col, here_col in zip(d, w_here):
        if _combine(w_up, d_col) != _combine(d, ((r, c * v) for r, v in here_col)):
            raise InternalError("form action does not commute with the differential")


@dataclass(frozen=True)
class KoszulComplex:
    """The cochain complex of a Lie algebra: ``bases[p]`` indexes degree p,
    ``columns[p]`` holds d^p to degree p + 1 as sparse columns, () where d
    has no term, so building and ranking them follow the nonzero terms of
    d, not the 2^n forms.  Ranks and cohomology bases are made on first
    use; the bases are sparse rows, built from ``columns`` block by block:
    forms that a column of d^{p-1} or d^p links share a block, each block
    is reduced on its own, and the rows are put back in the order the dense
    eliminations give, so an action on cohomology runs no elimination.
    ``differentials``, ``cocycles``, ``coboundaries`` and
    ``representatives`` are dense views, built only when asked for."""

    algebra: LieAlgebra
    bases: Tuple[Tuple[Tuple[int, ...], ...], ...]
    columns: Tuple[SparseColumns, ...]

    def space_dim(self, p: int) -> int:
        return len(self.bases[p])

    def _target_dim(self, p: int) -> int:
        return self.space_dim(p + 1) if p < self.algebra.dim else 0

    @cached_property
    def differentials(self) -> Tuple[Matrix, ...]:
        """The differentials as dense matrices (rows index degree p + 1)."""
        return tuple(
            _dense_columns(cols, self._target_dim(p)) for p, cols in enumerate(self.columns)
        )

    @cached_property
    def ranks(self) -> Tuple[int, ...]:
        """Rank of d^p for every degree p."""
        return tuple(sparse_rank(cols, self._target_dim(p)) for p, cols in enumerate(self.columns))

    def betti(self) -> Tuple[int, ...]:
        return _betti(map(len, self.bases), self.ranks)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * b for p, b in enumerate(self.betti()))

    def _blocks(self, p: int) -> List[Tuple[List[int], List[int]]]:
        """The forms of degree p in connected blocks, each with the columns
        of d^{p-1} that land in it.  Two forms share a block when a column
        of d^{p-1} or of d^p links them.  Forms increase within a block,
        and blocks come in the order of their first form."""
        dim = self.space_dim(p)
        lower = self.columns[p - 1] if p else ()
        # nodes: the forms of degree p, then the rows of d^p; column j of
        # d^p joins form j to its rows
        upper = [
            ((j, 1),) + tuple((dim + r, v) for r, v in col) for j, col in enumerate(self.columns[p])
        ]
        find = _components(itertools.chain(lower, upper), dim + self._target_dim(p))
        blocks: Dict[int, Tuple[List[int], List[int]]] = {}
        for j in range(dim):
            blocks.setdefault(find(j), ([], []))[0].append(j)
        for j, col in enumerate(lower):
            if col:
                blocks[find(col[0][0])][1].append(j)
        return list(blocks.values())

    def cocycles(self, p: int) -> Matrix:
        """Basis (rows) of ker d^p over Q, as ``cohomology_basis`` gives it."""
        return _dense_columns(self.cohomology_basis(p)[0], self.space_dim(p)).transpose()

    def coboundaries(self, p: int) -> Matrix:
        """Basis (rows) of im d^{p-1} over Q, as ``cohomology_basis`` gives it."""
        return _dense_columns(self.cohomology_basis(p)[1], self.space_dim(p)).transpose()

    def representatives(self, p: int) -> Matrix:
        """Cocycle rows completing the coboundaries to ker d^p."""
        return _dense_columns(self.cohomology_basis(p)[2], self.space_dim(p)).transpose()

    @cached_property
    def _cohomology_bases(self) -> Dict[int, Tuple[SparseColumns, ...]]:
        return {}

    @cached_property
    def _homotopies(self) -> set:
        """The x whose Cartan formula ``_certify_homotopy`` has certified here."""
        return set()

    def cohomology_basis(self, p: int) -> Tuple[SparseColumns, ...]:
        """``(cocycles, coboundaries, reps, classes)`` of degree p as sparse
        rows, cached per degree.  They equal the dense eliminations:

        - ``cocycles``: ``rational_kernel`` of d^p, one row per free
          column, in the order of that column;
        - ``coboundaries``: the nonzero rows of ``rref`` of (d^{p-1})^T, in
          the order of their pivot columns;
        - ``reps`` and ``classes``: with k coboundaries, one ``rref`` of
          [coboundaries; cocycles]^T.  ``reps`` are the cocycles at the
          pivots past k: the kernel basis walked in order, keeping each row
          that grows the span.  Rows k onward of the reduced matrix, on
          the cocycle columns, are ``classes``: entry f of row i is the
          coordinate on rep i of the class of cocycle f.

        Each row lies in one block, so each block is reduced on its own in
        block-local coordinates, and the rows are keyed by form (free or
        pivot column) and put back in order."""
        if not 0 <= p <= self.algebra.dim:
            raise PreconditionError("degree out of range")
        cache = self._cohomology_bases
        if p not in cache:
            cocycles, bound, classes = [], [], []
            for forms, lower in self._blocks(p):
                if len(forms) == 1:
                    # one form: a cocycle when d^p kills it, then a coboundary
                    # when a column of d^{p-1} lands on it (as d o d = 0, only
                    # on a cocycle), else a class
                    j = forms[0]
                    if not self.columns[p][j]:
                        cocycles.append((j, ((j, 1),)))
                        (bound if lower else classes).append((j, ((j, 1),)))
                    continue
                kernel = rational_kernel(_dense_columns([self.columns[p][j] for j in forms])).entries
                # a kernel row is keyed by its free column, where it ends in 1
                zs = _sparse(kernel, forms)
                keys = [row[-1][0] for row in zs]
                cocycles.extend(zip(keys, zs))
                vecs: Sequence[Sequence[Scalar]] = ()
                if lower:
                    image = _dense_columns([self.columns[p - 1][j] for j in lower], forms)
                    reduced, pivots = rref(image.transpose())
                    vecs = reduced.entries[: len(pivots)]
                    bound.extend(zip((forms[c] for c in pivots), _sparse(vecs, forms)))
                if kernel:
                    k = len(vecs)
                    reduced, pivots = rref(Matrix(list(zip(*vecs, *kernel)), ncols=k + len(kernel)))
                    found = (v[k:] for v in reduced.entries[k : len(pivots)])
                    classes.extend(zip((keys[c - k] for c in pivots[k:]), _sparse(found, keys)))
            cocycles.sort()
            index = {key: f for f, (key, _) in enumerate(cocycles)}
            bound.sort()
            classes.sort()
            cache[p] = (
                tuple(row for _, row in cocycles),
                tuple(row for _, row in bound),
                tuple(cocycles[index[key]][1] for key, _ in classes),
                tuple(tuple((index[g], x) for g, x in row) for _, row in classes),
            )
        return cache[p]


def _leibniz(p: int, images: Sequence[Sequence[Tuple[int, int, Scalar]]]) -> List[Dict[int, Scalar]]:
    """D on the forms of degree p, one row -> entry dict per form (zero
    entries kept), where D is the (anti)derivation of degree |M| - 1 that
    sends xi^k to the sum of c xi^M over the (mask of M, S, c) in
    ``images[k]``, with S = below(k) ^ below(b) over the b in M and
    below(i) = (1 << i) - 1.  The cost follows the nonzero terms, not the
    forms: each term of k walks the forms R of degree p - 1 that miss M
    and k, and adds to D xi^(R + k) the entry at R + M, with the sign
    (-1)^popcount(R & S) from moving D past the forms before k and sorting
    xi^M into R.  The forms that no term reaches share one empty dict."""
    masks, row_of = _exterior_index(len(images))
    empty: Dict[int, Scalar] = {}
    cols = [empty] * len(masks[p])
    lower = masks[p - 1] if p else ()
    for k, terms in enumerate(images):
        bit = 1 << k
        for m, s, c in terms:
            miss = m | bit
            for rest in lower:
                if rest & miss:
                    continue
                j = row_of[rest | bit]
                col = cols[j]
                if col is empty:
                    col = cols[j] = {}
                r = row_of[rest | m]
                col[r] = col.get(r, 0) + (-c if (rest & s).bit_count() & 1 else c)
    return cols


def build_koszul(algebra: LieAlgebra) -> KoszulComplex:
    """Construct all exterior degrees and differentials, then certify
    that consecutive differentials compose to zero.  Past the bases, the
    cost follows the nonzero terms of d: only the columns they reach are
    built, sorted and checked."""
    n = algebra.dim
    _check_dimension(n)
    bases = tuple(tuple(itertools.combinations(range(n), p)) for p in range(n + 1))
    # d xi^k = -sum c_{ij}^k xi^i ^ xi^j
    images: List[List[Tuple[int, int, Scalar]]] = [[] for _ in range(n)]
    for (i, j), comps in algebra.bracket_table():
        for k, c in comps:
            images[k].append((1 << i | 1 << j, (1 << k) - 1 ^ (1 << i) - 1 ^ (1 << j) - 1, -c))
    diffs = tuple(
        tuple(tuple(sorted(filter(itemgetter(1), col.items()))) if col else () for col in cols)
        for cols in (_leibniz(p, images) for p in range(n + 1))
    )
    for p in range(n):
        check_square_zero(diffs[p], diffs[p + 1], p)
    return KoszulComplex(algebra, bases, diffs)


# ---------------------------------------------------------------------------
# automorphisms acting on cohomology


@dataclass(frozen=True)
class LieAutomorphism:
    """Invertible matrix (columns are images of basis vectors) preserving brackets."""

    algebra: LieAlgebra
    matrix: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        if self.matrix.nrows != n or self.matrix.ncols != n:
            raise PreconditionError("automorphism matrix has the wrong shape")
        if self.matrix.det() == 0:
            raise PreconditionError("automorphism matrix is singular")
        cols = list(zip(*self.matrix.entries))
        for i, j in itertools.combinations(range(n), 2):
            lhs = [0] * n  # phi[e_i, e_j] = sum_k c_ij^k phi(e_k), read off the table
            for k, c in self.algebra._table.get((i, j), ()):
                lhs = [x + c * y for x, y in zip(lhs, cols[k])]
            if tuple(lhs) != self.algebra.bracket(cols[i], cols[j]):
                raise PreconditionError(
                    f"matrix does not preserve the bracket on basis pair ({i}, {j})"
                )

    def compose(self, other: "LieAutomorphism") -> "LieAutomorphism":
        return LieAutomorphism(self.algebra, self.matrix * other.matrix)

    def inverse(self) -> "LieAutomorphism":
        return LieAutomorphism(self.algebra, self.dual.transpose())

    def is_semisimple(self) -> bool:
        return _is_diagonal(self.matrix.entries) or min_poly(self.matrix).is_squarefree()

    def is_identity(self) -> bool:
        return self.matrix.is_identity()

    @cached_property
    def dual(self) -> Matrix:
        """Inverse transpose: the action on one-forms."""
        return self.matrix.inverse().transpose()

    @cached_property
    def exterior(self) -> ExteriorExpansion:
        """Exterior powers of c times ``dual``: level p is c^p times the degree-p form action."""
        return ExteriorExpansion(self.dual)

    @cached_property
    def inner_generator(self) -> Optional[Vector]:
        """An x with matrix = exp(ad x), or None when the matrix is not
        unipotent (its trace is not n, or log's series does not stop) or
        its log is no ad x.  Raises InternalError when exp(ad x) is not
        the matrix again."""
        n = self.algebra.dim
        if self.matrix.trace() != n:
            return None
        try:
            log = nilpotent_log(self.matrix)
        except PreconditionError:
            return None
        x = self.algebra.ad_preimage(log)
        if x is not None and nilpotent_exp(self.algebra.ad(x)) != self.matrix:
            raise InternalError("exp(ad x) differs from the automorphism it is the log of")
        return x


def inner_automorphism(algebra: LieAlgebra, x: Sequence[Scalar]) -> LieAutomorphism:
    """exp(ad x); defined here only for nilpotent ad x."""
    return LieAutomorphism(algebra, nilpotent_exp(algebra.ad(x)))


def form_action(phi: LieAutomorphism, p: int) -> SparseColumns:
    """Action on degree-p forms: the sparse columns of the p-th wedge power
    of the inverse transpose, level p of ``phi.exterior`` divided by c^p.
    Each level is expanded once per automorphism, only when asked for."""
    return phi.exterior.columns(p)


def _scaled_action(phi: LieAutomorphism, p: int) -> Tuple[SparseColumns, int]:
    """c^p times the action on degree-p forms as integer sparse columns, and c^p."""
    return phi.exterior.level(p), phi.exterior.scale ** p


def _coordinates(
    basis: Sequence[SparseColumn], images: Sequence[Dict[int, Scalar]], what: str
) -> List[SparseColumn]:
    """Coordinates of the sparse images on the sparse rows of a
    ``rational_kernel`` basis, one sparse column per image.  Each basis row
    has a 1 in its last nonzero column f, where every other row is 0, so
    its coordinate is the image's entry at f.  Rebuilding each image
    certifies the coordinates; a mismatch, an image outside the span,
    raises InternalError(what)."""
    free = {row[-1][0]: i for i, row in enumerate(basis)}
    cols = []
    for im in images:
        col = tuple(sorted((free[f], x) for f, x in im.items() if f in free))
        if _combine(basis, col) != im:
            raise InternalError(what)
        cols.append(col)
    return cols


def action_on_cohomology(
    phi: LieAutomorphism, p: int, kos: Optional[KoszulComplex] = None
) -> Matrix:
    """Induced map on degree-p cohomology, columns as images.

    Functorial: the matrix of a composition is the product of the
    matrices.  An automorphism exp(ad x) (``inner_generator``) gives the
    identity, once exp(ad x) and Cartan's formula in every degree are
    certified (``_certify_homotopy``); any other takes the class map.
    Raises InternalError if a certificate fails, or if the form action
    fails to commute with the differential, neither of which can happen
    for a bracket-preserving matrix.
    """
    if kos is None:
        kos = build_koszul(phi.algebra)
    if kos.algebra != phi.algebra:
        raise PreconditionError("complex and automorphism algebras differ")
    if not 0 <= p <= kos.algebra.dim:
        raise PreconditionError("degree out of range")
    x = phi.inner_generator
    if x is not None:
        _certify_homotopy(kos, x)
        return Matrix.identity(kos.betti()[p])
    cols, den = _class_map(phi, p, kos)
    return _dense_columns([[(i, _quotient(x, den)) for i, x in col] for col in cols], len(cols))


def _contraction(x: Sequence[int], p: int) -> List[SparseColumn]:
    """i_x from degree p to p - 1 as sparse columns: the antiderivation
    sending xi^k to x_k, so xi^K goes to the sum over positions t of
    (-1)^t x_(k_t) xi^(K - k_t)."""
    images = [[(0, (1 << k) - 1, v)] if v else [] for k, v in enumerate(x)]
    return [tuple(col.items()) for col in _leibniz(p, images)]


def _check_cartan(
    kos: KoszulComplex,
    p: int,
    lie_rows: Sequence[Sequence[Tuple[int, int, Scalar]]],
    iota: Sequence[SparseColumn],
    iota_up: Sequence[SparseColumn],
) -> None:
    """Certify L_x = d^(p-1) i_x + i_x d^p on the forms of degree p, column
    by column.  L_x is the derivation whose ``_leibniz`` images are
    ``lie_rows``; ``iota`` and ``iota_up`` are i_x from degrees p and
    p + 1 (``_contraction``)."""
    lower = kos.columns[p - 1] if p else ()
    # d^(p-1) i_x and i_x d^p as one combination of the columns of both maps
    both, shift = tuple(lower) + tuple(iota_up), len(lower)
    for lhs, d_col, i_col in zip(_leibniz(p, lie_rows), kos.columns[p], iota):
        rhs = _combine(both, itertools.chain(i_col, ((shift + r, v) for r, v in d_col)))
        if {r: v for r, v in lhs.items() if v} != rhs:
            raise InternalError(f"Cartan's formula fails in degree {p}")


def _certify_homotopy(kos: KoszulComplex, x: Vector) -> None:
    """Certify that L_x, the action of ad x on forms, is d i_x + i_x d in
    every degree, once per complex and x.  L_x is the derivation extension
    of -(ad x)^T, so exp(L_x) is the form action of exp(ad x); being
    null-homotopic, L_x sends cocycles to coboundaries and commutes with d,
    and exp(L_x) acts as the identity on cohomology.  x is scaled to
    integers first: the formula is linear in x."""
    if x in kos._homotopies:
        return
    n = kos.algebra.dim
    _, (xs,) = _cleared([x])
    # L_x xi^k = -sum (ad x)_kj xi^j
    lie_rows = [
        [(1 << j, (1 << k) - 1 ^ (1 << j) - 1, -v) for j, v in enumerate(row) if v]
        for k, row in enumerate(kos.algebra.ad(xs).entries)
    ]
    iota = _contraction(xs, 0)
    for p in range(n + 1):
        iota_up = _contraction(xs, p + 1) if p < n else ()
        _check_cartan(kos, p, lie_rows, iota, iota_up)
        iota = iota_up
    kos._homotopies.add(x)


def _class_map(phi: LieAutomorphism, p: int, kos: KoszulComplex) -> Tuple[SparseColumns, int]:
    """c^p times the induced map on degree-p cohomology, as sparse columns,
    and c^p; the chain-map check and the coordinate rebuild run first."""
    w_here, den = _scaled_action(phi, p)
    if p < kos.algebra.dim:
        check_chain_map(kos.columns[p], w_here, _scaled_action(phi, p + 1)[0], phi.exterior.scale)
    cocycles, _, reps, classes = kos.cohomology_basis(p)
    images = [_combine(w_here, row) for row in reps]
    what = "image of a cocycle left the cocycle space"
    # c^p times the coordinates: a kernel basis row ends in a 1, so they scale
    coords = _coordinates(cocycles, images, what)
    # classes * coords over the nonzero pairs, with the class map by cocycle
    by_cocycle: List[List[Tuple[int, Scalar]]] = [[] for _ in cocycles]
    for i, cls in enumerate(classes):
        for f, x in cls:
            by_cocycle[f].append((i, x))
    return tuple(tuple(sorted(_combine(by_cocycle, col).items())) for col in coords), den


@dataclass(frozen=True)
class RigidityResult:
    hypothesis_met: bool
    is_identity: bool

    @property
    def ok(self) -> bool:
        """True unless a semisimple automorphism fixed H^1 without being id."""
        return not self.hypothesis_met or self.is_identity


def semisimple_rigidity_check(
    phi: LieAutomorphism, kos: Optional[KoszulComplex] = None
) -> RigidityResult:
    """Probe of the rigidity statement: on a nilpotent algebra, a
    semisimple automorphism acting trivially on degree-one cohomology is
    the identity.  Preconditions: nilpotent algebra, semisimple matrix."""
    if not phi.algebra.is_nilpotent():
        raise PreconditionError("rigidity check needs a nilpotent algebra")
    if not phi.is_semisimple():
        raise PreconditionError("rigidity check needs a semisimple automorphism")
    return RigidityResult(action_on_cohomology(phi, 1, kos).is_identity(), phi.is_identity())


# ---------------------------------------------------------------------------
# invariants under a set of semisimple automorphisms


def _fixed_space(operators: Sequence[Tuple[SparseColumns, int]], dim: int) -> List[SparseColumn]:
    """Sparse rows spanning the vectors of Q^dim fixed by every operator, each
    given as the sparse columns of s times it with the integer s > 0: the
    kernel of the rows of op - s I over all the operators, or, for a torus
    (column j of every operator is ((j, x),)), the unit rows e_f where each
    diagonal entry is s."""
    if all(len(col) == 1 and col[0][0] == j for op, _ in operators for j, col in enumerate(op)):
        return [((f, 1),) for f in range(dim) if all(op[f][0][1] == s for op, s in operators)]
    ident = Matrix.identity(dim)
    stacked = [r for op, s in operators for r in (_dense_columns(op, dim) - ident.scale(s)).entries]
    return _sparse(rational_kernel(Matrix(stacked, ncols=dim)).entries)


@dataclass(frozen=True)
class InvariantCohomology:
    """The forms fixed by a commuting semisimple set, degree by degree:
    their dimensions, bases (rows) and restricted differentials, and the
    Betti numbers of that subcomplex.  These are also the dimensions of
    the fixed cohomology classes, by the theorem and the three checks of
    ``invariant_subcomplex``."""

    subspace_dims: Tuple[int, ...]
    invariant_betti: Tuple[int, ...]
    subspace_bases: Tuple[Matrix, ...]
    restricted_differentials: Tuple[Matrix, ...]


def invariant_subcomplex(
    kos: KoszulComplex, autos: Sequence[LieAutomorphism]
) -> InvariantCohomology:
    """Forms fixed by every automorphism in a commuting semisimple set.

    The fixed forms are preserved by the differential, so they make a
    subcomplex, and its cohomology is the fixed classes (Hochschild and
    Serre, 1953).  Let phi be semisimple and commute with d.  Then
    V = ker(phi - 1) + im(phi - 1) is a direct sum of complexes, and on
    the second summand phi - 1 is an invertible chain map, so phi fixes
    no class there.  For a commuting set, restrict one map at a time to
    the fixed forms of those before it: they are preserved, and a
    restriction of a semisimple map stays semisimple.  Three exact checks
    hold the hypotheses: a squarefree minimal polynomial, so every wedge
    power of the form action is semisimple (PreconditionError); commuting
    actions on the one-forms, so on every level (PreconditionError); and
    the chain-map check of every automorphism in every degree
    (InternalError).  No class map is built.
    """
    autos = list(autos)
    n = kos.algebra.dim
    for phi in autos:
        if phi.algebra != kos.algebra:
            raise PreconditionError("complex and automorphism algebras differ")
        if not phi.is_semisimple():
            raise PreconditionError("invariant subcomplex needs semisimple automorphisms")
    # level 1 is c times the inverse transpose (level 0 when n = 0);
    # two maps commute exactly when these do
    for one, two in itertools.combinations([phi.exterior.level(min(n, 1)) for phi in autos], 2):
        if any(_combine(one, y) != _combine(two, x) for x, y in zip(one, two)):
            raise PreconditionError("automorphisms must commute")

    levels = [[_scaled_action(phi, p) for phi in autos] for p in range(n + 1)]
    bases = [_fixed_space(ops, kos.space_dim(p)) for p, ops in enumerate(levels)]
    # d^p of each fixed form, in coordinates on the fixed forms of degree p + 1
    restricted = []
    for p in range(n):
        images = [_combine(kos.columns[p], row) for row in bases[p]]
        coords = _coordinates(bases[p + 1], images, "differential left the invariant subcomplex")
        restricted.append(_dense_columns(coords, len(bases[p + 1])))
    restricted.append(Matrix([], ncols=0))

    inv_betti = _betti(map(len, bases), [d.rank() for d in restricted])
    # the certificate that the subcomplex's cohomology is the fixed classes
    for p in range(n):
        for phi, (w_here, _), (w_up, _) in zip(autos, levels[p], levels[p + 1]):
            check_chain_map(kos.columns[p], w_here, w_up, phi.exterior.scale)
    return InvariantCohomology(
        tuple(map(len, bases)),
        inv_betti,
        tuple(_dense_columns(b, kos.space_dim(p)).transpose() for p, b in enumerate(bases)),
        tuple(restricted),
    )
