"""Lie algebra cohomology over Q through the exterior-algebra complex.

A finite dimensional Lie algebra is given by structure constants on an
ordered basis e_0 .. e_{n-1}.  The complex lives on the dual exterior
algebra: degree p has the p-element index sets in lexicographic order
as its basis, and the differential is the antiderivation extending

    (d xi^k)(e_i, e_j) = -c_{ij}^k,

so d of a dual basis vector is minus the corresponding structure
two-form.  d composed with d vanishes exactly when the Jacobi identity
holds, and the identity is also checked directly at construction.

Automorphisms act on forms through the wedge powers of the inverse
transpose; maps on cohomology use the column convention (column i is
the image of class basis vector i), so composition of automorphisms
multiplies the matrices in the same order.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InternalError, PreconditionError
from .linalg import (
    Matrix,
    min_poly,
    nilpotent_exp,
    rational_kernel,
    rref,
    solve,
    vstack,
    wedge_power,
)

Scalar = Union[int, Fraction]
Vector = Tuple[Scalar, ...]

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


def _row_space_basis(m: Matrix) -> Matrix:
    reduced, pivots = rref(m)
    return Matrix(reduced.entries[: len(pivots)], ncols=m.ncols)


class LieAlgebra:
    """Structure constants c_{ij}^k on a fixed basis, with Jacobi checked.

    ``brackets`` maps an index pair (i, j) with i < j to a mapping
    k -> coefficient; pairs and coefficients not listed are zero.
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
                c = comps[k]
                f = Fraction(c)
                if f != 0:
                    terms.append((k, int(f) if f.denominator == 1 else f))
            if terms:
                table[(i, j)] = tuple(terms)
        self._table = table
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
        if i == j:
            return (0,) * self.dim
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        out = [0] * self.dim
        for k, c in self._table.get((i, j), ()):
            out[k] = sign * c
        return tuple(out)

    def bracket(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            if u[i] == 0:
                continue
            for j in range(self.dim):
                if v[j] == 0 or i == j:
                    continue
                coeff = u[i] * v[j]
                for k, c in self._table.get((min(i, j), max(i, j)), ()):
                    out[k] += coeff * c if i < j else -coeff * c
        return tuple(int(x) if x.denominator == 1 else x for x in out)

    def _check_jacobi(self):
        for i, j, k in itertools.combinations(range(self.dim), 3):
            ei = tuple(1 if t == i else 0 for t in range(self.dim))
            ej = tuple(1 if t == j else 0 for t in range(self.dim))
            ek = tuple(1 if t == k else 0 for t in range(self.dim))
            total = [
                a + b + c
                for a, b, c in zip(
                    self.bracket(self.bracket_basis(i, j), ek),
                    self.bracket(self.bracket_basis(j, k), ei),
                    self.bracket(self.bracket_basis(k, i), ej),
                )
            ]
            if any(x != 0 for x in total):
                raise PreconditionError(
                    f"Jacobi identity fails on basis triple ({i}, {j}, {k})"
                )

    def bracket_table(self) -> List[Tuple[Tuple[int, int], Tuple[Tuple[int, Scalar], ...]]]:
        """Sorted nonzero structure constants: ((i, j), ((k, c), ...))."""
        return sorted(self._table.items())

    def structure_terms(self, k: int) -> List[Tuple[int, int, Scalar]]:
        """All (i, j, c_{ij}^k) with i < j and nonzero coefficient."""
        out = []
        for (i, j), terms in sorted(self._table.items()):
            for kk, c in terms:
                if kk == k:
                    out.append((i, j, c))
        return out

    def ad(self, x: Sequence[Scalar]) -> Matrix:
        """Matrix of [x, -] on columns."""
        cols = []
        for j in range(self.dim):
            ej = tuple(1 if t == j else 0 for t in range(self.dim))
            cols.append(self.bracket(x, ej))
        return Matrix.from_cols(cols, nrows=self.dim)

    def derived_basis(self) -> Matrix:
        """Canonical basis (rows) of the span of all brackets."""
        rows = [self.bracket_basis(i, j) for i, j in itertools.combinations(range(self.dim), 2)]
        if not rows:
            return Matrix([], ncols=self.dim)
        return _row_space_basis(Matrix(rows, ncols=self.dim))

    def lower_central_series(self) -> List[Matrix]:
        """Bases of g = g^0 >= g^1 >= ..., where g^{i+1} = [g, g^i].

        Stops after the first repeat: the final entry is either the zero
        subspace (nilpotent case) or the stable nonzero term.
        """
        series = [Matrix.identity(self.dim)]
        while True:
            cur = series[-1]
            if cur.nrows == 0:
                break
            prods = []
            for j in range(self.dim):
                ej = tuple(1 if t == j else 0 for t in range(self.dim))
                for row in cur.entries:
                    prods.append(self.bracket(ej, row))
            nxt = _row_space_basis(Matrix(prods, ncols=self.dim)) if prods else Matrix([], ncols=self.dim)
            if nxt.nrows == cur.nrows:
                series.append(nxt)
                break
            series.append(nxt)
            if nxt.nrows == 0:
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
    for p, (i, j) in enumerate(slots):
        for q, (k, l) in enumerate(slots):
            if p >= q:
                continue
            comps: Dict[int, Scalar] = {}
            if j == k:
                comps[index[(i, l)]] = comps.get(index[(i, l)], 0) + 1
            if l == i:
                comps[index[(k, j)]] = comps.get(index[(k, j)], 0) - 1
            comps = {k2: v for k2, v in comps.items() if v != 0}
            if comps:
                brackets[(p, q)] = comps
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


def _sort_with_sign(seq: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    lst = list(seq)
    if len(set(lst)) != len(lst):
        return 0, ()
    sign = 1
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return sign, tuple(lst)


# A differential is stored as its sparse columns: column j lists the
# (row, value) pairs of its nonzero entries, rows increasing.
SparseColumn = Tuple[Tuple[int, Scalar], ...]
SparseColumns = Tuple[SparseColumn, ...]


def sparse_rank(columns: Sequence[SparseColumn], nrows: int) -> int:
    """Rank over Q of the nrows-row matrix with the given sparse columns.

    Rows that share a column are joined by a union-find; each connected
    block of the nonzero pattern is ranked on its own with
    ``Matrix.rank`` and the block ranks are summed.
    """
    parent = list(range(nrows))

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
    blocks: Dict[int, List[SparseColumn]] = {}
    for col in columns:
        if col:
            blocks.setdefault(find(col[0][0]), []).append(col)
    total = 0
    for cols in blocks.values():
        local = {r: i for i, r in enumerate(sorted({r for col in cols for r, _ in col}))}
        rows = [[0] * len(cols) for _ in local]
        for j, col in enumerate(cols):
            for r, v in col:
                rows[local[r]][j] = v
        total += Matrix(rows, ncols=len(cols)).rank()
    return total


def check_square_zero(lower: SparseColumns, upper: SparseColumns, p: int) -> None:
    """Certify upper * lower = 0 column by column, in time linear in the
    nonzeros touched; ``lower`` is d^p and ``upper`` is d^{p+1}."""
    for col in lower:
        image: Dict[int, Scalar] = {}
        for r, v in col:
            for s, w in upper[r]:
                image[s] = image.get(s, 0) + v * w
        if any(image.values()):
            raise InternalError(f"differential does not square to zero at degree {p}")


@dataclass(frozen=True)
class KoszulComplex:
    """The cochain complex of a Lie algebra: ``bases[p]`` indexes degree p,
    ``columns[p]`` holds d^p from degree p to degree p + 1 as sparse
    columns.  Ranks and the dense matrices are computed on first use."""

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
        out = []
        for p, cols in enumerate(self.columns):
            rows = [[0] * len(cols) for _ in range(self._target_dim(p))]
            for j, col in enumerate(cols):
                for r, v in col:
                    rows[r][j] = v
            out.append(Matrix(rows, ncols=len(cols)))
        return tuple(out)

    @cached_property
    def ranks(self) -> Tuple[int, ...]:
        """Rank of d^p for every degree p."""
        return tuple(sparse_rank(cols, self._target_dim(p)) for p, cols in enumerate(self.columns))

    def differential(self, p: int) -> Matrix:
        return self.differentials[p]

    def betti(self) -> Tuple[int, ...]:
        ranks = self.ranks
        return tuple(
            self.space_dim(p) - ranks[p] - (ranks[p - 1] if p > 0 else 0)
            for p in range(self.algebra.dim + 1)
        )

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * b for p, b in enumerate(self.betti()))

    def cocycles(self, p: int) -> Matrix:
        """Basis (rows) of ker d^p over Q."""
        return rational_kernel(self.differentials[p])

    def coboundaries(self, p: int) -> Matrix:
        """Basis (rows) of im d^{p-1} over Q."""
        if p == 0:
            return Matrix([], ncols=self.space_dim(0))
        return _row_space_basis(self.differentials[p - 1].transpose())

    def representatives(self, p: int) -> Matrix:
        """Cocycle rows completing the coboundaries to ker d^p.

        Deterministic: walks the canonical kernel basis in order and
        keeps the vectors that grow the span.
        """
        ker = self.cocycles(p)
        reduced: List[List[Fraction]] = []

        def reduce_add(vec) -> bool:
            v = [Fraction(x) for x in vec]
            for row in reduced:
                lead = next(i for i, x in enumerate(row) if x != 0)
                if v[lead] != 0:
                    c = v[lead]
                    v = [x - c * y for x, y in zip(v, row)]
            lead = next((i for i, x in enumerate(v) if x != 0), None)
            if lead is None:
                return False
            f = v[lead]
            reduced.append([x / f for x in v])
            return True

        for row in self.coboundaries(p).entries:
            reduce_add(row)
        reps = [row for row in ker.entries if reduce_add(row)]
        return Matrix(reps, ncols=self.space_dim(p))


def build_koszul(algebra: LieAlgebra) -> KoszulComplex:
    """Construct all exterior degrees and differentials, then certify
    that consecutive differentials compose to zero."""
    n = algebra.dim
    cap = dimension_cap()
    if n > cap:
        raise PreconditionError(
            f"dimension {n} exceeds the cap {cap}; set {MAX_DIM_ENV} to raise it"
        )
    bases = tuple(tuple(itertools.combinations(range(n), p)) for p in range(n + 1))
    index = [{key: i for i, key in enumerate(bases[p])} for p in range(n + 1)]
    terms = [algebra.structure_terms(k) for k in range(n)]
    diffs = []
    for p in range(n + 1):
        cols: List[SparseColumn] = []
        for key in bases[p]:
            col: Dict[int, Scalar] = {}
            for t, kt in enumerate(key):
                outer_sign = (-1) ** t
                for i, j, c in terms[kt]:
                    sign, target = _sort_with_sign(key[:t] + (i, j) + key[t + 1 :])
                    if sign == 0:
                        continue
                    row = index[p + 1][target]
                    col[row] = col.get(row, 0) - outer_sign * sign * c
            cols.append(tuple((r, v) for r, v in sorted(col.items()) if v != 0))
        diffs.append(tuple(cols))
    for p in range(n):
        check_square_zero(diffs[p], diffs[p + 1], p)
    return KoszulComplex(algebra, bases, tuple(diffs))


def betti_numbers(algebra: LieAlgebra) -> Tuple[int, ...]:
    return build_koszul(algebra).betti()


@dataclass(frozen=True)
class H1Report:
    h1_dim: int
    derived_dim: int
    dims_match: bool
    annihilates_derived: bool

    @property
    def ok(self) -> bool:
        return self.dims_match and self.annihilates_derived


def h1_annihilator_check(kos: KoszulComplex) -> H1Report:
    """Degree-one cohomology is the annihilator of the derived subalgebra.

    In degree one there are no coboundaries, so the check compares the
    cocycle space with the functionals vanishing on all brackets.
    """
    algebra = kos.algebra
    derived = algebra.derived_basis()
    cocycles = kos.cocycles(1)
    h1_dim = kos.betti()[1]
    dims_match = (
        h1_dim == algebra.dim - derived.nrows and cocycles.nrows == h1_dim
    )
    annihilates = all(
        sum(z * v for z, v in zip(zrow, vrow)) == 0
        for zrow in cocycles.entries
        for vrow in derived.entries
    )
    return H1Report(h1_dim, derived.nrows, dims_match, annihilates)


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
        for i, j in itertools.combinations(range(n), 2):
            lhs = self.matrix.apply(self.algebra.bracket_basis(i, j))
            rhs = self.algebra.bracket(self.matrix.col(i), self.matrix.col(j))
            if tuple(lhs) != tuple(rhs):
                raise PreconditionError(
                    f"matrix does not preserve the bracket on basis pair ({i}, {j})"
                )

    def compose(self, other: "LieAutomorphism") -> "LieAutomorphism":
        return LieAutomorphism(self.algebra, self.matrix * other.matrix)

    def inverse(self) -> "LieAutomorphism":
        return LieAutomorphism(self.algebra, self.matrix.inverse())

    def is_semisimple(self) -> bool:
        return min_poly(self.matrix).is_squarefree()

    def is_identity(self) -> bool:
        return self.matrix.is_identity()


def inner_automorphism(algebra: LieAlgebra, x: Sequence[Scalar]) -> LieAutomorphism:
    """exp(ad x); defined here only for nilpotent ad x."""
    return LieAutomorphism(algebra, nilpotent_exp(algebra.ad(x)))


def form_action(phi: LieAutomorphism, p: int) -> Matrix:
    """Action on degree-p forms: p-th wedge power of the inverse transpose."""
    return wedge_power(phi.matrix.inverse().transpose(), p)


def action_on_cohomology(
    phi: LieAutomorphism, p: int, kos: Optional[KoszulComplex] = None
) -> Matrix:
    """Induced map on degree-p cohomology, columns as images.

    Functorial: the matrix of a composition is the product of the
    matrices.  Raises InternalError if the form action fails to commute
    with the differential, which cannot happen for a bracket-preserving
    matrix.
    """
    if kos is None:
        kos = build_koszul(phi.algebra)
    if kos.algebra != phi.algebra:
        raise PreconditionError("complex and automorphism algebras differ")
    n = kos.algebra.dim
    if not 0 <= p <= n:
        raise PreconditionError("degree out of range")
    w_here = form_action(phi, p)
    w_up = form_action(phi, p + 1) if p < n else Matrix([], ncols=0)
    if p < n and w_up * kos.differentials[p] != kos.differentials[p] * w_here:
        raise InternalError("form action does not commute with the differential")
    reps = kos.representatives(p)
    bound = kos.coboundaries(p)
    stacked = vstack(reps, bound) if bound.nrows else reps
    basis_cols = stacked.transpose()
    cols = []
    for row in reps.entries:
        image = w_here.apply(row)
        coeffs = solve(basis_cols, image)
        if coeffs is None:
            raise InternalError("image of a cocycle left the cocycle space")
        cols.append(coeffs[: reps.nrows])
    return Matrix.from_cols(cols, nrows=reps.nrows)


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
    a1 = action_on_cohomology(phi, 1, kos)
    if not a1.is_identity():
        return RigidityResult(False, phi.is_identity())
    return RigidityResult(True, phi.is_identity())


# ---------------------------------------------------------------------------
# invariants under a set of semisimple automorphisms


def _fixed_subspace(basis: Matrix, operator: Matrix) -> Matrix:
    """Rows spanning {x in rowspace(basis) : operator x = x}."""
    if basis.nrows == 0:
        return basis
    shifted = operator - Matrix.identity(operator.nrows)
    coeff = rational_kernel(shifted * basis.transpose())
    return coeff * basis


@dataclass(frozen=True)
class InvariantCohomology:
    """Cohomology of the invariant subcomplex, checked against the
    invariants of the cohomology action degree by degree."""

    subspace_dims: Tuple[int, ...]
    invariant_betti: Tuple[int, ...]
    fixed_cohomology_dims: Tuple[int, ...]
    subspace_bases: Tuple[Matrix, ...]
    restricted_differentials: Tuple[Matrix, ...]


def invariant_subcomplex(
    kos: KoszulComplex, autos: Sequence[LieAutomorphism]
) -> InvariantCohomology:
    """Forms fixed by every automorphism in a commuting semisimple set.

    The fixed forms are preserved by the differential, so they make a
    subcomplex; its cohomology dimensions must agree with the fixed
    subspaces of the action on cohomology, and the function certifies
    that equality before returning.
    """
    autos = list(autos)
    n = kos.algebra.dim
    for phi in autos:
        if phi.algebra != kos.algebra:
            raise PreconditionError("complex and automorphism algebras differ")
        if not phi.is_semisimple():
            raise PreconditionError("invariant subcomplex needs semisimple automorphisms")
    for one, two in itertools.combinations(autos, 2):
        if one.matrix * two.matrix != two.matrix * one.matrix:
            raise PreconditionError("automorphisms must commute")

    bases = []
    for p in range(n + 1):
        basis = Matrix.identity(kos.space_dim(p))
        for phi in autos:
            basis = _fixed_subspace(basis, form_action(phi, p))
        bases.append(basis)

    restricted = []
    for p in range(n + 1):
        cols = []
        target = bases[p + 1].transpose() if p < n else None
        for row in bases[p].entries:
            image = kos.differentials[p].apply(row)
            if p == n:
                continue
            coeffs = solve(target, image)
            if coeffs is None:
                raise InternalError("differential left the invariant subcomplex")
            cols.append(coeffs)
        height = bases[p + 1].nrows if p < n else 0
        restricted.append(Matrix.from_cols(cols, nrows=height))

    inv_betti = []
    for p in range(n + 1):
        kernel_dim = bases[p].nrows - restricted[p].rank()
        image_prev = restricted[p - 1].rank() if p > 0 else 0
        inv_betti.append(kernel_dim - image_prev)

    fixed_dims = []
    for p, h_dim in enumerate(kos.betti()):
        basis = Matrix.identity(h_dim)
        for phi in autos:
            basis = _fixed_subspace(basis, action_on_cohomology(phi, p, kos))
        fixed_dims.append(basis.nrows)

    if inv_betti != fixed_dims:
        raise InternalError(
            "invariant subcomplex cohomology disagrees with cohomology invariants"
        )
    return InvariantCohomology(
        tuple(b.nrows for b in bases),
        tuple(inv_betti),
        tuple(fixed_dims),
        tuple(bases),
        tuple(restricted),
    )
