"""Degree-one group cohomology for matrix actions on Z^n, via derivations.

A derivation for an action of a group D on F = Z^n is a map with
d(h1 h2) = d(h1) + h1 . d(h2).  It is determined by its values on the
generators; an assignment of generator values extends to the group
exactly when every relator evaluates to zero.  On a word w,

    d(w) = F_w . d.flatten(),

where column block j of the integer matrix F_w is the Fox derivative
dw/dx_j (Fox 1953) evaluated through the action.

The lattice of derivations plays the role of the cocycle group Z^1 =
ker C, C stacking the Fox matrices of the relators, and the shifts
f |-> (g . f - f) of module vectors are the principal derivations
B^1 = im D, D stacking the blocks M_g - I.  Since ker C is saturated,
h1 reads the quotient off rank C and the invariant factors of D, after
certifying C D = 0; it builds no lattice basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul, sub
from typing import List, Optional, Sequence, Tuple

from .errors import InternalError, PreconditionError
from .linalg import (
    Matrix,
    _all_int,
    _eliminate,
    _hermite_coordinates,
    _hermite_pair,
    _identity_rows,
    _int_product,
    invariant_factors,
    kernel_lattice,
    row_hermite_basis,
)
from .presentations import (
    ModuleAction, Presentation, Word, _refuse_relator, concat_words, evaluate_word, invert_word
)

Vector = Tuple[int, ...]


@dataclass(frozen=True)
class Derivation:
    """Generator values of a derivation, one vector in Z^rank per generator."""

    values: Tuple[Vector, ...]

    def flatten(self) -> Vector:
        return tuple(itertools.chain.from_iterable(self.values))

    @staticmethod
    def unflatten(flat: Sequence[int], rank: int) -> "Derivation":
        if rank <= 0:
            raise PreconditionError("rank must be positive")
        if len(flat) % rank != 0:
            raise PreconditionError("flattened length must be a multiple of the rank")
        return Derivation(
            tuple(tuple(flat[i : i + rank]) for i in range(0, len(flat), rank))
        )

    def __neg__(self) -> "Derivation":
        return Derivation(tuple(tuple(-x for x in v) for v in self.values))


def _fox_matrix(action: ModuleAction, w: Word) -> Tuple[List[List[int]], Optional[Sequence[Vector]]]:
    """The rows of F_w and of M_w, None for the identity, in one pass over
    the letters: at a letter x_i = x_j block j gains the prefix x1 ...
    x_{i-1}, at x_i = x_j^-1 it loses x1 ... x_i; the last prefix is M_w."""
    n = action.rank
    rows = [[0] * (n * len(action.matrices)) for _ in range(n)]
    prefix = None  # the identity, until the first letter is multiplied in
    for idx, exp in w:
        letter = action.letter_rows(idx, exp)
        if exp == -1:
            prefix = letter if prefix is None else _int_product(prefix, letter)
        block, op = slice(idx * n, idx * n + n), add if exp == 1 else sub
        for row, p in zip(rows, _identity_rows(n) if prefix is None else prefix):
            row[block] = map(op, row[block], p)
        if exp == 1:
            prefix = letter if prefix is None else _int_product(prefix, letter)
    return rows, prefix


def _flat_values(action: ModuleAction, deriv: Derivation) -> Vector:
    """The generator values in a row, refused unless they fit the action."""
    if [len(v) for v in deriv.values] != [action.rank] * len(action.matrices):
        raise PreconditionError(f"derivation needs one value of length {action.rank} per generator")
    return deriv.flatten()


def word_value(action: ModuleAction, deriv: Derivation, w: Word) -> Vector:
    """Value of the derivation on an arbitrary word."""
    flat = _flat_values(action, deriv)
    return Matrix(_fox_matrix(action, w)[0], ncols=len(flat)).apply(flat)


def is_derivation(pres: Presentation, action: ModuleAction, deriv: Derivation) -> bool:
    return not any(any(word_value(action, deriv, w)) for w in pres.relators)


@dataclass(frozen=True)
class DerivationLattice:
    """A basis of the lattice of derivations for a fixed presentation and action."""

    presentation: Presentation
    action: ModuleAction
    basis: Tuple[Derivation, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> Matrix:
        return self._basis_matrix

    @cached_property
    def _basis_matrix(self) -> Matrix:
        ncols = self.action.rank * len(self.presentation.generators)
        return Matrix([d.flatten() for d in self.basis], ncols=ncols)

    @cached_property
    def _hermite(self) -> Tuple[Matrix, Optional[Matrix], Tuple[int, ...]]:
        """``(H, U)`` with U * basis = H, and H's pivots, shared by every
        ``coordinates`` call.  A Hermite basis, as ``derivation_space``
        returns, is its own H and U = I, stored as None, so ``coordinates``
        is back-substitution alone; any other basis pays for one ``hnf``."""
        return _hermite_pair(self._basis_matrix)

    def coordinates(self, deriv: Derivation) -> Optional[Tuple[int, ...]]:
        """Same as ``lattice_coordinates(self.basis_matrix(), deriv.flatten())``."""
        return _hermite_coordinates(*self._hermite, deriv.flatten())

    def combination(self, coords: Sequence[int]) -> Derivation:
        flat = self.basis_matrix().apply_left(coords)
        return Derivation.unflatten(flat, self.action.rank)


def _constraint_rows(pres: Presentation, action: ModuleAction) -> List[Vector]:
    """The rows of C, the Fox matrices of the relators stacked; an action
    under which a relator does not act trivially is refused."""
    if len(action.matrices) != len(pres.generators):
        raise PreconditionError("one matrix per generator required")
    rows: List[Vector] = []
    for w in pres.relators:
        fox, mw = _fox_matrix(action, w)
        _refuse_relator(None if mw is None or list(map(list, mw)) == _identity_rows(len(mw)) else w)
        if not all(map(_all_int, fox)):
            raise InternalError("relator coefficients must be integral")
        rows.extend(fox)
    return rows


def derivation_space(pres: Presentation, action: ModuleAction) -> DerivationLattice:
    """Saturated lattice of all derivations, as a Hermite basis.

    The constraint matrix stacks the Fox matrices of the relators; the kernel
    over Z is saturated, so every integer derivation is an integer
    combination of the returned basis.  An action under which a relator
    does not act trivially is refused.
    """
    ncols = action.rank * len(action.matrices)
    if not ncols and len(action.matrices) == len(pres.generators):
        return DerivationLattice(pres, action, ())
    rows = _constraint_rows(pres, action)
    kernel = kernel_lattice(Matrix(rows, ncols=ncols)) if rows else Matrix.identity(ncols)
    basis = tuple(Derivation.unflatten(r, action.rank) for r in kernel.entries)
    return DerivationLattice(pres, action, basis)


def principal_derivation(action: ModuleAction, f: Sequence[int]) -> Derivation:
    """The derivation g |-> g . f - f attached to a module vector."""
    return Derivation(
        tuple(
            tuple(a - b for a, b in zip(m.apply(f), f))
            for m in action.matrices
        )
    )


def _principal_rows(action: ModuleAction) -> List[List[int]]:
    """The rows of D^T, D stacking the blocks M_g - I: row i is the
    derivation of the unit vector e_i, which takes g to g . e_i - e_i,
    column i of M_g - I."""
    return [
        [x - (r == i) for m in action.matrices for r, x in enumerate(m.col(i))]
        for i in range(action.rank)
    ]


def principal_derivations(action: ModuleAction) -> Matrix:
    """Hermite basis (rows, flattened) of the principal sublattice."""
    ncols = action.rank * len(action.matrices)
    return row_hermite_basis(Matrix(_principal_rows(action), ncols=ncols))


@dataclass(frozen=True)
class CohomologyGroup:
    """Finitely generated abelian group: free rank plus invariant factors > 1."""

    free_rank: int
    torsion: Tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise PreconditionError("free rank must be nonnegative")
        for i, t in enumerate(self.torsion):
            if t <= 1:
                raise PreconditionError("torsion entries must exceed 1")
            if i and t % self.torsion[i - 1] != 0:
                raise PreconditionError("torsion entries must form a divisibility chain")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> Optional[int]:
        if self.free_rank:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def h1(pres: Presentation, action: ModuleAction) -> CohomologyGroup:
    """First cohomology of the action: derivations modulo principal ones.

    Z^1 = ker C is saturated in Z^N and holds B^1 = im D, so
    H^1 = Z^1 / B^1 is Z^(N - rank C - rank D) plus the torsion of
    Z^N / im D, the invariant factors of D greater than 1: an x in Z^N
    with m x in B^1 has C x = 0.  The certificate is C D = 0.  When N =
    rank * generators is 0, Z^N = 0 and so is H^1, whatever the rank:
    then every relator acts trivially and neither C nor D is built."""
    ncols = action.rank * len(action.matrices)
    if not ncols and len(action.matrices) == len(pres.generators):
        return CohomologyGroup(0, ())
    rows = _constraint_rows(pres, action)
    principal = _principal_rows(action)
    if any(sum(map(mul, c, p)) for c in rows for p in principal):
        raise InternalError("principal derivation outside the derivation lattice")
    rank_c = len(_eliminate(rows, ncols, forward=True)[1])
    factors = invariant_factors(Matrix(principal, ncols=ncols))
    return CohomologyGroup(
        ncols - rank_c - len(factors),
        tuple(t for t in factors if t > 1),
    )


# ---------------------------------------------------------------------------
# conjugation action on derivations


@dataclass(frozen=True)
class RewritingTable:
    """Canonical words for the conjugates g^-1 . (generator) . g."""

    element: Word
    conjugates: Tuple[Word, ...]


def rewriting_table(engine, g: Word) -> RewritingTable:
    ngens = len(engine.presentation.generators)
    conj = []
    for i in range(ngens):
        w = concat_words(invert_word(g), ((i, 1),), g)
        conj.append(engine.to_word(engine.normal_form(w)))
    return RewritingTable(tuple(g), tuple(conj))


def _conjugation_matrix(action: ModuleAction, table: RewritingTable) -> List[List[int]]:
    """The rows of C with (g * d).flatten() = C . d.flatten(): block row i
    is M_g F_{w_i} for the conjugate word w_i of generator i."""
    mg = evaluate_word(action, table.element).entries
    return [r for w in table.conjugates for r in _int_product(mg, _fox_matrix(action, w)[0])]


def conjugate_derivation(
    action: ModuleAction, deriv: Derivation, table: RewritingTable
) -> Derivation:
    """The derivation h |-> g . d(g^-1 h g), evaluated on the generators.

    Well defined on any word representing the conjugate because d
    satisfies the relators.
    """
    values = _flat_values(action, deriv)
    flat = Matrix(_conjugation_matrix(action, table), ncols=len(values)).apply(values)
    return Derivation.unflatten(flat, action.rank)


def conjugation_action(
    g: Word, table: RewritingTable, lattice: DerivationLattice
) -> Matrix:
    """Matrix of d |-> g * d on the lattice basis; row i holds the
    coordinates of the image of basis derivation i.

    With this row convention composition reverses: the matrix of the
    product g1 g2 is matrix(g2) * matrix(g1).
    """
    if tuple(g) != tuple(table.element):
        raise PreconditionError("rewriting table was built for a different element")
    conj = _conjugation_matrix(lattice.action, table)
    rows = []
    for basis_row in lattice.basis_matrix().entries:
        image = [sum(map(mul, basis_row, c)) for c in conj]
        coords = lattice.coordinates(Derivation.unflatten(image, lattice.action.rank))
        if coords is None:
            raise InternalError("conjugated derivation left the lattice")
        rows.append(coords)
    out = Matrix(rows, ncols=lattice.rank)
    if out.det() not in (1, -1):
        raise InternalError("conjugation action must be unimodular")
    return out


# ---------------------------------------------------------------------------
# equivariant units


def commutant_lattice(action: ModuleAction) -> Matrix:
    """Hermite basis (rows, flattened) of {X : X M_g = M_g X for all g}."""
    n = action.rank
    rows = []
    for m in action.matrices:
        for i in range(n):
            for j in range(n):
                coeff = [0] * (n * n)
                for q in range(n):
                    coeff[i * n + q] += m.entries[q][j]
                for p in range(n):
                    coeff[p * n + j] -= m.entries[i][p]
                rows.append(coeff)
    if not rows:
        return Matrix.identity(n * n)
    return kernel_lattice(Matrix(rows, ncols=n * n))


def equivariant_units(action: ModuleAction, bound: int) -> List[Matrix]:
    """All X with X M_g = M_g X, det X = +-1, and |entries| <= bound.

    Enumerates the commutant lattice through its Hermite basis; each
    pivot coordinate of X is fixed once the corresponding coefficient is
    chosen, which prunes the search to the entry box.  Runtime grows
    like (2*bound+1)^rank(commutant).  Results are sorted by entries.
    """
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise PreconditionError("bound must be a nonnegative integer")
    n = action.rank
    basis = commutant_lattice(action)
    r = basis.nrows
    if r == 0:
        return []
    pivots = []
    for row in basis.entries:
        p = next(j for j, x in enumerate(row) if x != 0)
        pivots.append(p)
    found = []

    def descend(level: int, partial: List[int]):
        if level == r:
            if all(abs(x) <= bound for x in partial):
                mat = Matrix(
                    [partial[i * n : (i + 1) * n] for i in range(n)], ncols=n
                )
                if mat.det() in (1, -1):
                    found.append(mat)
            return
        row = basis.entries[level]
        p = pivots[level]
        s = partial[p]
        piv = row[p]
        # rows below this one are zero at column p, so partial[p] is final
        lo = -((bound + s) // piv)
        hi = (bound - s) // piv
        for c in range(lo, hi + 1):
            descend(
                level + 1,
                [x + c * y for x, y in zip(partial, row)] if c else list(partial),
            )

    descend(0, [0] * (n * n))
    found.sort(key=lambda m: tuple(itertools.chain.from_iterable(m.entries)))
    return found
