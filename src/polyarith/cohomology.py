"""Degree-one group cohomology for matrix actions on Z^n, via derivations.

A derivation for an action of a group D on F = Z^n is a map with
d(h1 h2) = d(h1) + h1 . d(h2).  It is determined by its values on the
generators; an assignment of generator values extends to the group
exactly when the expansion of every relator evaluates to zero.  The
expansion of a word is

    d(x1 ... xm) = sum_i (x1 ... x_{i-1}) . delta(x_i)

with delta(g) = d(g) on a positive letter and delta(g^-1) = -g^-1 . d(g)
on a negative one.

The lattice of derivations plays the role of the cocycle group Z^1, the
shifts f |-> (g . f - f) of module vectors are the principal
derivations B^1, and h1 computes the quotient by Smith reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .errors import InternalError, PreconditionError
from .linalg import (
    Matrix,
    _hermite_coordinates,
    _require_integral,
    hnf,
    kernel_lattice,
    row_hermite_basis,
    snf,
)
from .presentations import ModuleAction, Presentation, Word, concat_words, evaluate_word, invert_word

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


def word_value(action: ModuleAction, deriv: Derivation, w: Word) -> Vector:
    """Value of the derivation on an arbitrary word, by the product rule."""
    prefix = Matrix.identity(action.rank)
    acc = [0] * action.rank
    for idx, exp in w:
        if exp == 1:
            img = prefix.apply(deriv.values[idx])
            prefix = prefix * action.matrices[idx]
        else:
            prefix = prefix * action.matrices[idx].inverse()
            img = tuple(-x for x in prefix.apply(deriv.values[idx]))
        acc = [a + b for a, b in zip(acc, img)]
    return tuple(acc)


def is_derivation(pres: Presentation, action: ModuleAction, deriv: Derivation) -> bool:
    return all(
        all(x == 0 for x in word_value(action, deriv, w)) for w in pres.relators
    )


def _relator_blocks(action: ModuleAction, w: Word, ngens: int) -> List[Matrix]:
    """Coefficient matrices: relator value = sum_j blocks[j] * d_j."""
    n = action.rank
    blocks = [Matrix.zero(n, n) for _ in range(ngens)]
    prefix = Matrix.identity(n)
    for idx, exp in w:
        if exp == 1:
            blocks[idx] = blocks[idx] + prefix
            prefix = prefix * action.matrices[idx]
        else:
            prefix = prefix * action.matrices[idx].inverse()
            blocks[idx] = blocks[idx] - prefix
    return blocks


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
    def _hermite(self) -> Tuple[Matrix, Matrix]:
        """``hnf`` of the basis matrix, shared by every ``coordinates`` call."""
        _require_integral(self._basis_matrix, "lattice_coordinates")
        return hnf(self._basis_matrix)

    def coordinates(self, deriv: Derivation) -> Optional[Tuple[int, ...]]:
        """Same as ``lattice_coordinates(self.basis_matrix(), deriv.flatten())``."""
        return _hermite_coordinates(*self._hermite, deriv.flatten())

    def combination(self, coords: Sequence[int]) -> Derivation:
        flat = self.basis_matrix().apply_left(coords)
        return Derivation.unflatten(flat, self.action.rank)


def derivation_space(pres: Presentation, action: ModuleAction) -> DerivationLattice:
    """Saturated lattice of all derivations, as a Hermite basis.

    The constraint matrix stacks one block row per relator; the kernel
    over Z is saturated, so every integer derivation is an integer
    combination of the returned basis.
    """
    if len(action.matrices) != len(pres.generators):
        raise PreconditionError("one matrix per generator required")
    ngens = len(pres.generators)
    n = action.rank
    if ngens == 0:
        return DerivationLattice(pres, action, ())
    rows: List[List[int]] = []
    for w in pres.relators:
        blocks = _relator_blocks(action, w, ngens)
        if any(not b.is_integral() for b in blocks):
            raise InternalError("relator coefficients must be integral")
        for i in range(n):
            rows.append(
                list(itertools.chain.from_iterable(b.entries[i] for b in blocks))
            )
    constraint = Matrix(rows, ncols=n * ngens)
    kernel = kernel_lattice(constraint) if rows else Matrix.identity(n * ngens)
    basis = tuple(Derivation.unflatten(r, n) for r in kernel.entries)
    return DerivationLattice(pres, action, basis)


def principal_derivation(action: ModuleAction, f: Sequence[int]) -> Derivation:
    """The derivation g |-> g . f - f attached to a module vector."""
    return Derivation(
        tuple(
            tuple(a - b for a, b in zip(m.apply(f), f))
            for m in action.matrices
        )
    )


def principal_derivations(action: ModuleAction) -> Matrix:
    """Hermite basis (rows, flattened) of the principal sublattice."""
    n = action.rank
    gens = []
    for i in range(n):
        f = tuple(1 if j == i else 0 for j in range(n))
        gens.append(principal_derivation(action, f).flatten())
    ngens = len(action.matrices)
    return row_hermite_basis(Matrix(gens, ncols=n * ngens))


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
    """First cohomology of the action: derivations modulo principal ones."""
    lattice = derivation_space(pres, action)
    principal = principal_derivations(action)
    coords = []
    for r in principal.entries:
        c = lattice.coordinates(Derivation.unflatten(r, action.rank))
        if c is None:
            raise InternalError("principal derivation outside the derivation lattice")
        coords.append(c)
    if not coords:
        return CohomologyGroup(lattice.rank, ())
    factors = snf(Matrix(coords, ncols=lattice.rank)).invariant_factors
    return CohomologyGroup(
        lattice.rank - len(factors),
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


def conjugate_derivation(
    action: ModuleAction, deriv: Derivation, table: RewritingTable
) -> Derivation:
    """The derivation h |-> g . d(g^-1 h g), evaluated on the generators.

    Well defined on any word representing the conjugate because d
    satisfies the relators.
    """
    mg = evaluate_word(action, table.element)
    values = []
    for w in table.conjugates:
        values.append(mg.apply(word_value(action, deriv, w)))
    return Derivation(tuple(values))


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
    rows = []
    for d in lattice.basis:
        image = conjugate_derivation(lattice.action, d, table)
        coords = lattice.coordinates(image)
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
