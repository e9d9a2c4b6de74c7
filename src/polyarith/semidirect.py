"""Semidirect products Z^n x D for a finitely presented group D acting
by unimodular integer matrices, together with structured automorphisms.

Elements are pairs (translation, form): an integer vector and a normal
form from the group engine.  The product rule is

    (f1, g1) * (f2, g2) = (f1 + g1 . f2, g1 g2).

The engine gives normal forms and words only: g1 g2 is the normal form
of the concatenated words, and g acts by the matrix of its word.

Automorphisms fixing the translation lattice setwise and inducing the
identity on the quotient are built from three kinds of atoms: a
derivation shift (m, g) |-> (m + d(g), g), an equivariant unit
(m, g) |-> (rho m, g), and conjugation by a fixed element.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

from .cohomology import Derivation, word_value
from .errors import PreconditionError
from .linalg import Matrix, block_diag
from .presentations import (
    DihedralEngine,
    ModuleAction,
    Presentation,
    _check_engine,
    _refuse_relator,
    evaluate_word,
    invert_word,
    validate_action,
)
from .quadratic import QuadElem, QuadOrder

Vector = Tuple[int, ...]


@dataclass(frozen=True)
class SemidirectElement:
    translation: Vector
    form: object

    def __iter__(self):
        return iter((self.translation, self.form))


class SemidirectGroup:
    """Z^rank twisted by a presented group through a validated action."""

    def __init__(self, presentation: Presentation, action: ModuleAction, engine):
        _refuse_relator(validate_action(presentation, action))
        _check_engine(presentation, engine)
        self.presentation = presentation
        self.action = action
        self.engine = engine
        self.rank = action.rank

    def identity(self) -> SemidirectElement:
        return SemidirectElement((0,) * self.rank, self.engine.identity)

    def element(self, translation: Sequence[int], form) -> SemidirectElement:
        translation = tuple(translation)
        if len(translation) != self.rank:
            raise PreconditionError("translation length must equal the rank")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in translation):
            raise PreconditionError("translation entries must be integers")
        try:
            if (nf := self.engine.normal_form(self.engine.to_word(form))) == form:
                return SemidirectElement(translation, nf)
        except (TypeError, ValueError):
            pass
        raise PreconditionError(f"{form!r} is not a normal form")

    def form_matrix(self, form) -> Matrix:
        return evaluate_word(self.action, self.engine.to_word(form))

    def multiply(self, x: SemidirectElement, y: SemidirectElement) -> SemidirectElement:
        wx = self.engine.to_word(x.form)
        moved = evaluate_word(self.action, wx).apply(y.translation)
        return SemidirectElement(
            tuple(a + b for a, b in zip(x.translation, moved)),
            self.engine.normal_form(wx + self.engine.to_word(y.form)),
        )

    def invert(self, x: SemidirectElement) -> SemidirectElement:
        wi = invert_word(self.engine.to_word(x.form))
        moved = evaluate_word(self.action, wi).apply(x.translation)
        return SemidirectElement(tuple(-v for v in moved), self.engine.normal_form(wi))

    def conjugate(self, g: SemidirectElement, x: SemidirectElement) -> SemidirectElement:
        return self.multiply(self.multiply(g, x), self.invert(g))

    def derivation_value(self, deriv: Derivation, form) -> Vector:
        return word_value(self.action, deriv, self.engine.to_word(form))

    def generating_set(self) -> List[SemidirectElement]:
        """Module basis vectors and group generators, with inverses."""
        gens = []
        for i in range(self.rank):
            e = tuple(1 if j == i else 0 for j in range(self.rank))
            gens.append(self.element(e, self.engine.identity))
            gens.append(self.element(tuple(-x for x in e), self.engine.identity))
        for j in range(len(self.presentation.generators)):
            for exp in (1, -1):
                gens.append(self.element((0,) * self.rank, self.engine.normal_form(((j, exp),))))
        return gens


# ---------------------------------------------------------------------------
# automorphism atoms


@dataclass(frozen=True)
class DerivationAtom:
    """(m, g) |-> (m + d(g), g)."""

    derivation: Derivation


@dataclass(frozen=True)
class EquivariantAtom:
    """(m, g) |-> (rho m, g) for an equivariant unimodular rho."""

    matrix: Matrix


@dataclass(frozen=True)
class InnerAtom:
    """Conjugation by a fixed element."""

    element: SemidirectElement


Atom = Union[DerivationAtom, EquivariantAtom, InnerAtom]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""
    pair: Optional[Tuple[SemidirectElement, SemidirectElement]] = None


class Automorphism:
    """Composite of atoms, applied in list order."""

    def __init__(self, group: SemidirectGroup, atoms: Sequence[Atom]):
        self.group = group
        self.atoms = tuple(atoms)

    def apply(self, x: SemidirectElement) -> SemidirectElement:
        g = self.group
        for atom in self.atoms:
            if isinstance(atom, DerivationAtom):
                shift = g.derivation_value(atom.derivation, x.form)
                x = SemidirectElement(
                    tuple(a + b for a, b in zip(x.translation, shift)), x.form
                )
            elif isinstance(atom, EquivariantAtom):
                x = SemidirectElement(atom.matrix.apply(x.translation), x.form)
            elif isinstance(atom, InnerAtom):
                x = g.conjugate(atom.element, x)
            else:
                raise PreconditionError(f"unknown atom {atom!r}")
        return x

    def inverse(self) -> "Automorphism":
        inv: List[Atom] = []
        for atom in reversed(self.atoms):
            if isinstance(atom, DerivationAtom):
                inv.append(DerivationAtom(-atom.derivation))
            elif isinstance(atom, EquivariantAtom):
                if atom.matrix.det() not in (1, -1):
                    raise PreconditionError("equivariant atom is not invertible over Z")
                inv.append(EquivariantAtom(atom.matrix.inverse()))
            elif isinstance(atom, InnerAtom):
                inv.append(InnerAtom(self.group.invert(atom.element)))
            else:
                raise PreconditionError(f"unknown atom {atom!r}")
        return Automorphism(self.group, inv)

    def verify(self) -> VerifyResult:
        """Check the homomorphism law on all generator pairs, and that the
        formal inverse undoes the map.  Returns the first counterexample."""
        g = self.group
        for atom in self.atoms:
            if isinstance(atom, EquivariantAtom) and atom.matrix.det() not in (1, -1):
                return VerifyResult(False, "equivariant atom is not invertible over Z")
        gens = g.generating_set()
        for x in gens:
            for y in gens:
                lhs = self.apply(g.multiply(x, y))
                rhs = g.multiply(self.apply(x), self.apply(y))
                if lhs != rhs:
                    return VerifyResult(False, "homomorphism law fails", (x, y))
        try:
            inv = self.inverse()
        except PreconditionError as e:
            return VerifyResult(False, str(e))
        for x in gens:
            if inv.apply(self.apply(x)) != x:
                return VerifyResult(False, "inverse composition is not the identity", (x, x))
        return VerifyResult(True)


# ---------------------------------------------------------------------------
# the dihedral Pell family


@dataclass(frozen=True)
class GammaEpsilon:
    """Z^3 twisted by the infinite dihedral group through a Pell unit.

    The translation lattice has basis (1, w, e) where w = sqrt(d) spans
    the quadratic order with the first two coordinates and e is a
    central direction that the reflection negates.  The translation
    generator acts by multiplication by the fundamental Pell unit
    eps = a + b w, the reflection by conjugation of the order and -1 on e.
    """

    group: SemidirectGroup
    unit: QuadElem

    @property
    def a(self) -> int:
        return self.unit.x

    @property
    def b(self) -> int:
        return self.unit.y

    @property
    def d(self) -> int:
        return self.unit.d

    @property
    def coupling(self) -> int:
        """gcd(a + 1, b d), the scale tying the two non-central derivations."""
        return gcd(self.a + 1, self.b * self.d)


def build_gamma_epsilon(d: int) -> GammaEpsilon:
    order = QuadOrder(d)
    eps = order.fundamental_unit()
    engine = DihedralEngine()
    pres = engine.presentation
    mat_a = block_diag(eps.mult_matrix(), Matrix([[1]]))
    mat_t = block_diag(order.conjugation_matrix(), Matrix([[-1]]))
    group = SemidirectGroup(pres, ModuleAction(3, (mat_a, mat_t)), engine)
    return GammaEpsilon(group, eps)


def gamma_epsilon_derivation_basis(ge: GammaEpsilon) -> Tuple[Derivation, ...]:
    """Distinguished basis of the derivation lattice of the family, by the
    paper's formula; ``non_arithmeticity_report`` certifies it.

    In order: the central shift seen on the translation generator, the
    central shift seen on the reflection, the w-shift seen on both, and
    the scaled unit-translation shift (eps + 1) w / coupling on the
    translation generator alone.
    """
    a, b, d, ell = ge.a, ge.b, ge.d, ge.coupling
    return (
        Derivation(((0, 0, 1), (0, 0, 0))),
        Derivation(((0, 0, 0), (0, 0, 1))),
        Derivation(((0, 1, 0), (0, 1, 0))),
        Derivation(((b * d // ell, (a + 1) // ell, 0), (0, 0, 0))),
    )
