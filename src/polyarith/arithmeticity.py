"""Necessary-condition screening for arithmeticity of lattice extensions.

For A in GL(n, Z), the cyclic extension of Z^n by the automorphism A
can only be arithmetic (in the sense of sitting as a lattice in a
Q-defined algebraic group in a compatible way) if A has finite order,
or some positive power of A is unipotent, or A is semisimple.  The
classifier decides which branch holds through the multiplicative
Jordan decomposition; failing all three branches certifies
non-arithmeticity, while the Semisimple branch remains only necessary,
not sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cohomology import DerivationLattice, conjugation_action, derivation_space, rewriting_table
from .errors import InternalError, PreconditionError
from .linalg import (
    JordanPair,
    Matrix,
    _cyclotomic_order,
    _require_integral,
    _require_square,
    char_poly,
    jordan_chevalley,
)
from .polynomials import Poly
from .semidirect import GammaEpsilon, build_gamma_epsilon, gamma_epsilon_derivation_basis

FINITE_ORDER = "FiniteOrder"
VIRTUALLY_UNIPOTENT = "VirtuallyUnipotent"
SEMISIMPLE = "Semisimple"
FAILS = "FailsNecessaryCondition"


@dataclass(frozen=True)
class ArithVerdict:
    """Outcome of the necessary-condition check, with the Jordan witness.

    ``order`` is the order of A itself on the FiniteOrder branch and the
    order of the semisimple factor (the power that becomes unipotent) on
    the VirtuallyUnipotent branch.
    """

    classification: str
    order: Optional[int]
    witness: JordanPair

    def passes(self) -> bool:
        return self.classification != FAILS

    def interpretation(self) -> str:
        if self.classification == FINITE_ORDER:
            return f"A has finite order {self.order}; the necessary condition holds."
        if self.classification == VIRTUALLY_UNIPOTENT:
            return f"A^{self.order} is unipotent; the necessary condition holds."
        if self.classification == SEMISIMPLE:
            return (
                "A is semisimple of infinite order; the necessary condition holds "
                "but this check alone does not decide arithmeticity."
            )
        return (
            "A is neither of finite order, nor virtually unipotent, nor semisimple; "
            "the extension of the lattice by A is not arithmetic."
        )


def classify(a: Matrix) -> ArithVerdict:
    """Run the necessary-condition trichotomy on A in GL(n, Z)."""
    _require_square(a, "classify")
    _require_integral(a, "classify")
    if a.det() not in (1, -1):
        raise PreconditionError("classify needs determinant +-1")
    pair = jordan_chevalley(a)
    s_order = _cyclotomic_order(pair.poly)
    unipotent_trivial = pair.unipotent.is_identity()
    if s_order is not None and unipotent_trivial:
        return ArithVerdict(FINITE_ORDER, s_order, pair)
    if s_order is not None:
        return ArithVerdict(VIRTUALLY_UNIPOTENT, s_order, pair)
    if unipotent_trivial:
        return ArithVerdict(SEMISIMPLE, None, pair)
    return ArithVerdict(FAILS, None, pair)


@dataclass(frozen=True)
class FamilyReport:
    """End-to-end non-arithmeticity evidence for one Pell parameter d.

    ``inner_action`` is the matrix, rows as images in the distinguished
    derivation basis, of conjugation by the translation generator acting
    on derivations.  ``coupling`` is the resolved off-diagonal scale
    gcd(a+1, b*d) appearing in its lower block.  ``infinite_order_factor``
    is the characteristic polynomial x^2 - 2a x + 1 of that block, whose
    roots are the Pell unit and its conjugate.
    """

    d: int
    a: int
    b: int
    coupling: int
    derivation_rank: int
    inner_action: Matrix
    verdict: ArithVerdict
    unipotent_block: Matrix
    infinite_order_factor: Poly

    @property
    def classification(self) -> str:
        return self.verdict.classification

    @property
    def resolved_entry(self) -> int:
        """Integer coupling entry of the lower block of ``inner_action``:
        the one entry there not fixed by a alone.  Determinant one of the
        block forces it to equal ``coupling``."""
        return self.inner_action[2, 3]


def non_arithmeticity_report(d: int) -> FamilyReport:
    """Build the Pell family group for d and classify conjugation by the
    translation generator on its derivation lattice.  One comparison
    certifies the distinguished basis: equal Hermite forms mean equal
    lattices, and ``derivation_space`` gives all derivations as a Hermite
    basis, so the cached Hermite form of the basis must be that basis."""
    ge = build_gamma_epsilon(d)
    group = ge.group
    lattice = DerivationLattice(group.presentation, group.action, gamma_epsilon_derivation_basis(ge))
    full = derivation_space(group.presentation, group.action)
    if lattice._hermite[0] != full.basis_matrix():
        raise InternalError("distinguished basis does not span the full lattice")

    g_word = group.presentation.word([("A", 1)])
    table = rewriting_table(group.engine, g_word)
    inner = conjugation_action(g_word, table, lattice)
    verdict = classify(inner)

    if inner[2, 3] != ge.coupling:
        raise InternalError("lower block coupling entry drifted from gcd(a+1, b*d)")
    unip_block = verdict.witness.unipotent.submatrix((0, 1), (0, 1))
    factor = char_poly(inner.submatrix((2, 3), (2, 3)))
    reconstructed = (Poly.of(-1, 1) * factor).monic()
    if reconstructed != verdict.witness.poly:
        raise InternalError("semisimple factor polynomial mismatch")
    return FamilyReport(
        d=d,
        a=ge.a,
        b=ge.b,
        coupling=ge.coupling,
        derivation_rank=full.rank,
        inner_action=inner,
        verdict=verdict,
        unipotent_block=unip_block,
        infinite_order_factor=factor,
    )
