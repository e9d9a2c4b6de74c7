"""Exact-arithmetic toolkit for the automorphism structure of polycyclic
groups built as semidirect products, plus the Lie algebra cohomology
machinery used to study their nilpotent shadows.

Everything computes over Z and Q with no floating point anywhere.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .arithmeticity import (
    FAILS,
    FINITE_ORDER,
    SEMISIMPLE,
    VIRTUALLY_UNIPOTENT,
    ArithVerdict,
    FamilyReport,
    classify,
    non_arithmeticity_report,
)
from .cohomology import (
    CohomologyGroup,
    Derivation,
    DerivationLattice,
    RewritingTable,
    conjugate_derivation,
    conjugation_action,
    commutant_lattice,
    derivation_space,
    equivariant_units,
    h1,
    is_derivation,
    principal_derivation,
    principal_derivations,
    rewriting_table,
    word_value,
)
from .errors import InternalError, PreconditionError, SchemaError
from .lie import (
    InvariantCohomology,
    KoszulComplex,
    LieAlgebra,
    LieAutomorphism,
    RigidityResult,
    abelian,
    action_on_cohomology,
    build_koszul,
    dimension_cap,
    direct_sum,
    filiform,
    form_action,
    free_two_step,
    heisenberg,
    inner_automorphism,
    invariant_subcomplex,
    nilpotent_catalog,
    semisimple_rigidity_check,
    sl2,
    strictly_upper,
)
from .linalg import (
    JordanPair,
    Matrix,
    SmithDecomposition,
    block_diag,
    char_poly,
    finite_order,
    hnf,
    invariant_factors,
    jordan_chevalley,
    kernel_lattice,
    lattice_coordinates,
    min_poly,
    nilpotency_index,
    nilpotent_exp,
    nilpotent_log,
    rational_kernel,
    row_hermite_basis,
    snf,
    solve,
    wedge_power,
)
from .polynomials import Poly
from .presentations import (
    DihedralEngine,
    FreeAbelianEngine,
    ModuleAction,
    Presentation,
    checked_action,
    dihedral_presentation,
    evaluate_word,
    free_abelian_presentation,
    validate_action,
)
from .quadratic import QuadElem, QuadOrder, fundamental_pell
from .semidirect import (
    Automorphism,
    DerivationAtom,
    EquivariantAtom,
    GammaEpsilon,
    InnerAtom,
    SemidirectElement,
    SemidirectGroup,
    build_gamma_epsilon,
    gamma_epsilon_derivation_basis,
)

# every public name bound above that is not a submodule
__all__ = [
    name
    for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
