"""Exact-arithmetic toolkit for the automorphism structure of polycyclic
groups built as semidirect products, plus the Lie algebra cohomology
machinery used to study their nilpotent shadows.

Everything computes over Z and Q with no floating point anywhere.

The names below are re-exported from the submodules that define them.
Each resolves on first access (PEP 562), so ``from polyarith import X``
loads only X's module and what that module imports.
"""

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arithmeticity": "FAILS FINITE_ORDER SEMISIMPLE VIRTUALLY_UNIPOTENT ArithVerdict FamilyReport"
    " classify non_arithmeticity_report",
    "cohomology": "CohomologyGroup Derivation DerivationLattice RewritingTable conjugate_derivation"
    " conjugation_action commutant_lattice derivation_space equivariant_units h1 is_derivation"
    " principal_derivation principal_derivations rewriting_table word_value",
    "errors": "InternalError PreconditionError SchemaError",
    "lie": "InvariantCohomology KoszulComplex LieAlgebra LieAutomorphism RigidityResult abelian"
    " action_on_cohomology build_koszul dimension_cap direct_sum filiform form_action free_two_step"
    " heisenberg inner_automorphism invariant_subcomplex nilpotent_catalog"
    " semisimple_rigidity_check sl2 strictly_upper",
    "linalg": "JordanPair Matrix SmithDecomposition block_diag char_poly finite_order hnf"
    " invariant_factors jordan_chevalley kernel_lattice lattice_coordinates min_poly"
    " nilpotency_index nilpotent_exp nilpotent_log rational_kernel row_hermite_basis snf solve"
    " wedge_power",
    "polynomials": "Poly",
    "presentations": "DihedralEngine FreeAbelianEngine ModuleAction Presentation checked_action"
    " dihedral_presentation evaluate_word free_abelian_presentation validate_action",
    "quadratic": "QuadElem QuadOrder fundamental_pell",
    "semidirect": "Automorphism DerivationAtom EquivariantAtom GammaEpsilon InnerAtom"
    " SemidirectElement SemidirectGroup build_gamma_epsilon gamma_epsilon_derivation_basis",
}
# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
