import importlib
import types

import polyarith

# every re-export of the package, by the submodule that defines it
EXPORTS = {
    "arithmeticity": [
        "FAILS", "FINITE_ORDER", "SEMISIMPLE", "VIRTUALLY_UNIPOTENT", "ArithVerdict",
        "FamilyReport", "classify", "non_arithmeticity_report",
    ],
    "cohomology": [
        "CohomologyGroup", "Derivation", "DerivationLattice", "RewritingTable",
        "conjugate_derivation", "conjugation_action", "commutant_lattice", "derivation_space",
        "equivariant_units", "h1", "is_derivation", "principal_derivation",
        "principal_derivations", "rewriting_table", "word_value",
    ],
    "errors": ["InternalError", "PreconditionError", "SchemaError"],
    "lie": [
        "InvariantCohomology", "KoszulComplex", "LieAlgebra", "LieAutomorphism", "RigidityResult",
        "abelian", "action_on_cohomology", "build_koszul", "dimension_cap", "direct_sum",
        "filiform", "form_action", "free_two_step", "heisenberg", "inner_automorphism",
        "invariant_subcomplex", "nilpotent_catalog", "semisimple_rigidity_check", "sl2",
        "strictly_upper",
    ],
    "linalg": [
        "JordanPair", "Matrix", "SmithDecomposition", "block_diag", "char_poly", "finite_order",
        "hnf", "invariant_factors", "jordan_chevalley", "kernel_lattice", "lattice_coordinates",
        "min_poly", "nilpotency_index", "nilpotent_exp", "nilpotent_log", "rational_kernel",
        "row_hermite_basis", "snf", "solve", "wedge_power",
    ],
    "polynomials": ["Poly"],
    "presentations": [
        "DihedralEngine", "FreeAbelianEngine", "ModuleAction", "Presentation", "checked_action",
        "dihedral_presentation", "evaluate_word", "free_abelian_presentation", "validate_action",
    ],
    "quadratic": ["QuadElem", "QuadOrder", "fundamental_pell"],
    "semidirect": [
        "Automorphism", "DerivationAtom", "EquivariantAtom", "GammaEpsilon", "InnerAtom",
        "SemidirectElement", "SemidirectGroup", "build_gamma_epsilon",
        "gamma_epsilon_derivation_basis",
    ],
}


def test_all_entries_resolve_and_are_not_modules():
    assert len(set(polyarith.__all__)) == len(polyarith.__all__)
    for name in polyarith.__all__:
        value = getattr(polyarith, name)
        assert not isinstance(value, types.ModuleType), name


def test_all_lists_every_public_import():
    assert polyarith.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(polyarith.__all__) == 88
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"polyarith.{module}")
        for name in names:
            assert getattr(polyarith, name) is getattr(defining, name), name
    # once every name has resolved, the package holds no other public name
    public = {
        name
        for name, value in vars(polyarith).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(polyarith.__all__)


def test_unknown_names_raise_attribute_error():
    assert not hasattr(polyarith, "no_such_name")


def test_dir_lists_every_export():
    assert set(polyarith.__all__) <= set(dir(polyarith))
    assert "__version__" in dir(polyarith)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from polyarith import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(polyarith.__all__)
