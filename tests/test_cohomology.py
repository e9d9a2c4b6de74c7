import json
import math
import random
from fractions import Fraction

import pytest

from polyarith import cohomology, linalg
from polyarith.cli import main
from polyarith.cohomology import (
    CohomologyGroup,
    Derivation,
    DerivationLattice,
    RewritingTable,
    _fox_matrix,
    commutant_lattice,
    conjugate_derivation,
    conjugation_action,
    derivation_space,
    equivariant_units,
    h1,
    is_derivation,
    principal_derivation,
    principal_derivations,
    rewriting_table,
    word_value,
)
from polyarith.errors import InternalError, PreconditionError
from polyarith.linalg import Matrix, kernel_lattice, lattice_coordinates
from polyarith.presentations import (
    FreeAbelianEngine,
    ModuleAction,
    Presentation,
    dihedral_presentation,
    evaluate_word,
)
from polyarith.semidirect import build_gamma_epsilon

from oracles import (
    evaluate_word_from_identity,
    finite_group_h1,
    fox_matrix_from_identity,
    h1_by_derivation_lattice,
    principal_rows_by_apply,
    quotient_structure,
    relator_rows_by_letters,
    word_value_by_letters,
)
from test_linalg import lattice_h1_actions

# ---------------------------------------------------------------------------
# finite test groups: presentation, faithful permutations, actions


def cyclic_presentation(n, name="r"):
    return Presentation((name,), (((0, 1),) * n,))


KLEIN = Presentation(
    ("s", "t"),
    (
        ((0, 1), (0, 1)),
        ((1, 1), (1, 1)),
        ((0, 1), (1, 1), (0, 1), (1, 1)),
    ),
)

SYM3 = Presentation(
    ("r", "s"),
    (
        ((0, 1), (0, 1), (0, 1)),
        ((1, 1), (1, 1)),
        ((0, 1), (1, 1), (0, 1), (1, 1)),
    ),
)

ROT3 = Matrix([[0, -1], [1, -1]])
SWAP = Matrix([[0, 1], [1, 0]])

FINITE_CASES = [
    # (label, presentation, generator permutations, matrices, group order)
    ("C2 sign on Z", cyclic_presentation(2, "t"), [(1, 0)], [Matrix([[-1]])], 2),
    ("C2 trivial on Z", cyclic_presentation(2, "t"), [(1, 0)], [Matrix([[1]])], 2),
    ("C2 swap on Z^2", cyclic_presentation(2, "t"), [(1, 0)], [SWAP], 2),
    ("C2 minus one on Z^2", cyclic_presentation(2, "t"), [(1, 0)], [-Matrix.identity(2)], 2),
    ("C3 rotation on Z^2", cyclic_presentation(3), [(1, 2, 0)], [ROT3], 3),
    (
        "C3 cycle on Z^3",
        cyclic_presentation(3),
        [(1, 2, 0)],
        [Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])],
        3,
    ),
    (
        "Klein signs on Z^2",
        KLEIN,
        [(1, 0, 3, 2), (2, 3, 0, 1)],
        [Matrix([[-1, 0], [0, 1]]), Matrix([[1, 0], [0, -1]])],
        4,
    ),
    (
        "Klein blocks on Z^4",
        KLEIN,
        [(1, 0, 3, 2), (2, 3, 0, 1)],
        [
            Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
        ],
        4,
    ),
    ("S3 standard on Z^2", SYM3, [(1, 2, 0), (1, 0, 2)], [ROT3, SWAP], 6),
    (
        "S3 permutation on Z^3",
        SYM3,
        [(1, 2, 0), (1, 0, 2)],
        [
            Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        ],
        6,
    ),
    (
        "S3 standard plus sign plus trivial on Z^4",
        SYM3,
        [(1, 2, 0), (1, 0, 2)],
        [
            Matrix([[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]),
        ],
        6,
    ),
]


def case_action(case):
    _, pres, _, mats, _ = case
    return pres, ModuleAction(mats[0].nrows, tuple(mats))


# ---------------------------------------------------------------------------
# derivations


def test_derivation_flatten_roundtrip():
    d = Derivation(((1, 2), (3, 4)))
    assert d.flatten() == (1, 2, 3, 4)
    assert Derivation.unflatten((1, 2, 3, 4), 2) == d
    assert (-d).values == ((-1, -2), (-3, -4))


def test_word_value_cocycle_rule():
    pres, action = case_action(FINITE_CASES[0])
    d = Derivation(((1,),))
    # d(t t) = d(t) + t . d(t) = 1 - 1 = 0
    assert word_value(action, d, ((0, 1), (0, 1))) == (0,)
    # d(t^-1) = -t^-1 d(t)
    assert word_value(action, d, ((0, -1),)) == (1,)


def test_is_derivation_checks_relators():
    pres, action = case_action(FINITE_CASES[0])
    assert is_derivation(pres, action, Derivation(((1,),)))
    pres3 = cyclic_presentation(3)
    action3 = ModuleAction(2, (ROT3,))
    assert is_derivation(pres3, action3, Derivation(((1, 0),)))
    # trivial action on Z: d(r) must vanish three-fold, so any nonzero fails
    triv = ModuleAction(1, (Matrix([[1]]),))
    assert not is_derivation(pres3, triv, Derivation(((1,),)))


def test_principal_derivation_values():
    pres, action = case_action(FINITE_CASES[0])
    d = principal_derivation(action, (1,))
    assert d.values == ((-2,),)  # (t - 1) . 1 = -2


class TestDerivationLattice:
    def setup_method(self):
        ge = build_gamma_epsilon(3)
        self.group = ge.group
        self.lat = derivation_space(self.group.presentation, self.group.action)

    def test_rank_four(self):
        assert self.lat.rank == 4

    def test_frozen_hermite_basis(self):
        assert [d.values for d in self.lat.basis] == [
            ((1, 0, 0), (0, -1, 0)),
            ((0, 1, 0), (0, 1, 0)),
            ((0, 0, 1), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 1)),
        ]

    def test_every_basis_element_is_a_derivation(self):
        for d in self.lat.basis:
            assert is_derivation(self.group.presentation, self.group.action, d)

    def test_coordinates_roundtrip(self):
        d = self.lat.combination((2, -1, 0, 5))
        assert self.lat.coordinates(d) == (2, -1, 0, 5)
        assert self.lat.coordinates(d) is not None

    def test_hermite_form_computed_once(self, monkeypatch):
        # derivation_space returns a Hermite basis, its own Hermite form, so
        # coordinates run no hnf; the distinguished basis of the same lattice
        # is not one and runs hnf once, on the first coordinates call
        import polyarith.linalg as linalg_module
        from polyarith.semidirect import gamma_epsilon_derivation_basis

        calls = []
        real_hnf = linalg_module.hnf

        def counting_hnf(m):
            calls.append(m)
            return real_hnf(m)

        monkeypatch.setattr(linalg_module, "hnf", counting_hnf)
        pres, action = self.group.presentation, self.group.action
        distinguished = gamma_epsilon_derivation_basis(build_gamma_epsilon(3))
        rng = random.Random(9)
        for lat, expected_calls in (
            (derivation_space(pres, action), 0),
            (DerivationLattice(pres, action, distinguished), 1),
        ):
            calls.clear()
            samples = []
            for _ in range(5):
                coords = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
                d = lat.combination(coords)
                assert lat.coordinates(d) == coords
                samples.append(d)
            assert lat.coordinates(Derivation(((1, 0, 0), (0, 0, 0)))) is None
            assert len(calls) == expected_calls
            for d in samples:
                assert lat.coordinates(d) == lattice_coordinates(lat.basis_matrix(), d.flatten())
            assert lat.basis_matrix() is lat.basis_matrix()

    def test_coordinates_keep_their_errors(self):
        with pytest.raises(PreconditionError, match="^vector length mismatch$"):
            self.lat.coordinates(Derivation(((1, 0), (0, 0))))
        rational = DerivationLattice(
            self.lat.presentation, self.lat.action, (Derivation(((Fraction(1, 2), 0, 0), (0, 0, 0))),)
        )
        with pytest.raises(PreconditionError, match="^lattice_coordinates needs an integer matrix$"):
            rational.coordinates(rational.basis[0])

    def test_non_derivation_is_outside(self):
        bogus = Derivation(((1, 0, 0), (1, 0, 0)))
        if not is_derivation(self.group.presentation, self.group.action, bogus):
            assert self.lat.coordinates(bogus) is None

    def test_principal_lattice_inside_derivation_lattice(self):
        prin = principal_derivations(self.group.action)
        full = self.lat.basis_matrix()
        for i in range(prin.nrows):
            assert lattice_coordinates(full, prin.row(i)) is not None

    def test_principal_frozen(self):
        prin = principal_derivations(self.group.action)
        assert prin == Matrix(
            [[1, 1, 0, 0, 0, 0], [0, 2, 0, 0, 2, 0], [0, 0, 0, 0, 0, 2]]
        )


# ---------------------------------------------------------------------------
# h1


def test_h1_cyclic_two_sign_is_z_mod_2():
    pres, action = case_action(FINITE_CASES[0])
    group = h1(pres, action)
    assert group.free_rank == 0
    assert group.torsion == (2,)
    assert group.order() == 2
    assert str(group) == "Z/2"


def test_h1_trivial_group():
    pres = Presentation(("a",), (((0, 1),),))
    action = ModuleAction(2, (Matrix.identity(2),))
    group = h1(pres, action)
    assert group.is_trivial()
    assert group.order() == 1


def test_h1_infinite_cyclic_sign():
    pres = Presentation(("x",), ())
    action = ModuleAction(1, (Matrix([[-1]]),))
    group = h1(pres, action)
    assert (group.free_rank, group.torsion) == (0, (2,))


def test_h1_gamma_epsilon_structure():
    ge = build_gamma_epsilon(3)
    group = h1(ge.group.presentation, ge.group.action)
    assert group.free_rank == 1
    assert group.torsion == (2, 2)
    assert group.order() is None
    assert str(group) == "Z + Z/2 + Z/2"


def test_cohomology_group_validation():
    with pytest.raises(PreconditionError):
        CohomologyGroup(-1, ())
    with pytest.raises(PreconditionError):
        CohomologyGroup(0, (1,))
    with pytest.raises(PreconditionError):
        CohomologyGroup(0, (4, 2))  # chain must divide upward


@pytest.mark.parametrize("case", FINITE_CASES, ids=[c[0] for c in FINITE_CASES])
def test_h1_matches_brute_force_oracle(case):
    label, pres, perms, mats, order = case
    action = ModuleAction(mats[0].nrows, tuple(mats))
    got = h1(pres, action)
    z_rank, free, torsion = finite_group_h1(
        [tuple(p) for p in perms], [m.entries for m in mats], order
    )
    assert derivation_space(pres, action).rank == z_rank
    assert got.free_rank == free == 0
    assert got.torsion == torsion


# ---------------------------------------------------------------------------
# conjugation of derivations


class TestConjugation:
    def setup_method(self):
        ge = build_gamma_epsilon(3)
        self.group = ge.group
        self.pres = self.group.presentation
        self.action = self.group.action
        self.engine = self.group.engine
        self.lat = derivation_space(self.pres, self.action)

    def matrix_of(self, word):
        return conjugation_action(word, rewriting_table(self.engine, word), self.lat)

    def test_frozen_generator_matrices(self):
        assert self.matrix_of(((0, 1),)) == Matrix(
            [[2, 1, 0, 0], [3, 2, 0, 0], [0, 0, 1, -2], [0, 0, 0, 1]]
        )
        assert self.matrix_of(((1, 1),)) == Matrix(
            [[-2, -1, 0, 0], [3, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
        )

    def test_composition_reverses(self):
        rng = random.Random(17)
        words = [((0, 1),), ((1, 1),), ((0, -1),), ((0, 1), (1, 1))]
        for w1 in words:
            for w2 in words:
                prod = self.engine.to_word(
                    self.engine.normal_form(tuple(w1) + tuple(w2))
                )
                assert self.matrix_of(prod) == self.matrix_of(w2) * self.matrix_of(w1)

    def test_reflection_action_is_involution(self):
        m = self.matrix_of(((1, 1),))
        assert m * m == Matrix.identity(4)

    def test_unimodular(self):
        for w in [((0, 1),), ((1, 1),), ((0, 1), (1, 1))]:
            assert self.matrix_of(w).det() in (1, -1)

    def test_conjugate_stays_a_derivation(self):
        rng = random.Random(23)
        for _ in range(25):
            d = self.lat.combination(tuple(rng.randint(-3, 3) for _ in range(4)))
            for w in [((0, 1),), ((1, 1),)]:
                image = conjugate_derivation(
                    self.action, d, rewriting_table(self.engine, w)
                )
                assert is_derivation(self.pres, self.action, image)
                assert self.lat.coordinates(image) is not None

    def test_conjugation_preserves_principal_derivations(self):
        prin = principal_derivations(self.action)
        for w in [((0, 1),), ((1, 1),)]:
            table = rewriting_table(self.engine, w)
            for i in range(prin.nrows):
                d = Derivation.unflatten(prin.row(i), self.action.rank)
                image = conjugate_derivation(self.action, d, table)
                assert lattice_coordinates(prin, image.flatten()) is not None

    def test_conjugate_of_principal_shifts_the_vector(self):
        # g * d_f = d_{g.f}
        for w in [((0, 1),), ((1, 1),), ((0, 1), (1, 1))]:
            table = rewriting_table(self.engine, w)
            mg = self.group.form_matrix(self.engine.normal_form(w))
            for f in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3)]:
                d = principal_derivation(self.action, f)
                image = conjugate_derivation(self.action, d, table)
                assert image == principal_derivation(self.action, mg.apply(f))

    def test_wrong_table_rejected(self):
        w1, w2 = ((0, 1),), ((1, 1),)
        with pytest.raises(PreconditionError):
            conjugation_action(w1, rewriting_table(self.engine, w2), self.lat)


# ---------------------------------------------------------------------------
# equivariant units


def test_equivariant_units_trivial_action():
    action = ModuleAction(1, (Matrix([[1]]),))
    units = equivariant_units(action, 1)
    assert units == [Matrix([[-1]]), Matrix([[1]])]


def test_equivariant_units_swap_action():
    action = ModuleAction(2, (SWAP,))
    units = equivariant_units(action, 1)
    expected = {
        Matrix([[1, 0], [0, 1]]),
        Matrix([[-1, 0], [0, -1]]),
        Matrix([[0, 1], [1, 0]]),
        Matrix([[0, -1], [-1, 0]]),
    }
    assert set(units) == expected
    assert len(units) == 4


def test_equivariant_units_gamma_epsilon():
    ge = build_gamma_epsilon(3)
    units = equivariant_units(ge.group.action, 10)
    expected = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            expected.append(Matrix([[s1, 0, 0], [0, s1, 0], [0, 0, s2]]))
    assert sorted(units, key=lambda m: m.entries) == sorted(
        expected, key=lambda m: m.entries
    )


def test_equivariant_units_commute_and_are_units():
    ge = build_gamma_epsilon(5)
    units = equivariant_units(ge.group.action, 3)
    for u in units:
        assert u.det() in (1, -1)
        for m in ge.group.action.matrices:
            assert u * m == m * u


def test_equivariant_units_bound_monotone():
    action = ModuleAction(1, (Matrix([[1]]),))
    small = set(equivariant_units(action, 1))
    large = set(equivariant_units(action, 3))
    assert small <= large
    assert Matrix([[3]]) not in large  # determinant filter if bound admits non-units


def test_commutant_lattice_ranks():
    ge = build_gamma_epsilon(3)
    assert commutant_lattice(ge.group.action).nrows == 2
    assert commutant_lattice(ModuleAction(2, (SWAP,))).nrows == 2
    assert commutant_lattice(ModuleAction(2, (Matrix.identity(2),))).nrows == 4


# ---------------------------------------------------------------------------
# Fox matrices against the letter-by-letter expansion


def _elementary_product(n, rng):
    """Seeded product of 3n to 4n elementary matrices, as in lattice_h1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(rng.randint(3 * n, 4 * n)):
        i = t % n
        j = rng.choice([x for x in range(n) if x != i])
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return Matrix(m)


def _free_abelian_case(n, k, seed):
    m = _elementary_product(n, random.Random(seed))
    mats = (m, m * m)[:k]
    pres = Presentation(
        tuple(f"g{i + 1}" for i in range(k)),
        (((0, 1), (1, 1), (0, -1), (1, -1)),) if k == 2 else (),
    )
    return pres, ModuleAction(n, mats)


def _fox_cases():
    for n, k in ((6, 1), (7, 2), (9, 2), (12, 1), (12, 2)):
        yield f"free abelian n={n} k={k}", _free_abelian_case(n, k, 100 * n + k)
    for d in (2, 3, 5, 7, 13):
        g = build_gamma_epsilon(d).group
        yield f"Pell d={d}", (g.presentation, g.action)


FOX_CASES = list(_fox_cases())


def _random_word(rng, ngens, length):
    return tuple((rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length))


def _random_values(rng, action):
    return tuple(
        tuple(rng.randint(-4, 4) for _ in range(action.rank)) for _ in action.matrices
    )


@pytest.mark.parametrize("label,case", FOX_CASES, ids=[c[0] for c in FOX_CASES])
class TestFoxMatrix:
    def test_word_value_matches_letter_expansion(self, label, case):
        pres, action = case
        mats = [m.entries for m in action.matrices]
        rng = random.Random(label)
        for length in (0, 1, 2, 5, 9):
            for _ in range(3):
                w = _random_word(rng, len(mats), length)
                values = _random_values(rng, action)
                assert word_value(action, Derivation(values), w) == (
                    word_value_by_letters(mats, values, w)
                )

    def test_constraint_rows_match_relator_blocks(self, label, case):
        pres, action = case
        mats = [m.entries for m in action.matrices]
        rng = random.Random(label)
        words = list(pres.relators) + [_random_word(rng, len(mats), 6) for _ in range(4)]
        rows = []
        for w in words:
            expected = relator_rows_by_letters(mats, w)
            assert list(map(tuple, _fox_matrix(action, w)[0])) == expected
            if w in pres.relators:
                rows.extend(expected)
        lattice = derivation_space(pres, action)
        ncols = action.rank * len(mats)
        if rows:
            assert lattice.basis_matrix() == kernel_lattice(Matrix(rows, ncols=ncols))
        else:
            assert lattice.basis_matrix() == Matrix.identity(ncols)

    def test_conjugate_derivation_matches_letter_expansion(self, label, case):
        pres, action = case
        mats = [m.entries for m in action.matrices]
        rng = random.Random(label)
        for _ in range(4):
            g = _random_word(rng, len(mats), 3)
            conjugates = tuple(_random_word(rng, len(mats), 5) for _ in mats)
            table = RewritingTable(g, conjugates)
            mg = evaluate_word(action, g)
            values = _random_values(rng, action)
            expected = tuple(
                mg.apply(word_value_by_letters(mats, values, w)) for w in conjugates
            )
            assert conjugate_derivation(action, Derivation(values), table).values == expected


# ---------------------------------------------------------------------------
# word products from the first letter and principal rows from columns,
# against the identity-start and apply-based constructions they replaced


def _identity_start_cases():
    for pres, action in lattice_h1_actions():
        yield f"lattice_h1 n={action.rank} k={len(action.matrices)}", (pres, action)
    for d in (2, 3, 5, 6, 7, 13, 94):
        g = build_gamma_epsilon(d).group
        yield f"Pell d={d}", (g.presentation, g.action)


IDENTITY_START_CASES = list(_identity_start_cases())


def _oracle_words(pres, rng):
    """The empty word, each one-letter word, words that start with an
    inverse letter, the relators and seeded random words."""
    ngens = len(pres.generators)
    words = [()] + [((i, e),) for i in range(ngens) for e in (1, -1)]
    words += [((i, -1),) + _random_word(rng, ngens, length) for i in range(ngens) for length in (1, 3, 6)]
    words += [((i, -1), (i, 1)) for i in range(ngens)]
    words += list(pres.relators) + [_random_word(rng, ngens, length) for length in (2, 4, 7, 9)]
    return words


def _fox_as_matrices(action, w):
    """``_fox_matrix``'s rows of F_w and M_w as matrices, M_w of the empty
    word (None) as the identity."""
    fox, mw = _fox_matrix(action, w)
    n = action.rank
    return Matrix(fox, ncols=n * len(action.matrices)), Matrix.identity(n) if mw is None else Matrix(mw, ncols=n)


@pytest.mark.parametrize("label,case", IDENTITY_START_CASES, ids=[c[0] for c in IDENTITY_START_CASES])
class TestAgainstIdentityStart:
    def test_evaluate_word(self, label, case):
        pres, action = case
        for w in _oracle_words(pres, random.Random(label)):
            assert evaluate_word(action, w) == evaluate_word_from_identity(action, w)
        assert evaluate_word(action, ()) == Matrix.identity(action.rank)

    def test_fox_matrix(self, label, case):
        pres, action = case
        for w in _oracle_words(pres, random.Random(label)):
            assert _fox_as_matrices(action, w) == fox_matrix_from_identity(action, w)
        assert _fox_matrix(action, ())[1] is None

    def test_principal_rows(self, label, case, monkeypatch):
        _, action = case
        rows = []
        real = cohomology.row_hermite_basis
        monkeypatch.setattr(cohomology, "row_hermite_basis", lambda m: rows.append(m) or real(m))
        got = principal_derivations(action)
        want = principal_rows_by_apply(action)
        assert rows == [Matrix(want, ncols=action.rank * len(action.matrices))]
        assert got == real(rows[0])


def _independent_oracle_cases():
    for pres, action in lattice_h1_actions():
        yield f"lattice_h1 n={action.rank} k={len(action.matrices)}", action
    for d in (2, 3, 7, 661):
        yield f"Pell d={d}", build_gamma_epsilon(d).group.action


INDEPENDENT_ORACLE_CASES = list(_independent_oracle_cases())


@pytest.mark.parametrize("label,action", INDEPENDENT_ORACLE_CASES, ids=[c[0] for c in INDEPENDENT_ORACLE_CASES])
def test_walk_matches_oracles_with_their_own_inverses(label, action):
    # the oracles invert by sympy, not by Matrix.inverse as the action
    # does, so the two sides share no inverse
    rng = random.Random(f"independent {label}")
    ngens = len(action.matrices)
    words = [_random_word(rng, ngens, length) for length in range(13) for _ in range(2)]
    words += [tuple((rng.randrange(ngens), -1) for _ in range(length)) for length in (1, 2, 5, 12)]
    assert () in words and any(w and all(e == -1 for _, e in w) for w in words)
    for w in words:
        assert _fox_as_matrices(action, w) == fox_matrix_from_identity(action, w)
        assert evaluate_word(action, w) == evaluate_word_from_identity(action, w)


def test_derivation_must_fit_the_action():
    action = ModuleAction(2, (Matrix([[1, 1], [0, 1]]), Matrix([[0, 1], [1, 0]])))
    w = ((0, 1), (1, 1))
    # d(x0 x1) = d(x0) + M0 d(x1)
    assert word_value(action, Derivation(((1, 0), (0, 1))), w) == (2, 1)
    table = RewritingTable(((1, 1),), (((1, -1), (0, 1), (1, 1)), ((1, 1),)))
    for values in (
        ((1, 0), (0, 1), (5, 5)),  # a surplus generator value
        ((1, 0),),  # a missing one
        ((1, 0, 0), (1,)),  # right flattened length, wrong shape
    ):
        with pytest.raises(PreconditionError, match="per generator"):
            word_value(action, Derivation(values), w)
        with pytest.raises(PreconditionError, match="per generator"):
            conjugate_derivation(action, Derivation(values), table)


def test_conjugation_action_builds_each_fox_matrix_once(monkeypatch):
    pres, action = _free_abelian_case(7, 2, 3)
    inversions = []
    original_inverse = Matrix.inverse

    def counting_inverse(m):
        inverse = original_inverse(m)
        inversions.append((m, inverse))
        return inverse

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    lattice = derivation_space(pres, action)
    engine = FreeAbelianEngine(2)
    g = ((0, -1), (1, -1), (0, -1))
    table = rewriting_table(engine, g)
    fox_words, evaluated = [], []
    original_fox, original_evaluate = cohomology._fox_matrix, cohomology.evaluate_word
    monkeypatch.setattr(
        cohomology, "_fox_matrix", lambda a, w: fox_words.append(w) or original_fox(a, w)
    )
    monkeypatch.setattr(
        cohomology, "evaluate_word", lambda a, w: evaluated.append(w) or original_evaluate(a, w)
    )
    conjugation_action(g, table, lattice)
    assert fox_words == list(table.conjugates)
    assert evaluated == [g]
    # every x^-1 is read from its generator's inverse, computed once and kept
    inverted = {id(m): inverse for m, inverse in inversions}
    assert 0 < len(inverted) <= len(action.matrices)
    assert all(any(m is x for x in action.matrices) for m, _ in inversions)
    assert all(inverse is inverted[id(m)] for m, inverse in inversions)


# ---------------------------------------------------------------------------
# h1 from rank C and the invariant factors of D, against the Smith quotient
# of the derivation lattice it replaced and against sympy


def _conjugated(p, m):
    return p * m * p.inverse()


def _seeded_h1_cases():
    """Z acting by one matrix and Z^2 by two commuting ones, seeded: unimodular
    products (M, M^2), sign changes P diag(+-1) P^-1, and unipotent blocks
    [[1, a], [0, 1]] whose M - I carries the torsion Z/a, with a sign."""
    rng = random.Random(1953)
    z1 = Presentation(("g1",), ())
    z2 = Presentation(("g1", "g2"), (((0, 1), (1, 1), (0, -1), (1, -1)),))
    for signs in ((-1, -1), (1, -1), (-1, 1)):
        mats = tuple(Matrix([[s]]) for s in signs)
        yield f"Z sign n=1 {signs}", z1, ModuleAction(1, mats[:1])
        yield f"Z^2 sign n=1 {signs}", z2, ModuleAction(1, mats)
    for n in range(2, 7):
        for t in range(4):
            p = _elementary_product(n, rng)
            m = _elementary_product(n, rng)
            signs = [Matrix.diagonal([rng.choice((1, -1)) for _ in range(n)]) for _ in range(2)]
            blocks = []
            for _ in range(2):
                rows = Matrix.identity(n).to_lists()
                for i in range(0, n - 1, 2):
                    rows[i][i + 1] = rng.choice((2, 3, 4, 6, 12))
                blocks.append(Matrix(rows).scale(rng.choice((1, -1))))
            kinds = {
                "unimodular": (m, m * m),
                "sign": tuple(_conjugated(p, s) for s in signs),
                "torsion": (_conjugated(p, blocks[0]), _conjugated(p, blocks[0] * blocks[0])),
                "diagonal torsion": (blocks[0], -Matrix.identity(n)),
            }
            for kind, mats in kinds.items():
                yield f"Z {kind} n={n} #{t}", z1, ModuleAction(n, mats[:1])
                yield f"Z^2 {kind} n={n} #{t}", z2, ModuleAction(n, mats)


def _pell_h1_cases():
    for d in range(2, 300):
        if math.isqrt(d) ** 2 != d:
            g = build_gamma_epsilon(d).group
            yield f"Pell d={d}", g.presentation, g.action


def _finite_h1_cases():
    for case in FINITE_CASES:
        yield (case[0],) + case_action(case)


H1_CASES = list(_seeded_h1_cases()) + list(_finite_h1_cases()) + list(_pell_h1_cases())


class TestH1FromRanks:
    def test_cases_cover_torsion_and_free_parts(self):
        groups = [h1(pres, action) for _, pres, action in H1_CASES]
        assert any(g.free_rank for g in groups)
        assert any(len(g.torsion) >= 2 for g in groups)
        assert {t for g in groups for t in g.torsion} >= {2, 3, 4, 6, 12}

    def test_matches_derivation_lattice_quotient(self):
        for label, pres, action in H1_CASES:
            got = h1(pres, action)
            assert (got.free_rank, got.torsion) == h1_by_derivation_lattice(pres, action), label

    def test_matches_sympy_quotient(self):
        for label, pres, action in H1_CASES:
            got = h1(pres, action)
            basis = [d.flatten() for d in derivation_space(pres, action).basis]
            ncols = action.rank * len(action.matrices)
            want = quotient_structure(basis, principal_rows_by_apply(action), ncols)
            assert (got.free_rank, got.torsion) == want, label

    def test_builds_no_lattice_basis(self, monkeypatch):
        calls = []
        for name in ("kernel_lattice", "row_hermite_basis", "hnf", "snf"):
            for module in (linalg, cohomology):
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(
                        module, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
                    )
        for _, pres, action in H1_CASES[::7]:
            h1(pres, action)
        assert calls == []
        derivation_space(*H1_CASES[-1][1:])
        assert "kernel_lattice" in calls

    def test_perturbed_principal_row_fails_the_certificate(self, monkeypatch):
        pres, action = _free_abelian_case(7, 2, 5)
        constraint = _fox_matrix(action, pres.relators[0])[0]
        j = next(j for j, col in enumerate(zip(*constraint)) if any(col))
        real = cohomology._principal_rows

        def perturbed(a):
            rows = real(a)
            rows[0][j] += 1
            return rows

        monkeypatch.setattr(cohomology, "_principal_rows", perturbed)
        with pytest.raises(InternalError, match="principal derivation outside the derivation lattice"):
            h1(pres, action)

    def test_no_cochain_gives_zero_without_building_c_or_d(self, monkeypatch):
        monkeypatch.setattr(cohomology, "_principal_rows", lambda a: pytest.fail("principal rows built"))
        monkeypatch.setattr(cohomology, "_constraint_rows", lambda *a: pytest.fail("constraint rows built"))
        free = (Presentation((), ((),)), ModuleAction(10**30, ()))
        rank_zero = (Presentation(("a", "b"), (((0, 1), (1, 1)),)), ModuleAction(0, (Matrix([]), Matrix([]))))
        for pres, action in (free, rank_zero):
            assert h1(pres, action) == CohomologyGroup(0, ())
        # a missing matrix is refused even when N = 0
        monkeypatch.undo()
        with pytest.raises(PreconditionError, match="one matrix per generator"):
            h1(Presentation(("a",), ()), ModuleAction(0, ()))

    def test_empty_relator_builds_no_identity(self, monkeypatch):
        # with no generator F_w has no column, and M_w of the empty word is
        # None, not a rank x rank identity
        monkeypatch.setattr(Matrix, "identity", lambda n: pytest.fail("identity built"))
        action = ModuleAction(300_000, ())
        fox, mw = _fox_matrix(action, ())
        assert mw is None and len(fox) == 300_000 and not any(fox)
        assert cohomology._constraint_rows(Presentation((), ((),)), action) == fox
        assert derivation_space(Presentation((), ((),)), action).basis == ()

    def test_certificate_raises_after_the_relator_checks(self, monkeypatch):
        monkeypatch.setattr(cohomology, "_principal_rows", lambda a: pytest.fail("principal rows built"))
        pres = Presentation(("t",), (((0, 1), (0, 1)),))
        with pytest.raises(PreconditionError, match="does not act trivially"):
            h1(pres, ModuleAction(2, (Matrix([[1, 1], [0, 1]]),)))

    def test_broken_divisor_chain_raises(self, monkeypatch):
        # a free group on two generators: D^T reduces to diag(2, 3), which
        # only the gcd/lcm step turns into (1, 6)
        pres = Presentation(("a", "b"), ())
        action = ModuleAction(2, (Matrix([[1, 2], [0, 1]]), Matrix([[1, 0], [3, 1]])))
        group = h1(pres, action)
        assert (group.free_rank, group.torsion) == (2, (6,))
        monkeypatch.setattr(linalg, "_gcd_lcm", lambda a, u, vt: None)
        with pytest.raises(InternalError, match="smith divisibility chain broken"):
            h1(pres, action)


def one_more_at_origin(rows):
    rows = [list(row) for row in rows]
    rows[0][0] += 1
    return rows


class TestCertificatesTrip:
    """Each certificate below fails when the computation it checks is
    perturbed, with its exact message, and the CLI exits 3."""

    def test_fractional_relator_coefficients_refused(self, monkeypatch, capsys):
        real = cohomology._fox_matrix

        def fractional(action, w):
            fox, mw = real(action, w)
            fox[0][0] += Fraction(1, 2)
            return fox, mw

        monkeypatch.setattr(cohomology, "_fox_matrix", fractional)
        ge = build_gamma_epsilon(3)
        with pytest.raises(InternalError, match="^relator coefficients must be integral$"):
            derivation_space(ge.group.presentation, ge.group.action)
        assert main(["teob", "3"]) == 3
        assert "relator coefficients must be integral" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "perturb, message",
        [
            (one_more_at_origin, "conjugated derivation left the lattice"),
            (lambda rows: [[2 * x for x in row] for row in rows], "conjugation action must be unimodular"),
        ],
        ids=["bumped", "doubled"],
    )
    def test_perturbed_conjugation_refused(self, monkeypatch, capsys, perturb, message):
        # one more unit at [0, 0] sends a basis derivation of Gamma_3 off
        # the lattice; doubled images stay in it with determinant 2^rank
        ge = build_gamma_epsilon(3)
        g = ge.group.presentation.word([("A", 1)])
        table = rewriting_table(ge.group.engine, g)
        lattice = derivation_space(ge.group.presentation, ge.group.action)
        real = cohomology._conjugation_matrix
        monkeypatch.setattr(cohomology, "_conjugation_matrix", lambda *a: perturb(real(*a)))
        with pytest.raises(InternalError, match=f"^{message}$"):
            conjugation_action(g, table, lattice)
        assert main(["teob", "3"]) == 3
        assert message in capsys.readouterr().err

    def test_zero_before_nonzero_on_the_smith_diagonal_refused(self, monkeypatch, capsys, tmp_path):
        # Z acting on Z^2 by a shear: D^T reduces to diag(2, 0), and the
        # patched gcd/lcm step moves the zero first
        pres = Presentation(("a",), ())
        action = ModuleAction(2, (Matrix([[1, 2], [0, 1]]),))
        group = h1(pres, action)
        assert (group.free_rank, group.torsion) == (1, (2,))
        real = linalg._gcd_lcm

        def zeros_first(a, u, vt):
            real(a, u, vt)
            diagonal = sorted((a[i][i] for i in range(min(len(a), len(vt)))), key=bool)
            for i, x in enumerate(diagonal):
                a[i][i] = x

        monkeypatch.setattr(linalg, "_gcd_lcm", zeros_first)
        with pytest.raises(InternalError, match="^smith diagonal out of order$"):
            h1(pres, action)
        doc = {
            "action": {"matrices": {"a": {"rows": 2, "cols": 2, "entries": [["1", "2"], ["0", "1"]]}}, "rank": 2},
            "engine": "free_abelian",
            "presentation": {"generators": ["a"], "relators": []},
        }
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(doc))
        assert main(["h1", str(path)]) == 3
        assert "smith diagonal out of order" in capsys.readouterr().err
