import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dihedral_inverse, dihedral_product
from polyarith.cohomology import (
    Derivation,
    conjugate_derivation,
    conjugation_action,
    derivation_space,
    is_derivation,
    rewriting_table,
)
from polyarith.errors import InternalError, PreconditionError
from polyarith.linalg import Matrix
from polyarith.presentations import (
    DihedralEngine,
    FreeAbelianEngine,
    ModuleAction,
    Presentation,
    dihedral_presentation,
)
from polyarith.semidirect import (
    Automorphism,
    DerivationAtom,
    EquivariantAtom,
    GammaEpsilon,
    InnerAtom,
    SemidirectGroup,
    build_gamma_epsilon,
    gamma_epsilon_derivation_basis,
)

translations = st.tuples(*([st.integers(-4, 4)] * 3))
forms = st.tuples(st.integers(-3, 3), st.integers(0, 1))


def elements(group):
    return st.tuples(translations, forms).map(
        lambda tf: group.element(tf[0], tf[1])
    )


@pytest.fixture(scope="module")
def ge3():
    return build_gamma_epsilon(3)


class TestGroupLaw:
    def test_identity_and_generators(self, ge3):
        g = ge3.group
        assert g.identity().translation == (0, 0, 0)
        gens = g.generating_set()
        # three lattice directions and two engine generators, with inverses
        assert len(gens) == 10
        for x in gens:
            assert g.multiply(x, g.identity()) == x

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_associativity_and_inverses(self, data):
        g = build_gamma_epsilon(3).group
        x = data.draw(elements(g))
        y = data.draw(elements(g))
        z = data.draw(elements(g))
        assert g.multiply(g.multiply(x, y), z) == g.multiply(x, g.multiply(y, z))
        assert g.multiply(x, g.invert(x)) == g.identity()
        assert g.multiply(g.invert(x), x) == g.identity()

    def test_twist_rule(self, ge3):
        g = ge3.group
        x = g.element((1, 0, 0), (1, 0))
        y = g.element((0, 1, 0), (0, 1))
        z = g.multiply(x, y)
        # translation moves through the matrix of x's form
        assert z.translation == tuple(
            a + b
            for a, b in zip((1, 0, 0), g.form_matrix((1, 0)).apply((0, 1, 0)))
        )
        assert z.form == (1, 1)

    def test_conjugate(self, ge3):
        g = ge3.group
        a = g.element((0, 0, 0), (1, 0))
        m = g.element((1, 2, 3), (0, 0))
        got = g.conjugate(a, m)
        # conjugating a pure translation applies the action matrix
        assert got.form == (0, 0)
        assert got.translation == g.form_matrix((1, 0)).apply((1, 2, 3))

    def test_element_validation(self, ge3):
        g = ge3.group
        with pytest.raises(PreconditionError):
            g.element((1, 2), (0, 0))
        with pytest.raises(PreconditionError):
            g.element((1, 2, True), (0, 0))
        # t^2 is the identity, so (0, 2) is no normal form
        with pytest.raises(PreconditionError, match="is not a normal form"):
            g.element((0, 0, 0), (0, 2))
        eng = FreeAbelianEngine(2)
        flat = SemidirectGroup(eng.presentation, ModuleAction(1, (Matrix([[1]]),) * 2), eng)
        with pytest.raises(PreconditionError, match="is not a normal form"):
            flat.element((0,), (1,))
        # (True, 0) == (1, 0) in Python; the element keeps the engine's ints
        form = g.element((0, 0, 0), (True, 0)).form
        assert form == (1, 0)
        assert [type(x) for x in form] == [int, int]

    @pytest.mark.parametrize("form", [(0, 2), (0.5, 0), ("a", 0), None, (0,)])
    def test_malformed_form_refused(self, ge3, form):
        with pytest.raises(PreconditionError, match="is not a normal form"):
            ge3.group.element((0, 0, 0), form)

    def test_mismatched_engine_rejected(self):
        pres = dihedral_presentation()
        action = ModuleAction(1, (Matrix([[1]]), Matrix([[-1]])))

        class OneGenEngine:
            presentation = None

        from polyarith.presentations import FreeAbelianEngine

        with pytest.raises(PreconditionError):
            SemidirectGroup(pres, action, FreeAbelianEngine(1))

    def test_engine_relator_missing_from_the_presentation_rejected(self):
        # the reflection group <A, t | t^2> is not the infinite dihedral group
        pres = Presentation(("A", "t"), (((1, 1), (1, 1)),))
        action = ModuleAction(1, (Matrix([[1]]), Matrix([[-1]])))
        with pytest.raises(
            PreconditionError,
            match=r"^engine relator \(\(0, 1\), \(1, 1\), \(0, 1\), \(1, 1\)\) is not a relator",
        ):
            SemidirectGroup(pres, action, DihedralEngine())

    def test_bad_action_rejected(self):
        pres = dihedral_presentation()
        # reflection matrix squares to the identity but the pair breaks
        # the braid relator (A t)^2
        a = Matrix([[1, 1], [0, 1]])
        t = Matrix([[0, 1], [1, 0]])
        with pytest.raises(PreconditionError, match=r"relator .* does not act trivially"):
            SemidirectGroup(pres, ModuleAction(2, (a, t)), DihedralEngine())

    def test_missing_action_matrix_rejected(self):
        action = ModuleAction(1, (Matrix([[1]]),))
        with pytest.raises(PreconditionError, match="one matrix per generator"):
            SemidirectGroup(dihedral_presentation(), action, DihedralEngine())

    def test_pell_action_validated_once(self, monkeypatch):
        import polyarith.presentations as presentations
        import polyarith.semidirect as semidirect

        calls = []
        original = presentations.validate_action

        def counting(pres, action):
            calls.append(action)
            return original(pres, action)

        monkeypatch.setattr(presentations, "validate_action", counting)
        monkeypatch.setattr(semidirect, "validate_action", counting)
        ge = build_gamma_epsilon(5)
        assert calls == [ge.group.action]


class TestDerivedLaw:
    """The group law and the matrices come from the engine's words alone."""

    def test_minimal_engine_drives_the_group(self):
        class CyclicTwoEngine:
            # Z/2 = <s | s^2>, with only the four engine members
            presentation = Presentation(("s",), (((0, 1), (0, 1)),))
            identity = 0

            def normal_form(self, w):
                return len(w) % 2

            def to_word(self, form):
                return ((0, 1),) * form

        eng = CyclicTwoEngine()
        action = ModuleAction(1, (Matrix([[-1]]),))
        g = SemidirectGroup(eng.presentation, action, eng)
        s, m = g.element((0,), 1), g.element((1,), 0)
        assert g.multiply(s, m) == g.element((-1,), 1)
        assert g.invert(g.element((-1,), 1)) == g.element((-1,), 1)
        assert g.invert(m) == g.element((-1,), 0)
        assert g.conjugate(s, m) == g.element((-1,), 0)
        deriv = Derivation(((1,),))
        assert Automorphism(g, [InnerAtom(g.element((2,), 1)), DerivationAtom(deriv)]).verify().ok
        lat = derivation_space(eng.presentation, action)
        table = rewriting_table(eng, ((0, 1),))
        assert conjugation_action(((0, 1),), table, lat) == Matrix([[-1]])

    def test_large_exponents_match_the_closed_forms(self):
        g = build_gamma_epsilon(2).group
        a, t = g.action.matrices
        forms = [(k, tt) for k in range(-30, 31) for tt in (0, 1)]
        closed = {f: a ** f[0] * t ** f[1] for f in forms}
        f2 = (4, -5, 6)
        for f in forms:
            assert g.form_matrix(f) == closed[f]
            x = g.element((1, -2, 3), f)
            inv = g.invert(x)
            assert inv.form == dihedral_inverse(f)
            assert inv.translation == tuple(-v for v in closed[f].inverse().apply(x.translation))
            for other in [(0, 0), (1, 0), (-30, 1), (29, 1)]:
                got = g.multiply(x, g.element(f2, other))
                assert got.form == dihedral_product(f, other)
                moved = closed[f].apply(f2)
                assert got.translation == tuple(p + q for p, q in zip(x.translation, moved))


class TestGammaEpsilonFamily:
    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 8, 10])
    def test_pell_data(self, d):
        ge = build_gamma_epsilon(d)
        assert ge.a * ge.a - d * ge.b * ge.b == 1
        assert ge.d == d
        from math import gcd

        assert ge.coupling == gcd(ge.a + 1, ge.b * d)

    def test_action_matrices_for_d3(self, ge3):
        g = ge3.group
        assert g.action.matrices[0] == Matrix([[2, 3, 0], [1, 2, 0], [0, 0, 1]])
        assert g.action.matrices[1] == Matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])

    def test_reflection_inverts_translation_generator(self, ge3):
        g = ge3.group
        a = g.element((0, 0, 0), (1, 0))
        t = g.element((0, 0, 0), (0, 1))
        assert g.conjugate(t, a) == g.invert(a)

    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    def test_distinguished_derivation_basis(self, d):
        ge = build_gamma_epsilon(d)
        basis = gamma_epsilon_derivation_basis(ge)
        assert len(basis) == 4
        for deriv in basis:
            assert is_derivation(ge.group.presentation, ge.group.action, deriv)

    def test_distinguished_basis_values_for_d3(self, ge3):
        basis = gamma_epsilon_derivation_basis(ge3)
        assert [b.values for b in basis] == [
            ((0, 0, 1), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 1, 0)),
            ((1, 1, 0), (0, 0, 0)),
        ]

    def test_distinguished_basis_spans_with_index_one(self, ge3):
        from polyarith.linalg import snf

        lat = derivation_space(ge3.group.presentation, ge3.group.action)
        coords = [lat.coordinates(b) for b in gamma_epsilon_derivation_basis(ge3)]
        assert None not in coords
        assert snf(Matrix(coords)).invariant_factors == (1, 1, 1, 1)


class TestAutomorphisms:
    def test_derivation_atoms_verify(self, ge3):
        g = ge3.group
        for deriv in gamma_epsilon_derivation_basis(ge3):
            assert Automorphism(g, [DerivationAtom(deriv)]).verify().ok

    def test_non_derivation_atom_fails_with_counterexample(self, ge3):
        g = ge3.group
        bogus = Derivation(((1, 0, 0), (1, 0, 0)))
        assert not is_derivation(g.presentation, g.action, bogus)
        result = Automorphism(g, [DerivationAtom(bogus)]).verify()
        assert not result.ok
        assert result.reason == "homomorphism law fails"
        x, y = result.pair
        phi = Automorphism(g, [DerivationAtom(bogus)])
        assert phi.apply(g.multiply(x, y)) != g.multiply(phi.apply(x), phi.apply(y))

    def test_equivariant_atoms(self, ge3):
        g = ge3.group
        good = Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        assert Automorphism(g, [EquivariantAtom(good)]).verify().ok
        shear = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert not Automorphism(g, [EquivariantAtom(shear)]).verify().ok
        stretch = Matrix([[2, 0, 0], [0, 2, 0], [0, 0, 1]])
        result = Automorphism(g, [EquivariantAtom(stretch)]).verify()
        assert not result.ok
        assert "invertible" in result.reason

    def test_rational_atom_with_det_one_is_refused(self):
        # diag(2, 1/2) has det 1 but sends (0, 1) to (0, 1/2), off the lattice
        engine = FreeAbelianEngine(1)
        g = SemidirectGroup(engine.presentation, ModuleAction(2, (Matrix.identity(2),)), engine)
        phi = Automorphism(g, [EquivariantAtom(Matrix.diagonal((2, Fraction(1, 2))))])
        assert phi.apply(g.element((0, 1), (0,))).translation == (0, Fraction(1, 2))
        result = phi.verify()
        assert not result.ok and result.reason == "equivariant atom is not invertible over Z"
        with pytest.raises(PreconditionError, match="^equivariant atom is not invertible over Z$"):
            phi.inverse()

    def test_inner_atoms_verify(self, ge3):
        g = ge3.group
        rng = random.Random(31)
        for _ in range(10):
            e = g.element(
                tuple(rng.randint(-3, 3) for _ in range(3)),
                (rng.randint(-2, 2), rng.randrange(2)),
            )
            assert Automorphism(g, [InnerAtom(e)]).verify().ok

    def test_inverse_undoes_composite(self, ge3):
        g = ge3.group
        basis = gamma_epsilon_derivation_basis(ge3)
        phi = Automorphism(
            g,
            [
                DerivationAtom(basis[0]),
                EquivariantAtom(Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])),
                InnerAtom(g.element((1, 0, 2), (1, 0))),
                DerivationAtom(basis[2]),
            ],
        )
        inv = phi.inverse()
        rng = random.Random(41)
        for _ in range(30):
            x = g.element(
                tuple(rng.randint(-4, 4) for _ in range(3)),
                (rng.randint(-3, 3), rng.randrange(2)),
            )
            assert inv.apply(phi.apply(x)) == x
            assert phi.apply(inv.apply(x)) == x

    def test_apply_respects_atom_order(self, ge3):
        g = ge3.group
        rho = Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        deriv = gamma_epsilon_derivation_basis(ge3)[0]
        x = g.element((1, 1, 1), (1, 0))
        first_shift = Automorphism(g, [DerivationAtom(deriv), EquivariantAtom(rho)])
        first_scale = Automorphism(g, [EquivariantAtom(rho), DerivationAtom(deriv)])
        shift = g.derivation_value(deriv, x.form)
        manual_a = rho.apply(tuple(a + b for a, b in zip(x.translation, shift)))
        manual_b = tuple(
            a + b for a, b in zip(rho.apply(x.translation), shift)
        )
        assert first_shift.apply(x).translation == manual_a
        assert first_scale.apply(x).translation == manual_b

    def test_conjugation_compatibility_on_elements(self, ge3):
        # Inn_g . phi_d . Inn_g^-1 agrees with phi_{g*d} pointwise
        g = ge3.group
        eng = g.engine
        lat = derivation_space(g.presentation, g.action)
        rng = random.Random(53)
        for w in [((0, 1),), ((1, 1),), ((0, 1), (1, 1))]:
            table = rewriting_table(eng, w)
            gw = g.element((0, 0, 0), eng.normal_form(w))
            for deriv in lat.basis:
                conjugated = conjugate_derivation(g.action, deriv, table)
                lhs = Automorphism(
                    g, [InnerAtom(g.invert(gw)), DerivationAtom(deriv), InnerAtom(gw)]
                )
                rhs = Automorphism(g, [DerivationAtom(conjugated)])
                for _ in range(15):
                    x = g.element(
                        tuple(rng.randint(-5, 5) for _ in range(3)),
                        (rng.randint(-3, 3), rng.randrange(2)),
                    )
                    assert lhs.apply(x) == rhs.apply(x)


def test_derivation_value_matches_word_expansion(ge3):
    g = ge3.group
    deriv = gamma_epsilon_derivation_basis(ge3)[3]
    # value on a normal form equals the cocycle sum over its word
    form = g.engine.normal_form(((0, 1), (1, 1), (0, -1)))
    from polyarith.cohomology import word_value

    assert g.derivation_value(deriv, form) == word_value(
        g.action, deriv, g.engine.to_word(form)
    )
