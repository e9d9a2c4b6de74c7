import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyarith.errors import InternalError, PreconditionError
from polyarith.lie import (
    LieAlgebra,
    LieAutomorphism,
    MAX_DIM_DEFAULT,
    abelian,
    action_on_cohomology,
    betti_numbers,
    build_koszul,
    check_square_zero,
    dimension_cap,
    direct_sum,
    filiform,
    form_action,
    free_two_step,
    h1_annihilator_check,
    heisenberg,
    inner_automorphism,
    invariant_subcomplex,
    nilpotent_catalog,
    semisimple_rigidity_check,
    sl2,
    sparse_rank,
    strictly_upper,
)
from polyarith.linalg import Matrix

# Betti tables for the catalog, degree 0 upward
KNOWN_BETTI = {
    "heisenberg_3": (1, 2, 2, 1),
    "heisenberg_5": (1, 4, 5, 5, 4, 1),
    "heisenberg_7": (1, 6, 14, 14, 14, 14, 6, 1),
    "filiform_4": (1, 2, 2, 2, 1),
    "filiform_5": (1, 2, 3, 3, 2, 1),
    "filiform_6": (1, 2, 3, 4, 3, 2, 1),
    "filiform_7": (1, 2, 4, 6, 6, 4, 2, 1),
    "free_two_step_6": (1, 3, 8, 12, 8, 3, 1),
    "upper_triangular_4": (1, 3, 5, 6, 5, 3, 1),
    "heisenberg_plus_line": (1, 3, 4, 3, 1),
    "heisenberg_pair_6": (1, 4, 8, 10, 8, 4, 1),
    "abelian_5": (1, 5, 10, 10, 5, 1),
}


def diagonal_automorphism(algebra, scalars):
    return LieAutomorphism(algebra, Matrix.diagonal(scalars))


def graded_heisenberg_auto(algebra, rng):
    pairs = (algebra.dim - 1) // 2
    scalars = []
    center = Fraction(1)
    for _ in range(pairs):
        a = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        # both pair scalars multiply to the same central eigenvalue
        if not scalars:
            b = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            center = a * b
        else:
            b = center / a
        scalars.extend([a, b])
    scalars.append(center)
    return diagonal_automorphism(algebra, scalars)


def graded_filiform_auto(algebra, rng):
    a = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    b = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    scalars = [a, b]
    for i in range(2, algebra.dim):
        scalars.append(a * scalars[-1])
    return diagonal_automorphism(algebra, scalars)


# ---------------------------------------------------------------------------
# structure constants and brackets


class TestLieAlgebra:
    def test_bracket_antisymmetry_and_table(self):
        h = heisenberg()
        assert h.bracket_basis(0, 1) == (0, 0, 1)
        assert h.bracket_basis(1, 0) == (0, 0, -1)
        assert h.bracket_basis(0, 0) == (0, 0, 0)
        assert h.bracket_table() == [((0, 1), ((2, 1),))]

    def test_bracket_bilinear(self):
        h = heisenberg()
        assert h.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
        assert h.bracket((2, 0, 0), (0, 3, 0)) == (0, 0, 6)
        assert h.bracket((1, 1, 0), (1, 1, 0)) == (0, 0, 0)

    def test_jacobi_violation_rejected(self):
        # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi
        with pytest.raises(PreconditionError):
            LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})

    def test_bad_indexing_rejected(self):
        with pytest.raises(PreconditionError):
            LieAlgebra(3, {(1, 0): {2: 1}})
        with pytest.raises(PreconditionError):
            LieAlgebra(3, {(0, 1): {3: 1}})
        with pytest.raises(PreconditionError):
            LieAlgebra(3, {(2, 2): {0: 1}})

    def test_ad_matrix(self):
        h = heisenberg()
        ad = h.ad((1, 0, 0))
        assert ad.apply((0, 1, 0)) == (0, 0, 1)
        assert ad.apply((1, 0, 0)) == (0, 0, 0)

    def test_derived_and_lower_central(self):
        f = filiform(4)
        assert f.derived_basis().nrows == 2
        assert f.nilpotency_class() == 3
        assert f.is_nilpotent()
        series = f.lower_central_series()
        dims = [m.nrows for m in series]
        assert dims == [4, 2, 1, 0]

    def test_sl2_not_nilpotent(self):
        s = sl2()
        assert not s.is_nilpotent()
        assert s.nilpotency_class() is None
        assert s.derived_basis().nrows == 3

    def test_abelian(self):
        a = abelian(4)
        assert a.is_nilpotent()
        assert a.nilpotency_class() == 1
        assert a.derived_basis().nrows == 0

    def test_direct_sum(self):
        both = direct_sum(heisenberg(), abelian(1))
        assert both.dim == 4
        assert both.bracket_basis(0, 1) == (0, 0, 1, 0)
        assert both.bracket_basis(0, 3) == (0, 0, 0, 0)

    def test_strictly_upper(self):
        u = strictly_upper(4)
        assert u.dim == 6
        assert u.nilpotency_class() == 3


# ---------------------------------------------------------------------------
# Koszul complexes and Betti numbers


class TestKoszul:
    @pytest.mark.parametrize("name", sorted(KNOWN_BETTI))
    def test_catalog_betti(self, name):
        algebra = nilpotent_catalog()[name]
        assert betti_numbers(algebra) == KNOWN_BETTI[name]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_abelian_betti_binomial(self, n):
        expected = tuple(math.comb(n, p) for p in range(n + 1))
        assert betti_numbers(abelian(n)) == expected

    def test_sl2_betti(self):
        # Whitehead: only top and bottom survive for a semisimple algebra
        assert betti_numbers(sl2()) == (1, 0, 0, 1)

    @pytest.mark.parametrize("name", sorted(KNOWN_BETTI))
    def test_poincare_duality_and_euler(self, name):
        betti = betti_numbers(nilpotent_catalog()[name])
        n = len(betti) - 1
        for p in range(n + 1):
            assert betti[p] == betti[n - p]
        assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0

    def test_differentials_square_to_zero(self):
        for algebra in nilpotent_catalog().values():
            kos = build_koszul(algebra)
            for p in range(algebra.dim):
                assert (kos.differential(p + 1) * kos.differential(p)).is_zero()

    def test_space_dims(self):
        kos = build_koszul(heisenberg())
        assert [kos.space_dim(p) for p in range(4)] == [1, 3, 3, 1]
        assert kos.euler_characteristic() == 0

    def test_heisenberg_degree_one_differential(self):
        kos = build_koszul(heisenberg())
        # d xi^3 = -xi^1 ^ xi^2, the other two generators are closed
        assert kos.differential(1) == Matrix([[0, 0, -1], [0, 0, 0], [0, 0, 0]])

    def test_cocycles_and_coboundaries(self):
        kos = build_koszul(heisenberg())
        z1 = kos.cocycles(1)
        assert z1.nrows == 2
        b2 = kos.coboundaries(2)
        assert b2.nrows == 1
        reps = kos.representatives(1)
        assert reps.nrows == 2

    def test_representatives_project_to_basis(self):
        for name in ("heisenberg_3", "filiform_5", "free_two_step_6"):
            algebra = nilpotent_catalog()[name]
            kos = build_koszul(algebra)
            betti = kos.betti()
            for p in range(algebra.dim + 1):
                reps = kos.representatives(p)
                assert reps.nrows == betti[p]
                # representatives are cocycles
                if p < algebra.dim:
                    for i in range(reps.nrows):
                        assert all(
                            x == 0 for x in kos.differential(p).apply(reps.row(i))
                        )

    def test_h1_annihilator_across_catalog(self):
        for algebra in nilpotent_catalog().values():
            report = h1_annihilator_check(build_koszul(algebra))
            assert report.ok
            assert report.h1_dim == algebra.dim - report.derived_dim


def reference_differential(algebra, p):
    """d^p straight from the Chevalley-Eilenberg formula with trivial
    coefficients, (d w)(x_0, .., x_p) = sum_{a<b} (-1)^(a+b) w([x_a, x_b], ..),
    where the dots are the x_i with i != a, b in order.  The coefficient
    of xi^L in d xi^K is d xi^K evaluated on the basis vectors e_L."""
    n = algebra.dim
    src = list(itertools.combinations(range(n), p))
    dst = list(itertools.combinations(range(n), p + 1)) if p < n else []
    rows = []
    for target in dst:
        row = []
        for key in src:
            total = 0
            for a, b in itertools.combinations(range(p + 1), 2):
                v = algebra.bracket_basis(target[a], target[b])
                rest = target[:a] + target[a + 1 : b] + target[b + 1 :]
                # xi^key(v, e_rest): expand along the argument v
                for s, k in enumerate(key):
                    if key[:s] + key[s + 1 :] == rest:
                        total += (-1) ** (a + b + s) * v[k]
            row.append(total)
        rows.append(row)
    return Matrix(rows, ncols=len(src))


def rank_test_algebras():
    algebras = dict(nilpotent_catalog())
    algebras.update({f"abelian_{n}": abelian(n) for n in range(1, 9)})
    algebras["sl2"] = sl2()
    algebras["filiform_4_plus_heisenberg_3"] = direct_sum(filiform(4), heisenberg())
    algebras["filiform_5_plus_line"] = direct_sum(filiform(5), abelian(1))
    algebras["heisenberg_3_plus_sl2"] = direct_sum(heisenberg(), sl2())
    return algebras


class TestSparseComplex:
    @pytest.mark.parametrize("name", sorted(nilpotent_catalog()))
    def test_differentials_match_reference(self, name):
        algebra = nilpotent_catalog()[name]
        kos = build_koszul(algebra)
        for p in range(algebra.dim + 1):
            assert kos.differential(p) == reference_differential(algebra, p)

    @pytest.mark.parametrize("name", sorted(rank_test_algebras()))
    def test_block_rank_matches_dense_rank(self, name):
        kos = build_koszul(rank_test_algebras()[name])
        assert kos.ranks == tuple(d.rank() for d in kos.differentials)

    def test_ranks_computed_once(self, monkeypatch):
        kos = build_koszul(filiform(6))
        kos.betti()
        # later calls read the cached ranks and never eliminate again
        monkeypatch.setattr(Matrix, "rank", lambda self: pytest.fail("rank recomputed"))
        assert kos.betti() == KNOWN_BETTI["filiform_6"]
        assert kos.euler_characteristic() == 0

    def test_betti_without_dense_matrices(self):
        kos = build_koszul(filiform(7))
        assert kos.betti() == KNOWN_BETTI["filiform_7"]
        assert "differentials" not in vars(kos)

    @given(
        st.integers(0, 7).flatmap(
            lambda nrows: st.lists(
                st.dictionaries(st.integers(0, max(nrows - 1, 0)), st.integers(-3, 3), max_size=3)
                if nrows
                else st.just({}),
                max_size=8,
            ).map(lambda cols: (nrows, cols))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_sparse_rank_random(self, shape):
        nrows, cols = shape
        columns = tuple(tuple(sorted((r, v) for r, v in c.items() if v)) for c in cols)
        dense = Matrix(
            [[c.get(r, 0) for c in cols] for r in range(nrows)], ncols=len(cols)
        )
        assert sparse_rank(columns, nrows) == dense.rank()

    def test_square_zero_check(self):
        # d^0: one form to e_0 + e_1; d^1 sends e_0 to f and e_1 to -f
        lower = (((0, 1), (1, 1)),)
        check_square_zero(lower, (((0, 1),), ((0, -1),)), 0)
        with pytest.raises(InternalError, match="does not square to zero at degree 4"):
            check_square_zero(lower, (((0, 1),), ((0, 2),)), 4)


class TestDimensionCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("POLYARITH_MAX_DIM", raising=False)
        assert dimension_cap() == MAX_DIM_DEFAULT == 14

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("POLYARITH_MAX_DIM", "5")
        with pytest.raises(PreconditionError):
            build_koszul(free_two_step(3))

    def test_cap_raised(self, monkeypatch):
        monkeypatch.setenv("POLYARITH_MAX_DIM", "6")
        assert betti_numbers(free_two_step(3))[0] == 1

    def test_bad_values(self, monkeypatch):
        monkeypatch.setenv("POLYARITH_MAX_DIM", "x")
        with pytest.raises(PreconditionError):
            dimension_cap()
        monkeypatch.setenv("POLYARITH_MAX_DIM", "0")
        with pytest.raises(PreconditionError):
            dimension_cap()

    def test_default_blocks_dim_15(self, monkeypatch):
        monkeypatch.delenv("POLYARITH_MAX_DIM", raising=False)
        with pytest.raises(PreconditionError):
            build_koszul(abelian(15))


# ---------------------------------------------------------------------------
# automorphisms


class TestLieAutomorphism:
    def test_bracket_preservation_enforced(self):
        h = heisenberg()
        diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        with pytest.raises(PreconditionError):
            diagonal_automorphism(h, (2, 1, 1))
        with pytest.raises(PreconditionError):
            LieAutomorphism(h, Matrix.zero(3, 3))

    def test_compose_and_inverse(self):
        h = heisenberg()
        phi = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        psi = diagonal_automorphism(h, (3, 1, 3))
        assert phi.compose(psi).matrix == phi.matrix * psi.matrix
        assert phi.compose(phi.inverse()).is_identity()

    def test_semisimplicity_detection(self):
        h = heisenberg()
        assert diagonal_automorphism(h, (2, Fraction(1, 2), 1)).is_semisimple()
        assert not inner_automorphism(h, (1, 0, 0)).is_semisimple()

    def test_inner_automorphism_matrix(self):
        h = heisenberg()
        u = inner_automorphism(h, (1, 0, 0))
        # exp(ad e1) sends e2 to e2 + e3
        assert u.matrix.apply((0, 1, 0)) == (0, 1, 1)
        assert u.matrix.apply((1, 0, 0)) == (1, 0, 0)

    def test_form_action_functorial(self):
        h = heisenberg()
        phi = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        psi = diagonal_automorphism(h, (3, 1, 3))
        for p in range(4):
            assert form_action(phi.compose(psi), p) == form_action(
                phi, p
            ) * form_action(psi, p)


class TestActionOnCohomology:
    def test_heisenberg_h1_action(self):
        h = heisenberg()
        phi = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        a1 = action_on_cohomology(phi, 1)
        assert a1 == Matrix.diagonal((Fraction(1, 2), 2))

    def test_identity_acts_trivially(self):
        for name in ("heisenberg_3", "filiform_4"):
            algebra = nilpotent_catalog()[name]
            kos = build_koszul(algebra)
            phi = LieAutomorphism(algebra, Matrix.identity(algebra.dim))
            for p in range(algebra.dim + 1):
                assert action_on_cohomology(phi, p, kos).is_identity()

    def test_inner_automorphisms_act_trivially(self):
        for name in ("heisenberg_3", "filiform_5", "heisenberg_5"):
            algebra = nilpotent_catalog()[name]
            kos = build_koszul(algebra)
            rng = random.Random(7)
            for _ in range(5):
                x = tuple(rng.randint(-2, 2) for _ in range(algebra.dim))
                u = inner_automorphism(algebra, x)
                for p in range(algebra.dim + 1):
                    assert action_on_cohomology(u, p, kos).is_identity()

    def test_functorial_on_cohomology(self):
        h = nilpotent_catalog()["heisenberg_5"]
        kos = build_koszul(h)
        rng = random.Random(19)
        phi = graded_heisenberg_auto(h, rng)
        psi = graded_heisenberg_auto(h, rng)
        for p in range(h.dim + 1):
            lhs = action_on_cohomology(phi.compose(psi), p, kos)
            rhs = action_on_cohomology(phi, p, kos) * action_on_cohomology(psi, p, kos)
            assert lhs == rhs

    def test_top_degree_action_is_determinant_of_inverse(self):
        h = heisenberg()
        phi = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        top = action_on_cohomology(phi, 3)
        assert top == Matrix([[1]])  # det = 1 here
        psi = diagonal_automorphism(h, (2, 1, 2))
        assert action_on_cohomology(psi, 3) == Matrix([[Fraction(1, 4)]])

    def test_complex_of_another_algebra_rejected(self):
        # same dimension, different brackets: the torus of heisenberg(1)
        # must not be applied to the complex of abelian(3)
        phi = diagonal_automorphism(heisenberg(), (2, 3, 6))
        with pytest.raises(PreconditionError, match="algebras differ"):
            action_on_cohomology(phi, 1, build_koszul(abelian(3)))

    def test_complex_of_equal_algebra_accepted(self):
        phi = diagonal_automorphism(heisenberg(), (2, 3, 6))
        kos = build_koszul(heisenberg())
        assert kos.algebra is not phi.algebra
        assert action_on_cohomology(phi, 1, kos) == Matrix.diagonal((Fraction(1, 2), Fraction(1, 3)))

    def test_degree_out_of_range(self):
        h = heisenberg()
        phi = LieAutomorphism(h, Matrix.identity(3))
        with pytest.raises(PreconditionError):
            action_on_cohomology(phi, 4)


class TestRigidity:
    def test_identity_meets_hypothesis(self):
        h = heisenberg()
        result = semisimple_rigidity_check(
            LieAutomorphism(h, Matrix.identity(3))
        )
        assert result.hypothesis_met
        assert result.is_identity
        assert result.ok

    def test_nontrivial_action_is_vacuous(self):
        h = heisenberg()
        result = semisimple_rigidity_check(
            diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        )
        assert not result.hypothesis_met
        assert result.ok

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            semisimple_rigidity_check(LieAutomorphism(sl2(), Matrix.identity(3)))
        with pytest.raises(PreconditionError):
            semisimple_rigidity_check(inner_automorphism(heisenberg(), (1, 0, 0)))

    def test_seeded_trials(self):
        rng = random.Random(2024)
        algebras = [
            ("heisenberg", heisenberg(1)),
            ("heisenberg", heisenberg(2)),
            ("filiform", filiform(4)),
            ("filiform", filiform(5)),
            ("filiform", filiform(6)),
        ]
        complexes = {id(a): build_koszul(a) for _, a in algebras}
        for _ in range(25):
            kind, algebra = algebras[rng.randrange(len(algebras))]
            if kind == "heisenberg":
                phi = graded_heisenberg_auto(algebra, rng)
            else:
                phi = graded_filiform_auto(algebra, rng)
            x = tuple(rng.randint(-2, 2) for _ in range(algebra.dim))
            u = inner_automorphism(algebra, x)
            twisted = u.compose(phi).compose(u.inverse())
            result = semisimple_rigidity_check(twisted, complexes[id(algebra)])
            assert result.ok


class TestInvariantSubcomplex:
    def test_heisenberg_torus_frozen(self):
        h = heisenberg()
        kos = build_koszul(h)
        phi = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        inv = invariant_subcomplex(kos, [phi])
        assert inv.subspace_dims == (1, 1, 1, 1)
        assert inv.invariant_betti == (1, 0, 0, 1)
        assert inv.fixed_cohomology_dims == (1, 0, 0, 1)

    def test_identity_set_recovers_betti(self):
        h = nilpotent_catalog()["filiform_5"]
        kos = build_koszul(h)
        phi = LieAutomorphism(h, Matrix.identity(h.dim))
        inv = invariant_subcomplex(kos, [phi])
        assert inv.invariant_betti == kos.betti()
        assert inv.subspace_dims == tuple(
            kos.space_dim(p) for p in range(h.dim + 1)
        )

    def test_empty_set_recovers_betti(self):
        h = heisenberg()
        kos = build_koszul(h)
        inv = invariant_subcomplex(kos, [])
        assert inv.invariant_betti == kos.betti()

    def test_sign_torus_on_abelian(self):
        a = abelian(3)
        kos = build_koszul(a)
        phi = diagonal_automorphism(a, (-1, -1, 1))
        inv = invariant_subcomplex(kos, [phi])
        assert inv.subspace_dims == (1, 1, 1, 1)
        assert inv.invariant_betti == (1, 1, 1, 1)

    def test_two_commuting_tori(self):
        h = heisenberg()
        kos = build_koszul(h)
        one = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        two = diagonal_automorphism(h, (Fraction(1, 3), 3, 1))
        inv = invariant_subcomplex(kos, [one, two])
        assert inv.invariant_betti == (1, 0, 0, 1)

    def test_restricted_differential_consistency(self):
        h = nilpotent_catalog()["heisenberg_5"]
        kos = build_koszul(h)
        phi = graded_heisenberg_auto(h, random.Random(5))
        inv = invariant_subcomplex(kos, [phi])
        for p in range(h.dim):
            basis = inv.subspace_bases[p]
            up = inv.subspace_bases[p + 1]
            restricted = inv.restricted_differentials[p]
            for i in range(basis.nrows):
                image = kos.differential(p).apply(basis.row(i))
                assert up.apply_left(restricted.col(i)) == image

    def test_non_commuting_rejected(self):
        a = abelian(2)
        kos = build_koszul(a)
        one = diagonal_automorphism(a, (2, 3))
        swap = LieAutomorphism(a, Matrix([[0, 1], [1, 0]]))
        with pytest.raises(PreconditionError):
            invariant_subcomplex(kos, [one, swap])

    def test_complex_of_another_algebra_rejected(self):
        phi = diagonal_automorphism(heisenberg(), (2, 3, 6))
        with pytest.raises(PreconditionError, match="algebras differ"):
            invariant_subcomplex(build_koszul(abelian(3)), [phi])

    def test_non_semisimple_rejected(self):
        h = heisenberg()
        kos = build_koszul(h)
        with pytest.raises(PreconditionError):
            invariant_subcomplex(kos, [inner_automorphism(h, (1, 0, 0))])

    def test_dimension_equality_across_catalog_sample(self):
        rng = random.Random(11)
        for name in ("heisenberg_3", "heisenberg_5", "filiform_4", "filiform_6"):
            algebra = nilpotent_catalog()[name]
            kos = build_koszul(algebra)
            if name.startswith("heisenberg"):
                phi = graded_heisenberg_auto(algebra, rng)
            else:
                phi = graded_filiform_auto(algebra, rng)
            inv = invariant_subcomplex(kos, [phi])
            # the constructor certifies equality; spot-check the fields agree
            assert inv.invariant_betti == inv.fixed_cohomology_dims
