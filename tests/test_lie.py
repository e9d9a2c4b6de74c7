import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyarith.lie as lie
from polyarith.errors import InternalError, PreconditionError
from polyarith.jsonio import matrix_to_json, parse_lie_algebra, parse_matrices_list
from polyarith.lie import (
    KoszulComplex,
    LieAlgebra,
    LieAutomorphism,
    MAX_DIM_DEFAULT,
    abelian,
    action_on_cohomology,
    build_koszul,
    check_square_zero,
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
    sparse_rank,
    strictly_upper,
)
from oracles import leibniz_by_forms
from polyarith import linalg
from polyarith.linalg import (
    Matrix,
    _dense_columns,
    _quotient,
    rational_kernel,
    rref,
    solve,
    wedge_power,
)

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


def stack(a, b):
    """The rows of a, then the rows of b."""
    return Matrix(a.entries + b.entries, ncols=a.ncols)


def dense(cols):
    """A square matrix from its sparse columns, as a form action is."""
    return _dense_columns(cols, len(cols))


def dense_rows(rows, ncols):
    """A matrix from its sparse rows, as the cohomology bases are."""
    return _dense_columns(rows, ncols).transpose()


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

    def test_bracket_basis_refuses_indices_out_of_range(self):
        h = heisenberg()
        for i, j in ((-1, 0), (7, 7), (0, 9), (3, 0), (0, 3)):
            with pytest.raises(PreconditionError, match=rf"\({i}, {j}\) out of range"):
                h.bracket_basis(i, j)
        assert h.bracket_basis(2, 2) == (0, 0, 0)
        with pytest.raises(PreconditionError):
            abelian(0).bracket_basis(0, 0)

    def test_ad_matrix(self):
        h = heisenberg()
        ad = h.ad((1, 0, 0))
        assert ad.apply((0, 1, 0)) == (0, 0, 1)
        assert ad.apply((1, 0, 0)) == (0, 0, 0)

    def test_derived_and_lower_central(self):
        f = filiform(4)
        assert f.nilpotency_class() == 3
        assert f.is_nilpotent()
        series = f.lower_central_series()
        dims = [m.nrows for m in series]
        assert dims == [4, 2, 1, 0]

    def test_sl2_not_nilpotent(self):
        s = sl2()
        assert not s.is_nilpotent()
        assert s.nilpotency_class() is None

    def test_abelian(self):
        a = abelian(4)
        assert a.is_nilpotent()
        assert a.nilpotency_class() == 1

    def test_direct_sum(self):
        both = direct_sum(heisenberg(), abelian(1))
        assert both.dim == 4
        assert both.bracket_basis(0, 1) == (0, 0, 1, 0)
        assert both.bracket_basis(0, 3) == (0, 0, 0, 0)

    def test_strictly_upper(self):
        u = strictly_upper(4)
        assert u.dim == 6
        assert u.nilpotency_class() == 3


def reference_lower_central_series(algebra):
    """The series as it was computed before the table pass: each term
    brackets every basis vector with every row of the one before, then
    keeps the nonzero rows of one rref of those products."""
    n = algebra.dim
    series = [Matrix.identity(n)]
    while True:
        cur = series[-1]
        if cur.nrows == 0:
            break
        prods = []
        for j in range(n):
            ej = tuple(1 if t == j else 0 for t in range(n))
            for row in cur.entries:
                prods.append(algebra.bracket(ej, row))
        reduced, pivots = rref(Matrix(prods, ncols=n))
        nxt = Matrix(reduced.entries[: len(pivots)], ncols=n)
        series.append(nxt)
        if nxt.nrows == cur.nrows or nxt.nrows == 0:
            break
    return series


def rational_relabelling(algebra, rng):
    """The algebra on the basis f_a = P e_a, P a seeded permutation times a
    unit upper triangular matrix times a diagonal of fractions, so its
    structure constants P^{-1} [P e_a, P e_b] are Fractions."""
    n = algebra.dim
    perm = list(range(n))
    rng.shuffle(perm)
    shear = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(n)] for i in range(n)]
    scale = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in range(n)]
    p = (
        Matrix([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)])
        * Matrix(shear)
        * Matrix.diagonal(scale)
    )
    inv = p.inverse()
    brackets = {}
    for a, b in itertools.combinations(range(n), 2):
        image = inv.apply(algebra.bracket(p.col(a), p.col(b)))
        if any(image):
            brackets[(a, b)] = {k: c for k, c in enumerate(image) if c}
    return LieAlgebra(n, brackets)


@functools.lru_cache(maxsize=None)
def series_test_algebras():
    algebras = dict(nilpotent_catalog())
    algebras.update(
        {
            "sl2": sl2(),
            "strictly_upper_5": strictly_upper(5),
            "free_two_step_8": free_two_step(4),
        }
    )
    rng = random.Random(1201)
    for name, algebra in list(algebras.items()):
        algebras[f"{name}_relabelled"] = rational_relabelling(algebra, rng)
    algebras.update(
        {
            "filiform_5_plus_heisenberg_3": direct_sum(filiform(5), heisenberg()),
            "sl2_plus_heisenberg_3": direct_sum(sl2(), heisenberg()),
            "free_two_step_6_plus_abelian_2": direct_sum(free_two_step(3), abelian(2)),
            "abelian_0": abelian(0),
        }
    )
    return algebras


def typed_rows(m):
    return [[(type(x), x) for x in row] for row in m.entries]


class TestLowerCentralSeries:
    @pytest.mark.parametrize("name", sorted(series_test_algebras()))
    def test_matches_bracket_by_bracket_series(self, name):
        algebra = series_test_algebras()[name]
        got = algebra.lower_central_series()
        want = reference_lower_central_series(algebra)
        assert [(m.nrows, m.ncols) for m in got] == [(m.nrows, m.ncols) for m in want]
        assert [typed_rows(m) for m in got] == [typed_rows(m) for m in want]

    def test_relabellings_have_fraction_constants(self):
        algebras = series_test_algebras()
        relabelled = [a for name, a in algebras.items() if name.endswith("_relabelled")]
        assert len(relabelled) == 15
        assert all(
            any(type(c) is Fraction for _, terms in a.bracket_table() for _, c in terms)
            for a in relabelled
            if a.bracket_table()
        )
        # and some of their series have Fraction entries
        assert any(
            type(x) is Fraction
            for a in relabelled
            for m in a.lower_central_series()
            for row in m.entries
            for x in row
        )

    def test_calls_no_bracket(self, monkeypatch):
        algebras = series_test_algebras()
        monkeypatch.setattr(LieAlgebra, "bracket", lambda *args: pytest.fail("bracket called"))
        for algebra in algebras.values():
            algebra.lower_central_series()
        assert strictly_upper(5).nilpotency_class() == 4
        assert not sl2().is_nilpotent()


# ---------------------------------------------------------------------------
# Koszul complexes and Betti numbers


class TestKoszul:
    @pytest.mark.parametrize("name", sorted(KNOWN_BETTI))
    def test_catalog_betti(self, name):
        algebra = nilpotent_catalog()[name]
        assert build_koszul(algebra).betti() == KNOWN_BETTI[name]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_abelian_betti_binomial(self, n):
        expected = tuple(math.comb(n, p) for p in range(n + 1))
        assert build_koszul(abelian(n)).betti() == expected

    def test_sl2_betti(self):
        # Whitehead: only top and bottom survive for a semisimple algebra
        assert build_koszul(sl2()).betti() == (1, 0, 0, 1)

    @pytest.mark.parametrize("name", sorted(KNOWN_BETTI))
    def test_poincare_duality_and_euler(self, name):
        betti = build_koszul(nilpotent_catalog()[name]).betti()
        n = len(betti) - 1
        for p in range(n + 1):
            assert betti[p] == betti[n - p]
        assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0

    def test_differentials_square_to_zero(self):
        for algebra in nilpotent_catalog().values():
            kos = build_koszul(algebra)
            for p in range(algebra.dim):
                assert (kos.differentials[p + 1] * kos.differentials[p]).is_zero()

    def test_space_dims(self):
        kos = build_koszul(heisenberg())
        assert [kos.space_dim(p) for p in range(4)] == [1, 3, 3, 1]
        assert kos.euler_characteristic() == 0

    def test_heisenberg_degree_one_differential(self):
        kos = build_koszul(heisenberg())
        # d xi^3 = -xi^1 ^ xi^2, the other two generators are closed
        assert kos.differentials[1] == Matrix([[0, 0, -1], [0, 0, 0], [0, 0, 0]])

    def test_cocycles_and_coboundaries(self):
        kos = build_koszul(heisenberg())
        z1 = kos.cocycles(1)
        assert z1.nrows == 2
        b2 = kos.coboundaries(2)
        assert b2.nrows == 1
        reps = kos.representatives(1)
        assert reps.nrows == 2

    def test_bases_refuse_a_degree_out_of_range(self):
        # a negative degree must not wrap round to the top one
        kos = build_koszul(heisenberg())
        assert kos.cocycles(3) == Matrix([[1]])
        for p in (-1, -4, 4):
            for basis in (kos.cohomology_basis, kos.cocycles, kos.coboundaries, kos.representatives):
                with pytest.raises(PreconditionError, match="^degree out of range$"):
                    basis(p)

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
                            x == 0 for x in kos.differentials[p].apply(reps.row(i))
                        )

    def test_h1_annihilator_across_catalog(self):
        # in degree one there are no coboundaries, so H^1 is the space of
        # functionals vanishing on all brackets
        for algebra in nilpotent_catalog().values():
            kos = build_koszul(algebra)
            n = algebra.dim
            brackets = Matrix(
                [algebra.bracket_basis(i, j) for i, j in itertools.combinations(range(n), 2)],
                ncols=n,
            )
            cocycles = kos.cocycles(1)
            b1 = kos.betti()[1]
            assert b1 == n - brackets.rank()
            assert cocycles.nrows == b1
            for z in cocycles.entries:
                for v in brackets.entries:
                    assert sum(x * y for x, y in zip(z, v)) == 0


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


def reference_test_algebras():
    """``rank_test_algebras()`` and one algebra with non-integer structure
    constants."""
    algebras = rank_test_algebras()
    algebras["fraction_4"] = LieAlgebra(
        4, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: Fraction(-3, 2)}, (1, 2): {3: Fraction(2, 3)}}
    )
    return algebras


class TestSparseComplex:
    @pytest.mark.parametrize("name", sorted(reference_test_algebras()))
    def test_differentials_match_reference(self, name):
        algebra = reference_test_algebras()[name]
        kos = build_koszul(algebra)
        for p in range(algebra.dim + 1):
            assert kos.differentials[p] == reference_differential(algebra, p)

    @pytest.mark.parametrize("name", sorted(rank_test_algebras()))
    def test_block_rank_matches_dense_rank(self, name):
        kos = build_koszul(rank_test_algebras()[name])
        assert kos.ranks == tuple(d.rank() for d in kos.differentials)
        # the pivot count of the Gauss-Jordan branch, which the rank no longer runs
        assert kos.ranks == tuple(len(rref(d)[1]) for d in kos.differentials)

    @pytest.mark.parametrize("name", sorted(rank_test_algebras()))
    def test_every_block_rank_matches_gauss_jordan(self, name):
        kos = build_koszul(rank_test_algebras()[name])
        for p, cols in enumerate(kos.columns):
            find = lie._components(cols, kos._target_dim(p))
            blocks = {}
            for col in cols:
                if col:
                    blocks.setdefault(find(col[0][0]), []).append(col)
            for block in blocks.values():
                m = linalg._dense_columns(block)
                assert m.rank() == len(rref(m)[1])

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

    def test_one_row_and_one_column_blocks_need_no_elimination(self, monkeypatch):
        monkeypatch.setattr(Matrix, "rank", lambda self: pytest.fail("eliminated"))
        # blocks {row 0}, {row 1 with two columns}, {rows 2, 3 from one column}
        columns = (((0, 2),), ((1, -3),), ((1, Fraction(1, 2)),), ((2, 1), (3, 5)))
        assert sparse_rank(columns, 5) == 3
        assert sparse_rank((), 4) == 0

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
        assert build_koszul(free_two_step(3)).betti()[0] == 1

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

    @pytest.mark.parametrize(
        "algebra",
        [heisenberg(2), filiform(6), free_two_step(3), sl2()],
        ids=["heisenberg2", "filiform6", "free_two_step3", "sl2"],
    )
    def test_perturbed_matrix_names_first_unpreserved_pair(self, algebra):
        # reference: phi applied to the dense bracket of each basis pair
        def first_bad_pair(m):
            for i, j in itertools.combinations(range(algebra.dim), 2):
                if m.apply(algebra.bracket_basis(i, j)) != algebra.bracket(m.col(i), m.col(j)):
                    return i, j
            return None

        n = algebra.dim
        rng = random.Random(n)
        seen_bad = 0
        for _ in range(12):
            rows = Matrix.identity(n).to_lists()
            for _ in range(rng.randint(1, 3)):
                rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1, Fraction(1, 2)))
            m = Matrix(rows)
            if m.det() == 0:
                continue
            bad = first_bad_pair(m)
            if bad is None:
                assert LieAutomorphism(algebra, m).matrix == m
            else:
                seen_bad += 1
                message = f"matrix does not preserve the bracket on basis pair {bad}"
                with pytest.raises(PreconditionError, match=re.escape(message)):
                    LieAutomorphism(algebra, m)
        assert seen_bad

    def test_compose_and_inverse(self):
        h = heisenberg()
        phi = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        psi = diagonal_automorphism(h, (3, 1, 3))
        assert phi.compose(psi).matrix == phi.matrix * psi.matrix
        assert phi.compose(phi.inverse()).is_identity()

    def test_inverse_reuses_the_dual(self, monkeypatch):
        algebra = filiform(6)
        phi = inner_automorphism(algebra, (1, 0, 2, 0, 0, 1)).compose(
            diagonal_automorphism(algebra, (2, 3, 6, 12, 24, 48))
        )
        expected = phi.matrix.inverse()
        phi.dual
        monkeypatch.setattr(Matrix, "inverse", lambda self: pytest.fail("matrix inverted again"))
        inv = phi.inverse()
        assert inv.matrix == expected
        assert inv.compose(phi).is_identity()

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
            assert dense(form_action(phi.compose(psi), p)) == dense(form_action(phi, p)) * dense(
                form_action(psi, p)
            )
            # the sparse columns of a diagonal action are its diagonal entries
            assert all(col == ((j, col[0][1]),) for j, col in enumerate(form_action(phi, p)))


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


def reference_representatives(kos, p):
    """The greedy completion of the coboundaries to the cocycles, by a
    hand-rolled Fraction elimination that keeps each kernel basis vector
    that grows the span."""
    reduced = []

    def reduce_add(vec):
        v = [Fraction(x) for x in vec]
        for row in reduced:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if v[lead] != 0:
                c = v[lead]
                v = [x - c * y for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x != 0), None)
        if lead is None:
            return False
        reduced.append([x / v[lead] for x in v])
        return True

    for row in kos.coboundaries(p).entries:
        reduce_add(row)
    return Matrix(
        [row for row in kos.cocycles(p).entries if reduce_add(row)], ncols=kos.space_dim(p)
    )


def reference_action(phi, p, kos):
    """The action on H^p by one solve per representative against the
    stacked basis of representatives and coboundaries."""
    w_here = wedge_power(phi.matrix.inverse().transpose(), p)
    reps = reference_representatives(kos, p)
    bound = kos.coboundaries(p)
    basis_cols = stack(reps, bound).transpose()
    cols = []
    for row in reps.entries:
        coeffs = solve(basis_cols, w_here.apply(row))
        assert coeffs is not None
        cols.append(coeffs[: reps.nrows])
    return Matrix.from_cols(cols, nrows=reps.nrows)


def seeded_torus(algebra, rng):
    """A diagonal automorphism with scalars 2^w 3^v, for two seeded
    integer weightings w, v with w_i + w_j = w_k on every bracket term."""
    n = algebra.dim
    rows = []
    for (i, j), terms in algebra.bracket_table():
        for k, _ in terms:
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[k] -= 1
            rows.append(row)
    kernel = rational_kernel(Matrix(rows, ncols=n)) if rows else Matrix.identity(n)

    def weighting():
        combo = [rng.randint(-2, 2) for _ in range(kernel.nrows)]
        w = [sum(c * Fraction(x) for c, x in zip(combo, col)) for col in zip(*kernel.entries)]
        scale = math.lcm(*(x.denominator for x in w))
        return [int(x * scale) for x in w]

    scalars = [Fraction(2) ** a * Fraction(3) ** b for a, b in zip(weighting(), weighting())]
    return diagonal_automorphism(algebra, scalars)


def row_blocks(kos, p, m):
    """The blocks of degree p that hold a row of m."""
    block_of = {j: b for b, (forms, _) in enumerate(kos._blocks(p)) for j in forms}
    return {block_of[next(j for j, x in enumerate(row) if x)] for row in m.entries}


class TestCachedActionPath:
    def test_representatives_match_greedy_elimination(self):
        for algebra in nilpotent_catalog().values():
            kos = build_koszul(algebra)
            for p in range(algebra.dim + 1):
                assert kos.representatives(p) == reference_representatives(kos, p)

    def test_action_matches_per_representative_solves(self):
        rng = random.Random(23)
        for name, algebra in nilpotent_catalog().items():
            kos = build_koszul(algebra)
            torus = seeded_torus(algebra, rng)
            x = tuple(rng.randint(-2, 2) for _ in range(algebra.dim))
            u = inner_automorphism(algebra, x)
            # a conjugated torus is semisimple with a dense matrix
            autos = (torus, u, u.compose(torus).compose(u.inverse()))
            for phi in autos:
                for p in range(algebra.dim + 1):
                    assert action_on_cohomology(phi, p, kos) == reference_action(phi, p, kos), (
                        name,
                        p,
                    )

    def test_bases_and_form_actions_computed_once(self, monkeypatch):
        algebra = nilpotent_catalog()["filiform_5"]
        degrees = list(range(algebra.dim + 1))
        # one kernel per block of two or more forms, one reduction per such
        # block holding a coboundary (the coboundary rows) and one per such
        # block holding a cocycle (the classes); a block of one form is read off
        ref = build_koszul(algebra)
        wide = [{b for b, (forms, _) in enumerate(ref._blocks(p)) if len(forms) > 1} for p in degrees]
        kernels = sum(map(len, wide))
        reductions = sum(
            len(row_blocks(ref, p, ref.coboundaries(p)) & wide[p])
            + len(row_blocks(ref, p, ref.cocycles(p)) & wide[p])
            for p in degrees
        )
        assert 0 < kernels < sum(len(ref._blocks(p)) for p in degrees)
        calls = {"rational_kernel": [], "rref": []}
        built = []
        extend = linalg.ExteriorExpansion._extend

        def counting_levels(ext):
            built.append((ext, len(ext.levels)))
            extend(ext)

        monkeypatch.setattr(linalg.ExteriorExpansion, "_extend", counting_levels)

        def counting(name, fn):
            def wrapper(*args):
                calls[name].append(args)
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(lie, name, counting(name, getattr(lie, name)))
        kos = build_koszul(algebra)
        rng = random.Random(3)
        autos = [graded_filiform_auto(algebra, rng) for _ in range(2)]
        for phi in autos:
            for p in degrees:
                action_on_cohomology(phi, p, kos)
            for p in degrees:
                action_on_cohomology(phi, p, kos)
        # each degree's blocks reduced once, not once per automorphism
        assert len(calls["rational_kernel"]) == kernels
        assert len(calls["rref"]) == reductions
        # each level of each automorphism's expansion built once, from its dual
        assert sorted((id(ext), k) for ext, k in built) == sorted(
            (id(phi.exterior), k) for phi in autos for k in degrees[1:]
        )
        for phi in autos:
            fresh = linalg.ExteriorExpansion(phi.dual)
            assert phi.exterior.levels == [fresh.level(k) for k in degrees]
        # the dense views read the cache and reduce nothing more
        for p in degrees:
            kos.cocycles(p), kos.coboundaries(p), kos.representatives(p)
        assert len(calls["rational_kernel"]) == kernels
        assert len(calls["rref"]) == reductions

    def test_form_actions_computed_only_when_asked(self, monkeypatch):
        built = []
        extend = linalg.ExteriorExpansion._extend

        def counting(ext):
            built.append(len(ext.levels))
            extend(ext)

        monkeypatch.setattr(linalg.ExteriorExpansion, "_extend", counting)
        h = nilpotent_catalog()["heisenberg_5"]
        kos = build_koszul(h)
        for phi in (graded_heisenberg_auto(h, random.Random(1)), inner_automorphism(h, (1, 0, 2, 0, 0))):
            built.clear()
            # degrees 2 and 3 are read: levels 1 to 3 are built, none above
            lie._class_map(phi, 2, kos)
            assert built == [1, 2, 3]
            assert len(phi.exterior.levels) == 4
            # the degrees below reuse them
            lie._class_map(phi, 1, kos)
            form_action(phi, 3)
            assert built == [1, 2, 3]


def sparse(vector):
    return {i: x for i, x in enumerate(vector) if x}


def sparse_rows(m):
    return lie._sparse(m.entries)


class TestKernelCoordinates:
    def test_matches_solve_on_kernel_bases(self):
        rng = random.Random(41)
        for _ in range(30):
            nrows, ncols = rng.randint(0, 4), rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            basis = rational_kernel(Matrix(rows, ncols=ncols))
            coeffs = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(basis.nrows)]
                for _ in range(rng.randint(0, 3))
            ]
            images = [basis.apply_left(c) for c in coeffs]
            # each image lists its entries with the columns decreasing
            reversed_images = [dict(reversed(sparse(v).items())) for v in images]
            coords = lie._coordinates(sparse_rows(basis), reversed_images, "what")
            assert len(coords) == len(images)
            assert all(x for col in coords for _, x in col)
            # sparse columns: rows increasing
            assert all([i for i, _ in col] == sorted(i for i, _ in col) for col in coords)
            dense_coords = _dense_columns(coords, basis.nrows)
            for j, v in enumerate(images):
                assert dense_coords.col(j) == solve(basis.transpose(), v)

    def test_image_outside_the_span_is_refused(self):
        basis = sparse_rows(rational_kernel(Matrix([[1, 1, 0]])))
        with pytest.raises(InternalError, match="^what$"):
            lie._coordinates(basis, [{0: 1}], "what")

    def test_row_not_ending_in_one_is_refused(self):
        # the entry at column 2 reads 2, not the coordinate 1
        with pytest.raises(InternalError, match="^what$"):
            lie._coordinates([((0, 1), (2, 2))], [{0: 1, 2: 2}], "what")

    def test_shapes(self):
        basis = sparse_rows(rational_kernel(Matrix([[1, 1, 0]])))
        assert lie._coordinates(basis, [], "what") == []
        assert _dense_columns(lie._coordinates(basis, [], "what"), 2) == Matrix([[], []], ncols=0)
        assert lie._coordinates([], [{}, {}], "what") == [(), ()]
        assert _dense_columns([(), ()], 0) == Matrix([], ncols=2)
        with pytest.raises(InternalError, match="^what$"):
            lie._coordinates([], [{}, {1: 5}], "what")

    def test_class_map(self):
        for name, algebra in nilpotent_catalog().items():
            kos = build_koszul(algebra)
            dim = algebra.dim
            for p in range(dim + 1):
                z, b, r, c = kos.cohomology_basis(p)
                cocycles, bound = dense_rows(z, kos.space_dim(p)), dense_rows(b, kos.space_dim(p))
                reps, classes = dense_rows(r, kos.space_dim(p)), dense_rows(c, len(z))
                assert (classes.nrows, classes.ncols) == (reps.nrows, cocycles.nrows)
                for f, row in enumerate(cocycles.entries):
                    rest = [
                        x - sum(classes[i, f] * r[t] for i, r in enumerate(reps.entries))
                        for t, x in enumerate(row)
                    ]
                    # cocycle f minus its class is a coboundary
                    assert stack(bound, Matrix([rest])).rank() == bound.nrows, (name, p, f)
                own = [cocycles.entries.index(r) for r in reps.entries]
                assert classes.submatrix(range(reps.nrows), own).is_identity(), (name, p)

    def test_action_runs_no_elimination_once_bases_are_cached(self, monkeypatch):
        rng = random.Random(17)
        complexes = {}
        for name, algebra in nilpotent_catalog().items():
            kos = build_koszul(algebra)
            x = tuple(rng.randint(-2, 2) for _ in range(algebra.dim))
            matrix = seeded_torus(algebra, rng).compose(inner_automorphism(algebra, x)).matrix
            expected = [
                action_on_cohomology(LieAutomorphism(algebra, matrix), p, kos)
                for p in range(algebra.dim + 1)
            ]
            complexes[name] = (kos, LieAutomorphism(algebra, matrix), expected)
        for fn in ("rref", "rational_kernel"):
            monkeypatch.setattr(lie, fn, lambda *args: pytest.fail("elimination in the action"))
        for name, (kos, phi, expected) in complexes.items():
            got = [action_on_cohomology(phi, p, kos) for p in range(kos.algebra.dim + 1)]
            assert got == expected, name


def certificate_cases():
    """(complex, automorphism) pairs whose duals have c = 1 and c > 1, c the
    lcm of the denominators: the integer columns are c^p times the action."""
    h, f = heisenberg(), nilpotent_catalog()["filiform_5"]
    kos_h, kos_f = build_koszul(h), build_koszul(f)
    cases = [
        (kos_h, inner_automorphism(h, (1, 0, 0))),
        (kos_h, diagonal_automorphism(h, (2, Fraction(1, 2), 1))),
        (kos_f, inner_automorphism(f, (1, 0, 0, 0, 1))),
    ]
    assert [phi.exterior.scale for _, phi in cases] == [1, 2, 6]
    return cases


class TestActionCertificates:
    def test_chain_map_check_fires_on_perturbed_form_action(self, monkeypatch):
        original = lie._scaled_action

        def doubled(psi, p):
            cols, den = original(psi, p)
            return (tuple(tuple((r, 2 * v) for r, v in col) for col in cols) if p == 2 else cols), den

        monkeypatch.setattr(lie, "_scaled_action", doubled)
        for kos, phi in certificate_cases():
            with pytest.raises(
                InternalError, match="^form action does not commute with the differential$"
            ):
                lie._class_map(phi, 1, kos)

    def test_chain_map_check_sees_one_wrong_entry(self):
        # a torus acts by diagonal columns, an inner automorphism by
        # triangular ones with the 1/k! of exp(ad x), scaled to integers
        kos = build_koszul(nilpotent_catalog()["filiform_5"])
        torus = graded_filiform_auto(kos.algebra, random.Random(9))
        message = "^form action does not commute with the differential$"
        for kos, phi in certificate_cases() + [(kos, torus)]:
            c = phi.exterior.scale
            for p in range(kos.algebra.dim):
                lie.check_chain_map(kos.columns[p], form_action(phi, p), form_action(phi, p + 1))
                (w_here, den), (w_up, _) = lie._scaled_action(phi, p), lie._scaled_action(phi, p + 1)
                assert den == c**p
                lie.check_chain_map(kos.columns[p], w_here, w_up, c)
                if c > 1 and any(kos.columns[p]):
                    # the integer sides differ by c
                    with pytest.raises(InternalError, match=message):
                        lie.check_chain_map(kos.columns[p], w_here, w_up)
                for col in kos.columns[p]:
                    if col:
                        bumped = dense(w_up).to_lists()
                        bumped[col[0][0]][col[0][0]] += 1
                        with pytest.raises(InternalError, match=message):
                            lie.check_chain_map(kos.columns[p], w_here, lie._sparse(zip(*bumped)), c)

    def test_image_outside_cocycles_is_refused(self, monkeypatch):
        original = lie._scaled_action

        def leaky(psi, p):
            # send xi^0 to its image plus xi^2, which is not closed
            cols, den = original(psi, p)
            w = dense(cols).to_lists()
            if p == 1:
                w[2][0] += den
            return lie._sparse(zip(*w)), den

        monkeypatch.setattr(lie, "_scaled_action", leaky)
        monkeypatch.setattr(lie, "check_chain_map", lambda *args: None)
        for kos, phi in certificate_cases():
            with pytest.raises(InternalError, match="^image of a cocycle left the cocycle space$"):
                lie._class_map(phi, 1, kos)


def class_map_action(phi, p, kos):
    """The induced map on degree-p cohomology by the general class-map path."""
    cols, den = lie._class_map(phi, p, kos)
    return _dense_columns([[(i, _quotient(x, den)) for i, x in col] for col in cols], len(cols))


def json_bytes(mats):
    return json.dumps([matrix_to_json(m) for m in mats]).encode()


def count_calls(monkeypatch, owner, name):
    """Patch owner.name to count its calls; the returned list grows by one
    entry (the positional arguments) per call."""
    calls, original = [], getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestInnerPath:
    """exp(ad x) acts as the identity on cohomology, certified by Cartan's
    formula L_x = d i_x + i_x d in every degree; every other automorphism
    takes the class-map path."""

    def test_matches_the_class_map_on_the_catalog(self):
        # x with coordinates -1 or 1, as perfbench's inner_matrix draws them
        rng = random.Random(25)
        for name, algebra in nilpotent_catalog().items():
            assert algebra.dim <= 9
            for _ in range(2):
                x = tuple(rng.choice((-1, 1)) for _ in range(algebra.dim))
                phi, kos = inner_automorphism(algebra, x), build_koszul(algebra)
                degrees = range(algebra.dim + 1)
                got = [action_on_cohomology(phi, p, kos) for p in degrees]
                assert algebra.ad(phi.inner_generator) == algebra.ad(x), name
                assert json_bytes(got) == json_bytes([class_map_action(phi, p, kos) for p in degrees]), name

    def test_generator_gives_the_same_ad(self):
        # x is found modulo the centre, and exp(ad x) is certified
        for algebra in (filiform(6), heisenberg(2), free_two_step(3), sl2()):
            x = tuple(range(1, algebra.dim + 1)) if algebra.is_nilpotent() else (0, 1, 0)
            phi = inner_automorphism(algebra, x)
            assert algebra.ad(phi.inner_generator) == algebra.ad(x)
        assert LieAutomorphism(abelian(3), Matrix.identity(3)).inner_generator == (0, 0, 0)

    def test_non_nilpotent_algebra(self):
        # Cartan's formula holds on any Lie algebra: exp(ad e) on sl_2
        algebra = sl2()
        phi, kos = inner_automorphism(algebra, (0, 1, 0)), build_koszul(algebra)
        got = [action_on_cohomology(phi, p, kos) for p in range(4)]
        assert got == [class_map_action(phi, p, kos) for p in range(4)]
        assert [m.nrows for m in got] == [1, 0, 0, 1]

    def test_builds_no_form_action_and_no_cohomology_basis(self, monkeypatch):
        extend = count_calls(monkeypatch, linalg.ExteriorExpansion, "_extend")
        bases = count_calls(monkeypatch, KoszulComplex, "cohomology_basis")
        algebra = filiform(7)
        kos = build_koszul(algebra)
        phi = inner_automorphism(algebra, (1, -1, 1, -1, 1, -1, 1))
        got = [action_on_cohomology(phi, p, kos) for p in range(8)]
        assert got == [Matrix.identity(b) for b in kos.betti()]
        assert extend == [] and bases == []

    def test_homotopy_checked_in_every_degree_once_per_complex(self, monkeypatch):
        algebra = heisenberg(2)
        phi = inner_automorphism(algebra, (1, 1, -1, 1, 1))
        checked = count_calls(monkeypatch, lie, "_check_cartan")
        kos = build_koszul(algebra)
        for p in range(6):
            action_on_cohomology(phi, p, kos)
        assert [args[1] for args in checked] == list(range(6))
        # another automorphism with the same x reuses the certificate
        action_on_cohomology(inner_automorphism(algebra, (1, 1, -1, 1, 1)), 3, kos)
        assert len(checked) == 6
        # a new complex runs it again
        action_on_cohomology(phi, 0, build_koszul(algebra))
        assert [args[1] for args in checked] == list(range(6)) * 2

    def test_sign_flip_in_the_contraction_is_refused(self, monkeypatch):
        original = lie._contraction

        def flipped(x, p):
            return [tuple((r, -v) for r, v in col) for col in original(x, p)]

        monkeypatch.setattr(lie, "_contraction", flipped)
        for algebra in (heisenberg(1), filiform(5), free_two_step(3)):
            phi = inner_automorphism(algebra, (1,) * algebra.dim)
            with pytest.raises(InternalError, match="^Cartan's formula fails in degree 1$"):
                action_on_cohomology(phi, 2, build_koszul(algebra))

    @pytest.mark.parametrize("q", range(1, 6))
    def test_each_degree_is_checked(self, monkeypatch, q):
        # the contraction flipped in the check of degree q alone is seen
        # there: no degree with a nonzero L_x goes unchecked
        original = lie._check_cartan

        def flipped_at_q(kos, p, lie_rows, iota, iota_up):
            if p == q:
                iota = [tuple((r, -v) for r, v in col) for col in iota]
                iota_up = [tuple((r, -v) for r, v in col) for col in iota_up]
            return original(kos, p, lie_rows, iota, iota_up)

        monkeypatch.setattr(lie, "_check_cartan", flipped_at_q)
        algebra = filiform(6)
        phi = inner_automorphism(algebra, (1, 1, 0, 0, 0, 1))
        with pytest.raises(InternalError, match=f"^Cartan's formula fails in degree {q}$"):
            action_on_cohomology(phi, 0, build_koszul(algebra))

    def test_log_perturbed_inside_the_inner_derivations_is_refused(self, monkeypatch):
        # log + ad e_1 is still some ad x', but exp(ad x') is another matrix
        algebra = filiform(5)
        original = lie.nilpotent_log
        monkeypatch.setattr(lie, "nilpotent_log", lambda u: original(u) + algebra.ad((0, 1, 0, 0, 0)))
        phi = inner_automorphism(algebra, (1, -1, 1, 0, 0))
        with pytest.raises(
            InternalError, match="^exp\\(ad x\\) differs from the automorphism it is the log of$"
        ):
            action_on_cohomology(phi, 1, build_koszul(algebra))

    def test_log_perturbed_outside_the_inner_derivations_takes_the_class_map(self, monkeypatch):
        algebra = filiform(5)
        phi = inner_automorphism(algebra, (1, -1, 1, 0, 0))
        kos = build_koszul(algebra)
        expected = [class_map_action(phi, p, kos) for p in range(6)]
        original = lie.nilpotent_log
        bump = Matrix([[int(i == 0 and j == 1) for j in range(5)] for i in range(5)])
        monkeypatch.setattr(lie, "nilpotent_log", lambda u: original(u) + bump)
        fresh = LieAutomorphism(algebra, phi.matrix)
        bases = count_calls(monkeypatch, KoszulComplex, "cohomology_basis")
        assert [action_on_cohomology(fresh, p, kos) for p in range(6)] == expected
        assert fresh.inner_generator is None and len(bases) == 6

    def outer_cases(self):
        """(name, automorphism, whether a log is taken): a nilpotent outer
        map on abelian(4), a symplectic transvection e_1 -> e_1 + e_0 on
        heisenberg(2), a torus conjugated by exp(ad x), and diag(2, 2, -1)
        on abelian(3), of trace 3 but not unipotent."""
        shear = Matrix.identity(4).to_lists()
        shear[0][2] = 1
        transvection = Matrix.identity(5).to_lists()
        transvection[0][1] = 1
        f = filiform(5)
        u = inner_automorphism(f, (1, 1, -1, 0, 1))
        torus = diagonal_automorphism(f, (2, 3, 6, 12, 24))
        return [
            ("abelian", LieAutomorphism(abelian(4), Matrix(shear)), True),
            ("heisenberg", LieAutomorphism(heisenberg(2), Matrix(transvection)), True),
            ("conjugated torus", u.compose(torus).compose(u.inverse()), False),
            ("trace n", diagonal_automorphism(abelian(3), (2, 2, -1)), True),
        ]

    def test_other_automorphisms_take_the_class_map(self, monkeypatch):
        for name, phi, logged in self.outer_cases():
            algebra = phi.algebra
            kos = build_koszul(algebra)
            degrees = range(algebra.dim + 1)
            expected = [class_map_action(phi, p, kos) for p in degrees]
            fresh, kos = LieAutomorphism(algebra, phi.matrix), build_koszul(algebra)
            with monkeypatch.context() as m:
                extend = count_calls(m, linalg.ExteriorExpansion, "_extend")
                bases = count_calls(m, KoszulComplex, "cohomology_basis")
                logs = count_calls(m, lie, "nilpotent_log")
                cartan = count_calls(m, lie, "_certify_homotopy")
                got = [action_on_cohomology(fresh, p, kos) for p in degrees]
            assert fresh.inner_generator is None, name
            assert json_bytes(got) == json_bytes(expected), name
            assert len(extend) == algebra.dim and len(bases) == len(degrees), name
            assert (len(logs), cartan) == (int(logged), []), name
            assert not got[1].is_identity(), name


def evaluate(key, vectors):
    """xi^key on the vectors: the determinant of their key coordinates."""
    return Matrix([[v[k] for v in vectors] for k in key]).det() if key else 1


def unit(n, i):
    return tuple(int(t == i) for t in range(n))


def reference_contraction(algebra, x, p):
    """i_x from degree p to p - 1 by its definition (i_x w)(y, ..) = w(x, y, ..):
    the entry at row L and column K is xi^K(x, e_L).  A unit vector e_l with
    l outside K is a zero column of the determinant."""
    n = algebra.dim
    src = list(itertools.combinations(range(n), p))
    dst = list(itertools.combinations(range(n), p - 1)) if p else []
    rows = [
        [evaluate(key, [x] + [unit(n, l) for l in target]) if set(target) <= set(key) else 0 for key in src]
        for target in dst
    ]
    return Matrix(rows, ncols=len(src))


def reference_lie_derivative(algebra, x, p):
    """L_x on degree p by its definition
    (L_x w)(y_1, .., y_p) = -sum_a w(y_1, .., [x, y_a], .., y_p):
    the entry at row L and column K is that sum for w = xi^K and y = e_L."""
    n = algebra.dim
    keys = list(itertools.combinations(range(n), p))
    images = [algebra.bracket(x, unit(n, l)) for l in range(n)]
    rows = []
    for target in keys:
        row = []
        for key in keys:
            total = 0
            for a, l in enumerate(target):
                if set(target[:a] + target[a + 1 :]) <= set(key):
                    args = [unit(n, m) for m in target]
                    args[a] = images[l]
                    total -= evaluate(key, args)
            row.append(total)
        rows.append(row)
    return Matrix(rows, ncols=len(keys))


def dense_on(cols, p, n):
    """Sparse columns as a dense matrix on the forms of degree p (none below 0)."""
    return _dense_columns(cols, math.comb(n, p) if p >= 0 else 0)


class TestLeibnizRule:
    """The one sign rule of ``_leibniz`` against the definitions of i_x and
    L_x, each read off the maps that the Cartan certificate compares."""

    @pytest.mark.parametrize("name", sorted(reference_test_algebras()))
    def test_contraction_and_lie_derivative_match_their_definitions(self, monkeypatch, name):
        algebra = reference_test_algebras()[name]
        n = algebra.dim
        rng = random.Random(name)
        for _ in range(2):
            x = tuple(rng.choice((0, 1, -1, 2, -2)) for _ in range(n))
            kos = build_koszul(algebra)
            with monkeypatch.context() as m:
                checked = count_calls(m, lie, "_check_cartan")
                lie._certify_homotopy(kos, x)
            assert [args[1] for args in checked] == list(range(n + 1))
            for _, p, lie_rows, iota, iota_up in checked:
                assert dense_on(iota, p - 1, n) == reference_contraction(algebra, x, p), (name, x, p)
                if p < n:
                    assert dense_on(iota_up, p, n) == reference_contraction(algebra, x, p + 1)
                lie_x = [tuple(sorted(col.items())) for col in lie._leibniz(p, lie_rows)]
                assert dense_on(lie_x, p, n) == reference_lie_derivative(algebra, x, p), (name, x, p)


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
        assert reference_invariants(kos, [phi])[2] == (1, 0, 0, 1)

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
                image = kos.differentials[p].apply(basis.row(i))
                assert up.apply_left(restricted.col(i)) == image

    def test_non_commuting_rejected(self):
        a = abelian(2)
        kos = build_koszul(a)
        one = diagonal_automorphism(a, (2, 3))
        swap = LieAutomorphism(a, Matrix([[0, 1], [1, 0]]))
        with pytest.raises(PreconditionError):
            invariant_subcomplex(kos, [one, swap])

    def test_a_torus_and_its_conjugate_are_refused(self):
        # exp(ad e_0) conjugates the torus off the diagonal; the two do not
        # commute, while the conjugate commutes with its own square
        h = heisenberg(1)
        kos = build_koszul(h)
        torus = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        u = inner_automorphism(h, (1, 0, 0))
        conjugate = u.compose(torus).compose(u.inverse())
        assert torus.matrix * conjugate.matrix != conjugate.matrix * torus.matrix
        with pytest.raises(PreconditionError, match="^automorphisms must commute$"):
            invariant_subcomplex(kos, [torus, conjugate])
        inv = invariant_subcomplex(kos, [conjugate, conjugate.compose(conjugate)])
        assert inv.invariant_betti == (1, 0, 0, 1)

    def test_two_automorphisms_of_the_zero_algebra_commute(self):
        # the zero algebra has no one-forms: its exterior expansion stops at level 0
        a = abelian(0)
        ident = LieAutomorphism(a, Matrix([], ncols=0))
        assert invariant_subcomplex(build_koszul(a), [ident, ident]).invariant_betti == (1,)

    def test_commutation_matches_the_matrix_products(self):
        # conjugates of tori are semisimple; two of them commute at least
        # when they share the conjugator
        rng = random.Random(18)
        h = heisenberg(1)
        kos = build_koszul(h)
        conjugators = [inner_automorphism(h, x) for x in ((0, 0, 0), (1, 0, 0), (0, 2, 0), (1, -1, 0))]
        seen = set()
        for _ in range(24):
            pair = []
            for _ in range(2):
                u = rng.choice(conjugators)
                a, b = rng.choice((1, -1, 2, Fraction(1, 3))), rng.choice((1, -1, 3))
                pair.append(u.compose(diagonal_automorphism(h, (a, b, a * b))).compose(u.inverse()))
            one, two = (phi.matrix for phi in pair)
            commute = one * two == two * one
            seen.add(commute)
            if commute:
                invariant_subcomplex(kos, pair)
            else:
                with pytest.raises(PreconditionError, match="^automorphisms must commute$"):
                    invariant_subcomplex(kos, pair)
        assert seen == {True, False}

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
            # the fixed classes, counted on the class map, are the invariant Betti numbers
            assert inv.invariant_betti == reference_invariants(kos, [phi])[2]


def reference_fixed_subspace(basis, operator):
    """The rows of span(basis) fixed by ``operator``, by one kernel of
    (operator - I) * basis^T and a product back into the basis."""
    if basis.nrows == 0:
        return basis
    shifted = operator - Matrix.identity(operator.nrows)
    return rational_kernel(shifted * basis.transpose()) * basis


def reference_invariants(kos, autos):
    """The invariant subcomplex with the fixed spaces narrowed one
    automorphism at a time, one ``solve`` per fixed form, and the action on
    cohomology from ``reference_action``.  Returns the subspace dimensions,
    the invariant Betti numbers, the dimensions of the fixed classes, the
    subspace bases and the restricted differentials."""
    n = kos.algebra.dim
    bases = []
    for p in range(n + 1):
        basis = Matrix.identity(kos.space_dim(p))
        for phi in autos:
            w = wedge_power(phi.matrix.inverse().transpose(), p)
            basis = reference_fixed_subspace(basis, w)
        bases.append(basis)
    restricted = []
    for p in range(n):
        cols = []
        for row in bases[p].entries:
            coeffs = solve(bases[p + 1].transpose(), kos.differentials[p].apply(row))
            assert coeffs is not None
            cols.append(coeffs)
        restricted.append(Matrix.from_cols(cols, nrows=bases[p + 1].nrows))
    restricted.append(Matrix([], ncols=0))
    inv_betti = tuple(
        bases[p].nrows - restricted[p].rank() - (restricted[p - 1].rank() if p else 0)
        for p in range(n + 1)
    )
    fixed = []
    for p, h_dim in enumerate(kos.betti()):
        basis = Matrix.identity(h_dim)
        for phi in autos:
            basis = reference_fixed_subspace(basis, reference_action(phi, p, kos))
        fixed.append(basis.nrows)
    return (
        tuple(b.nrows for b in bases),
        inv_betti,
        tuple(fixed),
        tuple(bases),
        tuple(restricted),
    )


def same_row_space(a, b):
    return a.ncols == b.ncols and a.rank() == b.rank() == stack(a, b).rank()


def automorphism_sets(algebra, rng):
    """Zero to three commuting semisimple automorphisms: seeded tori, and
    conjugates of tori by one inner automorphism (dense matrices)."""
    tori = [seeded_torus(algebra, rng) for _ in range(3)]
    u = inner_automorphism(algebra, tuple(rng.randint(-2, 2) for _ in range(algebra.dim)))
    conj = [u.compose(t).compose(u.inverse()) for t in tori[:2]]
    return [[], tori[:1], conj[:1], tori[:2], conj, tori]


def plane_automorphism(a):
    """(A, det A) on heisenberg(1), the 2 x 2 integer matrix A on e_0, e_1."""
    (p, q), (r, s) = a
    return LieAutomorphism(heisenberg(), Matrix([[p, q, 0], [r, s, 0], [0, 0, p * s - q * r]]))


def block_diagonal(*blocks):
    """The square matrix with the given square blocks down its diagonal."""
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(row) + [0] * (n - at - len(b)) for row in b]
        at += len(b)
    return Matrix(rows)


ROTATION = ((0, -1), (1, 0))


def non_split_sets():
    """(name, algebra, automorphisms): commuting semisimple sets, all but
    -I with a minimal polynomial that does not split over Q, some also
    with their square."""
    sets = []
    for a in (ROTATION, ((2, 1), (1, 1)), ((1, -1), (1, 0)), ((-1, 0), (0, -1))):
        phi = plane_automorphism(a)
        sets.append((f"heisenberg_3 {a}", heisenberg(), [phi]))
        sets.append((f"heisenberg_3 {a} squared", heisenberg(), [phi, phi.compose(phi)]))
    # the companion matrix of x^3 - x - 1
    phi = LieAutomorphism(abelian(3), Matrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]]))
    sets.append(("abelian_3 x^3 - x - 1", abelian(3), [phi]))
    sets.append(("abelian_3 x^3 - x - 1 squared", abelian(3), [phi, phi.compose(phi)]))
    rotations = block_diagonal(ROTATION, ROTATION)
    sets.append(("abelian_4 rotation", abelian(4), [LieAutomorphism(abelian(4), rotations)]))
    pair = direct_sum(heisenberg(), heisenberg())
    both = block_diagonal(ROTATION, ((1,),), ROTATION, ((1,),))
    sets.append(("heisenberg_3 + heisenberg_3 rotation", pair, [LieAutomorphism(pair, both)]))
    return sets


def conjugated_heisenberg_torus():
    """diag(2, 3, 1, 6, 6) on heisenberg(2) conjugated by exp(ad(e_0 + e_2))."""
    h = heisenberg(2)
    u = inner_automorphism(h, (1, 0, 1, 0, 0))
    phi = u.compose(diagonal_automorphism(h, (2, 3, 1, 6, 6))).compose(u.inverse())
    assert not linalg._is_diagonal(phi.matrix.entries)
    return h, phi


class TestInvariantKernels:
    def test_matches_per_automorphism_and_per_form_oracle(self):
        rng = random.Random(31)
        catalog = nilpotent_catalog().items()
        cases = [(name, algebra, automorphism_sets(algebra, rng)) for name, algebra in catalog]
        cases += [(name, algebra, [autos]) for name, algebra, autos in non_split_sets()]
        for name, algebra, sets in cases:
            kos = build_koszul(algebra)
            for autos in sets:
                inv = invariant_subcomplex(kos, autos)
                dims, betti, fixed, bases, restricted = reference_invariants(kos, autos)
                where = (name, len(autos))
                assert inv.subspace_dims == dims, where
                assert inv.invariant_betti == betti, where
                assert inv.invariant_betti == fixed, where
                if len(autos) <= 1:
                    assert inv.subspace_bases == bases, where
                    assert inv.restricted_differentials == restricted, where
                else:
                    for mine, theirs in zip(inv.subspace_bases, bases):
                        assert same_row_space(mine, theirs), where
                for p in range(algebra.dim):
                    basis, up = inv.subspace_bases[p], inv.subspace_bases[p + 1]
                    d = inv.restricted_differentials[p]
                    assert (d.nrows, d.ncols) == (up.nrows, basis.nrows), where
                    for i in range(basis.nrows):
                        image = kos.differentials[p].apply(basis.row(i))
                        assert up.apply_left(d.col(i)) == image, where
                assert inv.restricted_differentials[algebra.dim] == Matrix([], ncols=0)
        # the last set: the rotation on both summands of heisenberg_3 + heisenberg_3
        assert inv.invariant_betti == (1, 0, 2, 6, 2, 0, 1)

    def test_fixed_space_of_no_operators_is_everything(self):
        assert dense_rows(lie._fixed_space([], 4), 4) == Matrix.identity(4)
        assert lie._fixed_space([], 0) == []

    def test_differential_leaving_the_subcomplex_is_refused(self, monkeypatch):
        h = heisenberg()
        kos = build_koszul(h)
        phi = diagonal_automorphism(h, (2, Fraction(1, 2), 1))
        original = lie._fixed_space

        def skewed(operators, dim):
            # in degree 2 offer xi^0 ^ xi^2, which phi scales by 1/2, in
            # place of the fixed xi^0 ^ xi^1 that d xi^2 lands on
            if operators and operators[0] == lie._scaled_action(phi, 2):
                return [((1, 1),)]
            return original(operators, dim)

        monkeypatch.setattr(lie, "_fixed_space", skewed)
        with pytest.raises(
            InternalError, match="^differential left the invariant subcomplex$"
        ):
            invariant_subcomplex(kos, [phi])

    def test_every_set_is_certified_by_the_chain_map_without_class_maps(self, monkeypatch):
        h, phi = conjugated_heisenberg_torus()
        rotation = plane_automorphism(ROTATION)
        for algebra, autos in [(h, [phi]), (heisenberg(), [rotation, rotation.compose(rotation)])]:
            kos = build_koszul(algebra)
            with monkeypatch.context() as m:
                m.setattr(lie, "_class_map", lambda *args: pytest.fail("_class_map"))
                bases = count_calls(m, KoszulComplex, "cohomology_basis")
                checked = count_calls(m, lie, "check_chain_map")
                invariant_subcomplex(kos, autos)
            assert bases == []
            assert len(checked) == algebra.dim * len(autos)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_a_non_diagonal_action_off_the_chain_map_is_refused(self, monkeypatch, q):
        h, phi = conjugated_heisenberg_torus()
        kos = build_koszul(h)
        original = lie._scaled_action

        def doubled(psi, p):
            cols, s = original(psi, p)
            if p == q:
                cols = tuple(tuple((r, 2 * x) for r, x in col) for col in cols)
            return cols, s

        monkeypatch.setattr(lie, "_scaled_action", doubled)
        with pytest.raises(InternalError, match="^form action does not commute with the differential$"):
            invariant_subcomplex(kos, [phi])

    def test_a_block_of_two_weights_is_refused(self, monkeypatch):
        h = heisenberg(2)
        kos = build_koszul(h)
        phi = diagonal_automorphism(h, (2, 3, 1, 6, 6))
        # xi^0 ^ xi^1 and xi^2 ^ xi^3 make one block, as d xi^4 lands on both
        j = kos.bases[2].index((2, 3))
        assert [0, j] in [forms for forms, _ in kos._blocks(2)]
        original = lie._scaled_action

        def tampered(psi, p):
            # give xi^2 ^ xi^3 a weight of its own, fixed by phi no more
            # than the block's
            cols, s = original(psi, p)
            if p == 2:
                assert cols[j] == ((j, 6),) and s == 36
                cols = cols[:j] + (((j, 18),),) + cols[j + 1 :]
            return cols, s

        monkeypatch.setattr(lie, "_scaled_action", tampered)
        # d xi^4 then joins forms of two weights, which no diagonal chain map allows
        with pytest.raises(InternalError, match="^form action does not commute with the differential$"):
            invariant_subcomplex(kos, [phi])

    def test_no_automorphisms_give_the_betti_numbers(self):
        algebras = dict(nilpotent_catalog(), sl2=sl2())
        for name, algebra in algebras.items():
            kos = build_koszul(algebra)
            inv = invariant_subcomplex(kos, [])
            assert inv.invariant_betti == kos.betti(), name
            assert inv.subspace_dims == tuple(map(kos.space_dim, range(algebra.dim + 1))), name

    def test_invariant_path_reads_no_dense_differential(self, monkeypatch):
        h = nilpotent_catalog()["filiform_6"]
        kos = build_koszul(h)
        expected = invariant_subcomplex(kos, [graded_filiform_auto(h, random.Random(4))])
        # the cohomology bases are cached now; nothing else may need d densely
        monkeypatch.setattr(
            KoszulComplex, "differentials", property(lambda self: pytest.fail("dense d read"))
        )
        inv = invariant_subcomplex(kos, [graded_filiform_auto(h, random.Random(4))])
        assert inv == expected


# ---------------------------------------------------------------------------
# block-by-block cohomology bases against the dense eliminations they replaced;
# these test-local copies are the reference


def dense_cocycles(kos, p):
    return rational_kernel(kos.differentials[p])


def dense_coboundaries(kos, p):
    if not p:
        return Matrix([], ncols=kos.space_dim(0))
    reduced, pivots = rref(kos.differentials[p - 1].transpose())
    return Matrix(reduced.entries[: len(pivots)], ncols=reduced.ncols)


def dense_cohomology_basis(kos, p):
    bound, cocycles = dense_coboundaries(kos, p), dense_cocycles(kos, p)
    k = bound.nrows
    reduced, pivots = rref(stack(bound, cocycles).transpose())
    reps = Matrix([cocycles.row(j - k) for j in pivots if j >= k], ncols=cocycles.ncols)
    classes = Matrix([r[k:] for r in reduced.entries[k : len(pivots)]], ncols=cocycles.nrows)
    return reps, cocycles, classes


def typed(m):
    """Shape and entries of a matrix, each entry with its type."""
    return m.nrows, m.ncols, [[(type(x), x) for x in row] for row in m.entries]


def relabelled(algebra, rng):
    """The algebra on the basis s_i e_i with seeded rational scalars s_i,
    listed in a seeded order tau."""
    n = algebra.dim
    tau = list(range(n))
    rng.shuffle(tau)
    scalars = [rng.choice((1, -1, 2, -3, Fraction(1, 2))) for _ in range(n)]
    brackets = {}
    for (i, j), terms in algebra.bracket_table():
        a, b, s = tau[i], tau[j], scalars[i] * scalars[j]
        if a > b:
            a, b, s = b, a, -s
        brackets[(a, b)] = {tau[k]: Fraction(s * c) / scalars[k] for k, c in terms}
    return LieAlgebra(n, brackets)


def oracle_algebras():
    rng = random.Random(61)
    catalog = nilpotent_catalog()
    algebras = dict(catalog)
    algebras["filiform_8"] = filiform(8)
    algebras["free_two_step_10"] = free_two_step(4)
    algebras["upper_triangular_5"] = strictly_upper(5)
    algebras["sl2"] = sl2()
    names = sorted(catalog)
    for t in range(6):
        name = rng.choice(names)
        algebras[f"{name}/relabelled{t}"] = relabelled(catalog[name], rng)
    small = [name for name in names if catalog[name].dim <= 5]
    for t in range(4):
        one, two = rng.sample(small, 2)
        total = direct_sum(catalog[one], catalog[two])
        algebras[f"{one}+{two}/relabelled{t}"] = relabelled(total, rng)
    return algebras


class TestBlockBases:
    @pytest.mark.parametrize("name", sorted(oracle_algebras()))
    def test_matches_dense_eliminations(self, name):
        algebra = oracle_algebras()[name]
        kos = build_koszul(algebra)
        for p in range(algebra.dim + 1):
            where = (name, p)
            dim = kos.space_dim(p)
            cocycles, bound, reps, classes = kos.cohomology_basis(p)
            # sparse rows: no zero entries, columns increasing
            for row in cocycles + bound + reps + classes:
                assert all(x for _, x in row), where
                assert [j for j, _ in row] == sorted({j for j, _ in row}), where
            assert typed(dense_rows(cocycles, dim)) == typed(dense_cocycles(kos, p)), where
            assert typed(dense_rows(bound, dim)) == typed(dense_coboundaries(kos, p)), where
            got = (dense_rows(reps, dim), dense_rows(cocycles, dim), dense_rows(classes, len(cocycles)))
            want = dense_cohomology_basis(kos, p)
            assert [typed(m) for m in got] == [typed(m) for m in want], where
            # the dense views are the same matrices
            assert kos.cocycles(p) == got[1], where
            assert kos.coboundaries(p) == dense_rows(bound, dim), where
            assert kos.representatives(p) == got[0], where

    def test_oracle_algebras_cover_sums_and_fractions(self):
        names = oracle_algebras()
        assert sum("+" in name for name in names) == 4
        # the rescaled bases give the entry-type check Fraction entries to see
        fractions = 0
        for name, algebra in names.items():
            if "relabelled" in name:
                kos = build_koszul(algebra)
                fractions += sum(
                    type(x) is Fraction
                    for p in range(algebra.dim + 1)
                    for rows in kos.cohomology_basis(p)
                    for row in rows
                    for _, x in row
                )
        assert fractions > 0

    def test_one_form_blocks_run_no_elimination(self, monkeypatch):
        # every block of these complexes holds one form, and each kind shows:
        # a class (closed, nothing lands), a coboundary and a form not closed
        catalog = nilpotent_catalog()
        algebras = [catalog[name] for name in ("heisenberg_3", "filiform_4", "heisenberg_plus_line")]
        algebras.append(sl2())
        expected = []
        for algebra in algebras:
            kos = build_koszul(algebra)
            kinds = set()
            for p in range(algebra.dim + 1):
                for forms, lower in kos._blocks(p):
                    assert len(forms) == 1
                    kinds.add("bound" if lower else "class" if not kos.columns[p][forms[0]] else "open")
            assert kinds == {"bound", "class", "open"}
            expected.append([
                [typed(m) for m in dense_cohomology_basis(kos, p) + (dense_coboundaries(kos, p),)]
                for p in range(algebra.dim + 1)
            ])
        for fn in ("rref", "rational_kernel"):
            monkeypatch.setattr(lie, fn, lambda *args: pytest.fail("elimination on one form"))
        for algebra, want in zip(algebras, expected):
            kos = build_koszul(algebra)
            got = []
            for p in range(algebra.dim + 1):
                cocycles, bound, reps, classes = kos.cohomology_basis(p)
                dim = kos.space_dim(p)
                rows = (reps, dim), (cocycles, dim), (classes, len(cocycles)), (bound, dim)
                got.append([typed(dense_rows(*r)) for r in rows])
            assert got == want

    def test_blocks_partition_the_forms(self):
        for name, algebra in nilpotent_catalog().items():
            kos = build_koszul(algebra)
            for p in range(algebra.dim + 1):
                blocks = kos._blocks(p)
                forms = [j for block, _ in blocks for j in block]
                assert sorted(forms) == list(range(kos.space_dim(p))), (name, p)
                assert [block[0] for block, _ in blocks] == sorted(b[0] for b, _ in blocks)
                lower = sorted(j for _, cols in blocks for j in cols)
                assert lower == ([j for j, col in enumerate(kos.columns[p - 1]) if col] if p else [])
                # no column of d^{p-1} or d^p links two blocks
                block_of = {j: b for b, (block, _) in enumerate(blocks) for j in block}
                for b, (_, cols) in enumerate(blocks):
                    for j in cols:
                        assert {block_of[r] for r, _ in kos.columns[p - 1][j]} == {b}
                if p < algebra.dim:
                    upper = {}
                    for j, col in enumerate(kos.columns[p]):
                        for r, _ in col:
                            upper.setdefault(r, set()).add(block_of[j])
                    assert all(len(bs) == 1 for bs in upper.values()), (name, p)

    def test_action_and_invariants_read_no_dense_differential(self, monkeypatch):
        rng = random.Random(71)
        algebra = nilpotent_catalog()["filiform_6"]
        x = tuple(rng.randint(-2, 2) for _ in range(algebra.dim))
        phi = inner_automorphism(algebra, x)
        torus = graded_filiform_auto(algebra, rng)
        degrees = range(algebra.dim + 1)
        kos = build_koszul(algebra)
        expected = (
            [action_on_cohomology(phi, p, kos) for p in degrees],
            invariant_subcomplex(kos, [torus]),
        )
        monkeypatch.setattr(
            KoszulComplex, "differentials", property(lambda self: pytest.fail("dense d read"))
        )
        kos = build_koszul(algebra)
        got = (
            [action_on_cohomology(phi, p, kos) for p in degrees],
            invariant_subcomplex(kos, [torus]),
        )
        assert got == expected


def stacked_kernel(operators, dim):
    """The fixed space by one elimination of the stacked op - I."""
    ident = Matrix.identity(dim)
    return rational_kernel(Matrix([r for op in operators for r in (op - ident).entries], ncols=dim))


def fixed_space(operators, dim):
    """``lie._fixed_space`` of dense operators, as a dense matrix."""
    return dense_rows(lie._fixed_space([(sparse_rows(op.transpose()), 1) for op in operators], dim), dim)


class TestTorusShortcut:
    def test_diagonal_operators_match_the_stacked_kernel(self):
        rng = random.Random(83)
        for _ in range(40):
            dim = rng.randint(0, 7)
            operators = []
            for _ in range(rng.randint(0, 3)):
                diag = [rng.choice((1, 1, 2, -1, Fraction(1, 3), Fraction(3, 3))) for _ in range(dim)]
                operators.append(Matrix.diagonal(diag))
            got = fixed_space(operators, dim)
            assert typed(got) == typed(stacked_kernel(operators, dim)), operators

    def test_entries_one_in_some_operators_only(self):
        a = Matrix.diagonal([1, 2, 1, Fraction(1, 2)])
        b = Matrix.diagonal([1, 1, Fraction(5, 3), Fraction(1, 2)])
        assert lie._fixed_space([(sparse_rows(a), 1), (sparse_rows(b), 1)], 4) == [((0, 1),)]
        assert fixed_space([a, b], 4) == Matrix([[1, 0, 0, 0]])
        assert typed(fixed_space([a, b], 4)) == typed(stacked_kernel([a, b], 4))
        assert fixed_space([a], 4) == Matrix([[1, 0, 0, 0], [0, 0, 1, 0]])
        assert typed(fixed_space([], 3)) == typed(stacked_kernel([], 3))

    def test_scaled_operators_fix_what_the_operators_fix(self):
        # s op, given with s, on the torus path and on the stacked one
        rng = random.Random(89)
        for _ in range(40):
            dim = rng.randint(0, 5)
            operators = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    operators.append(Matrix.diagonal([rng.choice((1, 2, Fraction(1, 3))) for _ in range(dim)]))
                else:
                    shear = [[int(i == j) + (rng.randint(-1, 1) if i < j else 0) for j in range(dim)]
                             for i in range(dim)]
                    operators.append(Matrix(shear, ncols=dim))
            scaled = []
            for op in operators:
                s = rng.choice((1, 2, 6))
                scaled.append((sparse_rows(op.scale(s).transpose()), s))
            got = dense_rows(lie._fixed_space(scaled, dim), dim)
            assert typed(got) == typed(stacked_kernel(operators, dim)), operators

    def test_diagonal_operators_run_no_elimination(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return rational_kernel(m)

        monkeypatch.setattr(lie, "rational_kernel", counting)
        diagonal = [Matrix.diagonal([1, 2, Fraction(1, 2)]), Matrix.diagonal([1, 1, 3])]
        assert fixed_space(diagonal, 3) == Matrix([[1, 0, 0]])
        assert fixed_space([], 3) == Matrix.identity(3)
        assert calls == []
        # one operator off the diagonal sends the whole list down the general path
        shear = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert fixed_space(diagonal + [shear], 3) == stacked_kernel(diagonal + [shear], 3)
        assert len(calls) == 1
        # a column with its one entry off the diagonal is not a torus's
        swap = Matrix([[0, 1], [1, 0]])
        assert fixed_space([swap], 2) == stacked_kernel([swap], 2) == Matrix([[1, 1]])
        assert len(calls) == 2

    def test_torus_invariants_run_no_fixed_space_elimination(self, monkeypatch):
        algebra = nilpotent_catalog()["heisenberg_5"]
        kos = build_koszul(algebra)
        torus = graded_heisenberg_auto(algebra, random.Random(5))
        for p in range(algebra.dim + 1):
            kos.cohomology_basis(p)
        expected = invariant_subcomplex(kos, [torus])
        monkeypatch.setattr(lie, "rational_kernel", lambda *args: pytest.fail("elimination"))
        assert invariant_subcomplex(kos, [torus]) == expected

    def test_torus_invariants_build_no_dense_form_action(self, monkeypatch):
        algebra = nilpotent_catalog()["heisenberg_5"]
        kos = build_koszul(algebra)
        torus = seeded_torus(algebra, random.Random(13))
        expected = invariant_subcomplex(kos, [torus])
        fresh = LieAutomorphism(algebra, torus.matrix)
        original = lie._dense_columns

        def guarded(cols, nrows):
            if any(cols is w for w in fresh.exterior.levels):
                pytest.fail("dense form action")
            return original(cols, nrows)

        monkeypatch.setattr(lie, "_dense_columns", guarded)
        monkeypatch.setattr(linalg, "_dense_columns", guarded)
        monkeypatch.setattr(linalg, "wedge_power", lambda *args: pytest.fail("dense wedge power"))
        # a torus's fixed classes need no action on cohomology at all
        monkeypatch.setattr(lie, "action_on_cohomology", lambda *args: pytest.fail("dense action"))
        assert invariant_subcomplex(kos, [fresh]) == expected
        assert len(fresh.exterior.levels) == algebra.dim + 1

    @pytest.mark.parametrize("slot", ["torus/free_two_step_6", "torus/filiform_7"])
    def test_workload_tori_run_no_min_poly(self, monkeypatch, slot):
        # a diagonal torus is semisimple on sight
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        job = workloads.action_job(slot, 0)
        docs = {name: json.loads(data) for name, data in job.file_bytes().items()}
        algebra = parse_lie_algebra(docs["algebra"], "")
        kos = build_koszul(algebra)
        tori = [LieAutomorphism(algebra, m) for m in parse_matrices_list(docs["tori"], "")]
        expected = invariant_subcomplex(kos, tori)
        monkeypatch.setattr(lie, "min_poly", lambda *args: pytest.fail("min_poly"))
        assert invariant_subcomplex(kos, tori) == expected

    @pytest.mark.parametrize("slot", ["torus/free_two_step_6", "torus/filiform_7"])
    def test_workload_tori_reduce_no_block_of_nonzero_weight(self, monkeypatch, slot):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        job = workloads.action_job(slot, 0)
        docs = {name: json.loads(data) for name, data in job.file_bytes().items()}
        algebra = parse_lie_algebra(docs["algebra"], "")
        kos = build_koszul(algebra)
        tori = [LieAutomorphism(algebra, m) for m in parse_matrices_list(docs["tori"], "")]
        monkeypatch.setattr(lie, "rational_kernel", lambda *args: pytest.fail("rational_kernel"))
        monkeypatch.setattr(lie, "rref", lambda *args: pytest.fail("rref"))
        ranked = []
        original = Matrix.rank

        def rank(self):
            ranked.append(self.ncols)
            return original(self)

        monkeypatch.setattr(Matrix, "rank", rank)
        inv = invariant_subcomplex(kos, tori)
        # every matrix ranked is a restricted differential, on fixed forms only
        assert ranked and max(ranked) <= max(inv.subspace_dims)
        # while blocks of several forms, none of them fixed, are there
        assert sum(inv.subspace_dims) < sum(
            len(forms) for p in range(algebra.dim + 1) for forms, _ in kos._blocks(p) if len(forms) > 1
        )

    @pytest.mark.parametrize("family, n", [("filiform", 9), ("heisenberg", 4), ("free_two_step", 3)])
    def test_tori_are_certified_by_the_chain_map_alone(self, monkeypatch, family, n):
        algebra, tori = workload_tori(monkeypatch, family, n)
        kos = build_koszul(algebra)
        expected = invariant_subcomplex(kos, tori)
        monkeypatch.setattr(KoszulComplex, "_blocks", lambda *args: pytest.fail("_blocks"))
        monkeypatch.setattr(lie, "sparse_rank", lambda *args: pytest.fail("sparse_rank"))
        checked = []
        original = lie.check_chain_map

        def counting(*args):
            checked.append(args)
            return original(*args)

        monkeypatch.setattr(lie, "check_chain_map", counting)
        assert invariant_subcomplex(kos, tori) == expected
        assert len(checked) == algebra.dim * len(tori)

    # the action on cohomology factors through the outer class, so conjugating
    # by an inner automorphism keeps the fixed classes; the conjugates are not
    # diagonal, so _fixed_space takes the stacked kernel on forms.
    # filiform(9) takes x = e_2 + e_n, which moves both tori: with a random x
    # those kernels take about 20 s there
    @pytest.mark.parametrize(
        "family, n, x",
        [
            ("filiform", 7, None),
            ("filiform", 9, (0, 1) + (0,) * 6 + (1,)),
            ("heisenberg", 3, None),
            ("heisenberg", 4, None),
            ("free_two_step", 3, None),
        ],
    )
    def test_inner_conjugates_of_workload_tori_fix_the_same_classes(self, monkeypatch, family, n, x):
        algebra, tori = workload_tori(monkeypatch, family, n)
        kos = build_koszul(algebra)
        if x is None:
            rng = random.Random(f"{family}:{n}")
            x = tuple(rng.choice((-1, 1)) for _ in range(algebra.dim))
        u = inner_automorphism(algebra, x)
        conjugates = [u.compose(t).compose(u.inverse()) for t in tori]
        assert not any(linalg._is_diagonal(c.matrix.entries) for c in conjugates)
        own = invariant_subcomplex(kos, tori)
        conjugated = invariant_subcomplex(kos, conjugates)
        assert conjugated.subspace_dims == own.subspace_dims
        assert conjugated.invariant_betti == own.invariant_betti


def workload_tori(monkeypatch, family, n):
    """The algebra and the two tori of ``workloads.torus_matrices`` under the
    identity relabelling, as ``scripts/koszul_timings.py`` builds them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    base = getattr(workloads, family)(n)
    algebra = LieAlgebra(*base)
    mats = workloads.torus_matrices(base, list(range(algebra.dim)))
    return algebra, [LieAutomorphism(algebra, Matrix(m)) for m in mats]


# ---------------------------------------------------------------------------
# table-driven structure constants against the dense loops they replaced;
# these test-local copies are the reference, reading a table in the form
# LieAlgebra keeps: (i, j) with i < j -> ((k, c), ...)


def dense_bracket_basis(dim, table, i, j):
    if i == j:
        return (0,) * dim
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    out = [0] * dim
    for k, c in table.get((i, j), ()):
        out[k] = sign * c
    return tuple(out)


def dense_bracket(dim, table, u, v):
    out = [Fraction(0)] * dim
    for i in range(dim):
        if u[i] == 0:
            continue
        for j in range(dim):
            if v[j] == 0 or i == j:
                continue
            coeff = u[i] * v[j]
            for k, c in table.get((min(i, j), max(i, j)), ()):
                out[k] += coeff * c if i < j else -coeff * c
    return tuple(int(x) if x.denominator == 1 else x for x in out)


def dense_jacobi_failure(dim, table):
    """The message of the dense Jacobi check, or None when it passes."""
    for i, j, k in itertools.combinations(range(dim), 3):
        ei = tuple(1 if t == i else 0 for t in range(dim))
        ej = tuple(1 if t == j else 0 for t in range(dim))
        ek = tuple(1 if t == k else 0 for t in range(dim))
        total = [
            a + b + c
            for a, b, c in zip(
                dense_bracket(dim, table, dense_bracket_basis(dim, table, i, j), ek),
                dense_bracket(dim, table, dense_bracket_basis(dim, table, j, k), ei),
                dense_bracket(dim, table, dense_bracket_basis(dim, table, k, i), ej),
            )
        ]
        if any(x != 0 for x in total):
            return f"Jacobi identity fails on basis triple ({i}, {j}, {k})"
    return None


def sort_with_sign(seq):
    lst = list(seq)
    if len(set(lst)) != len(lst):
        return 0, ()
    sign = 1
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return sign, tuple(lst)


def dense_koszul_columns(algebra):
    """The sparse columns of every d^p, each term sorted into place by a
    bubble sort that counts its swaps."""
    n = algebra.dim
    bases = [list(itertools.combinations(range(n), p)) for p in range(n + 1)]
    index = [{key: i for i, key in enumerate(bases[p])} for p in range(n + 1)]
    table = algebra.bracket_table()
    terms = [[(i, j, c) for (i, j), comps in table for kk, c in comps if kk == k] for k in range(n)]
    diffs = []
    for p in range(n + 1):
        cols = []
        for key in bases[p]:
            col = {}
            for t, kt in enumerate(key):
                outer_sign = (-1) ** t
                for i, j, c in terms[kt]:
                    sign, target = sort_with_sign(key[:t] + (i, j) + key[t + 1 :])
                    if sign == 0:
                        continue
                    row = index[p + 1][target]
                    col[row] = col.get(row, 0) - outer_sign * sign * c
            cols.append(tuple((r, v) for r, v in sorted(col.items()) if v != 0))
        diffs.append(tuple(cols))
    return tuple(diffs)


def typed_vector(v):
    return [(type(x), x) for x in v]


def typed_columns(columns):
    return [[[(r, type(v), v) for r, v in col] for col in cols] for cols in columns]


def structure_algebras():
    rng = random.Random(83)
    base = dict(nilpotent_catalog())
    base["sl2"] = sl2()
    base["strictly_upper_5"] = strictly_upper(5)
    base["free_two_step_10"] = free_two_step(4)
    algebras = dict(base)
    for name in sorted(base):
        algebras[f"{name}/relabelled"] = relabelled(base[name], rng)
    small = sorted(name for name, algebra in base.items() if algebra.dim <= 5)
    for t in range(4):
        one, two = rng.sample(small, 2)
        total = direct_sum(base[one], base[two])
        algebras[f"{one}+{two}"] = total
        algebras[f"{one}+{two}/relabelled{t}"] = relabelled(total, rng)
    return algebras


def random_scalar(rng):
    return rng.choice(
        (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2), Fraction(5, 7))
    )


def perturbed(algebra, rng):
    """The brackets of the algebra with one structure constant moved."""
    n = algebra.dim
    brackets = {pair: dict(terms) for pair, terms in algebra.bracket_table()}
    pair = tuple(sorted(rng.sample(range(n), 2)))
    k = rng.randrange(n)
    comps = brackets.setdefault(pair, {})
    comps[k] = comps.get(k, 0) + rng.choice((1, -1, 2, Fraction(1, 2)))
    table = {
        pair: tuple((k, c) for k, c in sorted(comps.items()) if c)
        for pair, comps in brackets.items()
    }
    return brackets, {pair: terms for pair, terms in table.items() if terms}


class TestTableDriven:
    @pytest.mark.parametrize("name", sorted(structure_algebras()))
    def test_bracket_matches_dense_loop(self, name):
        algebra = structure_algebras()[name]
        n, table = algebra.dim, algebra._table
        rng = random.Random(name)
        for i, j in itertools.product(range(n), repeat=2):
            ei = tuple(int(t == i) for t in range(n))
            ej = tuple(int(t == j) for t in range(n))
            got, want = algebra.bracket(ei, ej), dense_bracket(n, table, ei, ej)
            assert typed_vector(got) == typed_vector(want), (name, i, j)
        for _ in range(20):
            u = tuple(random_scalar(rng) for _ in range(n))
            v = tuple(random_scalar(rng) for _ in range(n))
            got, want = algebra.bracket(u, v), dense_bracket(n, table, u, v)
            assert typed_vector(got) == typed_vector(want), (name, u, v)

    @pytest.mark.parametrize("name", sorted(structure_algebras()))
    def test_koszul_columns_match_sorted_terms(self, name):
        algebra = structure_algebras()[name]
        kos = build_koszul(algebra)
        assert typed_columns(kos.columns) == typed_columns(dense_koszul_columns(algebra))

    def test_structure_algebras_cover_sums_and_fractions(self):
        algebras = structure_algebras()
        assert sum("+" in name for name in algebras) == 8
        fractions = [
            name
            for name, algebra in algebras.items()
            if any(type(c) is Fraction for _, terms in algebra.bracket_table() for _, c in terms)
        ]
        assert len(fractions) >= 5
        assert all("relabelled" in name for name in fractions)
        assert any(
            type(v) is Fraction
            for name in fractions
            for cols in build_koszul(algebras[name]).columns
            for col in cols
            for _, v in col
        )

    def test_jacobi_check_names_the_dense_triple(self):
        rng = random.Random(89)
        failures = 0
        for name, algebra in sorted(structure_algebras().items()):
            if algebra.dim < 3:
                continue
            for _ in range(3):
                brackets, table = perturbed(algebra, rng)
                want = dense_jacobi_failure(algebra.dim, table)
                try:
                    LieAlgebra(algebra.dim, brackets)
                    got = None
                except PreconditionError as e:
                    got = str(e)
                assert got == want, name
                failures += want is not None
        assert failures >= 60

    def test_vector_length_checked(self):
        h = heisenberg()
        # the table only reads coordinates 0 and 1 here, so without the
        # check a short x would give a wrong ad silently
        for x in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(PreconditionError, match="vector length mismatch"):
                h.ad(x)
            with pytest.raises(PreconditionError, match="vector length mismatch"):
                inner_automorphism(h, x)
        with pytest.raises(PreconditionError, match="vector length mismatch"):
            h.bracket((1, 0, 0), (0, 1))
        assert h.ad((1, 0, 0)) == Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])


def unit_vector(n, i):
    return tuple(int(t == i) for t in range(n))


class TestSignedReaders:
    """bracket_basis, ad and ad_preimage against the bracket they stand for."""

    @pytest.mark.parametrize("name", sorted(structure_algebras()))
    def test_bracket_basis_is_the_bracket_of_basis_vectors(self, name):
        algebra = structure_algebras()[name]
        n = algebra.dim
        for i, j in itertools.product(range(n), repeat=2):
            got = algebra.bracket_basis(i, j)
            want = algebra.bracket(unit_vector(n, i), unit_vector(n, j))
            assert typed_vector(got) == typed_vector(want), (i, j)

    @pytest.mark.parametrize("name", sorted(structure_algebras()))
    def test_ad_columns_are_brackets_and_ad_preimage_inverts_ad(self, name):
        algebra = structure_algebras()[name]
        n = algebra.dim
        rng = random.Random(name)
        for _ in range(3):
            x = tuple(random_scalar(rng) for _ in range(n))
            ad = algebra.ad(x)
            for j in range(n):
                assert typed_vector(ad.col(j)) == typed_vector(algebra.bracket(x, unit_vector(n, j)))
            preimage = algebra.ad_preimage(ad)
            assert preimage is not None
            assert typed_rows(algebra.ad(preimage)) == typed_rows(ad)

    def test_ad_preimage_refuses_entries_no_term_reaches(self):
        refused = 0
        for name, algebra in sorted(structure_algebras().items()):
            n = algebra.dim
            reached = {
                (k, j)
                for i, j in itertools.product(range(n), repeat=2)
                for k, c in enumerate(algebra.bracket_basis(i, j))
                if c
            }
            ad = algebra.ad(tuple(range(1, n + 1)))
            for k, j in sorted(set(itertools.product(range(n), repeat=2)) - reached)[:3]:
                rows = [list(row) for row in ad.entries]
                rows[k][j] += 1
                assert algebra.ad_preimage(Matrix(rows, ncols=n)) is None, (name, k, j)
                refused += 1
        assert refused >= 3 * len(structure_algebras())

    def test_ad_preimage_refuses_a_matrix_on_the_pattern_outside_the_image(self):
        # on filiform(4), ad x has x_0 at both (2, 1) and (3, 2)
        f = filiform(4)
        d = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0]])
        assert f.ad_preimage(d) is None
        assert f.ad_preimage(Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0]])) == (2, 0, 0, 0)

    def test_ad_preimage_refuses_a_matrix_of_the_wrong_shape(self):
        h = heisenberg()
        wide = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
        for d in (Matrix.zero(2, 2), Matrix.zero(4, 4), wide):
            with pytest.raises(PreconditionError, match="^matrix shape mismatch: ad_preimage needs a 3 x 3 matrix$"):
                h.ad_preimage(d)
        assert h.ad_preimage(Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])) == (1, 0, 0)


def leibniz_algebras():
    """Seeded relabellings with signs of the catalog algebras (dimension at
    most 7), fraction_4, sl2 and a Heisenberg algebra plus an abelian one."""
    rng = random.Random(34)
    catalog = nilpotent_catalog()
    algebras = {f"{name}/relabelled": relabelled(catalog[name], rng) for name in sorted(catalog)}
    algebras["fraction_4"] = reference_test_algebras()["fraction_4"]
    algebras["sl2"] = sl2()
    algebras["heisenberg_3+abelian_2"] = direct_sum(heisenberg(), abelian(2))
    return algebras


def typed_items(cols):
    """Each column's (row, type, entry) items in the dict's own order."""
    return [[(r, type(v), v) for r, v in col.items()] for col in cols]


class TestTermDrivenLeibniz:
    """``_leibniz`` walks the nonzero terms; the form-by-form rule it
    replaced (``oracles.leibniz_by_forms``) is the slow path it must match
    for d, i_x and L_x, entry for entry, with types and order."""

    @pytest.mark.parametrize("name", sorted(leibniz_algebras()))
    def test_d_contraction_and_lie_derivative_match_the_form_rule(self, monkeypatch, name):
        algebra = leibniz_algebras()[name]
        n = algebra.dim
        rng = random.Random(name)
        x = tuple(rng.choice((0, 1, -1, 2, Fraction(1, 2))) for _ in range(n))
        with monkeypatch.context() as m:
            calls = count_calls(m, lie, "_leibniz")
            kos = build_koszul(algebra)
            lie._certify_homotopy(kos, x)
        # d in every degree, then i_x from degree 0, and per degree L_x and i_x one up
        assert len(calls) == 3 * n + 3
        for p, images in calls:
            got = lie._leibniz(p, images)
            assert len(got) == len(kos.bases[p])
            assert typed_items(got) == typed_items(leibniz_by_forms(kos.bases, p, images)), (name, p)
        for p in range(n + 1):
            assert kos.differentials[p] == reference_differential(algebra, p), (name, p)

    def test_forms_without_a_term_get_an_empty_column(self, monkeypatch):
        # on heisenberg + line, d xi^2 = -xi^0 ^ xi^1 is the one term, so d
        # xi^K is nonzero exactly when K holds 2 but neither 0 nor 1
        with monkeypatch.context() as m:
            calls = count_calls(m, lie, "_leibniz")
            kos = build_koszul(direct_sum(heisenberg(), abelian(1)))
        for (p, images), cols in zip(calls, kos.columns):
            built = lie._leibniz(p, images)
            for key, col, dict_col in zip(kos.bases[p], cols, built):
                assert bool(col) == (2 in key and not {0, 1} & set(key)), (p, key)
                assert (dict_col == {}) == (not col)

    def test_reference_differential_catches_a_sign_flip_that_d_squared_misses(self, monkeypatch):
        algebra = filiform(6)
        original = lie._leibniz

        def flipped(p, images):
            cols = original(p, images)
            if p == 2:
                j = next(j for j, col in enumerate(cols) if any(col.values()))
                col = cols[j] = dict(cols[j])
                r = next(r for r, v in col.items() if v)
                col[r] = -col[r]
            return cols

        monkeypatch.setattr(lie, "_leibniz", flipped)
        kos = build_koszul(algebra)  # d o d = 0 holds term by term, so it passes
        assert kos.differentials[2] != reference_differential(algebra, 2)
        for p in (0, 1, 3, 4, 5, 6):
            assert kos.differentials[p] == reference_differential(algebra, p)

    def test_square_zero_check_skips_only_empty_columns(self):
        upper = (((0, 1),), ())
        check_square_zero(((), ((1, 5),), ()), upper, 0)
        with pytest.raises(InternalError, match="does not square to zero at degree 3"):
            check_square_zero(((), ((0, 2),), ()), upper, 3)

    @pytest.mark.parametrize(
        "columns, nrows, rank",
        [
            ((), 0, 0),
            (((), (), ()), 4, 0),
            (((), (), ((0, 1), (1, 2)), ((0, 2), (1, 4))), 3, 1),
            ((((0, 1), (1, 2)), ((1, 3),), (), ()), 2, 2),
            ((((0, Fraction(1, 2)),), (), ((0, 1), (2, -1)), (), ((0, Fraction(-3, 2)), (2, 3))), 3, 2),
            ((), 5, 0),
        ],
    )
    def test_sparse_rank_with_empty_columns(self, columns, nrows, rank):
        assert sparse_rank(columns, nrows) == rank == _dense_columns(columns, nrows).rank()

    def test_sparse_rank_eliminates_each_block_on_int_rows_without_a_matrix(self, monkeypatch):
        # blocks: rows {0, 1} from two columns, row 2 alone, rows {3, 4} from
        # three columns of rank 2, so 1 + 1 + 2; the empty columns join none
        columns = (
            (),
            ((0, 1), (1, 1)),
            ((0, Fraction(1, 3)), (1, Fraction(1, 3))),
            ((2, 5),),
            (),
            ((3, 1), (4, 2)),
            ((3, 2), (4, 4)),
            ((4, 1),),
            (),
        )
        want = _dense_columns(columns, 6).rank()
        eliminated, original = [], lie._eliminate

        def recording(rows, ncols, **kw):
            eliminated.append([list(row) for row in rows])
            return original(rows, ncols, **kw)

        with monkeypatch.context() as m:
            m.setattr(Matrix, "__init__", lambda *args, **kw: pytest.fail("Matrix built"))
            m.setattr(lie, "_eliminate", recording)
            assert sparse_rank(columns, 6) == want == 4
        # each block that needs elimination, one int row per matrix row
        assert eliminated == [[[3, 1], [3, 1]], [[1, 2, 0], [2, 4, 1]]]
