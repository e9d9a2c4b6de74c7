import collections
import functools
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polyarith import lie, linalg
from polyarith.arithmeticity import SEMISIMPLE, classify, non_arithmeticity_report
from polyarith.cohomology import Derivation, derivation_space, principal_derivations
from polyarith.errors import InternalError, PreconditionError
from polyarith.linalg import (
    Matrix,
    block_diag,
    char_poly,
    finite_order,
    hnf,
    invariant_factors,
    jordan_chevalley,
    kernel_lattice,
    lattice_coordinates,
    min_poly,
    nilpotent_exp,
    nilpotent_log,
    nilpotency_index,
    poly_eval,
    rational_kernel,
    row_hermite_basis,
    rref,
    snf,
    solve,
    vec,
    wedge_power,
)
from polyarith.lie import filiform, free_two_step, heisenberg, inner_automorphism
from polyarith.polynomials import Poly
from polyarith.presentations import ModuleAction, Presentation

from oracles import (
    det_exact,
    det_inverse_by_sympy,
    finite_order_by_powers,
    jordan_by_matrix_newton,
    min_poly_by_factors,
    smith_diagonal,
    wedge_minors,
)

ints = st.integers(min_value=-30, max_value=30)


def int_matrix(max_dim=5, lo=-9, hi=9):
    side = st.integers(min_value=1, max_value=max_dim)
    return st.tuples(side, side).flatmap(
        lambda s: st.lists(
            st.lists(st.integers(lo, hi), min_size=s[1], max_size=s[1]),
            min_size=s[0],
            max_size=s[0],
        ).map(Matrix)
    )


def random_rational_matrix(rng, n, denom=3):
    return Matrix(
        [
            [Fraction(rng.randint(-8, 8), rng.randint(1, denom)) for _ in range(n)]
            for _ in range(n)
        ]
    )


class TestMatrixBasics:
    def test_shape_and_indexing(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert (m.nrows, m.ncols) == (2, 3)
        assert m[1, 2] == 6
        assert m.row(0) == (1, 2, 3)
        assert m.col(2) == (3, 6)
        assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))

    def test_ragged_rows_rejected(self):
        with pytest.raises(PreconditionError):
            Matrix([[1, 2], [3]])

    def test_from_cols_roundtrip(self):
        m = Matrix([[1, 2], [3, 4], [5, 6]])
        assert Matrix.from_cols([m.col(j) for j in range(2)]) == m
        assert Matrix.from_cols([m.col(j) for j in range(2)], nrows=3) == m
        assert Matrix.from_cols([(), ()], nrows=0) == Matrix([], ncols=2)

    def test_zero_column_matrix_needs_explicit_count(self):
        m = Matrix([], ncols=3)
        assert (m.nrows, m.ncols) == (0, 3)
        assert Matrix.from_cols([], nrows=2).ncols == 0
    def test_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a + b - b == a
        assert (a * b).entries == ((2, 1), (4, 3))
        assert (2 * a) == a + a
        assert (-a) + a == Matrix.zero(2, 2)
        assert a ** 0 == Matrix.identity(2)
        assert b ** -1 == b

    def test_apply_conventions(self):
        m = Matrix([[1, 2], [0, 1]])
        assert m.apply((1, 1)) == (3, 1)
        assert m.apply_left((1, 1)) == (1, 3)

    def test_apply_left_edge_shapes_and_fractions(self):
        assert Matrix([], ncols=3).apply_left(()) == (0, 0, 0)
        assert Matrix([[], []], ncols=0).apply_left((1, 2)) == ()
        m = Matrix([[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(-2, 3)]])
        got = m.apply_left((Fraction(2, 5), 3))
        assert got == (Fraction(6, 5), Fraction(-8, 5))
        # entries are normalised: an integral Fraction comes back as an int
        assert [type(x) for x in m.apply_left((2, 3))] == [int, int]
        assert m.apply_left((2, 3)) == (2, 0)

    def test_det_inverse_rank(self):
        m = Matrix([[2, 1], [7, 4]])
        assert m.det() == 1
        assert m.inverse() == Matrix([[4, -1], [-7, 2]])
        assert m.rank() == 2
        assert Matrix([[1, 2], [2, 4]]).rank() == 1
        with pytest.raises(PreconditionError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_empty_det_is_one(self):
        assert Matrix([], ncols=0).det() == 1

    def test_block_helpers(self):
        a = Matrix([[1]])
        b = Matrix([[2, 0], [0, 3]])
        d = block_diag(a, b)
        assert d.entries == ((1, 0, 0), (0, 2, 0), (0, 0, 3))
        assert vec(b) == (2, 0, 0, 3)


class TestHermite:
    def test_worked_example(self):
        h, u = hnf(Matrix([[2, 4], [1, 3]]))
        assert h == Matrix([[1, 1], [0, 2]])
        assert u * Matrix([[2, 4], [1, 3]]) == h
        assert abs(u.det()) == 1

    def test_zero_matrix(self):
        h, u = hnf(Matrix.zero(2, 3))
        assert h == Matrix.zero(2, 3)
        assert abs(u.det()) == 1

    @given(int_matrix())
    @settings(max_examples=120, deadline=None)
    def test_postconditions(self, m):
        h, u = hnf(m)
        assert u * m == h
        assert abs(u.det()) == 1
        prev = -1
        for i in range(h.nrows):
            nz = [j for j in range(h.ncols) if h[i, j] != 0]
            if not nz:
                # zero rows are trailing
                for k in range(i, h.nrows):
                    assert all(x == 0 for x in h.row(k))
                break
            pivot_col = nz[0]
            assert pivot_col > prev
            prev = pivot_col
            assert h[i, pivot_col] > 0
            for k in range(i):
                assert 0 <= h[k, pivot_col] < h[i, pivot_col]

    @given(int_matrix(max_dim=4), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_canonical_under_row_basis_change(self, m, rng):
        w = Matrix.identity(m.nrows).to_lists()
        for _ in range(2 * m.nrows):
            i, j = rng.randrange(m.nrows), rng.randrange(m.nrows)
            if i != j:
                c = rng.randint(-3, 3)
                w[i] = [x + c * y for x, y in zip(w[i], w[j])]
        assert hnf(Matrix(w) * m)[0] == hnf(m)[0]

    def test_row_hermite_basis_drops_zero_rows(self):
        b = row_hermite_basis(Matrix([[2, 4], [1, 3], [3, 7]]))
        assert b == Matrix([[1, 1], [0, 2]])

    def test_rational_input_rejected(self):
        with pytest.raises(PreconditionError):
            hnf(Matrix([[Fraction(1, 2)]]))


class TestSmith:
    def test_witness_identity(self):
        m = Matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        dec = snf(m)
        assert dec.u * m * dec.v == dec.d
        assert abs(dec.u.det()) == 1
        assert abs(dec.v.det()) == 1
        assert dec.invariant_factors == (2, 2, 156)

    def test_divisibility_chain(self):
        dec = snf(Matrix([[6, 0], [0, 4]]))
        assert dec.invariant_factors == (2, 12)

    def test_unit_pivot_regression(self):
        # this permutation-with-tail shape once made the reduction
        # alternate row and column swaps forever
        m = Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 1, 0, 0]])
        dec = snf(m)
        assert dec.invariant_factors == (1, 1, 1, 1)
        assert dec.u * m * dec.v == dec.d

    @given(int_matrix())
    @settings(max_examples=120, deadline=None)
    def test_matches_sympy_and_witness(self, m):
        dec = snf(m)
        assert dec.u * m * dec.v == dec.d
        assert abs(dec.u.det()) == 1
        assert abs(dec.v.det()) == 1
        factors = dec.invariant_factors
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert list(factors) == smith_diagonal(m.to_lists())


class TestLattices:
    def test_kernel_lattice_saturated(self):
        k = kernel_lattice(Matrix([[2, 4]]))
        assert k == Matrix([[2, -1]])
        assert snf(k).invariant_factors == (1,)

    def test_kernel_of_injective_map_is_empty(self):
        assert kernel_lattice(Matrix([[1, 0], [0, 2], [3, 3]])).nrows == 0

    @given(int_matrix())
    @settings(max_examples=100, deadline=None)
    def test_kernel_properties(self, m):
        k = kernel_lattice(m)
        assert k.nrows + m.rank() == m.ncols
        for i in range(k.nrows):
            assert all(x == 0 for x in m.apply(k.row(i)))
        if k.nrows:
            assert set(snf(k).invariant_factors) == {1}

    def test_coordinates_roundtrip(self):
        basis = Matrix([[2, 0, 1], [0, 3, 1]])
        v = basis.apply_left((4, -5))
        assert lattice_coordinates(basis, v) == (4, -5)
        assert lattice_coordinates(basis, v) is not None
        assert lattice_coordinates(basis, (1, 0, 0)) is None

    def test_membership_respects_torsion(self):
        basis = Matrix([[2, 0], [0, 1]])
        assert lattice_coordinates(basis, (1, 0)) is None
        assert lattice_coordinates(basis, (-2, 3)) == (-1, 3)


class TestRationalSolvers:
    def test_rref_idempotent(self):
        m = Matrix([[2, 4, 1], [1, 2, 0]])
        r, pivots = rref(m)
        assert pivots == (0, 2)
        assert rref(r)[0] == r

    def test_rational_kernel_basis(self):
        k = rational_kernel(Matrix([[1, 2, 3]]))
        assert k.nrows == 2
        for i in range(k.nrows):
            assert all(x == 0 for x in Matrix([[1, 2, 3]]).apply(k.row(i)))

    def test_solve_unique_and_inconsistent(self):
        a = Matrix([[1, 1], [0, 1]])
        assert solve(a, (3, 2)) == (1, 2)
        assert solve(Matrix([[1, 1], [1, 1]]), (0, 1)) is None

    def test_solve_underdetermined_fixes_free_vars(self):
        got = solve(Matrix([[1, 1]]), (5,))
        assert got is not None
        assert Matrix([[1, 1]]).apply(got) == (5,)


class TestPolynomialsOfMatrices:
    def test_char_poly_known(self):
        assert char_poly(Matrix([[2, 1], [1, 1]])) == Poly.of(1, -3, 1)
        assert char_poly(Matrix.identity(3)) == Poly.of(-1, 3, -3, 1)

    @given(int_matrix(max_dim=4, lo=-5, hi=5))
    @settings(max_examples=60, deadline=None)
    def test_cayley_hamilton_and_min_poly_divides(self, m):
        if not m.is_square():
            return
        cp = char_poly(m)
        assert poly_eval(cp, m).is_zero()
        mp = min_poly(m)
        assert poly_eval(mp, m).is_zero()
        assert (cp % mp).is_zero()

    def test_char_poly_matches_sympy(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = random_rational_matrix(rng, n)
            ours = char_poly(m)
            theirs = sympy.Matrix(m.to_lists()).charpoly()
            coeffs = list(reversed([sympy.Rational(c) for c in ours.coeffs]))
            assert [sympy.nsimplify(c) for c in theirs.all_coeffs()] == coeffs

    def test_char_poly_matches_sympy_on_larger_rationals(self):
        rng = random.Random(1956)
        cases = [random_rational_matrix(rng, n, denom=rng.choice((1, 4, 12))) for n in range(1, 9) for _ in range(3)]
        cases.append(Matrix([[Fraction(1, 10**12), 1], [0, Fraction(-7, 3)]]))
        for m in cases:
            theirs = sympy.Matrix(m.to_lists()).charpoly().all_coeffs()
            assert list(char_poly(m).coeffs) == [Fraction(int(c.p), int(c.q)) for c in reversed(theirs)]

    def test_char_poly_on_teob_blocks(self):
        for d in (2, 3, 7, 94, 10**8 + 7):
            inner = non_arithmeticity_report(d).inner_action
            for m in (inner, inner.submatrix((2, 3), (2, 3))):
                theirs = sympy.Matrix(m.to_lists()).charpoly().all_coeffs()
                got = char_poly(m)
                assert list(got.coeffs) == [int(c) for c in reversed(theirs)]
                assert all(type(c) is int for c in got.coeffs)

    def test_char_poly_takes_no_matrix_product(self, monkeypatch):
        forbid(monkeypatch, "__mul__", "__add__", "scale", "identity", "trace")
        assert char_poly(Matrix([[2, 1], [1, 1]])) == Poly.of(1, -3, 1)
        assert char_poly(Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])) == Poly.of(
            Fraction(1, 6), Fraction(-5, 6), 1
        )

    def test_min_poly_of_projection(self):
        p = Matrix([[1, 0], [0, 0]])
        assert min_poly(p) == Poly.of(0, -1, 1).monic()  # x^2 - x

    def test_min_poly_detects_diagonalizable(self):
        assert min_poly(Matrix([[2, 0], [0, 2]])) == Poly.of(-2, 1)


class TestFiniteOrder:
    def test_small_orders(self):
        assert finite_order(Matrix([[1]])) == 1
        assert finite_order(Matrix([[-1]])) == 2
        assert finite_order(Matrix([[0, -1], [1, 0]])) == 4
        assert finite_order(Matrix([[0, -1], [1, -1]])) == 3
        assert finite_order(Matrix([[0, -1], [1, 1]])) == 6

    def test_infinite_order(self):
        assert finite_order(Matrix([[1, 1], [0, 1]])) is None
        assert finite_order(Matrix([[2, 1], [1, 1]])) is None
        assert finite_order(Matrix([[2, 0], [0, Fraction(1, 2)]])) is None

    def test_order_is_exact_exponent(self):
        m = block_diag(Matrix([[0, -1], [1, 0]]), Matrix([[0, -1], [1, -1]]))
        order = finite_order(m)
        assert order == 12
        assert (m ** 12).is_identity()
        assert not (m ** 6).is_identity()
        assert not (m ** 4).is_identity()

    def test_totient_and_prime_factors_match_sympy(self):
        # the order bound reads phi(m) for every m up to 2 n^2 + 2
        for m in range(1, 401):
            assert linalg._totient(m) == sympy.totient(m), m
            assert linalg._prime_factors(m) == sympy.primefactors(m), m


class TestJordanChevalley:
    def test_identity(self):
        pair = jordan_chevalley(Matrix.identity(3))
        assert pair.semisimple == Matrix.identity(3)
        assert pair.unipotent == Matrix.identity(3)

    def test_shear(self):
        pair = jordan_chevalley(Matrix([[1, 1], [0, 1]]))
        assert pair.semisimple == Matrix.identity(2)
        assert pair.unipotent == Matrix([[1, 1], [0, 1]])

    def test_mixed_block(self):
        m = Matrix([[2, 1], [0, 2]])
        pair = jordan_chevalley(m)
        assert pair.semisimple == Matrix([[2, 0], [0, 2]])
        assert pair.unipotent == Matrix([[1, Fraction(1, 2)], [0, 1]])
        assert pair.semisimple * pair.unipotent == m

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError):
            jordan_chevalley(Matrix([[0, 0], [0, 1]]))

    def test_random_suite(self):
        rng = random.Random(99)
        done = 0
        while done < 60:
            m = random_rational_matrix(rng, rng.randint(1, 4))
            if m.det() == 0:
                continue
            done += 1
            pair = jordan_chevalley(m)
            n = m.nrows
            assert pair.semisimple * pair.unipotent == m
            assert pair.semisimple * pair.unipotent == pair.unipotent * pair.semisimple
            assert min_poly(pair.semisimple).is_squarefree()
            assert ((pair.unipotent - Matrix.identity(n)) ** n).is_zero()

    def test_commutes_with_conjugation(self):
        m = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 3]])
        g = Matrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
        inner = g * m * g.inverse()
        pair = jordan_chevalley(inner)
        base = jordan_chevalley(m)
        assert pair.semisimple == g * base.semisimple * g.inverse()
        assert pair.unipotent == g * base.unipotent * g.inverse()


def companion(p):
    """Companion matrix of a monic polynomial: e_i -> e_(i+1), and the last
    basis vector to minus the lower coefficients."""
    d = p.degree
    rows = [[-p.coeffs[i] if j == d - 1 else int(i == j + 1) for j in range(d)] for i in range(d)]
    return Matrix(rows, ncols=d)


def cyclotomic_cases():
    """Products of 1-3 distinct Phi_m of total degree <= 6 as companion
    matrices, some block-summed with a repeated factor (once in the
    minimal polynomial, or squared) or with a shear, each conjugated by a
    seeded unimodular matrix when n > 1."""
    rng = random.Random(2311)
    small = [m for m in range(1, 19) if sympy.totient(m) <= 6]
    shear = Matrix([[1, 1], [0, 1]])
    cases = []
    while len(cases) < 160:
        ms = rng.sample(small, rng.randint(1, 3))
        if sum(sympy.totient(m) for m in ms) > 6:
            continue
        factors = [linalg._cyclotomic(m) for m in ms]
        p = functools.reduce(operator.mul, factors)
        phi = rng.choice(factors)
        block = rng.choice([None, companion(phi), companion(phi * phi), shear])
        m = companion(p) if block is None else block_diag(companion(p), block)
        g = unimodular(rng, m.nrows) if m.nrows > 1 else Matrix.identity(1)
        cases.append(g * m * g.inverse())
    return cases


def random_small_cases():
    """Random integer matrices, n <= 6 and entries in [-2, 2], singular ones
    included, and a few Fraction matrices: random ones, and finite-order
    companions conjugated by a rational matrix."""
    rng = random.Random(1023)
    cases = [
        Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], ncols=n)
        for n in (rng.randint(1, 6) for _ in range(150))
    ]
    cases += [random_rational_matrix(rng, rng.randint(1, 3)) for _ in range(8)]
    for m in (5, 8, 12):
        c = companion(linalg._cyclotomic(m))
        g = random_rational_matrix(rng, c.nrows)
        if g.det() != 0:
            cases.append(g * c * g.inverse())
    return cases


def forbid(monkeypatch, *names):
    """Make a call of any of the named Matrix methods fail the test."""
    for name in names:
        monkeypatch.setattr(Matrix, name, lambda *args, name=name: pytest.fail(f"Matrix.{name} called"))


class TestFiniteOrderByCyclotomicFactors:
    """``finite_order`` divides the minimal polynomial by Phi_m and takes no
    matrix power; the power-based test is the reference."""

    def test_cyclotomic_matches_sympy(self):
        x = sympy.Symbol("x")
        for m in range(1, 61):
            theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
            assert list(linalg._cyclotomic(m).coeffs) == [int(c) for c in reversed(theirs)], m

    def test_equals_powers_on_cyclotomic_products(self):
        cases = cyclotomic_cases()
        orders = [finite_order(m) for m in cases]
        assert orders == [finite_order_by_powers(m) for m in cases]
        assert any(o is None for o in orders) and any(o is not None for o in orders)

    def test_equals_powers_on_random_matrices(self):
        cases = random_small_cases() + [Matrix.zero(0, 0)]
        assert any(type(x) is Fraction for m in cases for r in m.entries for x in r)
        assert any(m.nrows and m.det() == 0 for m in cases)
        assert [finite_order(m) for m in cases] == [finite_order_by_powers(m) for m in cases]

    def test_no_matrix_power(self, monkeypatch):
        forbid(monkeypatch, "__pow__", "det")
        rot4, rot3, rot6 = (Matrix([[0, -1], [1, t]]) for t in (0, -1, 1))
        finite = (Matrix([[1]]), Matrix([[-1]]), rot4, rot3, rot6)
        assert [finite_order(m) for m in finite] == [1, 2, 4, 3, 6]
        assert finite_order(block_diag(rot4, rot3)) == 12
        for m in (
            Matrix([[1, 1], [0, 1]]),
            Matrix([[2, 1], [1, 1]]),
            Matrix([[2, 0], [0, Fraction(1, 2)]]),
        ):
            assert finite_order(m) is None

    def test_no_matrix_power_on_pell_factor(self, monkeypatch):
        semisimple = non_arithmeticity_report(10**8 + 7).verdict.witness.semisimple
        forbid(monkeypatch, "__pow__", "det")
        assert finite_order(semisimple) is None

    def test_jordan_chevalley_without_det(self, monkeypatch):
        rng = random.Random(7)
        cases = [Matrix([[2, 1], [0, 2]]), Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 3]])]
        cases += [g for g in (random_rational_matrix(rng, 3) for _ in range(6)) if g.det() != 0]
        pairs = [jordan_chevalley(m) for m in cases]
        forbid(monkeypatch, "det")
        assert [jordan_chevalley(m) for m in cases] == pairs
        for singular in (Matrix([[0]]), Matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])):
            with pytest.raises(PreconditionError, match="jordan_chevalley needs an invertible"):
                jordan_chevalley(singular)

    @pytest.mark.parametrize("coeffs", [(-1, -3) + (0,) * 10 + (1,), (-1, -1) + (0,) * 12 + (1,)])
    def test_classify_large_companion_is_semisimple(self, coeffs):
        assert classify(companion(Poly.of(*coeffs))).classification == SEMISIMPLE


def jordan_block_cases():
    """Seeded unimodular conjugates of Jordan blocks of multiplicity 2-6 at
    the eigenvalues 1, -1, 2 and 1/2, of companion matrices of powers of
    x^2 - 3x + 1 and Phi_5, and of block sums with several eigenvalues of
    different multiplicities."""
    rng = random.Random(2626)

    def jordan(lam, k):
        return Matrix([[lam if i == j else int(j == i + 1) for j in range(k)] for i in range(k)], ncols=k)

    def power(q, k):
        return functools.reduce(operator.mul, [q] * k)

    quad, phi5 = Poly.of(1, -3, 1), linalg._cyclotomic(5)
    blocks = [jordan(lam, k) for lam in (1, -1, 2, Fraction(1, 2)) for k in range(2, 7)]
    blocks += [companion(power(quad, k)) for k in (2, 3)] + [companion(power(phi5, 2))]
    blocks += [
        block_diag(jordan(2, 3), jordan(-1, 2), companion(quad)),
        block_diag(companion(power(quad, 2)), jordan(1, 4)),
        block_diag(jordan(1, 6), jordan(-1, 2), jordan(3, 1)),
        block_diag(jordan(Fraction(1, 2), 2), jordan(2, 5), companion(phi5)),
    ]
    return [g * b * g.inverse() for b in blocks for g in [unimodular(rng, b.nrows)]]


def typed(x):
    """Entries of a Matrix or coefficients of a Poly with their types, so
    that 2 and Fraction(2) differ."""
    values = itertools.chain(*x.entries) if isinstance(x, Matrix) else x.coeffs
    return [(type(v), v) for v in values]


class TestJordanChevalleyInQuotientRing:
    """Newton's iteration in Q[x]/(m) gives the pair that Newton's iteration
    on matrices (the reference) gives, entry types included, with one
    matrix evaluation, one inverse and exact certificates."""

    def assert_matches_matrix_newton(self, cases):
        for a in cases:
            pair = jordan_chevalley(a)
            s, u, p = jordan_by_matrix_newton(a)
            assert typed(pair.semisimple) == typed(s), a
            assert typed(pair.unipotent) == typed(u), a
            assert typed(pair.poly) == typed(p), a

    def test_random_rational_matrices(self):
        rng = random.Random(99)
        cases = [random_rational_matrix(rng, rng.randint(1, 4), denom) for denom in (1, 3, 5) for _ in range(30)]
        self.assert_matches_matrix_newton([m for m in cases if m.det() != 0])

    def test_cyclotomic_cases(self):
        self.assert_matches_matrix_newton(cyclotomic_cases())

    def test_conjugated_jordan_blocks(self):
        cases = jordan_block_cases()
        # Newton steps while the multiplicity cleared, 1, 2, 4, .., is at
        # most deg gcd(m, m'), so deg >= 4 takes three steps
        assert max(min_poly(a).gcd(min_poly(a).derivative()).degree for a in cases) >= 4
        self.assert_matches_matrix_newton(cases)

    def test_teob_inner_actions(self):
        cases = [non_arithmeticity_report(d).inner_action for d in range(2, 400) if math.isqrt(d) ** 2 != d]
        self.assert_matches_matrix_newton(cases)

    def test_one_inverse_one_min_poly_two_evaluations(self, monkeypatch):
        cases = jordan_block_cases() + [non_arithmeticity_report(d).inner_action for d in (3, 661)]
        pairs = [jordan_chevalley(a) for a in cases]
        forbid(monkeypatch, "det", "__pow__")
        counts = collections.Counter()

        def counted(name, call):
            def wrapper(*args):
                counts[name] += 1
                return call(*args)

            return wrapper

        monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
        monkeypatch.setattr(linalg, "min_poly", counted("min_poly", linalg.min_poly))
        monkeypatch.setattr(linalg, "poly_eval", counted("poly_eval", linalg.poly_eval))
        for a, pair in zip(cases, pairs):
            counts.clear()
            assert jordan_chevalley(a) == pair
            assert counts == {"inverse": 1, "min_poly": 1, "poly_eval": 2}

    def test_root_certificate_catches_a_perturbed_polynomial(self, monkeypatch):
        a = non_arithmeticity_report(3).inner_action
        evaluate = linalg.poly_eval

        def perturbed(p, m):
            # t(a) with the coefficient of x in t moved by 1/5; p(s) as it is
            return evaluate(p + Poly.of(0, Fraction(1, 5)) if m is a else p, m)

        monkeypatch.setattr(linalg, "poly_eval", perturbed)
        with pytest.raises(InternalError, match=r"^jordan_chevalley, n = 4: the semisimple factor is not a root of p$"):
            jordan_chevalley(a)

    def test_commutation_certificate_catches_a_wrong_product(self, monkeypatch):
        a = non_arithmeticity_report(3).inner_action
        s = jordan_chevalley(a).semisimple
        multiply = Matrix.__mul__

        def last_product_off(x, y):
            # only u * s has s on the right
            out = multiply(x, y)
            return out + Matrix.diagonal([1, 0, 0, 0]) if isinstance(y, Matrix) and y == s else out

        monkeypatch.setattr(Matrix, "__mul__", last_product_off)
        with pytest.raises(InternalError, match=r"^jordan_chevalley, n = 4: the factors do not commute, u s != a$"):
            jordan_chevalley(a)



class TestMinPolyOnIntegerPowers:
    """min_poly takes the powers of the cleared integer matrix A = e a as
    int row lists and rescales the coordinates of A^k by e^(i - k); the
    Poly, entry types included, is the one that sympy's factorisation of
    the characteristic polynomial gives."""

    @staticmethod
    def cases():
        rng = random.Random(2727)
        cases = [Matrix([], ncols=0), Matrix.zero(3, 3), Matrix.identity(4), Matrix([[Fraction(2, 3)]])]
        for denom in (1, 3, 6):
            cases += [random_rational_matrix(rng, rng.randint(1, 5), denom) for _ in range(20)]
        cases += cyclotomic_cases()[:40] + jordan_block_cases()
        cases += [non_arithmeticity_report(d).inner_action for d in (2, 3, 7, 661)]
        return cases

    def test_matches_sympy_factors(self):
        for a in self.cases():
            want = min_poly_by_factors(a.to_lists())
            assert typed(min_poly(a)) == [(int if c.denominator == 1 else Fraction, c) for c in want]

    def test_builds_no_matrix_products(self, monkeypatch):
        cases = [random_rational_matrix(random.Random(4), 4), jordan_block_cases()[0]]
        monkeypatch.setattr(Matrix, "__mul__", lambda *args: pytest.fail("Matrix.__mul__"))
        for a in cases:
            assert min_poly(a).degree >= 1


class TestNilpotentExpLog:
    def test_roundtrip(self):
        n = Matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        u = nilpotent_exp(n)
        assert nilpotent_log(u) == n
        assert u == Matrix([[1, 1, Fraction(7, 2)], [0, 1, 3], [0, 0, 1]])

    def test_nilpotency_index(self):
        assert nilpotency_index(Matrix.zero(2, 2)) == 1
        assert nilpotency_index(Matrix([[0, 1], [0, 0]])) == 2
        assert nilpotency_index(Matrix([[1, 0], [0, 1]])) is None

    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random(self, n, rng):
        mat = Matrix(
            [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
        )
        assert nilpotent_log(nilpotent_exp(mat)) == mat

    def test_rejects_non_nilpotent(self):
        with pytest.raises(PreconditionError):
            nilpotent_exp(Matrix([[1, 0], [0, 0]]))
        with pytest.raises(PreconditionError):
            nilpotent_log(Matrix([[0, 1], [0, 0]]))


class TestNilpotentSeriesAlone:
    """exp and log stop at the first zero power of their series, with no
    separate nilpotency test; sympy's exp and log are the reference."""

    CASES = [
        Matrix.zero(0, 0),
        Matrix.zero(1, 1),
        Matrix.zero(3, 3),
        Matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]]),
        Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]),
        Matrix([[0, Fraction(1, 2), 0], [0, 0, 0], [0, 3, 0]]),
        filiform(6).ad((1, 0, 2, 0, 0, -1)),
        heisenberg(2).ad((1, -1, 2, 3, 0)),
    ]

    @pytest.fixture(autouse=True)
    def no_nilpotency_index(self, monkeypatch):
        monkeypatch.setattr(
            linalg, "nilpotency_index", lambda a: pytest.fail("nilpotency_index called")
        )

    @pytest.mark.parametrize("nil", CASES, ids=range(len(CASES)))
    def test_exp_and_log_match_sympy(self, nil):
        n = nil.nrows
        expected = sympy.Matrix(n, n, [sympy.Rational(x) for r in nil.entries for x in r]).exp()
        u = nilpotent_exp(nil)
        assert u.to_lists() == [[Fraction(str(expected[i, j])) for j in range(n)] for i in range(n)]
        assert typed(nilpotent_log(u)) == typed(nil)

    def test_empty_matrix(self):
        assert typed(nilpotent_exp(Matrix.zero(0, 0))) == typed(Matrix.identity(0))
        assert typed(nilpotent_log(Matrix.zero(0, 0))) == typed(Matrix.zero(0, 0))

    @pytest.mark.parametrize(
        "m",
        [
            Matrix([[1]]),
            Matrix([[1, 0], [0, 0]]),
            Matrix([[0, 1], [1, 0]]),
            Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
            Matrix([[Fraction(1, 2), 1], [0, 0]]),
        ],
    )
    def test_refusals(self, m):
        identity = Matrix.identity(m.nrows)
        with pytest.raises(PreconditionError, match="^matrix is not nilpotent$"):
            nilpotent_exp(m)
        with pytest.raises(PreconditionError, match="^matrix is not unipotent$"):
            nilpotent_log(m + identity)

    def test_non_square_refusals(self):
        with pytest.raises(PreconditionError, match="^nilpotent_exp needs a square matrix$"):
            nilpotent_exp(Matrix([[0, 1]]))
        with pytest.raises(PreconditionError, match="^nilpotent_log needs a square matrix$"):
            nilpotent_log(Matrix([[1, 0]]))


def sympy_matrix(m):
    n = m.nrows
    return sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for r in m.entries for x in map(Fraction, r)])


def typed_entries(m):
    return [(type(x), x) for x in itertools.chain(*m.entries)]


def sympy_poly_eval(p, m):
    """p(m) by sympy, as typed entries: int where the value is integral."""
    a = sympy_matrix(m)
    total = sympy.zeros(m.nrows, m.nrows)
    for k, c in enumerate(p.coeffs):
        total += sympy.Rational(c.numerator, c.denominator) * a**k
    return [(int if v.q == 1 else Fraction, Fraction(int(v.p), int(v.q))) for v in total]


def random_strictly_upper(rng, n, denom):
    return Matrix(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, denom)) if j > i else 0 for j in range(n)] for i in range(n)],
        ncols=n,
    )


class TestPowerKernelEdges:
    """char_poly and poly_eval read one list of integer powers, which ends
    before the first zero power; the zero polynomial, constants, the 0 x 0
    matrix and powers past a nilpotency index are checked against sympy."""

    MATRICES = [
        Matrix.zero(0, 0),
        Matrix([[2, 1], [1, 1]]),
        Matrix([[Fraction(1, 2), 3], [Fraction(-2, 3), 0]]),
        Matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]]),
        Matrix.zero(3, 3),
        filiform(6).ad((1, 0, Fraction(2, 3), 0, 0, -1)),
    ]
    POLYS = [
        Poly(),
        Poly.of(3),
        Poly.of(Fraction(-5, 6)),
        Poly.of(Fraction(1, 2), -1, Fraction(2, 7)),
        Poly.of(1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24), Fraction(1, 120), 0, 0, Fraction(-3, 5)),
    ]

    @pytest.mark.parametrize("m", MATRICES, ids=range(len(MATRICES)))
    @pytest.mark.parametrize("p", POLYS, ids=range(len(POLYS)))
    def test_poly_eval_matches_sympy(self, p, m):
        got = poly_eval(p, m)
        assert (got.nrows, got.ncols) == (m.nrows, m.nrows)
        assert typed_entries(got) == sympy_poly_eval(p, m)

    def test_degree_past_the_nilpotency_index(self):
        # the degree-8 polynomial outruns the power list of each nilpotent case
        p = self.POLYS[-1]
        rng = random.Random(3232)
        for m in self.MATRICES[3:] + [random_strictly_upper(rng, n, 3) for n in (1, 2, 4, 6)]:
            assert nilpotency_index(m) < p.degree
            assert typed_entries(poly_eval(p, m)) == sympy_poly_eval(p, m)

    def test_char_poly_of_nilpotent_matrices(self):
        # the traces of the powers end early, and det(xI - N) = x^n
        rng = random.Random(3233)
        cases = [filiform(6).ad(x) for x in ((1, 0, 0, 0, 0, 0), (1, 2, Fraction(1, 3), 0, -1, 5))]
        cases += [random_strictly_upper(rng, n, denom) for n in range(0, 8) for denom in (1, 4)]
        for m in cases:
            theirs = sympy_matrix(m).charpoly().all_coeffs()
            got = char_poly(m)
            assert got == Poly.of(*[0] * m.nrows, 1)
            assert typed(got) == [(int, Fraction(int(c.p), int(c.q))) for c in reversed(theirs)]


def _gap_at_one(real, a, top):
    powers = real(a, top)
    return [powers[0], [[0] * len(a) for _ in a]] + powers[2:]


def _matrix_units(real, a, top):
    # n + 1 independent matrix units, which no single matrix's powers are
    n = len(a)
    return [[[int(divmod(k, n) == (i, j)) for j in range(n)] for i in range(n)] for k in range(n + 1)]


class TestMinPolyCertificate:
    """min_poly certifies that the first dependent power closes the basis
    of lower powers, which Cayley-Hamilton guarantees; a power list that
    breaks this trips the certificate."""

    @pytest.mark.parametrize("spoil", [_gap_at_one, _matrix_units])
    def test_no_annihilating_polynomial(self, monkeypatch, spoil):
        real = linalg._int_powers
        monkeypatch.setattr(linalg, "_int_powers", lambda a, top: spoil(real, a, top))
        with pytest.raises(InternalError, match=r"^no annihilating polynomial of degree <= n found$"):
            min_poly(Matrix([[2, 1], [1, 1]]))


class TestSquareRule:
    """Every operation that needs a square matrix refuses a 2 x 3 one with
    its own name in the message."""

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda m: m ** 2, "matrix power"),
            (lambda m: m.trace(), "trace"),
            (lambda m: m.det(), "determinant"),
            (lambda m: m.inverse(), "inverse"),
            (char_poly, "char_poly"),
            (min_poly, "min_poly"),
            (lambda m: poly_eval(Poly.of(1, 1), m), "poly_eval"),
            (jordan_chevalley, "jordan_chevalley"),
            (finite_order, "finite_order"),
            (nilpotency_index, "nilpotency_index"),
            (nilpotent_log, "nilpotent_log"),
            (nilpotent_exp, "nilpotent_exp"),
            (lambda m: wedge_power(m, 1), "wedge_power"),
            (classify, "classify"),
        ],
    )
    def test_message(self, call, what):
        with pytest.raises(PreconditionError) as info:
            call(Matrix([[1, 0, 0], [0, 1, 0]]))
        assert str(info.value) == f"{what} needs a square matrix"


class TestWedgePower:
    def test_dimensions(self):
        m = Matrix([[1, 2], [3, 4]])
        assert wedge_power(m, 0) == Matrix.identity(1)
        assert wedge_power(m, 1) == m
        assert wedge_power(m, 2) == Matrix([[-2]])

    def test_top_power_is_det(self):
        m = Matrix([[1, 2, 0], [0, 1, 5], [2, 0, 1]])
        assert wedge_power(m, 3) == Matrix([[m.det()]])

    def test_functorial(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 4)
            p = rng.randint(0, n)
            x = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            y = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            assert wedge_power(x * y, p) == wedge_power(x, p) * wedge_power(y, p)

    def test_matches_minors_in_every_degree(self):
        rng = random.Random(41)
        mats = []
        for n in range(7):
            mats.append([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            mats.append(
                [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            )
            mats.append([[rng.randint(-3, 3) if i == j else 0 for j in range(n)] for i in range(n)])
            # singular: the last row repeats a combination of the others
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            if n:
                rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])] if n > 1 else [0])
            mats.append(rows)
        for algebra in (heisenberg(2), filiform(6), free_two_step(3)):
            x = tuple(rng.randint(-2, 2) for _ in range(algebra.dim))
            mats.append(nilpotent_exp(algebra.ad(x)).to_lists())
        for rows in mats:
            m = Matrix(rows, ncols=len(rows))
            for p in range(m.nrows + 1):
                assert wedge_power(m, p) == Matrix(wedge_minors(rows, p))

    def test_sparse_columns_match_minors(self):
        # seeded int and Fraction matrices, diagonal ones included, k from 0
        # to n: level k lists c^k times the nonzero minors as ints, rows
        # increasing, and columns(k) the minors with the types they have
        rng = random.Random(47)
        mats = [random_rational_matrix(rng, n, denom=3) for n in range(0, 6)]
        mats += [Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], ncols=n)
                 for n in range(1, 6)]
        mats.append(Matrix.diagonal([Fraction(1, 2), -2, 1, Fraction(3, 5)]))
        mats.append(Matrix.diagonal([3, -1, 0, 2, 5]))
        for m in mats:
            ext = linalg.ExteriorExpansion(m)
            c = ext.scale
            assert c == math.lcm(*(Fraction(x).denominator for row in m.entries for x in row))
            for k in range(m.nrows + 1):
                want = wedge_minors(m.to_lists(), k)
                level, cols = ext.level(k), ext.columns(k)
                assert len(level) == len(cols) == len(want)
                for j, (scaled, col) in enumerate(zip(level, cols)):
                    assert [(r, type(x), x) for r, x in scaled] == [
                        (r, int, row[j] * c**k) for r, row in enumerate(want) if row[j]
                    ]
                    # an integral minor comes back as an int
                    expected = [
                        (r, int if Fraction(row[j]).denominator == 1 else Fraction, row[j])
                        for r, row in enumerate(want)
                        if row[j]
                    ]
                    assert [(r, type(x), x) for r, x in col] == expected
                assert linalg._dense_columns(cols, len(cols)) == wedge_power(m, k)
                # each level is built once, from the one below, and none above k
                assert len(ext.levels) == k + 1
            assert ext.columns(0) is ext.level(0)
            if c == 1:
                assert all(ext.columns(k) is ext.level(k) for k in range(m.nrows + 1))

    def test_expansion_builds_each_level_once_and_only_when_asked(self, monkeypatch):
        built = []
        original = linalg.ExteriorExpansion._extend

        def counting(self):
            built.append(len(self.levels))
            original(self)

        monkeypatch.setattr(linalg.ExteriorExpansion, "_extend", counting)
        ext = linalg.ExteriorExpansion(Matrix.diagonal([2, Fraction(1, 3), 5, 7]))
        assert ext.scale == 3 and ext.level(0) == (((0, 1),),) and built == []
        # c m = diag(6, 1, 15, 21): one product per pair
        assert ext.level(2) == (((0, 6),), ((1, 90),), ((2, 126),), ((3, 15),), ((4, 21),), ((5, 315),))
        assert built == [1, 2]
        ext.level(1), ext.columns(2), ext.level(2)
        assert built == [1, 2]
        ext.level(4)
        assert built == [1, 2, 3, 4]
        with pytest.raises(PreconditionError, match="^wedge power degree out of range$"):
            ext.level(5)
        with pytest.raises(PreconditionError, match="^wedge power degree out of range$"):
            ext.columns(-1)
        with pytest.raises(PreconditionError, match="^wedge_power needs a square matrix$"):
            linalg.ExteriorExpansion(Matrix([[1, 2]]))

    def test_dense_columns(self):
        assert linalg._dense_columns([((0, 1), (2, Fraction(1, 2))), (), ((1, -3),)], 3) == Matrix(
            [[1, 0, 0], [0, 0, -3], [Fraction(1, 2), 0, 0]]
        )
        assert linalg._dense_columns([], 2) == Matrix([[], []], ncols=0)
        assert linalg._dense_columns([(), ()], 0) == Matrix([], ncols=2)
        # the rows kept, and by default the rows touched, in increasing order
        cols = [((1, 4), (5, -1)), (), ((3, Fraction(2, 3)),)]
        assert linalg._dense_columns(cols, [1, 2, 3, 5]) == Matrix(
            [[4, 0, 0], [0, 0, 0], [0, 0, Fraction(2, 3)], [-1, 0, 0]]
        )
        assert linalg._dense_columns(cols) == Matrix([[4, 0, 0], [0, 0, Fraction(2, 3)], [-1, 0, 0]])
        assert linalg._dense_columns([(), ()]) == Matrix([], ncols=2)
        assert linalg._dense_columns([]) == Matrix([], ncols=0)

    def test_dense_columns_row_forms_match_a_naive_builder(self):
        def naive(cols, rows):
            entries = {(r, j): v for j, col in enumerate(cols) for r, v in col}
            return Matrix([[entries.get((r, j), 0) for j in range(len(cols))] for r in rows],
                          ncols=len(cols))

        rng = random.Random(61)
        for _ in range(60):
            nrows, ncols = rng.randint(0, 7), rng.randint(0, 6)
            cols = [
                tuple((r, rng.choice((1, -2, Fraction(3, 4)))) for r in range(nrows)
                      if rng.random() < 0.3)
                for _ in range(ncols)
            ]
            touched = sorted({r for col in cols for r, _ in col})
            kept = sorted(set(touched) | set(rng.sample(range(nrows), nrows // 2)))
            assert linalg._dense_columns(cols, nrows) == naive(cols, range(nrows))
            assert linalg._dense_columns(cols, kept) == naive(cols, kept)
            assert linalg._dense_columns(cols) == naive(cols, touched)

    def test_exterior_index_is_combinations_order(self):
        for n in range(11):
            masks, position = linalg._exterior_index(n)
            assert len(masks) == n + 1
            for p, level in enumerate(masks):
                keys = list(itertools.combinations(range(n), p))
                assert list(level) == [sum(1 << i for i in key) for key in keys]
                assert [position[m] for m in level] == list(range(len(keys)))
            assert len(position) == 2**n
            assert linalg._exterior_index(n) is linalg._exterior_index(n)

    def test_fraction_entries_keep_their_types(self):
        # the expansion runs in int on a scaled matrix; each entry must come
        # back as the int or Fraction the minor is
        rng = random.Random(43)
        mats = [random_rational_matrix(rng, n, denom=4) for n in range(1, 6)]
        mats.append(Matrix.diagonal([Fraction(1, 2), 3, Fraction(-2, 3), 1]))
        for algebra in (heisenberg(2), filiform(6), free_two_step(3)):
            x = tuple(rng.randint(-2, 2) for _ in range(algebra.dim))
            mats.append(nilpotent_exp(algebra.ad(x)).inverse().transpose())
        for m in mats:
            for p in range(m.nrows + 1):
                want = Matrix(wedge_minors(m.to_lists(), p))
                got = wedge_power(m, p)
                assert [[(type(x), x) for x in r] for r in got.entries] == [
                    [(type(x), x) for x in r] for r in want.entries
                ]


# ---------------------------------------------------------------------------
# the fraction-free elimination kernel against the Fraction eliminations it
# replaced; these test-local copies are the reference


def fraction_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    rows = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    d = Fraction(sign)
    for i in range(n):
        d *= rows[i][i]
    return int(d) if d.denominator == 1 else d


def fraction_inverse(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, r in enumerate(rows)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            raise PreconditionError("matrix is singular")
        aug[r], aug[piv] = aug[piv], aug[r]
        f = aug[r][c]
        aug[r] = [x / f for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                g = aug[i][c]
                aug[i] = [a - g * b for a, b in zip(aug[i], aug[r])]
        r += 1
    return Matrix([row[n:] for row in aug], ncols=n)


def fraction_rref(rows, ncols):
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        f = rows[r][c]
        rows[r] = [x / f for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                g = rows[i][c]
                rows[i] = [x - g * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def fraction_min_poly(a):
    n = a.nrows
    if n == 0:
        return Poly.of(1)
    reduced = []
    power = Matrix.identity(n)
    for k in range(n + 1):
        payload = [Fraction(x) for x in vec(power)]
        tag = [Fraction(0)] * (n + 1)
        tag[k] = Fraction(1)
        for lead, prow, ptag in reduced:
            c = payload[lead]
            if c != 0:
                payload = [x - c * y for x, y in zip(payload, prow)]
                tag = [x - c * y for x, y in zip(tag, ptag)]
        lead = next((j for j, x in enumerate(payload) if x != 0), None)
        if lead is None:
            return Poly.of(*tag[: k + 1]).monic()
        f = payload[lead]
        payload = [x / f for x in payload]
        tag = [x / f for x in tag]
        reduced.append((lead, payload, tag))
        power = power * a
    raise AssertionError("no annihilating polynomial")


def typed(x):
    """Value and type of every entry, so that 2 and Fraction(2) differ."""
    if isinstance(x, Matrix):
        return (x.nrows, x.ncols, [[(type(e), e) for e in r] for r in x.entries])
    if isinstance(x, Poly):
        return [(type(c), c) for c in x.coeffs]
    if isinstance(x, tuple):
        return [(type(e), e) for e in x]
    return (type(x), x)


def kernel_cases():
    """Seeded integer, Fraction, rank-deficient, singular and empty matrices."""
    rng = random.Random(2024)

    def entry(kind, hi):
        if kind == "int" or rng.random() < 0.3:
            return rng.randint(-hi, hi)
        return Fraction(rng.randint(-hi, hi), rng.randint(1, 6))

    cases = [Matrix([], ncols=0), Matrix([], ncols=3), Matrix([[], [], []], ncols=0)]
    for kind in ("int", "frac"):
        for _ in range(40):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            hi = rng.choice([3, 9, 10 ** 6])
            cases.append(Matrix([[entry(kind, hi) for _ in range(c)] for _ in range(r)], ncols=c))
            n = rng.randint(1, 6)
            cases.append(Matrix([[entry(kind, hi) for _ in range(n)] for _ in range(n)], ncols=n))
            # rank at most k: a product of an r x k and a k x c matrix
            k = rng.randint(1, min(r, c))
            left = Matrix([[entry(kind, 5) for _ in range(k)] for _ in range(r)], ncols=k)
            right = Matrix([[entry(kind, 5) for _ in range(c)] for _ in range(k)], ncols=c)
            cases.append(left * right)
            # singular square: the last row is a combination of the others
            if n > 1:
                rows = [[entry(kind, hi) for _ in range(n)] for _ in range(n - 1)]
                rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
                cases.append(Matrix(rows, ncols=n))
    cases.append(Matrix.zero(3, 3))
    cases.append(Matrix.zero(2, 4))
    return cases


def outcome(f):
    try:
        return ("value", typed(f()))
    except PreconditionError as e:
        return ("error", type(e), str(e))


def waiting_row_cases():
    """``kernel_cases`` and matrices whose rows wait several pivots between
    updates: zero rows and columns spliced in, and sparse ones."""
    rng = random.Random(12)
    cases = list(kernel_cases())
    # zero rows and columns spliced into seeded int and Fraction matrices
    for m in kernel_cases()[3:60]:
        rows, width = [list(r) for r in m.entries], m.ncols
        for _ in range(2):
            rows.insert(rng.randint(0, len(rows)), [0] * width)
            at = rng.randint(0, width)
            rows, width = [r[:at] + [0] + r[at:] for r in rows], width + 1
        cases.append(Matrix(rows, ncols=width))
    cases.extend(Matrix([], ncols=k) for k in (1, 5))
    # sparse ones, where most rows miss most pivot columns and wait
    # several steps between updates
    for n in (12, 20, 25):
        for density in (0.1, 0.25):
            rows = [
                [rng.choice((1, -2, 3, Fraction(1, 2))) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)
            ]
            cases.append(Matrix(rows, ncols=n))
            cases.append(Matrix(rows[: n // 2], ncols=n) * Matrix(rows[n // 2 :], ncols=n).transpose())
    return cases


class TestEliminationKernel:
    def test_entry_contract(self):
        m = Matrix([[3, True, Fraction(4, 2), Fraction(1, 2), 0.5, -Fraction(6, 3)]])
        assert typed(m)[2][0] == [
            (int, 3),
            (int, 1),
            (int, 2),
            (Fraction, Fraction(1, 2)),
            (Fraction, Fraction(1, 2)),
            (int, -2),
        ]
        half = Fraction(1, 2)
        assert Matrix([[half]])[0, 0] is half
        # whole rows: an all-int tuple is shared, anything else normalised
        row = (4, -7, 0)
        assert Matrix([row]).entries[0] is row
        assert typed(Matrix([[True, 2]]))[2] == [[(int, 1), (int, 2)]]
        assert typed(Matrix([(x for x in (Fraction(6, 3), 1))]))[2] == [[(int, 2), (int, 1)]]

    def test_matches_fraction_eliminations(self):
        for m in kernel_cases():
            rows = m.to_lists()
            ref_rows, ref_pivots = fraction_rref(rows, m.ncols)
            assert typed(rref(m)) == typed((Matrix(ref_rows, ncols=m.ncols), tuple(ref_pivots)))
            assert m.rank() == len(ref_pivots)
            free = [j for j in range(m.ncols) if j not in ref_pivots]
            kernel = []
            for f in free:
                v = [0] * m.ncols
                v[f] = 1
                for i, p in enumerate(ref_pivots):
                    v[p] = -ref_rows[i][f]
                kernel.append(v)
            assert typed(rational_kernel(m)) == typed(Matrix(kernel, ncols=m.ncols))
            if m.is_square():
                assert typed(m.det()) == typed(fraction_det(rows))
                assert outcome(m.inverse) == outcome(lambda: fraction_inverse(rows))
                assert typed(min_poly(m)) == typed(fraction_min_poly(m))

    def test_solve_matches_fraction_elimination(self):
        rng = random.Random(7)
        for m in kernel_cases():
            for b in (
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m.nrows)),
                m.apply(tuple(rng.randint(-3, 3) for _ in range(m.ncols))),
            ):
                aug = [list(r) + [b[i]] for i, r in enumerate(m.entries)]
                rows, pivots = fraction_rref(aug, m.ncols + 1)
                if m.ncols in pivots:
                    expected = None
                else:
                    x = [0] * m.ncols
                    for i, p in enumerate(pivots):
                        x[p] = rows[i][m.ncols]
                    expected = typed(Matrix([x], ncols=m.ncols).row(0))
                got = solve(m, b)
                assert (None if got is None else typed(got)) == expected

    def test_matches_sympy_and_det_oracle(self):
        for m in kernel_cases():
            if m.nrows and m.ncols:
                reduced, pivots = sympy.Matrix(m.to_lists()).rref()
                ours, our_pivots = rref(m)
                assert our_pivots == pivots
                assert [[sympy.Rational(x) for x in r] for r in ours.entries] == reduced.tolist()
            if m.is_square():
                assert m.det() == det_exact(m.to_lists())

    @given(int_matrix(max_dim=5, lo=-20, hi=20))
    @settings(max_examples=150, deadline=None)
    def test_random_integer_matrices(self, m):
        rows = m.to_lists()
        ref_rows, ref_pivots = fraction_rref(rows, m.ncols)
        assert typed(rref(m)) == typed((Matrix(ref_rows, ncols=m.ncols), tuple(ref_pivots)))
        assert m.rank() == len(ref_pivots)
        if m.is_square():
            assert typed(m.det()) == typed(fraction_det(rows))
            assert outcome(m.inverse) == outcome(lambda: fraction_inverse(rows))
            assert typed(min_poly(m)) == typed(fraction_min_poly(m))

    def test_forward_rank_matches_gauss_jordan_pivots(self):
        for m in waiting_row_cases():
            pivots = rref(m)[1]
            assert m.rank() == len(pivots)
            rows, forward, d, sign = linalg._eliminate(
                linalg._integer_rows(m.entries)[0], m.ncols, forward=True
            )
            assert forward == list(pivots)
            # echelon form: each pivot row is zero left of its pivot, and
            # every later row is zero up to and including it
            for i, p in enumerate(pivots):
                assert all(x == 0 for x in rows[i][:p]) and rows[i][p] != 0
                assert all(row[p] == 0 for row in rows[i + 1 :])
            assert not any(x for row in rows[len(pivots) :] for x in row)
            # the last pivot is still a minor: the determinant, up to the row scaling
            if m.is_square() and len(pivots) == m.nrows:
                assert sign * d == m.det() * linalg._integer_rows(m.entries)[1]

    def test_waiting_rows_match_fraction_eliminations(self):
        # one operator's op - s I as lie._fixed_space stacks it: exp(ad x)
        # on the 3-forms of filiform(6), whose rows mostly miss a pivot column
        phi = inner_automorphism(filiform(6), (1, 0, 0, 0, 0, 1))
        op, s = lie._scaled_action(phi, 3)
        stacked = linalg._dense_columns(op, len(op)) - Matrix.identity(len(op)).scale(s)
        for m in waiting_row_cases() + [stacked]:
            rows = m.to_lists()
            ref_rows, ref_pivots = fraction_rref(rows, m.ncols)
            assert typed(rref(m)) == typed((Matrix(ref_rows, ncols=m.ncols), tuple(ref_pivots)))
            if m.is_square():
                assert typed(m.det()) == typed(fraction_det(rows))
                assert outcome(m.inverse) == outcome(lambda: fraction_inverse(rows))

    def test_singular_inverse_message(self):
        for m in (Matrix([[1, 2], [2, 4]]), Matrix.zero(1, 1), Matrix([[Fraction(1, 2), 1], [1, 2]])):
            with pytest.raises(PreconditionError, match="^matrix is singular$"):
                m.inverse()


def det_inverse_cases():
    """Seeded square matrices for det and inverse: Fraction entries,
    integer ones with |det| > 1, signed permutations of unimodular ones
    (det -1, and zero leading minors that force row swaps), singular ones
    and the 0 x 0 matrix."""
    rng = random.Random(1997)
    cases = [Matrix([], ncols=0)]
    for _ in range(100):
        n = rng.randint(1, 5)
        cases.append(random_rational_matrix(rng, n, denom=rng.choice((1, 2, 6))))
        cases.append(Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]))
        k = max(n, 2)
        rows = unimodular(rng, k).entries
        signed = [[s * x for x in rows[i]] for i, s in zip(rng.sample(range(k), k), rng.choices((-1, 1), k=k))]
        cases.append(Matrix(signed, ncols=k))
        rows = random_rational_matrix(rng, n).to_lists()
        coeffs = [rng.randint(-2, 2) for _ in rows[:-1]]
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        cases.append(Matrix(rows, ncols=n))
    return cases


class TestKeptForwardPass:
    """``det`` and ``inverse`` read one forward pass on [M | I], kept on
    the matrix, and agree with sympy, entry types included."""

    def test_matches_sympy(self):
        seen = collections.Counter()
        for m in det_inverse_cases():
            det, inv = det_inverse_by_sympy(m.to_lists())
            assert typed(m.det()) == typed(det)
            if inv is None:
                with pytest.raises(PreconditionError, match="^matrix is singular$"):
                    m.inverse()
            else:
                assert typed(m.inverse()) == typed(Matrix(inv, ncols=m.ncols))
            n = m.nrows
            seen["fraction"] += not m.is_integral()
            seen["|det| > 1"] += m.is_integral() and abs(det) > 1
            seen["det -1"] += det == -1
            seen["row swap"] += bool(det) and any(
                m.submatrix(range(k), range(k)).det() == 0 for k in range(1, n)
            )
            seen["singular"] += inv is None and n > 0
            seen["empty"] += n == 0
        assert min(seen.values()) >= 1 and len(seen) == 6, seen
        with pytest.raises(PreconditionError, match="^inverse needs a square matrix$"):
            Matrix([[1, 2, 3], [4, 5, 6]]).inverse()

    def test_one_elimination_per_matrix(self, monkeypatch):
        eliminations, original = [], linalg._eliminate
        monkeypatch.setattr(
            "polyarith.matrix._eliminate", lambda *a, **k: eliminations.append(a) or original(*a, **k)
        )
        rng = random.Random(37)
        for m in det_inverse_cases()[:60]:
            fresh = Matrix(m.entries, ncols=m.ncols)
            del eliminations[:]
            for _ in range(4):
                call = rng.choice((fresh.det, fresh.inverse))
                try:
                    call()
                except PreconditionError:
                    pass
            assert len(eliminations) == 1
        # an automorphism checks det != 0, then its dual inverts: one pass
        for algebra, rows in (
            (heisenberg(1), [[2, 0, 0], [0, 3, 0], [0, 0, 6]]),
            (filiform(6), inner_automorphism(filiform(6), (1, 0, 0, 0, 0, 1)).matrix.entries),
        ):
            del eliminations[:]
            phi = lie.LieAutomorphism(algebra, Matrix(rows))
            assert phi.dual == phi.matrix.inverse().transpose()
            assert len(eliminations) == 1
        from polyarith.semidirect import Automorphism, EquivariantAtom, build_gamma_epsilon

        group = build_gamma_epsilon(3).group
        del eliminations[:]
        phi = Automorphism(group, [EquivariantAtom(Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]))])
        assert phi.verify().ok
        phi.inverse()
        assert len(eliminations) == 1


class TestShapeChecks:
    """Shape and length mismatches are precondition failures (exit code 2);
    PreconditionError is a ValueError, so older handlers still catch them."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Matrix([[1]]) + Matrix([[1, 2]]), "shape mismatch"),
            (lambda: Matrix([[1]]) - Matrix([[1], [2]]), "shape mismatch"),
            (lambda: Matrix([[1, 2]]) * Matrix([[1, 2]]), "cannot multiply 1x2 by 1x2"),
            (lambda: Matrix([[1, 2]]).apply((1,)), "vector length mismatch"),
            (lambda: Matrix([[1, 2]]).apply_left((1, 2)), "vector length mismatch"),
            (lambda: Matrix.from_cols([(1,), (2, 3)]), "ragged columns"),
            (lambda: Matrix.from_cols([(1, 2), (3,)]), "ragged columns"),
            (lambda: Matrix.from_cols([(1, 2), (3, 4, 5)], nrows=2), "ragged columns"),
            (lambda: Matrix.from_cols([(1, 2)], nrows=5), "expected 5 rows, got 2"),
            (lambda: Matrix.from_cols([(1, 2)], nrows=0), "expected 0 rows, got 2"),
            (lambda: solve(Matrix([[1, 2]]), (1, 2)), "right hand side length mismatch"),
            (lambda: lattice_coordinates(Matrix([[1, 2]]), (1,)), "vector length mismatch"),
        ],
    )
    def test_raises_precondition_error(self, call, message):
        with pytest.raises(PreconditionError) as info:
            call()
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)


# ---------------------------------------------------------------------------
# hnf and snf on the shared Hermite row core against the separate row and
# column operations they replaced; these test-local copies are the reference


def reference_xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def reference_hnf(m):
    nr, nc = m.nrows, m.ncols
    a = m.to_lists()
    u = Matrix.identity(nr).to_lists()
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c] != 0 and (piv is None or abs(a[i][c]) < abs(a[piv][c])):
                piv = i
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, nr):
            if a[i][c] == 0:
                continue
            g, s, t = reference_xgcd(a[r][c], a[i][c])
            p, q = a[r][c] // g, a[i][c] // g
            a[r], a[i] = (
                [s * x + t * y for x, y in zip(a[r], a[i])],
                [-q * x + p * y for x, y in zip(a[r], a[i])],
            )
            u[r], u[i] = (
                [s * x + t * y for x, y in zip(u[r], u[i])],
                [-q * x + p * y for x, y in zip(u[r], u[i])],
            )
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return Matrix(a, ncols=nc), Matrix(u, ncols=nr)


def reference_snf(m):
    """The diagonal D of the pivot-by-pivot Smith reduction."""
    nr, nc = m.nrows, m.ncols
    a = m.to_lists()

    def row_op(i, j, s, t, p, q):
        a[i], a[j] = (
            [s * x + t * y for x, y in zip(a[i], a[j])],
            [-q * x + p * y for x, y in zip(a[i], a[j])],
        )

    def col_op(i, j, s, t, p, q):
        for row in a:
            row[i], row[j] = s * row[i] + t * row[j], -q * row[i] + p * row[j]

    t_idx = 0
    limit = min(nr, nc)
    while t_idx < limit:
        piv = None
        for i in range(t_idx, nr):
            for j in range(t_idx, nc):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t_idx], a[i0] = a[i0], a[t_idx]
        for row in a:
            row[t_idx], row[j0] = row[j0], row[t_idx]
        while True:
            for i in range(t_idx + 1, nr):
                x = a[i][t_idx]
                if x:
                    pv = a[t_idx][t_idx]
                    if x % pv == 0:
                        a[i] = [y - x // pv * z for y, z in zip(a[i], a[t_idx])]
                    else:
                        g, s, t = reference_xgcd(pv, x)
                        row_op(t_idx, i, s, t, pv // g, x // g)
            for j in range(t_idx + 1, nc):
                x = a[t_idx][j]
                if x:
                    pv = a[t_idx][t_idx]
                    if x % pv == 0:
                        q = x // pv
                        for row in a:
                            row[j] -= q * row[t_idx]
                    else:
                        g, s, t = reference_xgcd(pv, x)
                        col_op(t_idx, j, s, t, pv // g, x // g)
            if any(a[i][t_idx] for i in range(t_idx + 1, nr)):
                continue
            if any(a[t_idx][j] for j in range(t_idx + 1, nc)):
                continue
            p0 = a[t_idx][t_idx]
            bad = next(
                (i for i in range(t_idx + 1, nr) if any(a[i][j] % p0 for j in range(t_idx + 1, nc))),
                None,
            )
            if bad is None:
                break
            a[t_idx] = [x + y for x, y in zip(a[t_idx], a[bad])]
        if a[t_idx][t_idx] < 0:
            a[t_idx] = [-x for x in a[t_idx]]
        t_idx += 1
    return Matrix(a, ncols=nc)


def seeded_matrix(rng, r, c, hi):
    return Matrix([[rng.randint(-hi, hi) for _ in range(c)] for _ in range(r)], ncols=c)


def unimodular(rng, n):
    """A seeded product of elementary matrices with multipliers +-1, +-2."""
    m = Matrix.identity(n).to_lists()
    for t in range(rng.randint(3 * n, 4 * n)):
        i = t % n
        j = rng.choice([x for x in range(n) if x != i])
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return Matrix(m, ncols=n)


def hermite_cases():
    rng = random.Random(1979)
    cases = [Matrix([], ncols=0), Matrix([], ncols=4), Matrix([[], []], ncols=0)]
    cases += [Matrix.zero(3, 3), Matrix.zero(2, 5), Matrix.zero(12, 13)]
    for _ in range(60):
        r, c = rng.randint(1, 12), rng.randint(1, 13)
        cases.append(seeded_matrix(rng, r, c, rng.choice([1, 2, 9, 10 ** 4])))
        k = rng.randint(1, min(r, c))
        cases.append(seeded_matrix(rng, r, k, 4) * seeded_matrix(rng, k, c, 4))
    return cases


def smith_cases():
    rng = random.Random(1987)
    cases = [Matrix([], ncols=0), Matrix([], ncols=3), Matrix([[], []], ncols=0), Matrix.zero(3, 4)]
    cases += [Matrix.diagonal(d) for d in ([-1], [-2, 3], [6, -4], [-6, -4, 10], [0, -3, 5])]
    # already reduced on both sides: only the gcd/lcm transforms apply
    cases += [Matrix.diagonal([6, 4, 10]), Matrix([[6, 0, 0, 0], [0, 4, 0, 0], [0, 0, 10, 0]])]
    # the sizes that h1 meets on Z^k acting on Z^n, n from 6 to 12: the
    # principal derivations of one generator are M - I for a unimodular M
    for n in (6, 7, 8, 9, 10, 12):
        for _ in range(3):
            cases.append(unimodular(rng, n) - Matrix.identity(n))
            cases.append(seeded_matrix(rng, n, rng.choice([n, 2 * n]), 9))
            k = rng.randint(1, n - 1)
            c = rng.choice([n, 2 * n])
            cases.append(seeded_matrix(rng, n, k, 5) * seeded_matrix(rng, k, c, 5))
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(seeded_matrix(rng, r, c, rng.choice([1, 2])))
    return cases


class TestNormalFormCore:
    def test_hnf_matches_reference(self):
        # H is unique, and so is U when H has no zero row; otherwise U need
        # only be unimodular with U * M == H
        for m in hermite_cases():
            (h, u), (ref_h, ref_u) = hnf(m), reference_hnf(m)
            assert typed(h) == typed(ref_h)
            if m.nrows and not any(h.row(m.nrows - 1)):
                assert abs(u.det()) == 1
                assert u * m == h
            else:
                assert typed(u) == typed(ref_u)

    def test_snf_matches_reference_diagonal(self):
        for m in smith_cases():
            dec = snf(m)
            assert dec.d == reference_snf(m)
            assert dec.u * m * dec.v == dec.d
            assert abs(dec.u.det()) == 1
            assert abs(dec.v.det()) == 1

    def test_invariant_factors_match_snf(self):
        cases = hermite_cases() + smith_cases() + [rank_deficient_product()]
        for m in cases:
            assert invariant_factors(m) == snf(m).invariant_factors
        assert len(invariant_factors(rank_deficient_product())) == 15

    def test_invariant_factors_keep_the_smith_checks(self, monkeypatch):
        assert invariant_factors(Matrix.diagonal([2, 3])) == (1, 6)
        monkeypatch.setattr(linalg, "_gcd_lcm", lambda a, u, vt: None)
        for reduce in (invariant_factors, snf):
            with pytest.raises(InternalError, match="smith divisibility chain broken"):
                reduce(Matrix.diagonal([2, 3]))
        with pytest.raises(PreconditionError, match="invariant_factors needs an integer matrix"):
            invariant_factors(Matrix([[Fraction(1, 2)]]))

    def test_snf_witness_growth(self):
        rng = random.Random(3035)
        m = seeded_matrix(rng, 30, 35, 9)
        dec = snf(m)
        assert dec.u * m * dec.v == dec.d
        bits = max(abs(x).bit_length() for w in (dec.u, dec.v) for row in w.entries for x in row)
        assert bits < 1000


# ---------------------------------------------------------------------------
# rows added to the Hermite core one at a time: kernel_lattice and
# row_hermite_basis against definitions built on the one-pass reference_hnf


def reference_row_hermite_basis(m):
    h, _ = reference_hnf(m)
    return Matrix([r for r in h.entries if any(r)], ncols=m.ncols)


def reference_kernel_lattice(m):
    h, u = reference_hnf(m.transpose())
    rows = [u.entries[i] for i in range(h.nrows) if not any(h.entries[i])]
    return reference_row_hermite_basis(Matrix(rows, ncols=m.ncols))


def rank_deficient_product():
    """A seeded 30 x 35 matrix of rank 15, whose one-pass reduction grows."""
    rng = random.Random(1515)
    return seeded_matrix(rng, 30, 15, 4) * seeded_matrix(rng, 15, 35, 4)


def lattice_h1_actions():
    """Z^k acting on Z^n by (M, M^2)[:k] for a unimodular M, at the sizes of
    the lattice_h1 benchmark; Z^2 has the one commutator relator."""
    rng = random.Random(6)
    for n, k in ((6, 1), (7, 2), (8, 1), (9, 2), (10, 1), (10, 2), (12, 1), (12, 2)):
        m = unimodular(rng, n)
        pres = Presentation(("g1", "g2")[:k], (((0, 1), (1, 1), (0, -1), (1, -1)),)[: k - 1])
        yield pres, ModuleAction(n, (m, m * m)[:k])


class TestRowsOneAtATime:
    def test_kernel_lattice_matches_reference(self):
        for m in hermite_cases():
            assert typed(kernel_lattice(m)) == typed(reference_kernel_lattice(m))

    def test_row_hermite_basis_matches_reference(self):
        for m in hermite_cases():
            assert typed(row_hermite_basis(m)) == typed(reference_row_hermite_basis(m))

    def test_kernel_lattice_growth(self, monkeypatch):
        real = linalg._hermite_rows
        peak = []

        def guarded(rows, ncols):
            real(rows, ncols)
            peak.append(max((abs(x).bit_length() for row in rows for x in row), default=0))
            assert peak[-1] < 500

        monkeypatch.setattr(linalg, "_hermite_rows", guarded)
        k = kernel_lattice(rank_deficient_product())
        assert k.nrows == 20
        assert peak

    def one_pass_calls(self, monkeypatch):
        """Calls of a one-pass reduction of all of [M | I]: the calls of
        _hermite_rows made by hnf itself rather than by _add_rows."""
        real = linalg._hermite_rows
        hnf_code = linalg.hnf.__code__
        calls = []

        def counting(rows, ncols):
            if sys._getframe(1).f_code is hnf_code:
                calls.append(len(rows))
            real(rows, ncols)

        monkeypatch.setattr(linalg, "_hermite_rows", counting)
        return calls

    def test_internal_callers_never_fall_back(self, monkeypatch):
        calls = self.one_pass_calls(monkeypatch)
        for m in hermite_cases():
            kernel_lattice(m)
            row_hermite_basis(m)
        for pres, action in lattice_h1_actions():
            lattice = derivation_space(pres, action)
            principal = principal_derivations(action)
            for r in principal.entries:
                assert lattice.coordinates(Derivation.unflatten(r, action.rank)) is not None
        assert calls == []

    def test_hnf_never_falls_back(self, monkeypatch):
        calls = self.one_pass_calls(monkeypatch)
        for m in (Matrix([[1, 2], [2, 4], [3, 7]]), rank_deficient_product()):
            h, u = hnf(m)
            assert u * m == h
            assert not any(h.row(m.nrows - 1))
        assert calls == []

    def test_hnf_witness_growth(self):
        m = rank_deficient_product()
        h, u = hnf(m)
        assert u * m == h
        assert max(abs(x).bit_length() for row in u.entries for x in row) < 500


# ---------------------------------------------------------------------------
# a basis already in Hermite form answers coordinates without hnf


def own_hermite_form(m):
    """hnf(m) == (m, I): m is its own Hermite form, with U = I."""
    h, u = hnf(m)
    return h == m and u == Matrix.identity(m.nrows)


def near_misses(basis, rng):
    """Copies of a Hermite basis that each break one condition, by name."""
    rows = basis.to_lists()
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
    i = rng.randrange(len(rows))

    def negate_pivot(c):
        c[i] = [-x for x in c[i]]

    def add_zero_row(c):
        c.insert(rng.randint(0, len(c)), [0] * basis.ncols)

    edits = {"negative pivot": negate_pivot, "zero row": add_zero_row}
    if len(rows) > 1:
        j = rng.randrange(1, len(rows))
        k = rng.randrange(j)

        def above_equal(c):
            c[k][pivots[j]] = c[j][pivots[j]]

        def above_negative(c):
            c[k][pivots[j]] = -1

        def swap(c):
            c[k], c[j] = c[j], c[k]

        edits.update({
            "entry above a pivot equal to it": above_equal,
            "negative entry above a pivot": above_negative,
            "two rows swapped": swap,
        })
    out = []
    for name, edit in edits.items():
        copy = [list(r) for r in rows]
        edit(copy)
        out.append((name, Matrix(copy, ncols=basis.ncols)))
    return out


class TestHermiteBasisCheck:
    """_is_hermite_basis(m) holds exactly when hnf(m) == (m, I) and m has
    no zero row; then coordinates need no hnf."""

    def check(self, m):
        verdict = linalg._is_hermite_basis(m)
        assert verdict == (own_hermite_form(m) and all(map(any, m.entries)))
        return verdict

    def test_hermite_cases(self):
        for m in hermite_cases():
            self.check(m)
            assert self.check(row_hermite_basis(m))
            assert self.check(kernel_lattice(m))

    def test_random_bases_and_near_misses(self):
        rng = random.Random(27)
        misses = collections.Counter()
        for _ in range(300):
            r, c = rng.randint(1, 8), rng.randint(1, 12)
            basis = row_hermite_basis(seeded_matrix(rng, r, c, rng.choice([1, 3, 50])))
            if not basis.nrows:
                continue
            assert self.check(basis)
            for name, m in near_misses(basis, rng):
                assert not self.check(m), name
                misses[name] += 1
        assert len(misses) == 5 and min(misses.values()) >= 50

    def test_coordinates_agree_with_hnf_path(self, monkeypatch):
        rng = random.Random(2727)
        cases = []
        for _ in range(100):
            r, c = rng.randint(1, 8), rng.randint(1, 12)
            basis = row_hermite_basis(seeded_matrix(rng, r, c, rng.choice([1, 3, 50])))
            inside = basis.apply_left([rng.randint(-9, 9) for _ in range(basis.nrows)])
            outside = tuple(rng.randint(-9, 9) for _ in range(c))
            h, u = hnf(basis)
            pivots = tuple(next(j for j, x in enumerate(row) if x) for row in h.entries if any(row))
            for v in (inside, outside):
                cases.append((basis, v, linalg._hermite_coordinates(h, u, pivots, v)))
        assert any(want is None for _, _, want in cases)
        monkeypatch.setattr(linalg, "hnf", lambda m: pytest.fail("hnf"))
        for basis, v, want in cases:
            got = lattice_coordinates(basis, v)
            assert got == want
            assert want is None or typed(got) == typed(want)

    def test_fraction_basis_keeps_its_error(self):
        # pivots rise and are positive, but an entry is not an integer
        basis = Matrix([[Fraction(1, 2), 0], [0, 1]])
        with pytest.raises(PreconditionError, match="^lattice_coordinates needs an integer matrix$"):
            lattice_coordinates(basis, (1, 0))
        with pytest.raises(PreconditionError, match="^lattice_coordinates needs an integer matrix$"):
            linalg._hermite_pair(basis)


# ---------------------------------------------------------------------------
# Matrix.__mul__ against the per-entry _dot product it uses for Fraction
# operands


def dot_product(a, b):
    cols = [b.col(j) for j in range(b.ncols)]
    return Matrix([[linalg._dot(r, c) for c in cols] for r in a.entries], ncols=b.ncols)


def product_operands(rng, r, k, c, kind):
    def entry():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-9, 9) if rng.random() < 0.7 else 0
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    a = Matrix([[entry() for _ in range(k)] for _ in range(r)], ncols=k)
    b = Matrix([[entry() for _ in range(c)] for _ in range(k)], ncols=c)
    return a, b


class TestIntProduct:
    def test_matches_dot_product(self):
        rng = random.Random(77)
        for kind in ("int", "frac", "mixed"):
            for _ in range(60):
                r, k, c = (rng.randint(0, 5) for _ in range(3))
                a, b = product_operands(rng, r, k, c, kind)
                assert typed(a * b) == typed(dot_product(a, b))
        # an int operand against a Fraction one whose products sum to an int
        a, b = Matrix([[1, 2]]), Matrix([[Fraction(1, 2)], [Fraction(3, 4)]])
        assert typed(a * b) == typed(dot_product(a, b)) == (1, 1, [[(int, 2)]])

    @pytest.mark.parametrize("r, k, c", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (0, 3, 0)])
    @pytest.mark.parametrize("kind", ["int", "frac", "mixed"])
    def test_empty_shapes(self, r, k, c, kind):
        a, b = product_operands(random.Random(r * 100 + k * 10 + c), r, k, c, kind)
        product = a * b
        assert (product.nrows, product.ncols) == (r, c)
        assert typed(product) == typed(dot_product(a, b))

    @given(int_matrix(max_dim=4), st.integers(0, 4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_products(self, a, c, rng):
        b = Matrix([[rng.randint(-30, 30) for _ in range(c)] for _ in range(a.ncols)], ncols=c)
        halves = Matrix([[Fraction(x, 2) for x in row] for row in b.entries], ncols=c)
        for right in (b, halves):
            assert typed(a * right) == typed(dot_product(a, right))
