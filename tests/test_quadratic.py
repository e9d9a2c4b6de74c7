import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyarith.errors import PreconditionError
from polyarith.linalg import Matrix
from polyarith.quadratic import QuadElem, QuadOrder, fundamental_pell

from oracles import pell_brute, pell_convergents

# smallest positive solutions of x^2 - d y^2 = 1
PELL_TABLE = {
    2: (3, 2),
    3: (2, 1),
    5: (9, 4),
    6: (5, 2),
    7: (8, 3),
    8: (3, 1),
    10: (19, 6),
}

NONSQUARE = [d for d in range(2, 32) if int(d ** 0.5) ** 2 != d]

elems = st.builds(
    QuadElem,
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.sampled_from([2, 3, 5, 6, 7, 10]),
)


def test_pell_known_values():
    for d, expected in PELL_TABLE.items():
        assert fundamental_pell(d) == expected


@pytest.mark.parametrize("d", NONSQUARE)
def test_pell_matches_brute_force(d):
    assert fundamental_pell(d) == pell_brute(d)


def test_pell_period_stop_matches_the_equation_test_up_to_5000():
    for d in range(2, 5001):
        if isqrt(d) ** 2 != d:
            assert fundamental_pell(d) == pell_convergents(d), d


def test_pell_period_stop_matches_the_equation_test_on_large_d():
    rng = random.Random(2002)
    ds = set()
    while len(ds) < 20:
        d = rng.randint(10 ** 5, 10 ** 7)
        if isqrt(d) ** 2 != d:
            ds.add(d)
    for d in sorted(ds):
        assert fundamental_pell(d) == pell_convergents(d), d


@pytest.mark.parametrize("d", [0, 1, 4, 9, -3])
def test_pell_rejects_bad_discriminant(d):
    with pytest.raises(PreconditionError):
        fundamental_pell(d)


def test_pell_solution_is_minimal():
    for d in (2, 3, 5, 10, 13):
        x, y = fundamental_pell(d)
        assert x * x - d * y * y == 1
        for yy in range(1, y):
            xx2 = 1 + d * yy * yy
            assert int(xx2 ** 0.5 + 0.5) ** 2 != xx2


def test_fundamental_unit_properties():
    for d in PELL_TABLE:
        u = QuadOrder(d).fundamental_unit()
        assert (u.x, u.y) == PELL_TABLE[d]
        assert u.norm() == 1
        assert abs(u.norm()) == 1
        assert u * u.inverse() == QuadOrder(d).element(1, 0)


def test_element_str():
    assert str(QuadElem(2, 1, 3)) == "2 + 1*sqrt(3)"


def test_mult_matrix_layout():
    # basis (1, sqrt(d)) as columns: multiplication by x + y sqrt(d)
    e = QuadElem(2, 3, 5)
    assert e.mult_matrix() == Matrix([[2, 15], [3, 2]])


def test_conjugation_matrix():
    order = QuadOrder(7)
    assert order.conjugation_matrix() == Matrix([[1, 0], [0, -1]])
    e = order.element(4, -3)
    assert order.conjugation_matrix().apply((e.x, e.y)) == (4, 3)
    assert e.conjugate() == order.element(4, 3)


def test_norm_and_trace_through_matrix():
    e = QuadElem(3, 2, 6)
    assert e.norm() == e.mult_matrix().det() == 9 - 6 * 4
    assert e.trace() == e.mult_matrix().trace() == 6


def test_powers():
    u = QuadOrder(3).fundamental_unit()
    assert u ** 0 == QuadOrder(3).element(1, 0)
    assert u ** 2 == u * u
    assert u ** -1 == u.inverse()
    assert (u ** 3) * (u ** -3) == QuadOrder(3).element(1, 0)


def test_inverse_of_non_unit_rejected():
    with pytest.raises(PreconditionError):
        QuadElem(2, 0, 3).inverse()


def test_mixed_discriminants_rejected():
    with pytest.raises(PreconditionError):
        QuadElem(1, 1, 2) * QuadElem(1, 1, 3)


@given(elems, elems)
@settings(max_examples=150, deadline=None)
def test_ring_homomorphism_to_matrices(a, b):
    if a.d != b.d:
        return
    assert (a * b).mult_matrix() == a.mult_matrix() * b.mult_matrix()
    assert (a + b).mult_matrix() == a.mult_matrix() + b.mult_matrix()
    assert (a - b).mult_matrix() == a.mult_matrix() - b.mult_matrix()


@given(elems, elems)
@settings(max_examples=150, deadline=None)
def test_norm_multiplicative_conjugate_involutive(a, b):
    if a.d != b.d:
        return
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a
    assert a.norm() == (a * a.conjugate()).x
