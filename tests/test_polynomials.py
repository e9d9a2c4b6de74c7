import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_div
from polyarith.polynomials import Poly

coeff = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
polys = st.lists(coeff, min_size=0, max_size=6).map(lambda cs: Poly.of(*cs))


def test_normalization_drops_trailing_zeros():
    assert Poly.of(1, 2, 0, 0) == Poly.of(1, 2)
    assert Poly.of(0, 0).is_zero()
    assert Poly.of().degree == -1


def test_integral_coefficients_stay_ints():
    p = Poly.of(Fraction(4, 2), Fraction(1, 3))
    assert p.coeffs == (2, Fraction(1, 3))


def test_evaluation():
    p = Poly.of(-1, 0, 1)  # x^2 - 1
    assert p(3) == 8
    assert p(Fraction(1, 2)) == Fraction(-3, 4)
    assert isinstance(p(3), int)


def test_divmod_exact():
    num = Poly.of(-1, 0, 0, 1)  # x^3 - 1
    den = Poly.of(-1, 1)
    q, r = num.divmod(den)
    assert q == Poly.of(1, 1, 1)
    assert r.is_zero()


def test_divmod_matches_sympy():
    rng = random.Random(18)

    def draw(size):
        pick = (0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        return [rng.choice(pick) for _ in range(size)]

    cases = [
        ((), (3,)),  # the zero polynomial
        ((), (1, Fraction(1, 2))),
        ((1, Fraction(2, 3)), (0, 0, 1)),  # a dividend shorter than the divisor
        ((Fraction(1, 2), 0, 4), (Fraction(-2, 3),)),  # a constant divisor
        ((5, 0, 0, 0, 1), (0, 1)),  # quotient steps whose leading entry is zero
    ]
    cases += [(draw(rng.randint(0, 8)), draw(rng.randint(1, 5))) for _ in range(300)]
    checked = 0
    for num, den in cases:
        a, b = Poly.of(*num), Poly.of(*den)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert (list(q.coeffs), list(r.coeffs)) == poly_div(a.coeffs, b.coeffs)
        checked += 1
    assert checked > 250


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        Poly.of(1).divmod(Poly.of())


def test_gcd_monic():
    a = Poly.of(-1, 0, 1) * Poly.of(2, 2)  # (x^2-1) * 2(x+1)
    b = Poly.of(1, 2, 1)  # (x+1)^2
    assert a.gcd(b) == Poly.of(1, 2, 1).monic()


def test_squarefree_part():
    p = Poly.of(1, 1) * Poly.of(1, 1) * Poly.of(-2, 1)
    assert p.squarefree_part() == (Poly.of(1, 1) * Poly.of(-2, 1)).monic()
    assert not p.is_squarefree()
    assert p.squarefree_part().is_squarefree()
    with pytest.raises(ZeroDivisionError):
        Poly.of().squarefree_part()


def test_str_rendering():
    assert str(Poly.of(1, -4, 1)) == "x^2 - 4*x + 1"
    assert str(Poly.of()) == "0"


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == Poly.of()
    assert a * Poly.of(1) == a


@given(polys, polys, polys)
@settings(max_examples=80, deadline=None)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_division_identity(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_gcd_divides_both(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = a.gcd(b)
    assert (a % g).is_zero()
    assert (b % g).is_zero()
    assert g.coeffs[-1] == 1
