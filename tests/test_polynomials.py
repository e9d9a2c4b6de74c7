import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
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


# integer and rational polynomials against sympy over QQ; an integral
# coefficient must come back as an int, never as Fraction(n, 1)

X = sympy.Symbol("x")
int_polys = st.lists(st.integers(-12, 12), min_size=0, max_size=5).map(lambda cs: Poly.of(*cs))
rational_polys = st.lists(coeff, min_size=0, max_size=5).map(lambda cs: Poly.of(*cs))
ZERO, SIX, NON_PRIMITIVE, NEGATIVE_LEAD = Poly.of(), Poly.of(6), Poly.of(4, 6), Poly.of(3, 0, -2)


def to_sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], X, domain=sympy.QQ)


def from_sympy(poly):
    return Poly.of(*(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())))


def typed(p):
    return [(type(c), c) for c in p.coeffs]


def normalized(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.coeffs)


def exact_examples(test):
    for case in (
        (ZERO, ZERO, ZERO),
        (ZERO, SIX, NEGATIVE_LEAD),
        (SIX, Poly.of(-4), ZERO),
        (NON_PRIMITIVE, NON_PRIMITIVE, NEGATIVE_LEAD),
        (NEGATIVE_LEAD, Poly.of(-1, 1), Poly.of(0, -5)),
        (Poly.of(Fraction(-3, 2), 3), NON_PRIMITIVE, Poly.of(Fraction(1, 2))),
    ):
        test = example(*case)(test)
    return test


@exact_examples
@given(int_polys, int_polys, int_polys)
@settings(max_examples=150, deadline=None)
def test_gcd_matches_sympy_on_integer_polynomials(f, g, h):
    a, b = f * g, f * h
    assert typed(a.gcd(b)) == typed(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
    assert normalized(a.gcd(b))


@exact_examples
@given(rational_polys, rational_polys, rational_polys)
@settings(max_examples=100, deadline=None)
def test_gcd_matches_sympy_on_rational_polynomials(f, g, h):
    a, b = f * g, f * h
    assert typed(a.gcd(b)) == typed(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))


@exact_examples
@given(int_polys, int_polys, st.one_of(int_polys, rational_polys))
@settings(max_examples=150, deadline=None)
def test_squarefree_part_matches_sympy(f, g, h):
    a = f * f * g * h
    if a.is_zero():
        return
    part = a.squarefree_part()
    assert typed(part) == typed(from_sympy(to_sympy(a).sqf_part()))
    assert part.is_squarefree() and normalized(part)
    if a.coeffs[-1] == 1 and all(type(c) is int for c in a.coeffs):
        # a monic integer polynomial has a monic integer squarefree part
        assert all(type(c) is int for c in part.coeffs)


@exact_examples
@given(int_polys, int_polys, st.one_of(int_polys, rational_polys))
@settings(max_examples=150, deadline=None)
def test_divmod_matches_sympy_and_stays_int(a, b, c):
    for den in (b, c, b + Poly.of(*[0] * (b.degree + 1), 1)):
        if den.is_zero():
            continue
        q, r = a.divmod(den)
        expected = sympy.div(to_sympy(a), to_sympy(den), domain=sympy.QQ)
        assert (typed(q), typed(r)) == tuple(typed(from_sympy(e)) for e in expected)
        assert normalized(q) and normalized(r)
        if den.coeffs[-1] == 1 and all(type(x) is int for x in a.coeffs + den.coeffs):
            assert all(type(x) is int for x in q.coeffs + r.coeffs)


@example(ZERO, ZERO, 3)
@example(SIX, Poly.of(Fraction(-3, 2), 3), 0)
@example(NON_PRIMITIVE, NEGATIVE_LEAD, Fraction(1, 2))
@example(NEGATIVE_LEAD, Poly.of(Fraction(1, 2), 0, 2), Fraction(1, 2))
@given(int_polys, rational_polys, st.one_of(st.integers(-20, 20), st.fractions(-5, 5, max_denominator=7)))
@settings(max_examples=150, deadline=None)
def test_evaluation_matches_sympy(a, b, x):
    for p in (a, b):
        value = p(x)
        theirs = to_sympy(p).eval(sympy.Rational(Fraction(x).numerator, Fraction(x).denominator))
        assert value == Fraction(int(theirs.p), int(theirs.q))
        assert type(value) is int if Fraction(value).denominator == 1 else type(value) is Fraction
    if type(x) is int:
        assert type(a(x)) is int


@example(NEGATIVE_LEAD, Poly.of(-1, 1))
@example(NON_PRIMITIVE, Poly.of(0, 0, 3))
@example(Poly.of(Fraction(1, 2), 1), Poly.of(1, 2))
@given(st.one_of(int_polys, rational_polys), st.one_of(int_polys, rational_polys))
@settings(max_examples=150, deadline=None)
def test_inverse_mod(f, g):
    if g.degree < 1:
        return
    if f.gcd(g) != Poly.of(1):
        with pytest.raises(ZeroDivisionError):
            f.inverse_mod(g)
        return
    v = f.inverse_mod(g)
    assert (v * f) % g == Poly.of(1)
    assert v.degree < g.degree and normalized(v)
