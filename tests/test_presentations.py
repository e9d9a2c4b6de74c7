import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import det_inverse_by_sympy, dihedral_inverse, dihedral_product
from polyarith.errors import PreconditionError
from polyarith.linalg import Matrix
from polyarith.presentations import (
    DihedralEngine,
    FreeAbelianEngine,
    ModuleAction,
    Presentation,
    checked_action,
    concat_words,
    dihedral_presentation,
    evaluate_word,
    free_abelian_presentation,
    invert_word,
    make_word,
    validate_action,
)
from polyarith.semidirect import SemidirectGroup

dihedral_words = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), max_size=8
).map(tuple)


def test_make_word_expands_exponents():
    assert make_word([(0, 3)]) == ((0, 1), (0, 1), (0, 1))
    assert make_word([(1, -2)]) == ((1, -1), (1, -1))
    assert make_word([(0, 0), (1, 1)]) == ((1, 1),)


def test_invert_and_concat():
    w = ((0, 1), (1, -1))
    assert invert_word(w) == ((1, 1), (0, -1))
    assert concat_words(w, invert_word(w)) == ((0, 1), (1, -1), (1, 1), (0, -1))


def test_presentation_validation():
    with pytest.raises(PreconditionError):
        Presentation(("a", "a"), ())
    with pytest.raises(PreconditionError):
        Presentation(("a",), (((1, 1),),))
    with pytest.raises(PreconditionError):
        Presentation(("a",), (((0, 2),),))


def test_word_by_names():
    pres = dihedral_presentation()
    assert pres.word([("A", 2), ("t", -1)]) == ((0, 1), (0, 1), (1, -1))
    with pytest.raises(PreconditionError):
        pres.word([("x", 1)])


def test_free_abelian_presentation_relators():
    pres = free_abelian_presentation(3)
    assert pres.generators == ("g1", "g2", "g3")
    assert len(pres.relators) == 3  # one commutator per pair


def test_module_action_validation():
    with pytest.raises(PreconditionError):
        ModuleAction(2, (Matrix([[2, 0], [0, 1]]),))  # det 2
    with pytest.raises(PreconditionError):
        ModuleAction(2, (Matrix([[1, 0]]),))  # wrong shape
    ModuleAction(2, (Matrix([[0, 1], [1, 0]]),))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 0, 0], [0, 1, 0]], "action matrices must be rank x rank"),
        ([[1, 0], [0, 1], [0, 0]], "action matrices must be rank x rank"),
        ([[1, Fraction(1, 2)], [0, 1]], "action matrices must be integral"),
        ([[2, 0], [0, 1]], "action matrices must have determinant +-1"),
        ([[1, 2], [2, 4]], "action matrices must have determinant +-1"),
        ([[0, 0], [0, 1]], "action matrices must have determinant +-1"),
    ],
    ids=["2x3", "3x2", "fraction", "det 2", "singular", "zero column"],
)
def test_module_action_refusals(rows, message):
    # the refused matrix comes after an accepted one
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        ModuleAction(2, (Matrix([[0, 1], [1, 0]]), Matrix(rows)))


def seeded_unimodular(rng, n):
    """A signed permutation matrix with rows added to one another: the
    permutation makes zero leading minors likely, so elimination must
    swap rows, and the signs give det -1 about half the time."""
    perm = rng.sample(range(n), n)
    rows = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix(rows)


def test_inverse_letter_matches_sympy_inverse():
    rng = random.Random(3612)
    dets, swaps = set(), 0
    for n in range(1, 13):
        for _ in range(6):
            m = seeded_unimodular(rng, n)
            action = ModuleAction(n, (m,))
            det, inverse = det_inverse_by_sympy(m.to_lists())
            rows = action.letter_rows(0, -1)
            assert rows == inverse and all(type(x) is int for row in rows for x in row)
            # asked again, the inverse is the one already computed
            assert action.letter_rows(0, -1) is rows
            assert m.det() == det
            dets.add(det)
            swaps += any(m.submatrix(range(k), range(k)).det() == 0 for k in range(1, n))
    assert dets == {1, -1} and swaps > 10


def test_validate_action_reports_first_bad_relator():
    pres = dihedral_presentation()
    bad_t = Matrix([[1, 1], [0, 1]])  # not an involution
    action = ModuleAction(2, (Matrix.identity(2), bad_t))
    assert validate_action(pres, action) == pres.relators[0]
    with pytest.raises(PreconditionError):
        checked_action(pres, (Matrix.identity(2), bad_t), 2)


def test_evaluate_word_orders_letters_left_to_right():
    pres = dihedral_presentation()
    a = Matrix([[1, 1], [0, 1]])
    t = Matrix([[0, 1], [1, 0]])
    action = ModuleAction(2, (a, t))
    assert evaluate_word(action, pres.word([("A", 1), ("t", 1)])) == a * t
    assert evaluate_word(action, pres.word([("A", -1)])) == a.inverse()
    assert evaluate_word(action, ()) == Matrix.identity(2)


class TestDihedralEngine:
    def setup_method(self):
        self.eng = DihedralEngine()

    def test_normal_forms_of_generators(self):
        assert self.eng.normal_form(((0, 1),)) == (1, 0)
        assert self.eng.normal_form(((1, 1),)) == (0, 1)
        assert self.eng.normal_form(((1, 1), (1, 1))) == self.eng.identity

    def test_reflection_conjugates_translation(self):
        # t A t = A^-1
        w = ((1, 1), (0, 1), (1, 1))
        assert self.eng.normal_form(w) == (-1, 0)

    @given(dihedral_words, dihedral_words)
    @settings(max_examples=200, deadline=None)
    def test_normal_form_is_homomorphism(self, w1, w2):
        nf = self.eng.normal_form
        assert nf(w1 + w2) == dihedral_product(nf(w1), nf(w2))

    @given(dihedral_words)
    @settings(max_examples=200, deadline=None)
    def test_inverse(self, w):
        g = self.eng.normal_form(w)
        assert self.eng.normal_form(invert_word(w)) == dihedral_inverse(g)
        assert dihedral_product(g, dihedral_inverse(g)) == self.eng.identity
        assert dihedral_product(dihedral_inverse(g), g) == self.eng.identity

    @given(dihedral_words)
    @settings(max_examples=200, deadline=None)
    def test_to_word_section(self, w):
        g = self.eng.normal_form(w)
        assert self.eng.normal_form(self.eng.to_word(g)) == g

    def test_action_matrix_matches_word_evaluation(self):
        a = Matrix([[2, 3], [1, 2]])
        t = Matrix([[1, 0], [0, -1]])
        action = checked_action(self.eng.presentation, (a, t), 2)
        group = SemidirectGroup(self.eng.presentation, action, self.eng)
        for k, tt in [(0, 0), (3, 0), (-2, 1), (1, 1)]:
            assert group.form_matrix((k, tt)) == a ** k * t ** tt


class TestFreeAbelianEngine:
    def test_names_default_and_custom(self):
        eng = FreeAbelianEngine(2, ("x", "y"))
        assert eng.presentation.generators == ("x", "y")
        assert FreeAbelianEngine(2).presentation.generators == ("g1", "g2")

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=8),
        st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_homomorphism(self, w1, w2):
        eng = FreeAbelianEngine(3)
        nf = eng.normal_form
        g, h = nf(tuple(w1)), nf(tuple(w2))
        assert nf(tuple(w1) + tuple(w2)) == tuple(x + y for x, y in zip(g, h))
        assert nf(invert_word(tuple(w1))) == tuple(-x for x in g)
        assert nf(eng.to_word(g)) == g

    def test_action_matrix(self):
        eng = FreeAbelianEngine(2)
        m1 = Matrix([[1, 1], [0, 1]])
        m2 = Matrix([[1, 0], [1, 1]])
        # the two matrices must commute for the relators to hold
        with pytest.raises(PreconditionError):
            checked_action(eng.presentation, (m1, m2), 2)
        action = checked_action(eng.presentation, (m1, m1.inverse()), 2)
        group = SemidirectGroup(eng.presentation, action, eng)
        assert group.form_matrix((2, 1)) == m1 ** 2 * m1.inverse()
