"""End-to-end acceptance checks for the whole toolkit.

Each test covers one headline claim and prints a single PASS line on
success (run with ``pytest -v`` or ``-s`` to see them).  Everything is
exact arithmetic: equality below means bit-exact equality, never a
tolerance.  Timed checks use generous desk-scale budgets.
"""

import math
import random
import time
from fractions import Fraction

from polyarith.arithmeticity import FAILS, non_arithmeticity_report
from polyarith.cohomology import (
    conjugate_derivation,
    derivation_space,
    equivariant_units,
    h1,
    rewriting_table,
)
from polyarith.lie import (
    LieAutomorphism,
    abelian,
    action_on_cohomology,
    build_koszul,
    heisenberg,
    inner_automorphism,
    invariant_subcomplex,
    nilpotent_catalog,
    semisimple_rigidity_check,
)
from polyarith.linalg import Matrix, finite_order, jordan_chevalley, min_poly, snf
from polyarith.polynomials import Poly
from polyarith.presentations import ModuleAction
from polyarith.semidirect import (
    Automorphism,
    DerivationAtom,
    InnerAtom,
    build_gamma_epsilon,
    gamma_epsilon_derivation_basis,
)

from oracles import finite_group_h1
from test_cohomology import FINITE_CASES, case_action
from test_lie import graded_filiform_auto, graded_heisenberg_auto

PELL_RANGE = (2, 3, 5, 6, 7, 8, 10)


def stamp(number, text):
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


def test_01_family_fails_necessary_condition():
    for d in PELL_RANGE:
        start = time.perf_counter()
        report = non_arithmeticity_report(d)
        elapsed = time.perf_counter() - start
        assert report.classification == FAILS
        assert report.unipotent_block == Matrix([[1, -2], [0, 1]])
        pair = report.verdict.witness
        assert pair.unipotent != Matrix.identity(4)
        assert finite_order(pair.semisimple) is None
        a = report.a
        assert report.infinite_order_factor == Poly.of(1, -2 * a, 1)
        assert "not arithmetic" in report.verdict.interpretation()
        assert elapsed < 1.0, f"d={d} took {elapsed:.2f}s"
    stamp(1, f"family check fails as expected for d in {PELL_RANGE}")


def test_02_derivation_lattice_rank_and_index():
    ge = build_gamma_epsilon(3)
    lattice = derivation_space(ge.group.presentation, ge.group.action)
    assert lattice.rank == 4
    rows = []
    for deriv in gamma_epsilon_derivation_basis(ge):
        coords = lattice.coordinates(deriv)
        assert coords is not None
        rows.append(list(coords))
    factors = snf(Matrix(rows)).invariant_factors
    assert factors == (1, 1, 1, 1)
    stamp(2, "derivation lattice has rank 4 and the named basis has index 1")


def test_03_inner_action_matrix_shape():
    report = non_arithmeticity_report(3)
    m = report.inner_action
    assert tuple(m.row(0)) == (1, -2, 0, 0)
    assert tuple(m.row(1)) == (0, 1, 0, 0)
    block = Matrix([[m[2, 2], m[2, 3]], [m[3, 2], m[3, 3]]])
    assert block.det() == 1
    assert block.trace() == 2 * report.a
    # coupling resolves the off-diagonal scale of the lower block
    assert report.resolved_entry == report.coupling == math.gcd(
        report.a + 1, report.b * report.d
    )
    stamp(3, "inner action matrix matches row by row with resolved coupling")


def test_04_equivariant_units_are_the_four_signs():
    ge = build_gamma_epsilon(3)
    start = time.perf_counter()
    units = equivariant_units(ge.group.action, 10)
    elapsed = time.perf_counter() - start
    expected = {
        Matrix.diagonal((s, s, t)).entries for s in (1, -1) for t in (1, -1)
    }
    assert {u.entries for u in units} == expected
    assert len(units) == 4
    assert elapsed < 5.0
    stamp(4, "equivariant unit search finds exactly the four sign matrices")


def test_05_jordan_decomposition_suite():
    rng = random.Random(91252)
    ident = Matrix.identity(4)
    checked = 0
    while checked < 200:
        entries = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            for _ in range(4)
        ]
        a = Matrix(entries)
        if a.det() == 0:
            continue
        pair = jordan_chevalley(a)
        s, u = pair.semisimple, pair.unipotent
        assert s * u == a
        assert s * u == u * s
        assert min_poly(s).is_squarefree()
        nil = u - ident
        assert (nil * nil * nil * nil).is_zero()
        checked += 1
    stamp(5, "200 random rational 4x4 decompositions verified with zero failures")


def test_06_lie_cohomology_desk_values():
    start = time.perf_counter()
    for n in range(1, 9):
        expected = tuple(math.comb(n, p) for p in range(n + 1))
        assert build_koszul(abelian(n)).betti() == expected
    assert build_koszul(heisenberg()).betti() == (1, 2, 2, 1)
    catalog = nilpotent_catalog()
    assert len(catalog) >= 10
    for algebra in catalog.values():
        assert algebra.dim <= 7
        kos = build_koszul(algebra)
        betti = kos.betti()
        n = algebra.dim
        for p in range(n + 1):
            assert betti[p] == betti[n - p]
        assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0
        for p in range(n):
            assert (kos.differentials[p + 1] * kos.differentials[p]).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    stamp(6, f"desk Betti tables verified on {len(catalog)}-algebra suite")


def test_07_semisimple_rigidity_trials():
    rng = random.Random(40417)
    catalog = nilpotent_catalog()
    algebras = [
        ("heisenberg", catalog["heisenberg_3"]),
        ("heisenberg", catalog["heisenberg_5"]),
        ("filiform", catalog["filiform_4"]),
        ("filiform", catalog["filiform_5"]),
        ("filiform", catalog["filiform_6"]),
    ]
    complexes = {id(a): build_koszul(a) for _, a in algebras}
    met = 0
    for trial in range(100):
        kind, algebra = algebras[trial % len(algebras)]
        if trial % 10 == 0:
            # force the hypothesis to hold so the check is not vacuous
            phi = LieAutomorphism(algebra, Matrix.identity(algebra.dim))
        elif kind == "heisenberg":
            phi = graded_heisenberg_auto(algebra, rng)
        else:
            phi = graded_filiform_auto(algebra, rng)
        x = tuple(rng.randint(-2, 2) for _ in range(algebra.dim))
        u = inner_automorphism(algebra, x)
        twisted = u.compose(phi).compose(u.inverse())
        assert twisted.is_semisimple()
        result = semisimple_rigidity_check(twisted, complexes[id(algebra)])
        assert result.ok
        if result.hypothesis_met:
            met += 1
            assert result.is_identity
    assert met >= 10
    stamp(7, f"100 rigidity trials passed ({met} met the fixed-H1 hypothesis)")


def fixed_class_dims(kos, autos):
    """The dimensions of the classes fixed by every automorphism, degree by
    degree, read off the induced maps on cohomology."""
    dims = []
    for p, b in enumerate(kos.betti()):
        ident = Matrix.identity(b)
        rows = [r for phi in autos for r in (action_on_cohomology(phi, p, kos) - ident).entries]
        dims.append(b - Matrix(rows, ncols=b).rank())
    return tuple(dims)


def test_08_invariant_subcomplex_matches_invariants_of_cohomology():
    h = heisenberg()
    kos = build_koszul(h)
    torus = LieAutomorphism(h, Matrix.diagonal((2, Fraction(1, 2), 1)))
    inv = invariant_subcomplex(kos, [torus])
    assert inv.invariant_betti == (1, 0, 0, 1)
    assert fixed_class_dims(kos, [torus]) == (1, 0, 0, 1)

    ab3, ab4 = abelian(3), abelian(4)
    fil4 = nilpotent_catalog()["filiform_4"]
    suite = [
        (h, [torus]),
        (h, [torus, LieAutomorphism(h, Matrix.diagonal((Fraction(1, 3), 3, 1)))]),
        (ab3, [LieAutomorphism(ab3, Matrix.diagonal((-1, -1, 1)))]),
        (ab4, [LieAutomorphism(ab4, Matrix.diagonal((2, 3, 1, 1)))]),
        (fil4, [LieAutomorphism(fil4, Matrix.diagonal((2, 3, 6, 12)))]),
        (nilpotent_catalog()["heisenberg_5"], []),
    ]
    for algebra, tori in suite:
        result = invariant_subcomplex(build_koszul(algebra), tori)
        assert result.invariant_betti == fixed_class_dims(build_koszul(algebra), tori)
    stamp(8, "invariant subcomplex dimensions equal fixed subspaces of cohomology")


def test_09_first_cohomology_matches_brute_force_oracle():
    pres, action = case_action(FINITE_CASES[0])
    group = h1(pres, action)
    assert (group.free_rank, group.torsion) == (0, (2,))
    assert str(group) == "Z/2"

    for label, pres, perms, mats, order in FINITE_CASES:
        group = h1(pres, ModuleAction(mats[0].nrows, tuple(mats)))
        z_rank, free, torsion = finite_group_h1(
            [tuple(p) for p in perms], [m.entries for m in mats], order
        )
        assert group.free_rank == 0, label
        assert free == 0, label
        assert group.torsion == torsion, label
    stamp(9, f"h1 matches the independent oracle on all {len(FINITE_CASES)} cases")


def test_10_conjugation_compatibility_on_elements():
    ge = build_gamma_epsilon(3)
    g = ge.group
    eng = g.engine
    lattice = derivation_space(g.presentation, g.action)
    rng = random.Random(65537)
    words = {"A": ((0, 1),), "t": ((1, 1),), "At": ((0, 1), (1, 1))}
    samples = [
        g.element(
            tuple(rng.randint(-6, 6) for _ in range(3)),
            (rng.randint(-4, 4), rng.randrange(2)),
        )
        for _ in range(50)
    ]
    for word in words.values():
        table = rewriting_table(eng, word)
        gw = g.element((0, 0, 0), eng.normal_form(word))
        for deriv in lattice.basis:
            conjugated = conjugate_derivation(g.action, deriv, table)
            lhs = Automorphism(
                g, [InnerAtom(g.invert(gw)), DerivationAtom(deriv), InnerAtom(gw)]
            )
            rhs = Automorphism(g, [DerivationAtom(conjugated)])
            for x in samples:
                assert lhs.apply(x) == rhs.apply(x)
    stamp(10, "inner twist of a derivation automorphism matches the conjugated cocycle")
