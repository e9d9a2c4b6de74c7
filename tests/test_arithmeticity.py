import hashlib
import random
import re
import sys
import time
from dataclasses import fields
from math import isqrt

import pytest

from polyarith import arithmeticity, cohomology, linalg
from polyarith.arithmeticity import (
    FAILS,
    FINITE_ORDER,
    SEMISIMPLE,
    VIRTUALLY_UNIPOTENT,
    FamilyReport,
    classify,
    non_arithmeticity_report,
)
from polyarith.cli import main
from polyarith.cohomology import Derivation, DerivationLattice
from polyarith.errors import InternalError, PreconditionError
from polyarith.linalg import Matrix, block_diag, finite_order, jordan_chevalley, min_poly
from polyarith.polynomials import Poly
from polyarith.quadratic import fundamental_pell
from polyarith.semidirect import GammaEpsilon, gamma_epsilon_derivation_basis


class TestClassify:
    def test_identity_is_finite_order(self):
        verdict = classify(Matrix.identity(3))
        assert verdict.classification == FINITE_ORDER
        assert verdict.order == 1
        assert verdict.passes()

    def test_rotation_is_finite_order(self):
        verdict = classify(Matrix([[0, -1], [1, 0]]))
        assert (verdict.classification, verdict.order) == (FINITE_ORDER, 4)

    def test_shear_is_virtually_unipotent(self):
        verdict = classify(Matrix([[1, 1], [0, 1]]))
        assert verdict.classification == VIRTUALLY_UNIPOTENT
        assert verdict.order == 1
        assert verdict.passes()

    def test_rotated_shear_has_order_of_semisimple_part(self):
        # -1 times a shear: semisimple part of order 2, unipotent part nontrivial
        m = Matrix([[-1, -1], [0, -1]])
        verdict = classify(m)
        assert verdict.classification == VIRTUALLY_UNIPOTENT
        assert verdict.order == 2
        power = m ** verdict.order
        assert ((power - Matrix.identity(2)) ** 2).is_zero()

    def test_hyperbolic_is_semisimple(self):
        verdict = classify(Matrix([[2, 1], [1, 1]]))
        assert verdict.classification == SEMISIMPLE
        assert verdict.order is None
        assert verdict.passes()
        assert "does not decide" in verdict.interpretation()

    def test_mixed_matrix_fails(self):
        # hyperbolic block next to a shear: semisimple part of infinite
        # order and a nontrivial unipotent part
        m = block_diag(Matrix([[2, 1], [1, 1]]), Matrix([[1, 1], [0, 1]]))
        verdict = classify(m)
        assert verdict.classification == FAILS
        assert not verdict.passes()
        assert "not arithmetic" in verdict.interpretation()

    def test_finite_order_takes_precedence(self):
        # diag(-1, -1) is semisimple and of finite order; the stricter
        # branch must win
        verdict = classify(-Matrix.identity(2))
        assert verdict.classification == FINITE_ORDER
        assert verdict.order == 2

    def test_witness_decomposition(self):
        m = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, -1]])
        verdict = classify(m)
        pair = verdict.witness
        assert pair.semisimple * pair.unipotent == m
        assert min_poly(pair.semisimple).is_squarefree()

    def test_classification_is_conjugation_invariant(self):
        samples = [
            Matrix.identity(2),
            Matrix([[1, 1], [0, 1]]),
            Matrix([[2, 1], [1, 1]]),
            Matrix([[0, -1], [1, 0]]),
        ]
        g = Matrix([[2, 1], [1, 1]])
        for m in samples:
            inner = g * m * g.inverse()
            if inner.is_integral():
                assert classify(inner).classification == classify(m).classification

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            classify(Matrix([[1, 0]]))
        with pytest.raises(PreconditionError):
            classify(Matrix([[2, 0], [0, 1]]))
        from fractions import Fraction

        with pytest.raises(PreconditionError):
            classify(Matrix([[Fraction(1, 2), 0], [0, 2]]))


def unimodular_cases():
    """Companions of products of distinct Phi_m, alone or block-summed with
    a shear, a hyperbolic 2 x 2 or both, conjugated by a seeded product of
    elementary integer matrices."""
    rng = random.Random(2405)
    small = [m for m in range(1, 13) if linalg._totient(m) <= 4]
    extras = [None, Matrix([[1, 1], [0, 1]]), Matrix([[2, 1], [1, 1]])]
    extras.append(block_diag(extras[1], extras[2]))
    cases = []
    while len(cases) < 60:
        ms = rng.sample(small, rng.randint(1, 3))
        p = Poly.of(1)
        for m in ms:
            p = p * linalg._cyclotomic(m)
        if p.degree > 5:
            continue
        n = p.degree
        a = Matrix([[-p.coeffs[i] if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)])
        extra = rng.choice(extras)
        a = a if extra is None else block_diag(a, extra)
        g = Matrix.identity(a.nrows).to_lists()
        for _ in range(3 * a.nrows if a.nrows > 1 else 0):
            (i, j), c = rng.sample(range(a.nrows), 2), rng.choice((-1, 1))
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        g = Matrix(g)
        cases.append(g * a * g.inverse())
    return cases


def count_min_poly(monkeypatch):
    """Calls of min_poly, under every polyarith name bound to it."""
    real, calls = linalg.min_poly, []

    def counting(a):
        calls.append(a.nrows)
        return real(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("polyarith") and getattr(module, "min_poly", None) is real:
            monkeypatch.setattr(module, "min_poly", counting)
    return calls


class TestOneMinimalPolynomial:
    def test_classify_runs_min_poly_once(self, monkeypatch):
        cases = unimodular_cases()
        calls = count_min_poly(monkeypatch)
        for a in cases:
            calls.clear()
            classify(a)
            assert len(calls) == 1

    @pytest.mark.parametrize("d", [2, 3, 13, 10**8 + 7])
    def test_report_runs_min_poly_once(self, monkeypatch, d):
        calls = count_min_poly(monkeypatch)
        non_arithmeticity_report(d)
        assert calls == [4]

    def test_order_is_the_order_of_the_semisimple_factor(self):
        verdicts = [(a, classify(a)) for a in unimodular_cases()]
        assert {v.classification for _, v in verdicts} == {
            FINITE_ORDER,
            VIRTUALLY_UNIPOTENT,
            SEMISIMPLE,
            FAILS,
        }
        for a, verdict in verdicts:
            assert verdict.order == finite_order(jordan_chevalley(a).semisimple)

    def test_pair_holds_min_poly_of_semisimple_factor(self):
        for a in unimodular_cases():
            pair = jordan_chevalley(a)
            assert pair.poly == min_poly(pair.semisimple)


class TestFamilyReports:
    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 8, 10])
    def test_family_always_fails(self, d):
        start = time.monotonic()
        report = non_arithmeticity_report(d)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        assert report.classification == FAILS
        assert report.d == d
        assert (report.a, report.b) == fundamental_pell(d)
        assert report.derivation_rank == 4

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 8, 10])
    def test_blocks_and_factor(self, d):
        report = non_arithmeticity_report(d)
        assert report.unipotent_block == Matrix([[1, -2], [0, 1]])
        assert report.infinite_order_factor == Poly.of(1, -2 * report.a, 1)
        lower = report.inner_action.submatrix((2, 3), (2, 3))
        assert lower.det() == 1
        assert lower.trace() == 2 * report.a
        assert report.resolved_entry == report.coupling

    def test_d3_report_in_full(self):
        report = non_arithmeticity_report(3)
        assert (report.a, report.b, report.coupling) == (2, 1, 3)
        assert report.inner_action == Matrix(
            [
                [1, -2, 0, 0],
                [0, 1, 0, 0],
                [0, 0, -1, 3],
                [0, 0, -2, 5],
            ]
        )
        assert report.infinite_order_factor == Poly.of(1, -4, 1)
        assert str(report.infinite_order_factor) == "x^2 - 4*x + 1"

    def test_semisimple_part_has_infinite_order(self):
        report = non_arithmeticity_report(3)
        from polyarith.linalg import finite_order

        assert finite_order(report.verdict.witness.semisimple) is None
        assert not report.verdict.witness.unipotent.is_identity()

    def test_semisimple_factor_reconstruction(self):
        # min poly of the semisimple part is (x - 1) times the block factor
        report = non_arithmeticity_report(5)
        expected = (Poly.of(-1, 1) * report.infinite_order_factor).monic()
        assert min_poly(report.verdict.witness.semisimple) == expected

    def test_bad_discriminant_rejected(self):
        with pytest.raises(PreconditionError):
            non_arithmeticity_report(4)
        with pytest.raises(PreconditionError):
            non_arithmeticity_report(1)

    def test_reports_pinned_for_nonsquare_d_up_to_200(self):
        # sha256 over the lines "d field repr(value)" of every FamilyReport field
        digest = hashlib.sha256()
        for d in range(2, 201):
            if isqrt(d) ** 2 == d:
                continue
            report = non_arithmeticity_report(d)
            for f in fields(FamilyReport):
                digest.update(f"{d} {f.name} {getattr(report, f.name)!r}\n".encode())
        assert digest.hexdigest() == (
            "2ee98f6d8ebd3d69c637279f7585e219523a39e05abd5626c1de015926cb5a89"
        )


def _doubled_last(basis):
    return basis[:3] + (Derivation(tuple(tuple(2 * x for x in v) for v in basis[3].values)),)


def _non_derivation_third(basis):
    # fails the relators of every member of the family
    return basis[:2] + (Derivation(((1, 0, 0), (1, 0, 0))),) + basis[3:]


def _first_repeated(basis):
    return (basis[0], basis[0]) + basis[2:]


class TestBasisCertificate:
    @pytest.mark.parametrize("spoil", [_doubled_last, _non_derivation_third, _first_repeated])
    def test_bad_basis_refused(self, monkeypatch, capsys, spoil):
        monkeypatch.setattr(
            arithmeticity,
            "gamma_epsilon_derivation_basis",
            lambda ge: spoil(gamma_epsilon_derivation_basis(ge)),
        )
        with pytest.raises(InternalError, match="distinguished basis does not span the full lattice"):
            non_arithmeticity_report(3)
        assert main(["teob", "3"]) == 3
        assert "distinguished basis does not span the full lattice" in capsys.readouterr().err

    def test_factor_polynomial_mismatch_refused(self, monkeypatch, capsys):
        # the semisimple factor's polynomial is x - 1 times the characteristic
        # polynomial of the lower 2 x 2 block; a wrong block polynomial trips it
        real = arithmeticity.char_poly
        monkeypatch.setattr(arithmeticity, "char_poly", lambda m: real(m) + Poly.of(1))
        with pytest.raises(InternalError, match="^semisimple factor polynomial mismatch$"):
            non_arithmeticity_report(3)
        assert main(["teob", "3"]) == 3
        assert "semisimple factor polynomial mismatch" in capsys.readouterr().err

    def test_coupling_drift_refused(self, monkeypatch, capsys):
        # a different entry [2, 3] changes the determinant, so classify would
        # refuse the action first; the coupling moves once classify has run,
        # after the basis is built on the true one
        drifted = []
        coupling, classify = GammaEpsilon.coupling.fget, arithmeticity.classify
        monkeypatch.setattr(GammaEpsilon, "coupling", property(lambda ge: coupling(ge) + len(drifted)))
        monkeypatch.setattr(arithmeticity, "classify", lambda a: drifted.append(1) or classify(a))
        message = "lower block coupling entry drifted from gcd(a+1, b*d)"
        with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
            non_arithmeticity_report(3)
        drifted.clear()
        assert main(["teob", "3"]) == 3
        assert message in capsys.readouterr().err

    def test_one_relator_walk_each_and_no_full_lattice_solve(self, monkeypatch):
        walks, checks, solved, fulls = [], [], [], []
        fox, is_derivation = cohomology._fox_matrix, cohomology.is_derivation
        coordinates, space = DerivationLattice.coordinates, arithmeticity.derivation_space
        monkeypatch.setattr(cohomology, "_fox_matrix", lambda *a: walks.append(1) or fox(*a))
        monkeypatch.setattr(
            cohomology, "is_derivation", lambda *a: checks.append(1) or is_derivation(*a)
        )
        monkeypatch.setattr(
            DerivationLattice, "coordinates", lambda lat, v: solved.append(lat) or coordinates(lat, v)
        )
        monkeypatch.setattr(
            arithmeticity, "derivation_space", lambda *a: fulls.append(space(*a)) or fulls[-1]
        )
        assert non_arithmeticity_report(7).derivation_rank == 4
        assert len(walks) == 4
        assert checks == []
        # conjugation_action solves on the distinguished lattice, never on the full one
        assert len(fulls) == 1 and solved and all(lat is not fulls[0] for lat in solved)
