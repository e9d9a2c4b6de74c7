import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

import pytest

import polyarith
from polyarith import __version__
from polyarith.cli import main
from polyarith.errors import InternalError
from polyarith.jsonio import action_to_json, parse_group_document, presentation_to_json
from polyarith.lie import KoszulComplex, LieAlgebra
from polyarith.linalg import Matrix

from test_linalg import lattice_h1_actions


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    target = tmp_path / name
    target.write_text(json.dumps(obj))
    return str(target)


HEISENBERG_DOC = {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
SL2_DOC = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "k": 2, "c": "2"},
        {"i": 1, "j": 3, "k": 3, "c": "-2"},
        {"i": 2, "j": 3, "k": 1, "c": "1"},
    ],
}
TORUS_DOC = {
    "matrices": [
        {
            "rows": 3,
            "cols": 3,
            "entries": [["2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1"]],
        }
    ]
}
IDENTITY2_DOC = {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}


@pytest.fixture()
def gamma_spec(tmp_path, capsys):
    code, out, _ = run(capsys, "gamma-epsilon", "3")
    assert code == 0
    results = json.loads(out)["results"]
    target = tmp_path / "gamma3.json"
    target.write_text(json.dumps(results))
    return str(target)


class TestEnvelope:
    def test_report_shape(self, capsys):
        code, out, err = run(capsys, "pell", "3")
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert set(report) == {"command", "inputs", "results", "version"}
        assert report["command"] == "pell"
        assert report["version"] == __version__
        assert set(report["inputs"]) == {"files", "parameters"}

    def test_output_is_compact_and_sorted(self, capsys):
        _, out, _ = run(capsys, "pell", "3")
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "teob", "3")
        _, second, _ = run(capsys, "teob", "3")
        assert first == second

    def test_timestamps_opt_in(self, capsys):
        _, plain, _ = run(capsys, "pell", "3")
        assert "generated_at" not in json.loads(plain)
        _, stamped, _ = run(capsys, "pell", "3", "--timestamps")
        assert "generated_at" in json.loads(stamped)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestPell:
    def test_d3(self, capsys):
        _, out, _ = run(capsys, "pell", "3")
        assert json.loads(out)["results"] == {"a": 2, "b": 1, "d": 3}

    def test_pretty(self, capsys):
        _, out, _ = run(capsys, "pell", "10", "--pretty")
        assert "a = 19, b = 6" in out

    def test_square_rejected(self, capsys):
        code, out, err = run(capsys, "pell", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error (precondition)")


class TestGammaEpsilon:
    def test_document_roundtrips(self, capsys):
        _, out, _ = run(capsys, "gamma-epsilon", "3")
        results = json.loads(out)["results"]
        document = parse_group_document(results)
        assert document.engine == "dihedral"
        assert document.metadata == {"d": 3, "epsilon": {"a": 2, "b": 1, "d": 3}}
        assert document.action.matrices[0] == Matrix(
            [[2, 3, 0], [1, 2, 0], [0, 0, 1]]
        )

    def test_emitted_document_feeds_other_commands(self, capsys, gamma_spec):
        code, out, _ = run(capsys, "derivations", gamma_spec)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rank"] == 4
        assert results["flattened_basis"]["rows"] == 4
        digest = json.loads(out)["inputs"]["files"]["spec"]["sha256"]
        assert len(digest) == 64


class TestH1:
    def test_gamma_epsilon_h1(self, capsys, gamma_spec):
        code, out, _ = run(capsys, "h1", gamma_spec)
        assert code == 0
        results = json.loads(out)["results"]
        assert results == {
            "free_rank": 1,
            "torsion": [2, 2],
            "order": None,
            "trivial": False,
            "text": "Z + Z/2 + Z/2",
        }

    def test_pretty(self, capsys, gamma_spec):
        _, out, _ = run(capsys, "h1", gamma_spec, "--pretty")
        assert out.strip().endswith("H1 = Z + Z/2 + Z/2")

    def test_no_generators_give_trivial_h1_whatever_the_rank(self, tmp_path):
        # with no generator there is no cochain, so H^1 = 0 without a
        # matrix of one row per module coordinate; a fresh process with
        # 1 GB of address space and a time limit keeps a regression from
        # taking the host's memory
        doc = {
            "presentation": {"generators": [], "relators": [[]]},
            "action": {"rank": 10**30, "matrices": {}},
        }
        path = write_json(tmp_path, "huge.json", doc)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "polyarith.cli", "h1", path],
            capture_output=True, text=True, env=fresh_env(), timeout=60, preexec_fn=limit,
        )
        assert time.monotonic() - start < 2.0
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"] == {
            "free_rank": 0, "torsion": [], "order": 1, "trivial": True, "text": "0",
        }


class TestDerAction:
    def test_translation_generator(self, capsys, gamma_spec):
        code, out, _ = run(capsys, "der-action", gamma_spec, "--element", "A")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rank"] == 4
        assert results["determinant"] == 1
        entries = results["matrix"]["entries"]
        assert entries == [
            ["2", "1", "0", "0"],
            ["3", "2", "0", "0"],
            ["0", "0", "1", "-2"],
            ["0", "0", "0", "1"],
        ]

    def test_element_word_parsing(self, capsys, gamma_spec):
        code, out, _ = run(capsys, "der-action", gamma_spec, "--element", "t A t A")
        assert code == 0
        # t A t = A^-1, so the action is the identity
        entries = json.loads(out)["results"]["matrix"]["entries"]
        assert entries == [
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1"],
        ]

    def test_engine_required(self, capsys, tmp_path, gamma_spec):
        with open(gamma_spec) as fh:
            doc = json.load(fh)
        del doc["engine"]
        bare = write_json(tmp_path, "bare.json", doc)
        code, _, err = run(capsys, "der-action", bare, "--element", "A")
        assert code == 1
        assert "/engine" in err

    def test_unknown_generator_in_element(self, capsys, gamma_spec):
        code, _, err = run(capsys, "der-action", gamma_spec, "--element", "B")
        assert code == 1
        assert "unknown generator" in err


class TestEquivariantUnits:
    def test_gamma_epsilon_units(self, capsys, gamma_spec):
        code, out, _ = run(capsys, "equivariant-units", gamma_spec, "--bound", "10")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["count"] == 4
        assert results["bound"] == 10
        signs = {
            tuple(tuple(row) for row in unit["entries"]) for unit in results["units"]
        }
        assert (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "-1")) in signs


class TestJordan:
    def test_identity(self, capsys, tmp_path):
        path = write_json(tmp_path, "id.json", IDENTITY2_DOC)
        code, out, _ = run(capsys, "jordan", path)
        assert code == 0
        results = json.loads(out)["results"]
        ident = [["1", "0"], ["0", "1"]]
        assert results["semisimple_part"]["entries"] == ident
        assert results["unipotent_part"]["entries"] == ident

    def test_singular_matrix_is_precondition_error(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "sing.json",
            {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "0"]]},
        )
        code, _, err = run(capsys, "jordan", path)
        assert code == 2
        assert "invertible" in err


class TestArithCheck:
    def test_identity_pretty_ends_with_classification(self, capsys, tmp_path):
        path = write_json(tmp_path, "id.json", IDENTITY2_DOC)
        code, out, _ = run(capsys, "arith-check", path, "--pretty")
        assert code == 0
        assert out.strip().splitlines()[-1] == "classification: FiniteOrder"

    def test_shear(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "shear.json",
            {"rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "1"]]},
        )
        _, out, _ = run(capsys, "arith-check", path)
        results = json.loads(out)["results"]
        assert results["classification"] == "VirtuallyUnipotent"
        assert results["order"] == 1

    def test_non_unimodular_rejected(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "det2.json",
            {"rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "1"]]},
        )
        code, _, err = run(capsys, "arith-check", path)
        assert code == 2
        assert "determinant" in err


@pytest.fixture()
def digit_cap():
    """Python's int <-> str digit cap lowered to its floor of 640 for the
    test, so that a unit or entry of about 700 digits passes it quickly."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(cap)


class TestDigitCap:
    # the fundamental unit of d = 82021 has 682 digits
    @pytest.mark.parametrize("command", ["pell", "teob", "gamma-epsilon"])
    def test_long_results_are_printed(self, capsys, digit_cap, command):
        code, out, err = run(capsys, command, "82021")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640
        assert len(max(out.replace('"', " ").split(), key=len)) > 640

    @pytest.mark.parametrize("quote", ['"', ""])
    def test_long_entries_are_read(self, capsys, tmp_path, digit_cap, quote):
        n = "7" * 700
        path = tmp_path / "big.json"
        path.write_text(f'{{"rows": 2, "cols": 2, "entries": [[1, {quote}{n}{quote}], [0, 1]]}}')
        code, out, err = run(capsys, "arith-check", str(path))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640
        assert f'"{n}"' in out
        assert '"classification":"VirtuallyUnipotent"' in out

    def test_cap_is_restored_after_a_refusal(self, capsys, digit_cap):
        code, _, _ = run(capsys, "pell", "4")
        assert code == 2
        assert sys.get_int_max_str_digits() == 640


class TestTeob:
    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 8, 10])
    def test_family_classification(self, capsys, d):
        code, out, _ = run(capsys, "teob", str(d))
        assert code == 0
        results = json.loads(out)["results"]
        assert results["classification"] == "FailsNecessaryCondition"
        assert results["derivation_rank"] == 4
        assert results["unipotent_block"]["entries"] == [["1", "-2"], ["0", "1"]]

    def test_d3_details(self, capsys):
        _, out, _ = run(capsys, "teob", "3")
        results = json.loads(out)["results"]
        assert results["epsilon"] == {"a": 2, "b": 1, "d": 3}
        assert results["coupling"] == 3
        assert results["resolved_entry"] == 3
        assert results["infinite_order_factor"]["text"] == "x^2 - 4*x + 1"
        assert results["inner_action"]["entries"] == [
            ["1", "-2", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "-1", "3"],
            ["0", "0", "-2", "5"],
        ]

    def test_pretty_ends_with_classification(self, capsys):
        code, out, _ = run(capsys, "teob", "3", "--pretty")
        assert code == 0
        assert out.strip().splitlines()[-1] == "classification: FailsNecessaryCondition"


class TestLieCohomology:
    def test_betti(self, capsys, tmp_path):
        path = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        code, out, _ = run(capsys, "lie-cohomology", path)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["betti"] == [1, 2, 2, 1]
        assert results["euler_characteristic"] == 0
        assert results["nilpotency_class"] == 2

    def test_automorphism_action(self, capsys, tmp_path):
        algebra = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        torus = write_json(tmp_path, "torus.json", TORUS_DOC)
        code, out, _ = run(
            capsys, "lie-cohomology", algebra, "--automorphism", torus
        )
        assert code == 0
        action = json.loads(out)["results"]["cohomology_action"]
        assert len(action) == 4
        assert action[1]["entries"] == [["1/2", "0"], ["0", "2"]]

    def test_empty_automorphism_list_rejected(self, capsys, tmp_path):
        algebra = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        empty = write_json(tmp_path, "empty.json", {"matrices": []})
        code, _, err = run(capsys, "lie-cohomology", algebra, "--automorphism", empty)
        assert code == 1
        assert "/matrices" in err

    def test_invariants(self, capsys, tmp_path):
        algebra = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        torus = write_json(tmp_path, "torus.json", TORUS_DOC)
        code, out, _ = run(capsys, "lie-cohomology", algebra, "--invariants", torus)
        assert code == 0
        inv = json.loads(out)["results"]["invariant"]
        assert inv == {
            "subspace_dims": [1, 1, 1, 1],
            "invariant_betti": [1, 0, 0, 1],
            "fixed_cohomology_dims": [1, 0, 0, 1],
        }

    def test_non_automorphism_matrix_rejected(self, capsys, tmp_path):
        algebra = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        bad = write_json(
            tmp_path,
            "bad.json",
            {
                "matrices": [
                    {
                        "rows": 3,
                        "cols": 3,
                        "entries": [
                            ["2", "0", "0"],
                            ["0", "1", "0"],
                            ["0", "0", "1"],
                        ],
                    }
                ]
            },
        )
        code, _, err = run(capsys, "lie-cohomology", algebra, "--automorphism", bad)
        assert code == 2
        assert "bracket" in err

    def test_jacobi_violation_is_precondition_error(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "nonjacobi.json",
            {
                "dim": 3,
                "brackets": [
                    {"i": 1, "j": 2, "k": 3, "c": "1"},
                    {"i": 1, "j": 3, "k": 1, "c": "1"},
                ],
            },
        )
        code, _, err = run(capsys, "lie-cohomology", path)
        assert code == 2
        assert "Jacobi" in err or "jacobi" in err

    @pytest.mark.parametrize("brackets", [[], [{"i": 1, "j": 2, "k": 3, "c": "1"}]])
    def test_huge_dimension_refused_quickly(self, capsys, tmp_path, brackets):
        # the Jacobi check walks the triples holding a table pair, not all
        # C(dim, 3), so the dimension cap is reached at once
        path = write_json(tmp_path, "huge.json", {"dim": 100000, "brackets": brackets})
        start = time.monotonic()
        code, out, err = run(capsys, "lie-cohomology", path)
        assert time.monotonic() - start < 5.0
        assert code == 2
        assert out == ""
        assert "exceeds the cap" in err

    @pytest.mark.parametrize(
        "dim, pairs",
        [
            pytest.param(10**6, 1, id=str(10**6)),
            pytest.param(10**30, 1, id=str(10**30)),
            pytest.param(10**6, 1500, id="heisenberg-1500"),
        ],
    )
    def test_dimension_far_past_the_cap_refused_at_once(self, tmp_path, dim, pairs):
        # dim is compared with the cap as soon as the document's structure
        # is checked, before the Jacobi check: with [e_(2t+1), e_(2t+2)] =
        # e_dim for 1500 values of t the Jacobi check alone would take
        # seconds; a fresh process with 1 GB of address space and a time
        # limit keeps a regression from taking the host's memory
        brackets = [{"i": 2 * t + 1, "j": 2 * t + 2, "k": dim, "c": "1"} for t in range(pairs)]
        path = write_json(tmp_path, "huge.json", {"dim": dim, "brackets": brackets})

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "polyarith.cli", "lie-cohomology", path],
            capture_output=True, text=True, env=fresh_env(), timeout=60, preexec_fn=limit,
        )
        assert time.monotonic() - start < 2.0
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"dimension {dim} exceeds the cap 14" in proc.stderr

    def test_poincare_duality_certificate(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        monkeypatch.setattr(KoszulComplex, "betti", lambda self: (1, 2, 1, 1))
        code, out, err = run(capsys, "lie-cohomology", path)
        assert code == 3
        assert out == ""
        assert "Betti numbers 1 2 1 1 of a nilpotent algebra of dimension 3" in err
        assert "Poincare duality" in err

    def test_poincare_duality_not_asked_of_non_nilpotent(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "sl2.json", SL2_DOC)
        # b_1 = 0 = dim g - dim [g, g] holds, so only duality could object
        monkeypatch.setattr(KoszulComplex, "betti", lambda self: (1, 0, 1, 1))
        code, out, _ = run(capsys, "lie-cohomology", path)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["nilpotency_class"] is None
        assert results["betti"] == [1, 0, 1, 1]

    @pytest.mark.parametrize(
        "doc, betti, message",
        [
            # heisenberg: [g, g] is the centre, so b_1 = 3 - 1; (1, 1, 1, 1) keeps duality
            (HEISENBERG_DOC, (1, 1, 1, 1), "b_1 = 1 but dim g - dim [g, g] = 2"),
            # sl2 is perfect, so b_1 = 0; the check does not wait for nilpotency
            (SL2_DOC, (1, 1, 1, 1), "b_1 = 1 but dim g - dim [g, g] = 0"),
        ],
    )
    def test_first_betti_certificate(self, capsys, tmp_path, monkeypatch, doc, betti, message):
        path = write_json(tmp_path, "algebra.json", doc)
        monkeypatch.setattr(KoszulComplex, "betti", lambda self: betti)
        code, out, err = run(capsys, "lie-cohomology", path)
        assert code == 3
        assert out == ""
        assert message in err

    def test_first_betti_certificate_reads_one_series(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        calls = []
        series = LieAlgebra.lower_central_series
        monkeypatch.setattr(
            LieAlgebra, "lower_central_series", lambda self: calls.append(1) or series(self)
        )
        code, out, _ = run(capsys, "lie-cohomology", path)
        assert code == 0
        assert json.loads(out)["results"]["nilpotency_class"] == 2
        assert calls == [1]


class TestKoszulInvariants:
    def test_dims_agree(self, capsys, tmp_path):
        algebra = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        torus = write_json(tmp_path, "torus.json", TORUS_DOC)
        code, out, _ = run(capsys, "koszul-invariants", algebra, torus)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["dims_agree"] is True
        assert results["invariant_betti"] == [1, 0, 0, 1]
        assert results["betti"] == [1, 2, 2, 1]

    def test_pretty(self, capsys, tmp_path):
        algebra = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        torus = write_json(tmp_path, "torus.json", TORUS_DOC)
        _, out, _ = run(capsys, "koszul-invariants", algebra, torus, "--pretty")
        assert "matches invariants of cohomology: yes" in out

    def test_non_commuting_automorphisms_rejected(self, capsys, tmp_path):
        algebra = write_json(tmp_path, "heis.json", HEISENBERG_DOC)
        # the torus of TORUS_DOC and its conjugate by exp(ad e_1)
        conjugate = {
            "rows": 3,
            "cols": 3,
            "entries": [["2", "0", "0"], ["0", "1/2", "0"], ["0", "-1/2", "1"]],
        }
        pair = write_json(tmp_path, "pair.json", {"matrices": TORUS_DOC["matrices"] + [conjugate]})
        code, out, err = run(capsys, "koszul-invariants", algebra, pair)
        assert (code, out) == (2, "")
        assert err == "error (precondition): automorphisms must commute\n"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "jordan", "/nonexistent/m.json")
        assert code == 1
        assert out == ""
        assert err.startswith("error (malformed input)")

    def test_invalid_json(self, capsys, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{")
        code, _, err = run(capsys, "jordan", str(target))
        assert code == 1
        assert "invalid JSON" in err

    def test_schema_error_carries_pointer(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {"rows": 1, "cols": 1, "entries": [["2/4"]]},
        )
        code, _, err = run(capsys, "jordan", path)
        assert code == 1
        assert "/entries/0/0" in err

    def test_float_rejected(self, capsys, tmp_path):
        target = tmp_path / "float.json"
        target.write_text('{"rows": 1, "cols": 1, "entries": [[1.5]]}')
        code, _, err = run(capsys, "jordan", str(target))
        assert code == 1

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        import polyarith.arithmeticity as arithmeticity

        def boom(d):
            raise InternalError("forced for the exit-code test")

        # cmd_teob imports the report from its module when it runs
        monkeypatch.setattr(arithmeticity, "non_arithmeticity_report", boom)
        code, out, err = run(capsys, "teob", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("error (internal consistency)")


    def test_unexpected_exception_exit_code(self, capsys, monkeypatch):
        import polyarith.cli as cli_module

        def boom(ns):
            raise ValueError("forced for the exit-code test")

        monkeypatch.setattr(cli_module, "cmd_pell", boom)
        code, out, err = run(capsys, "pell", "3")
        assert code == 3
        assert out == ""
        assert err.startswith(
            "error (internal consistency): ValueError: forced for the exit-code test\n"
        )
        assert "Traceback (most recent call last)" in err

    def test_shape_mismatch_is_precondition_exit_code(self, capsys, monkeypatch):
        import polyarith.cli as cli_module

        def mismatched(ns):
            return Matrix([[1, 2]]) * Matrix([[1, 2]])

        monkeypatch.setattr(cli_module, "cmd_pell", mismatched)
        code, out, err = run(capsys, "pell", "3")
        assert code == 2
        assert out == ""
        assert err == "error (precondition): cannot multiply 1x2 by 1x2\n"

    @pytest.mark.parametrize(
        "argv", [["h1"], ["derivations"], ["der-action", "--element", "a"]], ids=lambda a: a[0]
    )
    def test_action_breaking_a_relator_is_precondition_exit_code(self, capsys, tmp_path, argv):
        # a shear and a swap do not commute, so [a, b] does not act trivially
        matrices = {
            "a": {"rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "1"]]},
            "b": {"rows": 2, "cols": 2, "entries": [["0", "1"], ["1", "0"]]},
        }
        path = write_json(
            tmp_path,
            "noncommuting.json",
            {
                "action": {"matrices": matrices, "rank": 2},
                "engine": "free_abelian",
                "presentation": {"generators": ["a", "b"], "relators": [[["a", 1], ["b", 1], ["a", -1], ["b", -1]]]},
            },
        )
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2
        assert out == ""
        assert err == "error (precondition): relator ((0, 1), (1, 1), (0, -1), (1, -1)) does not act trivially\n"

    def test_engine_relator_missing_from_the_presentation_is_refused(self, capsys, tmp_path):
        # Z^2 rewrites a^-1 b a to b, which the free group on a and b does not;
        # the conjugation action would come out diag(-1, -1) for diag(-1, 1)
        one = {"rows": 1, "cols": 1, "entries": [["1"]]}
        path = write_json(
            tmp_path,
            "free.json",
            {
                "action": {"matrices": {"a": {**one, "entries": [["-1"]]}, "b": one}, "rank": 1},
                "engine": "free_abelian",
                "presentation": {"generators": ["a", "b"], "relators": []},
            },
        )
        code, out, err = run(capsys, "der-action", path, "--element", "a")
        assert (code, out) == (2, "")
        assert err == (
            "error (precondition): engine relator ((0, 1), (1, 1), (0, -1), (1, -1))"
            " is not a relator of the presentation\n"
        )

    def test_dihedral_document_without_the_braid_relator_is_refused(self, capsys, tmp_path, gamma_spec):
        with open(gamma_spec) as fh:
            doc = json.load(fh)
        assert doc["presentation"]["relators"].pop() == [["A", 1], ["t", 1], ["A", 1], ["t", 1]]
        path = write_json(tmp_path, "no_braid.json", doc)
        code, out, err = run(capsys, "der-action", path, "--element", "t")
        assert (code, out) == (2, "")
        assert err == (
            "error (precondition): engine relator ((0, 1), (1, 1), (0, 1), (1, 1))"
            " is not a relator of the presentation\n"
        )
        # a third generator does not fit the dihedral engine either
        doc["presentation"]["generators"].append("s")
        doc["action"]["matrices"]["s"] = doc["action"]["matrices"]["t"]
        code, out, err = run(capsys, "der-action", write_json(tmp_path, "three.json", doc), "--element", "t")
        assert (code, out) == (2, "")
        assert err == "error (precondition): the engine needs 2 generators, the presentation has 3\n"
        # the document as gamma-epsilon writes it carries the engine's relators
        code, out, _ = run(capsys, "der-action", gamma_spec, "--element", "t")
        assert code == 0 and json.loads(out)["results"]["rank"] > 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_workload_lattice_documents_fit_their_engine(self, monkeypatch, k):
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        import workloads

        from polyarith.cli import _engine_for

        document = parse_group_document(workloads.lattice_document(6, k, 0, 0))
        assert _engine_for(document).presentation.relators == document.presentation.relators

    def test_keyboard_interrupt_not_caught(self, monkeypatch):
        import polyarith.cli as cli_module

        def interrupt(ns):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "cmd_pell", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["pell", "3"])


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(polyarith.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, COLUMNS="80", PYTHONPATH=path)


class TestSharedParser:
    """main builds its parser once per process; each call must still behave
    as a fresh process would."""

    def fresh_process(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "polyarith.cli", *args], capture_output=True, env=fresh_env(), timeout=60
        )
        return proc.returncode, proc.stdout, proc.stderr

    def in_process(self, capsys, args):
        try:
            code = main(list(args))
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    def test_bad_then_good_arguments_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [("pell", "three"), ("pell", "3"), ("teob", "4", "--pretty"), ("h1",)]
        seen = [self.in_process(capsys, args) for args in calls]
        assert [code for code, _, _ in seen] == [2, 0, 2, 2]
        assert seen == [self.fresh_process(args) for args in calls]

    def test_handlers_and_parser_looked_up_at_call_time(self, capsys, monkeypatch):
        import polyarith.cli as cli_module

        assert run(capsys, "pell", "3")[0] == 0

        def patched(ns):
            return {"patched": ns.d}, {}, {}, []

        def no_second_parser():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli_module, "cmd_pell", patched)
        monkeypatch.setattr(cli_module, "build_parser", no_second_parser)
        code, out, _ = run(capsys, "pell", "5")
        assert code == 0
        assert json.loads(out)["results"] == {"patched": 5}

    def test_every_subcommand_has_a_handler(self):
        import polyarith.cli as cli_module

        parser = cli_module.build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert len(sub.choices) == 11
        for name in sub.choices:
            assert callable(getattr(cli_module, "cmd_" + name.replace("-", "_"), None)), name


# imports polyarith.cli, runs at most one subcommand, and prints its exit code,
# the polyarith modules loaded and which of three standard modules are
LOAD_PROBE = """
import json, sys
import polyarith.cli as cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("polyarith.")),
                  [m for m in ("traceback", "datetime", "hashlib") if m in sys.modules]]))
"""
PARSE_LAYER = {"cli", "errors", "jsonio", "matrix"}


class TestModuleLoads:
    """Importing the CLI loads the parse layer only; each subcommand then
    loads the module it runs and nothing the others need."""

    def loads(self, *args):
        proc = subprocess.run(
            [sys.executable, "-c", LOAD_PROBE, *args], capture_output=True, text=True,
            env=fresh_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules, stdlib = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        return {m.split(".", 1)[1] for m in modules}, stdlib

    def test_bare_import_loads_the_parse_layer_only(self):
        modules, stdlib = self.loads()
        assert modules == PARSE_LAYER
        assert stdlib == []

    def test_pell_loads_quadratic_alone(self):
        modules, _ = self.loads("pell", "3")
        assert modules == PARSE_LAYER | {"quadratic"}

    def test_teob_loads_no_lie(self):
        modules, _ = self.loads("teob", "3")
        assert "arithmeticity" in modules
        assert "lie" not in modules

    @pytest.mark.parametrize(
        "command, options", [("h1", []), ("der-action", ["--element", "t"])], ids=["h1", "der-action"]
    )
    def test_group_commands_load_cohomology_only(self, gamma_spec, command, options):
        modules, _ = self.loads(command, gamma_spec, *options)
        assert "cohomology" in modules
        assert modules.isdisjoint({"lie", "arithmeticity", "semidirect"})

    @pytest.mark.parametrize("command", ["lie-cohomology", "koszul-invariants"])
    def test_lie_commands_load_lie_only(self, tmp_path, command):
        args = [write_json(tmp_path, "heis.json", HEISENBERG_DOC)]
        if command == "koszul-invariants":
            args.append(write_json(tmp_path, "torus.json", TORUS_DOC))
        modules, _ = self.loads(command, *args)
        assert "lie" in modules
        assert modules.isdisjoint({"cohomology", "arithmeticity", "semidirect", "quadratic", "presentations"})


class TestConsoleScript:
    def test_entry_point(self):
        exe = shutil.which("polyarith")
        if exe is None:
            cmd = [sys.executable, "-m", "polyarith.cli", "pell", "3"]
        else:
            cmd = [exe, "pell", "3"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"] == {"a": 2, "b": 1, "d": 3}


# ---------------------------------------------------------------------------
# stdout bytes of fixed invocations, pinned by sha256

FILIFORM5_DOC = {
    "dim": 5,
    "brackets": [
        {"i": 1, "j": 2, "k": 3, "c": "1"},
        {"i": 1, "j": 3, "k": 4, "c": "1"},
        {"i": 1, "j": 4, "k": 5, "c": "1"},
    ],
}
TORUS5 = {
    "rows": 5,
    "cols": 5,
    "entries": [[str(x) if i == j else "0" for j in range(5)] for i, x in enumerate([2, 3, 6, 12, 24])],
}
# exp(ad e1) on filiform(5), then a torus
INNER5_DOC = {
    "matrices": [
        {
            "rows": 5,
            "cols": 5,
            "entries": [
                ["1", "0", "0", "0", "0"],
                ["0", "1", "0", "0", "0"],
                ["0", "1", "1", "0", "0"],
                ["0", "1/2", "1", "1", "0"],
                ["0", "1/6", "1/2", "1", "1"],
            ],
        },
        TORUS5,
    ]
}
# TORUS5 conjugated by the exp(ad e1) of INNER5_DOC: semisimple, not diagonal
CONJUGATED5 = {
    "rows": 5,
    "cols": 5,
    "entries": [
        ["2", "0", "0", "0", "0"],
        ["0", "3", "0", "0", "0"],
        ["0", "-3", "6", "0", "0"],
        ["0", "3/2", "-6", "12", "0"],
        ["0", "-1/2", "3", "-12", "24"],
    ],
}
# (A, det A) on heisenberg(1) for the rotation A = [[0, -1], [1, 0]]: its
# minimal polynomial (x - 1)(x^2 + 1) does not split over Q
ROTATION3 = {"rows": 3, "cols": 3, "entries": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]}
PINNED_FILES = {
    "fil5": FILIFORM5_DOC,
    "inner5": INNER5_DOC,
    "torus5": {"matrices": [TORUS5]},
    "conjugated5": {"matrices": [CONJUGATED5]},
    "heis3": HEISENBERG_DOC,
    "rotation3": {"matrices": [ROTATION3]},
    "shear": {"rows": 3, "cols": 3, "entries": [["2", "1", "0"], ["0", "2", "0"], ["1/2", "0", "3"]]},
    "rotshear": {"rows": 3, "cols": 3, "entries": [["-1", "1", "0"], ["0", "-1", "0"], ["0", "0", "1"]]},
    # Z acting on Z^2 by -I: H^1 = (Z/2)^2, so the Smith form has torsion
    "negation": {
        "presentation": {"generators": ["t"], "relators": []},
        "action": {"rank": 2, "matrices": {"t": {"rows": 2, "cols": 2, "entries": [["-1", "0"], ["0", "-1"]]}}},
    },
}

# id -> (arguments, sha256 of the JSON stdout, sha256 of the --pretty stdout);
# "{name}" stands for an input file, written under its bare name.  The
# digests were recorded with the Fraction eliminations that the integer
# kernel in linalg.py replaced, so they pin its output bytes; h1-negation
# was recorded with the pivot-by-pivot Smith reduction that the one built
# from Hermite reductions replaced.
PINNED = {
    "teob-3": (
        ("teob", "3"),
        "8f002952801b857a9c375a9deea80a0c79c3281d43d12bdbac43cbe935a25fca",
        "dd18ea0d7234de7bb7b7a9e12f6e3ff5ead94618cc86ef9fcd5a84ec13fca984",
    ),
    "teob-661": (
        ("teob", "661"),
        "61e52f7ac21b15544c9863233bee132716d8fd26188e72cd074f620ec5608b37",
        "7c5c27fdbafe54f01b99c94c28851394c2517a79511bb154d5524b88ec424f56",
    ),
    "h1-gamma3": (
        ("h1", "{gamma3}"),
        "4104ed5824064c2231a139ab9dd541c16e0a8f464dd80292b427915057426686",
        "3c9e81a67d8f2f203f6f902c1a836130fe43b28e822b92b54e6027ba655df4fd",
    ),
    "h1-negation": (
        ("h1", "{negation}"),
        "ad90f8cff160347548ab6982c67ce6db50ca4392531b4683fa10350b8b158323",
        "ac28eb000265fec188512639b71711c62a6c35fcff01bc44d1acc4e6623e3d1f",
    ),
    "der-action-gamma3": (
        ("der-action", "{gamma3}", "--element", "A t A^-1"),
        "c82715fc176749f074fc219ac53df085a8c401112bd5a5a00236e2fc05660771",
        "1c353744ec4008c04b8271511ec525dd5d331db4a334ef5916687cce6c87fadb",
    ),
    "jordan-shear": (
        ("jordan", "{shear}"),
        "3cd4765401da32a2b808b8223da76e50f78f218438a186c3d50e1958ebc7257c",
        "7ec07fc00c88a4ee7a92aa7b68fe4741498459c3737d662faf268509fb085495",
    ),
    "arith-check-rotated-shear": (
        ("arith-check", "{rotshear}"),
        "7ce4afaf607e1d4616646b135efe697572617e9027b3d88497cece104a4911b5",
        "13b2d32e606746c450ccf9233fea33cb0697c01bc698de72a6edbda81a6cee8a",
    ),
    "lie-cohomology-automorphism": (
        ("lie-cohomology", "{fil5}", "--automorphism", "{inner5}"),
        "b54df2418d93c80b2c25f506e32c9fa403cf2b51a616f850729ba8428f9109cb",
        "f4e633bc2ac0dd277c654af1bb1930aeff2ff537fb1245cb07dfda81d1de433f",
    ),
    "koszul-invariants-torus": (
        ("koszul-invariants", "{fil5}", "{torus5}"),
        "66f11dfc25614d8b2e968bd62e74f34569725faa9caf0e58e691c7f4a72f6cd6",
        "b2136860f277ee7f45446d3dd80580e1a1918f74e7cd9e11f06bc22cf27bf3a8",
    ),
    # the rows below were recorded before the handlers shared one loader
    # and one verdict renderer
    "pell-3": (
        ("pell", "3"),
        "c8c8bfc9b5f34d253aaa5ae889ae133612abb4696ca8610ce1d6748acb75f600",
        "617316c79e9b731067820ccc55d3b166b70896d0ced4d315b63f74a5d1adb190",
    ),
    "gamma-epsilon-3": (
        ("gamma-epsilon", "3"),
        "3116bb13dad4f6bb1ed637e4f344ee45043f531db8df0f55b797df7ee998e551",
        "c07b851d2f02fc08b615e2ec938d13358ae4e13f7158b18a12457fee2a90804f",
    ),
    "derivations-gamma3": (
        ("derivations", "{gamma3}"),
        "89abe8a98139f71fb5670f9147ad00d5f863ab1fc2ac5f90d43fbd191628527a",
        "9bf5f372dcc19639a0165775cefb237a19e2f25b4b32ac88d13f96586144c2c6",
    ),
    "equivariant-units-gamma3": (
        ("equivariant-units", "{gamma3}", "--bound", "2"),
        "5c057f1596066235412902f6afb8bf854eaa1388f0c7fa54af66b6a3dfc56a7f",
        "67729ac49b7407a37619ef2296bbcdac8e3e52015ad07fe26f30d687ff9884fd",
    ),
    "lie-cohomology-fil5": (
        ("lie-cohomology", "{fil5}"),
        "5ed8fc375cdf83f092831d998da6731c8ff65133fb3e078b92b55b4fee8b81b2",
        "4e84e5b9863c4a1e673b5a67a47f07c8c2090003d4457e5435b0d84e9130fc46",
    ),
    "lie-cohomology-invariants": (
        ("lie-cohomology", "{fil5}", "--invariants", "{torus5}"),
        "83e92ba84409e4f1eaee4850aa383c47b9ac7eb63d3d2a1d20f818f967e00adc",
        "9bd22c04d432676dbf8050f1862f0d08102b4c5adff64bebb23ea52cc48a46cf",
    ),
    # the two rows below were recorded while non-diagonal sets still had
    # their fixed classes read off the class maps
    "koszul-invariants-conjugated-torus": (
        ("koszul-invariants", "{fil5}", "{conjugated5}"),
        "98ca603c71027c2bb5f5aa64e804313746388bcdc9f7cc13310d074e66696608",
        "b2136860f277ee7f45446d3dd80580e1a1918f74e7cd9e11f06bc22cf27bf3a8",
    ),
    "koszul-invariants-rotation": (
        ("koszul-invariants", "{heis3}", "{rotation3}"),
        "7f8cafbb32e6f2b4d8158da99ec818b92a26645490cb628bfb55b08cb751c0c4",
        "e19b0543b7b006a14e62e4c55da80f6313c970ab4b8e6e016fd73c061c13500d",
    ),
}


def pinned_stdout(capsys, tmp_path, key: str, pretty: bool) -> str:
    """Run one pinned invocation and return its stdout with the input
    directory masked, so the bytes do not depend on where files live."""
    code, out, _ = run(capsys, "gamma-epsilon", "3")
    assert code == 0
    (tmp_path / "gamma3.json").write_text(json.dumps(json.loads(out)["results"]))
    for name, doc in PINNED_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    args = [
        str(tmp_path / (a[1:-1] + ".json")) if a.startswith("{") else a
        for a in PINNED[key][0]
    ]
    if pretty:
        args.append("--pretty")
    code, out, _ = run(capsys, *args)
    assert code == 0
    return out.replace(str(tmp_path) + os.sep, "")


@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_stdout_bytes(capsys, tmp_path, key, pretty):
    out = pinned_stdout(capsys, tmp_path, key, pretty)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == PINNED[key][2 if pretty else 1]


# d = 10^9 + 7: a unit of about 21 000 bits, past the 4 300-digit default
# cap; the digests were recorded when fundamental_pell tested the Pell
# equation on every convergent instead of at the end of the period
PINNED_LARGE_D = {
    "pell": "5c552d547d68d87d8d13df0a5fa2536ad26f8df6cd558609ad05456c03e8be6d",
    "gamma-epsilon": "883b004d81e8fd751762852bee73bbcbf79c1499b40189d9b45ee66fc04d7f04",
    "teob": "54885b8dac125ecf1890b2f0e60c8d996c8d1a69ec36cf762f07b0d97eef0bcc",
}


@pytest.mark.parametrize("command", sorted(PINNED_LARGE_D))
def test_pinned_stdout_bytes_at_large_d(capsys, command):
    code, out, err = run(capsys, command, "1000000007")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_LARGE_D[command]


# sha256 of the teob stdout of every nonsquare d from 2 to 399, in order,
# concatenated; recorded when jordan_chevalley ran Newton's iteration on
# matrices, before it moved to polynomials modulo the minimal polynomial
TEOB_SWEEP_BELOW_400 = "53b89d4e8c5be849bbfae549774d1d81384d46b63ca0b316c7d2d7a82b49999e"


def test_pinned_teob_sweep_below_400(capsys):
    digest = hashlib.sha256()
    for d in range(2, 400):
        if math.isqrt(d) ** 2 != d:
            code, out, err = run(capsys, "teob", str(d))
            assert (code, err) == (0, ""), d
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == TEOB_SWEEP_BELOW_400


# sha256 of the h1 and der-action --element g1 stdout, JSON then --pretty,
# over one seeded group document per size of lattice_h1_actions(), in
# order; recorded when DerivationLattice ran hnf on every basis and the
# word products started from the identity matrix
LATTICE_H1_DIGEST = "671267dbbd42c4a6150fa6c16b7cae592cb08137ac86bc0151f7916caa82ae50"


def test_pinned_lattice_h1_documents(capsys, tmp_path):
    digest = hashlib.sha256()
    for t, (pres, action) in enumerate(lattice_h1_actions()):
        doc = {
            "presentation": presentation_to_json(pres),
            "action": action_to_json(action, pres),
            "engine": "free_abelian",
        }
        spec = tmp_path / f"lattice{t}.json"
        spec.write_text(json.dumps(doc))
        for args in (("h1", str(spec)), ("der-action", str(spec), "--element", "g1")):
            for extra in ((), ("--pretty",)):
                code, out, err = run(capsys, *args, *extra)
                assert (code, err) == (0, ""), (t, args)
                digest.update(out.replace(str(tmp_path) + os.sep, "").encode("utf-8"))
    assert digest.hexdigest() == LATTICE_H1_DIGEST
