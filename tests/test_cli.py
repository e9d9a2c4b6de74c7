import json
import shutil
import subprocess
import sys

import pytest

from polyarith import __version__
from polyarith.cli import main
from polyarith.errors import InternalError
from polyarith.jsonio import parse_group_document
from polyarith.linalg import Matrix


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    target = tmp_path / name
    target.write_text(json.dumps(obj))
    return str(target)


HEISENBERG_DOC = {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
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

    def test_seed_echoed(self, capsys):
        _, out, _ = run(capsys, "pell", "3", "--seed", "11")
        report = json.loads(out)
        assert report["inputs"]["parameters"]["seed"] == 11

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
        import polyarith.cli as cli_module

        def boom(d):
            raise InternalError("forced for the exit-code test")

        monkeypatch.setattr(cli_module, "non_arithmeticity_report", boom)
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

    def test_keyboard_interrupt_not_caught(self, monkeypatch):
        import polyarith.cli as cli_module

        def interrupt(ns):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "cmd_pell", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["pell", "3"])


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
