import hashlib
import json
from fractions import Fraction

import pytest

from polyarith import jsonio
from polyarith.errors import SchemaError
from polyarith.jsonio import (
    GroupDocument,
    action_to_json,
    group_document_to_json,
    lie_algebra_to_json,
    load_document,
    loads_document,
    matrix_to_json,
    parse_action,
    parse_element_text,
    parse_group_document,
    parse_lie_algebra,
    parse_matrices_list,
    parse_matrix,
    parse_presentation,
    parse_scalar,
    parse_word,
    poly_to_json,
    presentation_to_json,
    render_scalar,
    scalar_to_json,
    vector_to_json,
    word_to_json,
)
from polyarith.lie import heisenberg, nilpotent_catalog
from polyarith.linalg import Matrix
from polyarith.polynomials import Poly
from polyarith.presentations import dihedral_presentation
from polyarith.semidirect import build_gamma_epsilon


class TestScalars:
    def test_render(self):
        assert render_scalar(3) == "3"
        assert render_scalar(-3) == "-3"
        assert render_scalar(Fraction(-3, 7)) == "-3/7"
        assert render_scalar(Fraction(4, 2)) == "2"

    def test_to_json_keeps_integers(self):
        assert scalar_to_json(5) == 5
        assert scalar_to_json(Fraction(1, 2)) == "1/2"

    def test_parse_accepts_canonical(self):
        assert parse_scalar(7, "") == 7
        assert parse_scalar("7", "") == 7
        assert parse_scalar("-3/7", "") == Fraction(-3, 7)

    def test_parse_keeps_integers_as_int(self):
        for value in (7, -12, 0, 10**30 + 1):
            got = parse_scalar(str(value), "")
            assert type(got) is int and got == value
        assert type(parse_scalar("-3/7", "")) is Fraction
        assert render_scalar(True) == "1"

    @pytest.mark.parametrize(
        "bad",
        ["2/4", "+3", "03", "1/1", "-0", "3/-7", "a", "1.5", "", "7/0"],
    )
    def test_parse_rejects_non_canonical_strings(self, bad):
        with pytest.raises(SchemaError):
            parse_scalar(bad, "/x")

    def test_parse_rejects_bool_and_float(self):
        with pytest.raises(SchemaError):
            parse_scalar(True, "/x")
        with pytest.raises(SchemaError):
            parse_scalar(1.5, "/x")

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("-0", "rational '-0' is not in canonical form"),
            ("+3", "malformed rational string '+3'"),
            ("03", "rational '03' is not in canonical form"),
            ("1_000", "malformed rational string '1_000'"),
            (" 3", "malformed rational string ' 3'"),
            ("3 ", "malformed rational string '3 '"),
            ("3/1", "rational '3/1' is not in canonical form"),
            ("\u0663", "rational '\u0663' is not in canonical form"),
            (True, "expected a rational, got a boolean"),
            (False, "expected a rational, got a boolean"),
            (1.5, "floating point numbers are not accepted"),
            (2.0, "floating point numbers are not accepted"),
            (None, "expected a rational, got NoneType"),
        ],
    )
    def test_integer_fast_path_keeps_messages(self, bad, message):
        # int() accepts all of the strings above, or fails on them, so they
        # must leave the fast path and meet the same checks as before
        with pytest.raises(SchemaError) as info:
            parse_scalar(bad, "/x")
        assert str(info.value) == f"/x: {message}"
        doc = {"rows": 1, "cols": 2, "entries": [["1", bad]]}
        with pytest.raises(SchemaError) as info:
            parse_matrix(doc, "/m")
        assert str(info.value) == f"/m/entries/0/1: {message}"

    def test_integer_fast_path_values(self):
        doc = {"rows": 2, "cols": 3, "entries": [["0", "-12", 5], ["1/2", str(10**40), "-7/3"]]}
        m = parse_matrix(doc, "/m")
        assert m.entries == ((0, -12, 5), (Fraction(1, 2), 10**40, Fraction(-7, 3)))
        assert [type(x) for x in m.entries[0]] == [int, int, int]

    def test_canonical_integers_build_no_pointer(self, monkeypatch):
        monkeypatch.setattr(jsonio, "parse_scalar", lambda obj, path: pytest.fail(path))
        doc = {"rows": 1, "cols": 3, "entries": [["0", "-12", 5]]}
        assert parse_matrix(doc, "/m").entries == ((0, -12, 5),)

    def test_error_carries_path(self):
        with pytest.raises(SchemaError) as info:
            parse_scalar("2/4", "/matrix/entries/0/1")
        assert info.value.path == "/matrix/entries/0/1"
        assert "/matrix/entries/0/1" in str(info.value)


class TestMatrices:
    def test_roundtrip(self):
        m = Matrix([[1, Fraction(-3, 7)], [0, 2]])
        doc = matrix_to_json(m)
        assert doc == {"rows": 2, "cols": 2, "entries": [["1", "-3/7"], ["0", "2"]]}
        assert parse_matrix(doc, "") == m

    def test_all_entries_are_strings(self):
        doc = matrix_to_json(Matrix.identity(2))
        assert all(isinstance(x, str) for row in doc["entries"] for x in row)

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError) as info:
            parse_matrix({"rows": 2, "cols": 1, "entries": [["1"]]}, "/m")
        assert info.value.path == "/m/entries"

    def test_row_width_mismatch(self):
        with pytest.raises(SchemaError) as info:
            parse_matrix(
                {"rows": 2, "cols": 2, "entries": [["1", "2"], ["3"]]}, "/m"
            )
        assert info.value.path == "/m/entries/1"

    def test_unknown_field(self):
        with pytest.raises(SchemaError) as info:
            parse_matrix(
                {"rows": 1, "cols": 1, "entries": [["1"]], "extra": 0}, "/m"
            )
        assert info.value.path == "/m/extra"

    def test_matrices_list_roundtrip(self):
        mats = [Matrix.identity(2), Matrix([[0, 1], [1, 0]])]
        doc = {"matrices": [matrix_to_json(m) for m in mats]}
        assert parse_matrices_list(doc, "") == mats


class TestWordsAndPresentations:
    def test_word_roundtrip(self):
        pres = dihedral_presentation()
        w = pres.word([("A", 2), ("t", -1)])
        doc = word_to_json(w, pres)
        assert doc == [["A", 1], ["A", 1], ["t", -1]]
        assert parse_word(doc, "", pres) == w

    def test_word_with_collapsed_exponent(self):
        pres = dihedral_presentation()
        assert parse_word([["A", 3]], "", pres) == ((0, 1), (0, 1), (0, 1))

    def test_word_rejects_unknown_generator_and_zero_exponent(self):
        pres = dihedral_presentation()
        with pytest.raises(SchemaError) as info:
            parse_word([["x", 1]], "/w", pres)
        assert info.value.path == "/w/0/0"
        with pytest.raises(SchemaError) as info:
            parse_word([["A", 0]], "/w", pres)
        assert info.value.path == "/w/0/1"

    def test_presentation_roundtrip(self):
        pres = dihedral_presentation()
        assert parse_presentation(presentation_to_json(pres), "") == pres

    def test_presentation_rejects_bad_names(self):
        with pytest.raises(SchemaError):
            parse_presentation({"generators": ["1a"], "relators": []}, "")
        with pytest.raises(SchemaError):
            parse_presentation({"generators": ["a", "a"], "relators": []}, "")

    def test_action_roundtrip(self):
        ge = build_gamma_epsilon(3)
        pres = ge.group.presentation
        doc = action_to_json(ge.group.action, pres)
        assert set(doc["matrices"]) == {"A", "t"}
        assert parse_action(doc, "", pres) == ge.group.action

    def test_action_missing_generator(self):
        pres = dihedral_presentation()
        doc = {"rank": 1, "matrices": {"A": matrix_to_json(Matrix([[1]]))}}
        with pytest.raises(SchemaError) as info:
            parse_action(doc, "/action", pres)
        assert info.value.path == "/action/matrices"

    def test_action_unknown_generator(self):
        pres = dihedral_presentation()
        doc = {
            "rank": 1,
            "matrices": {
                "A": matrix_to_json(Matrix([[1]])),
                "t": matrix_to_json(Matrix([[1]])),
                "x": matrix_to_json(Matrix([[1]])),
            },
        }
        with pytest.raises(SchemaError) as info:
            parse_action(doc, "", pres)
        assert info.value.path == "/matrices/x"


class TestGroupDocuments:
    def test_roundtrip_with_metadata(self):
        ge = build_gamma_epsilon(3)
        doc = GroupDocument(
            ge.group.presentation,
            ge.group.action,
            "dihedral",
            {"d": 3, "epsilon": {"a": 2, "b": 1, "d": 3}},
        )
        obj = group_document_to_json(doc)
        back = parse_group_document(obj)
        assert back == doc

    def test_engine_tag_validated(self):
        ge = build_gamma_epsilon(3)
        obj = group_document_to_json(
            GroupDocument(ge.group.presentation, ge.group.action, None, {})
        )
        obj["engine"] = "sporadic"
        with pytest.raises(SchemaError) as info:
            parse_group_document(obj)
        assert info.value.path == "/engine"

    def test_unknown_top_level_field(self):
        ge = build_gamma_epsilon(3)
        obj = group_document_to_json(
            GroupDocument(ge.group.presentation, ge.group.action, None, {})
        )
        obj["comment"] = "hi"
        with pytest.raises(SchemaError) as info:
            parse_group_document(obj)
        assert info.value.path == "/comment"


class TestLieAlgebraDocuments:
    def test_roundtrip_one_based(self):
        h = heisenberg()
        doc = lie_algebra_to_json(h)
        assert doc == {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
        back = parse_lie_algebra(doc)
        assert back.dim == 3
        assert back.bracket_basis(0, 1) == (0, 0, 1)

    def test_catalog_roundtrip(self):
        for algebra in nilpotent_catalog().values():
            back = parse_lie_algebra(lie_algebra_to_json(algebra))
            assert back.dim == algebra.dim
            assert back.bracket_table() == algebra.bracket_table()

    def test_index_validation(self):
        with pytest.raises(SchemaError):
            parse_lie_algebra(
                {"dim": 3, "brackets": [{"i": 2, "j": 1, "k": 3, "c": "1"}]}
            )
        with pytest.raises(SchemaError):
            parse_lie_algebra(
                {"dim": 3, "brackets": [{"i": 0, "j": 2, "k": 3, "c": "1"}]}
            )
        with pytest.raises(SchemaError):
            parse_lie_algebra(
                {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 4, "c": "1"}]}
            )

    def test_duplicate_component(self):
        with pytest.raises(SchemaError) as info:
            parse_lie_algebra(
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 1, "j": 2, "k": 3, "c": "1"},
                        {"i": 1, "j": 2, "k": 3, "c": "2"},
                    ],
                }
            )
        assert "duplicate" in info.value.message


class TestSmallHelpers:
    def test_poly_to_json(self):
        assert poly_to_json(Poly.of(1, -4, 1)) == {
            "coefficients": [1, -4, 1],
            "text": "x^2 - 4*x + 1",
        }

    def test_vector_to_json(self):
        assert vector_to_json((1, Fraction(1, 2))) == [1, "1/2"]

    def test_parse_element_text(self):
        pres = dihedral_presentation()
        assert parse_element_text("A t A^-1", pres, "") == (
            (0, 1),
            (1, 1),
            (0, -1),
        )
        assert parse_element_text("A^3", pres, "") == ((0, 1),) * 3
        assert parse_element_text("", pres, "") == ()
        with pytest.raises(SchemaError):
            parse_element_text("B", pres, "")
        with pytest.raises(SchemaError):
            parse_element_text("A^x", pres, "")
        with pytest.raises(SchemaError):
            parse_element_text("A^0", pres, "")


class TestDocumentLoading:
    def test_floats_rejected_at_parse_time(self):
        with pytest.raises(SchemaError):
            loads_document('{"x": 1.5}')
        with pytest.raises(SchemaError):
            loads_document('{"x": NaN}')

    def test_invalid_json(self):
        with pytest.raises(SchemaError) as info:
            loads_document("{")
        assert "invalid JSON" in info.value.message

    def test_load_document_digest(self, tmp_path):
        payload = b'{"rows": 1, "cols": 1, "entries": [["1"]]}'
        target = tmp_path / "m.json"
        target.write_bytes(payload)
        obj, digest = load_document(str(target))
        assert obj == json.loads(payload)
        assert digest == hashlib.sha256(payload).hexdigest()

    def test_load_document_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_document(str(tmp_path / "absent.json"))
