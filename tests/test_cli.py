import json

import pytest

from contactsurgery.cli import main
from contactsurgery.diagramio import (
    open_book_from_dict,
    open_book_to_dict,
    parse_diagram_file,
    presentation_from_dict,
    presentation_to_dict,
)
from contactsurgery.errors import DiagramFormatError, InvalidCoefficient
from contactsurgery.expansion import all_negative_presentation, expand
from contactsurgery.legendrian import LegendrianKnot


UNKNOT_N2 = {
    "components": [
        {"tb": -1, "rot": 0, "coeff": "+1", "role": "originalPlusOne"},
        {"tb": -2, "rot": -1, "coeff": "-1", "role": "chainLink",
         "stab_signs": ["-"]},
    ]
}


@pytest.fixture
def diagram_file(tmp_path):
    path = tmp_path / "unknot-n2.json"
    path.write_text(json.dumps(UNKNOT_N2))
    return str(path)


def test_round_trip_presentations():
    knot = LegendrianKnot(-1, 0)
    for coeff in (1, 2, 3, -2):
        for presentation in expand(knot, coeff):
            data = presentation_to_dict(presentation)
            parsed = presentation_from_dict(data)
            assert parsed == presentation


def test_parse_diagram_file_matches_fixture(diagram_file):
    presentation = parse_diagram_file(diagram_file)
    assert presentation == all_negative_presentation(LegendrianKnot(-1, 0), 2)


def test_shipped_fixture_gives_worked_example(capsys):
    import pathlib

    fixture = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "unknot-n2.json"
    from contactsurgery.homology import linking_matrix

    presentation = parse_diagram_file(str(fixture))
    assert linking_matrix(presentation).entries == ((0, -1), (-1, -3))
    assert main(["d3", "--file", str(fixture)]) == 0
    assert capsys.readouterr().out.strip() == "-1/2"


def test_parse_rejects_zero_coefficient():
    bad = {"components": [{"tb": -1, "rot": 0, "coeff": "0"}]}
    with pytest.raises(InvalidCoefficient):
        presentation_from_dict(bad)


def test_parse_rejects_two_plus_ones():
    bad = {
        "components": [
            {"tb": -1, "rot": 0, "coeff": "+1"},
            {"tb": -1, "rot": 0, "coeff": "+1"},
        ]
    }
    with pytest.raises(DiagramFormatError) as info:
        presentation_from_dict(bad)
    assert "components" in str(info.value)


def test_parse_reports_field_paths():
    with pytest.raises(DiagramFormatError) as info:
        presentation_from_dict({"components": [{"tb": "x", "rot": 0, "coeff": "+1"}]})
    assert "components[0]" in str(info.value)


def test_open_book_round_trip():
    data = {
        "surface": {
            "genus": 0,
            "boundary": 4,
            "pairing": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            "boundary_classes": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        },
        "alphabet": {"kappa": [1, 0, 0], "sigma1": [0, 1, 0]},
        "word": [["sigma1", "+"], ["kappa", "-"]],
    }
    surface, letters = open_book_from_dict(data)
    assert open_book_from_dict(open_book_to_dict(surface, letters)) == (
        surface,
        letters,
    )


def test_cli_d3(capsys, diagram_file):
    assert main(["d3", "--file", diagram_file]) == 0
    assert capsys.readouterr().out.strip() == "-1/2"


def test_cli_homology(capsys, diagram_file):
    assert main(["homology", "--file", diagram_file]) == 0
    out = capsys.readouterr().out
    assert "|H1| = 1" in out
    assert "signature = 0" in out
    assert "euler characteristic = 3" in out


def test_cli_homology_json_is_deterministic(capsys, diagram_file):
    assert main(["homology", "--file", diagram_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["homology", "--file", diagram_file, "--json"]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["determinant"] == -1


def test_cli_expand(capsys):
    assert main(["expand", "--tb", "-1", "--rot", "0", "--coeff", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 presentation(s)")
    assert "originalPlusOne" in out


def test_cli_expand_json_round_trips(capsys):
    assert main(
        ["expand", "--tb", "-1", "--rot", "0", "--coeff", "-2", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["presentations"]) == 2
    for data in payload["presentations"]:
        presentation_from_dict(data)


def test_cli_expand_negative_fraction_equals_form(capsys):
    assert main(["expand", "--tb", "-1", "--rot", "0", "--coeff=-7/2"]) == 0
    assert capsys.readouterr().out.startswith("4 presentation(s)")


def test_cli_zero_coefficient_exit_code(capsys):
    assert main(["expand", "--tb", "-1", "--rot", "0", "--coeff", "0"]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_d3_infinite_homology_exit_code(tmp_path, capsys):
    path = tmp_path / "s1s2.json"
    path.write_text(
        json.dumps({"components": [{"tb": -1, "rot": 0, "coeff": "+1"}]})
    )
    assert main(["d3", "--file", str(path)]) == 1


def test_cli_missing_file_exit_code(capsys):
    assert main(["d3", "--file", "/nonexistent/diagram.json"]) == 2


@pytest.mark.parametrize("verb", ["d3", "homology", "openbook"])
def test_cli_unreadable_file_exit_code(tmp_path, capsys, verb):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"components": [], "note": "\xe9"}')
    for path in (tmp_path, undecodable):
        assert main([verb, "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and "Traceback" not in captured.err


def test_parse_rejects_a_link_that_is_not_its_stated_stabilization(tmp_path, capsys):
    bad = {
        "components": [
            {"tb": -1, "rot": 0, "coeff": "+1"},
            {"tb": -7, "rot": 4, "coeff": "-1", "stab_signs": ["-"]},
        ]
    }
    with pytest.raises(DiagramFormatError) as info:
        presentation_from_dict(bad)
    assert "components[1]" in str(info.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["d3", "--file", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_parse_rejects_even_tb_plus_rot():
    bad = {"components": [{"tb": -1, "rot": 1, "coeff": "-1"}]}
    with pytest.raises(DiagramFormatError) as info:
        presentation_from_dict(bad)
    assert "components[0]" in str(info.value)
    with pytest.raises(DiagramFormatError):
        presentation_from_dict({"components": [{"tb": -1, "rot": 0, "coeff": "-1",
                                                "stab_signs": 5}]})


def test_cli_classify(capsys):
    assert main(["classify", "--knot", "C(2,3;T(2,3))"]) == 0
    out = capsys.readouterr().out
    assert "tight for r >= 8 [max-self-linking]" in out


def test_cli_classify_unknown_knot(capsys):
    assert main(["classify", "--knot", "nope"]) == 2


def test_cli_classify_json(capsys):
    assert main(["classify", "--knot", "T(2,3)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["knot"] == "T(2,3)"
    assert {rng["anchor"] for rng in payload["ranges"]} == {2}
    assert payload["sl_tb_gap"] == 0


def test_cli_catalog_json(capsys):
    assert main(["catalog", "--knot", "C(2,3;T(2,3))", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_sl"] == 7
    assert payload["max_tb"] == 6


def test_cli_ledger_json(capsys):
    assert main(["ledger", "--knot", "T(2,3)", "--tb", "1", "--json",
                 "--window", "-1", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {row["framing"]: row["status"] for row in payload["window"]}
    assert rows["f_S+1"] == "Zero"
    assert rows["f_S+2"] == "NonZero"
    assert payload["inverse_limit"] == "NotAllZero"


def test_cli_catalog(capsys):
    assert main(["catalog", "--knot", "T(2,3)"]) == 0
    out = capsys.readouterr().out
    assert "genus: 1" in out
    assert "max tb: 1" in out


def test_cli_catalog_override(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(
        json.dumps(
            [{"name": "only", "genus": 1, "slice_genus": 1, "max_tb": -1,
              "max_sl": 1, "flags": [], "provenance": ""}]
        )
    )
    assert main(["catalog", "--knot", "only", "--catalog", str(path)]) == 0
    assert main(["catalog", "--knot", "T(2,3)", "--catalog", str(path)]) == 2


def test_cli_ledger_window(capsys):
    assert main(["ledger", "--knot", "C(2,3;T(2,3))", "--tb", "6", "--rot", "-1",
                 "--sl", "7", "--binding"]) == 0
    out = capsys.readouterr().out
    assert "f_S+6  Zero  [R1]" in out
    assert "f_S+7  Unknown" in out
    assert "f_S+8  NonZero  [R5]" in out
    assert "inverse limit: NotAllZero" in out


def test_cli_ledger_facts_contradiction(tmp_path, capsys):
    facts = tmp_path / "facts.json"
    facts.write_text(
        json.dumps(
            [
                {"offset": 4, "status": "NonZero", "rule": "file-a"},
                {"offset": 5, "status": "Zero", "rule": "file-b"},
            ]
        )
    )
    assert main(["ledger", "--facts", str(facts)]) == 3
    assert "contradiction" in capsys.readouterr().err


def test_cli_openbook(tmp_path, capsys):
    path = tmp_path / "book.json"
    path.write_text(
        json.dumps(
            {
                "surface": {
                    "genus": 1,
                    "boundary": 2,
                    "pairing": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                    "boundary_classes": [[0, 0, 1], [0, 0, -1]],
                },
                "alphabet": {"a": [1, 0, 0], "b": [0, 1, 0], "bdry": [0, 0, 1]},
                "word": [["a", "+"], ["b", "-"]],
            }
        )
    )
    assert main(["openbook", "--file", str(path), "--action"]) == 0
    out = capsys.readouterr().out
    assert "H1 rank 3" in out
    assert main(["openbook", "--file", str(path), "--cap", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["surface"]["boundary"] == 1


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    for code in ("A1", "A5", "A10"):
        assert f"{code} PASS" in out
