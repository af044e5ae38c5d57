import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from contactsurgery import cli, errors, expansion
from contactsurgery.catalog import Catalog, build_seed_entries
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


@pytest.mark.parametrize("coeff", ["1", "3", "-2", "-7/2", "-9/7", "7/2", "-1000/7"])
def test_cli_expand_json_is_written_as_one_encoding(capsys, coeff):
    # Written presentation by presentation, in the bytes of one json.dumps.
    knot = LegendrianKnot(-3, 2)
    assert main(["expand", "--tb", "-3", "--rot", "2", f"--coeff={coeff}", "--json"]) == 0
    presentations = [presentation_to_dict(p) for p in expand(knot, Fraction(coeff))]
    assert capsys.readouterr().out == json.dumps(
        {"presentations": presentations}, indent=2, sort_keys=True) + "\n"
    assert main(["expand", "--tb", "-3", "--rot", "2", f"--coeff={coeff}", "--json",
                 "--limit", "2"]) == 0
    assert capsys.readouterr().out == json.dumps(
        {"presentations": presentations[:2]}, indent=2, sort_keys=True) + "\n"


def test_cli_expand_limit(capsys):
    argv = ["expand", "--tb", "-1", "--rot", "0", "--coeff=-7/2"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    assert main([*argv, "--limit", "2"]) == 0
    limited = capsys.readouterr().out
    # The count line, then the first two presentations of two links each.
    assert limited.startswith("4 presentation(s)\npresentation 0:")
    assert limited == "".join(whole.splitlines(keepends=True)[:7])
    assert main([*argv, "--limit", "10"]) == 0
    assert capsys.readouterr().out == whole
    assert main([*argv, "--limit", "0", "--json"]) == 0
    assert capsys.readouterr().out == '{\n  "presentations": []\n}\n'
    assert main([*argv, "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --limit -1: must not be negative\n"


@pytest.mark.parametrize("coeff, count", [
    ("1", 1), ("-7/2", 4), ("-1000/7", 858), ("-1e-6", 1), ("-1e400", 10**400)])
def test_cli_expand_count(capsys, coeff, count):
    assert main(["expand", "--count", "--tb", "-1", "--rot", "0", f"--coeff={coeff}"]) == 0
    assert capsys.readouterr().out == f"{count}\n"


def test_cli_expand_count_of_a_huge_expansion_is_fast():
    # One link with 10**400 - 1 stabilizations: counted, never built.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "contactsurgery.cli", "expand", "--count", "--tb", "-1",
         "--rot", "0", "--coeff=-1e400"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{10**400}\n"


@pytest.mark.parametrize("flags", [[], ["--json"], ["--limit", "1"], ["--json", "--limit", "0"]])
def test_cli_expand_refuses_to_print_a_link_past_the_stabilization_cap(
        monkeypatch, capsys, flags):
    monkeypatch.setattr(expansion, "TERMS_CAP", 10)
    # -11: one link with 10 stabilizations, at the cap.
    assert main(["expand", "--tb", "-1", "--rot", "0", "--coeff=-11", *flags]) == 0
    capsys.readouterr()
    assert main(["expand", "--tb", "-1", "--rot", "0", "--coeff=-12", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: --coeff -12: a chain link has more than 10 stabilizations to print; "
        "--count prints the number of presentations\n")
    assert main(["expand", "--tb", "-1", "--rot", "0", "--coeff=-12", "--count", *flags]) == 0
    assert capsys.readouterr().out == "12\n"


@pytest.mark.parametrize("argv", [
    ["ledger", "--window", "0", "9" * 4000],
    ["ledger", "--window", "9" * 4000, "0"],
    ["ledger", "--tb", "8" * 4000, "--rot", "0"],
    ["expand", "--tb", "8" * 4000, "--rot", "0", "--coeff", "2"],
], ids=["window-width", "window-order", "ledger-even", "expand-even"])
def test_cli_messages_quote_long_integers(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "9" * 4000 not in captured.err and "8" * 4000 not in captured.err
    assert len(captured.err.encode()) < 300


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


@pytest.mark.parametrize("argv", [
    ["catalog", "--list"],
    ["expand", "--tb", "-1", "--rot", "0", "--coeff", "2", "--knot", "unknot"],
    ["classify", "--knot", "unknot"],
])
def test_cli_unreadable_catalog_exit_code(tmp_path, capsys, argv):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'[{"name": "\xe9", "genus": 0, "slice_genus": 0}]')
    for path in (tmp_path, undecodable):
        assert main(argv + ["--catalog", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, template", [
    (["d3", "--file"], '{"components": [{"tb": VALUE, "rot": 0, "coeff": "+1"}]}'),
    (["openbook", "--file"], '{"surface": {"genus": VALUE}}'),
    (["ledger", "--facts"], '[{"offset": VALUE, "status": "Zero"}]'),
    (["catalog", "--list", "--catalog"], '[{"name": "k", "genus": VALUE}]'),
], ids=["diagram", "openbook", "facts", "catalog"])
@pytest.mark.parametrize("value", [
    "9" * (sys.get_int_max_str_digits() + 1),  # past the int-to-str limit
    "[" * 100_000 + "]" * 100_000,  # past the recursion limit
    "01",  # not JSON
], ids=["long-integer", "deep-nesting", "malformed"])
def test_cli_every_json_reader_rejects_what_json_cannot_decode(
    tmp_path, capsys, argv, template, value
):
    path = tmp_path / "input.json"
    path.write_text(template.replace("VALUE", value))
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {path}: ")
    assert len(captured.err) < 200


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


@pytest.mark.parametrize("index, role", [
    (0, "chainLink"),  # on the +1 component
    (1, "originalPlusOne"),  # on a -1 component
    (1, "pushoff"),  # not a role
])
def test_parse_rejects_a_role_its_coefficient_does_not_give(tmp_path, capsys, index, role):
    bad = json.loads(json.dumps(UNKNOT_N2))
    bad["components"][index]["role"] = role
    with pytest.raises(DiagramFormatError, match=rf"components\[{index}\]\.role: "):
        presentation_from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["d3", "--file", str(path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["false", "no", 0, 1, [], None])
def test_parse_reads_overtwisted_only_as_a_boolean(tmp_path, capsys, value):
    for flag in (True, False):
        parsed = presentation_from_dict(dict(UNKNOT_N2, overtwisted=flag))
        assert parsed.overtwisted is flag
    bad = dict(UNKNOT_N2, overtwisted=value)
    with pytest.raises(DiagramFormatError, match=r"^diagram\.overtwisted: must be a boolean$"):
        presentation_from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["d3", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}.overtwisted: must be a boolean\n"


@pytest.mark.parametrize("index, value", [
    (0, True), (1, True), (1, False), (0, 1.0), (1, -1.0), (0, "1"), (1, " -1"), (0, 2),
    (1, None), (0, [1]),
])
def test_parse_reads_a_coefficient_only_as_plus_or_minus_one(tmp_path, capsys, index, value):
    for plus, minus in (("+1", "-1"), (1, -1)):
        good = json.loads(json.dumps(UNKNOT_N2))
        good["components"][0]["coeff"], good["components"][1]["coeff"] = plus, minus
        assert presentation_from_dict(good) == presentation_from_dict(UNKNOT_N2)
    bad = json.loads(json.dumps(UNKNOT_N2))
    bad["components"][index]["coeff"] = value
    message = f"contact coefficient must be +1 or -1, got {value!r}"
    with pytest.raises(InvalidCoefficient, match=rf"components\[{index}\]\.coeff: "):
        presentation_from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["d3", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}.components[{index}].coeff: {message}\n"


def test_an_overtwisted_presentation_round_trips():
    presentation = presentation_from_dict(dict(UNKNOT_N2, overtwisted=True))
    data = presentation_to_dict(presentation)
    assert data["overtwisted"] is True
    assert presentation_from_dict(data) == presentation
    assert "overtwisted" not in presentation_to_dict(presentation_from_dict(UNKNOT_N2))


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


def test_cli_classify_a_knot_no_rule_certifies(capsys):
    assert main(["classify", "--knot", "unknot"]) == 0
    assert capsys.readouterr().out == (
        "unknot: no tight range certified by the built-in rules\nmax_sl - max_tb = 0\n")


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


@pytest.mark.parametrize("argv, message", [
    (["catalog"], "one of the arguments --knot --list is required"),
    (["catalog", "--knot", "T(2,3)", "--list"], "not allowed with argument"),
])
def test_cli_catalog_takes_exactly_one_of_knot_and_list(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _modules_loaded_by(*args) -> set[str]:
    """The modules a fresh `python -S -X importtime` process imports to run
    `args`, read from the importtime report on stderr."""
    root = pathlib.Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines() if line.startswith("import time:")
    }


def test_cli_import_loads_neither_acceptance_nor_importlib_resources():
    loaded = _modules_loaded_by("-c", "import contactsurgery.cli")
    assert {m for m in loaded if m.startswith("contactsurgery")} == {
        "contactsurgery", "contactsurgery.cli", "contactsurgery.errors"}
    assert not loaded & {"random", "importlib.resources", "typing"}


@pytest.mark.parametrize("argv, unloaded", [
    (["d3", "--file", "fixtures/unknot-n2.json"],
     ("ledger", "openbook", "acceptance", "catalog")),
    (["homology", "--file", "fixtures/unknot-n2.json"],
     ("ledger", "openbook", "acceptance", "catalog")),
    (["catalog", "--list"],
     ("expansion", "homology", "linalg", "diagramio", "openbook", "ledger")),
    (["openbook", "--file", "fixtures/torus-book.json"], ("ledger",)),
    (["ledger", "--window", "0", "1"],
     ("catalog", "expansion", "homology", "linalg", "diagramio", "acceptance", "openbook")),
    (["classify", "--knot", "T(2,3)"],
     ("openbook", "expansion", "homology", "linalg", "diagramio", "acceptance")),
], ids=["d3", "homology", "catalog", "openbook", "ledger", "classify"])
def test_cli_verb_loads_only_the_modules_it_uses(argv, unloaded):
    loaded = _modules_loaded_by("-m", "contactsurgery.cli", *argv)
    assert "contactsurgery.errors" in loaded
    assert not loaded & {f"contactsurgery.{m}" for m in unloaded}


# Values past Python's 4,300-digit int-to-str limit, and an even one under it.
_LONG_INTEGER = "9" * 5000
_LONG_EVEN = "8" * 4000


@pytest.mark.parametrize("argv, value", [
    (["expand", "--tb", _LONG_INTEGER, "--rot", "0", "--coeff", "2"], _LONG_INTEGER),
    (["expand", "--tb", "-1", "--rot", _LONG_INTEGER, "--coeff", "2"], _LONG_INTEGER),
    (["ledger", "--window", "0", _LONG_INTEGER], _LONG_INTEGER),
    (["openbook", "--file", "fixtures/torus-book.json", "--cap", _LONG_INTEGER], _LONG_INTEGER),
    (["ledger", f"--sl={_LONG_INTEGER}"], _LONG_INTEGER),
    (["ledger", "--sl", _LONG_EVEN], _LONG_EVEN),
], ids=["tb", "rot", "window", "cap", "sl", "sl-even"])
def test_cli_integer_flags_quote_a_long_argument(capsys, argv, value):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert value[:errors.QUOTE_CAP] + "..." in captured.err
    assert len(captured.err.encode()) < 600


def test_cli_openbook_cap_quotes_a_long_index(capsys):
    # 4,000 digits parse as an int, so the index reaches both echoes of it.
    index = "1" * 4000
    assert main(["openbook", "--file", "fixtures/torus-book.json", "--cap", index]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    quoted = index[:errors.QUOTE_CAP] + "..."
    assert captured.err == (
        f"input error: --cap {quoted}: fixtures/torus-book.json.surface."
        f"boundary_classes[{quoted}]: no such boundary class\n")


def _component(tb, rot, coeff="-1", **fields):
    return {"tb": tb, "rot": rot, "coeff": coeff, **fields}


_BOOK = json.loads((pathlib.Path(__file__).resolve().parent.parent
                    / "fixtures" / "torus-book.json").read_text())
_LONG_TEXT = "x" * 100_000


def _file_input(verb, data):
    """argv of `verb --file` on a file holding `data`."""
    def argv(tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        return [verb, "--file", str(path)]
    return argv


def _duplicate_catalog(tmp_path):
    record = {"name": _LONG_TEXT, "genus": 1, "slice_genus": 1, "max_tb": 1, "max_sl": 1,
              "flags": [], "provenance": "test"}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record, record]))
    return ["catalog", "--list", "--catalog", str(path)]


@pytest.mark.parametrize("argv", [
    _file_input("d3", {"components": [
        _component(-1, 0), _component(-1, 0, stab_signs=["-"] * 100_000)]}),
    _file_input("d3", {"components": [_component(-1, 0), _component(int("9" * 4001), 0)]}),
    _file_input("d3", {"components": [_component(-1, 0),
                                      _component(-2, -1, stab_signs=[_LONG_TEXT])]}),
    # A sum and a stabilized tb of 4,301 digits, past Python's int-to-str limit.
    _file_input("d3", {"components": [_component(int("9" * 4300), 1)]}),
    _file_input("d3", {"components": [_component(-int("9" * 4300), 0),
                                      _component(-int("9" * 4300), 0, stab_signs=["-"])]}),
    _file_input("d3", {"components": [_component(-1, 0, coeff=_LONG_TEXT)]}),
    _file_input("openbook", dict(
        _BOOK, surface=dict(_BOOK["surface"], pairing=[[_LONG_TEXT, 0], [0, 0]]))),
    _file_input("openbook", dict(_BOOK, alphabet={_LONG_TEXT: [1]})),
    _file_input("openbook", dict(_BOOK, word=[[_LONG_TEXT, 5]])),
    _file_input("openbook", dict(_BOOK, word=[["a", _LONG_TEXT]])),
    _file_input("openbook", dict(_BOOK, word=[[_LONG_TEXT, "+"]])),
    lambda tmp_path: ["catalog", "--knot", _LONG_TEXT],
    _duplicate_catalog,
], ids=["stab-signs", "tb-4001-digits", "stab-sign-entry", "even-sum-past-limit",
       "pushoff-past-limit", "coeff", "pairing-entry", "alphabet-name", "letter", "letter-sign",
       "letter-name", "knot-name", "duplicate-knot-name"])
def test_messages_quote_a_long_input(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert len(captured.err.encode()) < 1024


def test_builtin_catalog_does_not_depend_on_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert list(Catalog.builtin()) == build_seed_entries()


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


TORUS_BOOK_ACTION_TEXT = """\
genus 1, boundary components 2, H1 rank 3
word: a+ b+ a+
   0   -1    0
   1    0    0
   0    0    1
"""

TORUS_BOOK_ACTION = {
    "action": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
    "alphabet": {"a": [1, 0, 0], "b": [0, 1, 0], "binding": [0, 0, 1]},
    "surface": {
        "boundary": 2,
        "boundary_classes": [[0, 0, 1], [0, 0, -1]],
        "genus": 1,
        "pairing": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    },
    "word": [["a", "+"], ["b", "+"], ["a", "+"]],
}


@pytest.mark.parametrize("flags, expected", [
    (["--action"], TORUS_BOOK_ACTION_TEXT),
    (["--json", "--action"], json.dumps(TORUS_BOOK_ACTION, indent=2, sort_keys=True) + "\n"),
])
def test_cli_openbook_action_golden_output(capsys, flags, expected):
    assert main(["openbook", "--file", FIXTURE_BOOK, *flags]) == 0
    assert capsys.readouterr().out == expected


_TERMS_CAPPED = "the negative continued fraction has more than 1000000 terms"
_EXPONENT_CAPPED = "the decimal exponent's magnitude exceeds 1000000"
_LONG_COEFFICIENT = "-" + "1" * 5000
# Each coefficient with the stderr line after "input error: --coeff ".
_CAPPED_COEFFICIENTS = {
    "1e400": f"1e400: {_TERMS_CAPPED}",
    "-1e-30": f"-1e-30: {_TERMS_CAPPED}",
    "1e999999999": f"1e999999999: {_EXPONENT_CAPPED}",
    "-1e-99999999": f"-1e-99999999: {_EXPONENT_CAPPED}",
    # Quoted by its first 40 characters only.
    _LONG_COEFFICIENT: "-" + "1" * 39 + "...: the coefficient has more than 4000 digits",
}


@pytest.mark.parametrize("coeff", list(_CAPPED_COEFFICIENTS), ids=lambda coeff: coeff[:16])
def test_cli_expand_rejects_a_coefficient_past_a_cap(coeff):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "contactsurgery.cli", "expand", "--tb", "-1", "--rot", "0",
         f"--coeff={coeff}"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"input error: --coeff {_CAPPED_COEFFICIENTS[coeff]}\n"
    assert len(result.stderr) < 200


@pytest.mark.parametrize("coeff", ["1/2", "1e-5000", "1e-100000"])
def test_cli_expand_names_an_unsupported_coefficient_by_its_text(capsys, coeff):
    # 1e-5000 has a denominator past int-to-str's 4300-digit limit.
    assert main(["expand", "--tb", "-1", "--rot", "0", f"--coeff={coeff}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: --coeff {coeff}: coefficients in (0, 1) are not supported\n"
    )


def test_decimal_exponent_cap_is_inclusive():
    assert cli._parse_fraction("1e-1000000") == Fraction(1, 10**cli.EXPONENT_CAP)
    assert cli._parse_fraction("2E+0000000000000003") == 2000
    assert cli._parse_fraction("-" + "1" * cli.DIGITS_CAP) == -int("1" * cli.DIGITS_CAP)
    for text in ["1e1000001", "1e-1_000_001", " 3.5E99999999999999999 ", ".5e99999999",
                 _LONG_COEFFICIENT, "1/" + "3" * cli.DIGITS_CAP, "x" + "1" * 5000]:
        with pytest.raises(errors.OutOfRange):
            cli._parse_fraction(text)
    # Text that is not a decimal keeps Fraction's parse error, quoted by its start.
    for text in ["1/3e99999999", "xe12345678", "1e_99999999", "1.e", "x" * 5000]:
        with pytest.raises(errors.InvalidCoefficient) as info:
            cli._parse_fraction(text)
        assert len(str(info.value)) < 200


def test_cli_selftest(capsys):
    golden = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "selftest.txt"
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == golden.read_text("utf-8")


def _facts_file(tmp_path, records):
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(records))
    return str(path)


@pytest.mark.parametrize("record, field", [
    ({"offset": None, "status": "NonZero"}, "[0].offset"),
    ({"offset": True, "status": "Zero"}, "[0].offset"),
    ({"offset": 1, "status": "Zero", "rule": ["x"]}, "[0].rule"),
    ({"offset": 1, "status": "Unknown"}, "[0].status"),
])
def test_cli_ledger_rejects_bad_fact_records(tmp_path, capsys, record, field):
    path = _facts_file(tmp_path, [record])
    assert main(["ledger", "--facts", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {path}{field}:")


def test_cli_ledger_accepts_null_offset_for_zero(tmp_path, capsys):
    path = _facts_file(tmp_path, [{"offset": None, "status": "Zero", "rule": "all"}])
    assert main(["ledger", "--facts", path, "--window", "0", "0"]) == 0
    assert capsys.readouterr().out == "f_S+0  Zero  [all]\ninverse limit: Zero\n"


@pytest.mark.parametrize("value", ["2", "0", "x"])
def test_cli_ledger_rejects_an_even_self_linking_number(capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["ledger", "--knot", "T(2,3)", "--sl", value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --sl:" in captured.err and "Traceback" not in captured.err


def _catalog_file(tmp_path, **fields):
    record = {"name": "k", "genus": 1, "slice_genus": 1, "max_tb": 1, "max_sl": 1,
              "flags": [], "provenance": ""}
    record.update(fields)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([record]))
    return str(path)


def test_cli_catalog_prints_the_lint_of_a_record(tmp_path, capsys):
    path = _catalog_file(tmp_path, max_tb=3, max_sl=-1)
    assert main(["catalog", "--knot", "k", "--catalog", path]) == 0
    out = capsys.readouterr().out
    assert out.endswith("flags: none\n"
                        "lint: k: recorded max_sl -1 is below max_tb 3\n"
                        "lint: k: max_tb 3 exceeds 2*genus - 1\n")


@pytest.mark.parametrize("field, value", [
    ("name", ["x"]),
    ("genus", True),
    ("genus", "1"),
    ("slice_genus", 1.0),
    ("max_tb", "x"),
    ("max_sl", False),
    ("flags", "torus"),
    ("flags", [1]),
    ("provenance", None),
])
@pytest.mark.parametrize("argv", [
    ["catalog", "--list"],
    ["catalog", "--knot", "k"],
    ["classify", "--knot", "k"],
])
def test_cli_rejects_catalog_fields_of_the_wrong_type(tmp_path, capsys, field, value, argv):
    path = _catalog_file(tmp_path, **{field: value})
    assert main(argv + ["--catalog", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: catalog record [0].{field}: must be ")


@pytest.mark.parametrize("record, message", [
    ([], "catalog record [0]: expected an object"),
    ({"genus": 1, "slice_genus": 1}, "catalog record [0]: missing field 'name'"),
    ({"name": "k", "slice_genus": 1}, "catalog record [0]: missing field 'genus'"),
])
def test_cli_names_a_catalog_record_that_is_not_an_object_or_lacks_a_field(
    tmp_path, capsys, record, message
):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([record]))
    assert main(["catalog", "--list", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("error, code, prefix", [
    (errors.ContactSurgeryError("x"), 1, "error"),
    (errors.IncompleteData("x"), 1, "error"),
    (errors.NotInCatalog("x"), 2, "input error"),
    (errors.DiagramFormatError("x"), 2, "input error"),
    (errors.Contradiction(None, "z", "n"), 3, "contradiction"),
])
def test_cli_maps_each_error_to_its_exit_code(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_selftest", fail)
    assert error.exit_code == code
    assert main(["selftest"]) == code
    assert capsys.readouterr().err == f"{prefix}: {error}\n"


def test_cli_golden_output_of_a_zero_tail_chain(tmp_path, capsys):
    # +1 on the unknot, then -1 on its unstabilized pushoff: the continuant
    # P_1 is zero, and the chain kernel answers without dividing by it.
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps({"components": [
        {"tb": -1, "rot": 0, "coeff": "+1"},
        {"tb": -1, "rot": 0, "coeff": "-1"},
    ]}))
    expected = {
        ("homology",): "|H1| = 1\nsignature = 0\neuler characteristic = 3\ndeterminant = -1\n",
        ("homology", "--json"): '{\n  "determinant": -1,\n  "euler_characteristic": 3,\n'
                                '  "order_h1": 1,\n  "signature": 0\n}\n',
        ("d3",): "-1/2\n",
    }
    for verb, out in expected.items():
        assert main([verb[0], "--file", str(path), *verb[1:]]) == 0
        assert capsys.readouterr().out == out


FIXTURE_BOOK = str(pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "torus-book.json")


def _assert_input_error(argv, capsys, *fragments):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    for fragment in fragments:
        assert fragment in captured.err


@pytest.mark.parametrize("index", ["5", "2", "-1"])
def test_cli_openbook_cap_out_of_range(capsys, index):
    _assert_input_error(
        ["openbook", "--file", FIXTURE_BOOK, "--cap", index], capsys,
        f"--cap {index}: {FIXTURE_BOOK}.surface.boundary_classes[{index}]: ",
    )


@pytest.mark.parametrize("boundary_classes, reason", [
    ([[1, 0, 0], [0, 0, -1]], "pair to zero with H1"),  # outside the radical
    ([[0, 0, 0], [0, 0, -1]], "+1 or -1"),  # null-homologous
    ([[0, 0, 2], [0, 0, -2]], "+1 or -1"),  # not unimodular
])
def test_cli_openbook_cap_rejects_unusable_boundary_classes(
    tmp_path, capsys, boundary_classes, reason
):
    book = json.loads(pathlib.Path(FIXTURE_BOOK).read_text())
    book["surface"]["boundary_classes"] = boundary_classes
    path = tmp_path / "book.json"
    path.write_text(json.dumps(book))
    _assert_input_error(
        ["openbook", "--file", str(path), "--cap", "0"], capsys,
        f"{path}.surface.boundary_classes[0]: ", reason,
    )


@pytest.mark.parametrize("field, edit", [
    ("alphabet.a[0]", lambda b: b["alphabet"].__setitem__("a", ["1", 0, 0])),
    ("alphabet.a[0]", lambda b: b["alphabet"].__setitem__("a", [0.75, 0, 0])),
    ("alphabet.a[0]", lambda b: b["alphabet"].__setitem__("a", [True, 0, 0])),
    ("alphabet.a", lambda b: b["alphabet"].__setitem__("a", 1)),
    ("surface.pairing[0][1]", lambda b: b["surface"]["pairing"][0].__setitem__(1, 1.0)),
    ("surface.pairing[2]", lambda b: b["surface"]["pairing"].__setitem__(2, "000")),
    ("surface.boundary_classes[0][2]",
     lambda b: b["surface"]["boundary_classes"][0].__setitem__(2, "1")),
    ("surface.boundary_classes", lambda b: b["surface"].__setitem__("boundary_classes", 7)),
])
@pytest.mark.parametrize("flags", [["--action"], ["--cap", "0"], ["--json", "--action"]])
def test_cli_openbook_rejects_entries_that_are_not_integers(
    tmp_path, capsys, field, edit, flags
):
    book = json.loads(pathlib.Path(FIXTURE_BOOK).read_text())
    edit(book)
    path = tmp_path / "book.json"
    path.write_text(json.dumps(book))
    _assert_input_error(["openbook", "--file", str(path), *flags], capsys, f"{path}.{field}: ")


@pytest.mark.parametrize("argv", [
    ["expand", "--tb", "0", "--rot", "0", "--coeff=-3"],
    ["expand", "--tb", "-2", "--rot", "2", "--coeff", "2"],
    ["ledger", "--tb", "0", "--rot", "0"],
    ["ledger", "--tb", "-2"],
])
def test_cli_rejects_an_even_tb_plus_rot(capsys, argv):
    _assert_input_error(argv, capsys, "--tb ", "--rot ", "tb + rot is even")


def test_cli_openbook_cap_of_the_last_boundary(tmp_path, capsys):
    path = tmp_path / "book.json"
    path.write_text(json.dumps({
        "surface": {"genus": 1, "boundary": 1, "pairing": [[0, 1], [-1, 0]]},
        "alphabet": {"a": [1, 0], "b": [0, 1]},
        "word": [["a", "+"]],
    }))
    _assert_input_error(
        ["openbook", "--file", str(path), "--cap", "0"], capsys,
        f"--cap 0: {path}.surface.boundary: ",
    )


@pytest.mark.parametrize("word, index", [
    (["a+", "b+"], 0),
    ([["a", "+"], "b-"], 1),
    ([["a"]], 0),
    ([["a", "+", "b"]], 0),
    ([["a", 1]], 0),
    ([[["a"], "+"]], 0),
    ([["a", "+"], {"b": "+"}], 1),
    ([["a", "x"]], 0),
    ([["a", "+"], ["zz", "-"]], 1),
])
@pytest.mark.parametrize("flags", [[], ["--json"], ["--cap", "0"]])
def test_cli_openbook_rejects_a_letter_that_is_not_a_name_and_sign(
    tmp_path, capsys, word, index, flags
):
    book = json.loads(pathlib.Path(FIXTURE_BOOK).read_text())
    book["word"] = word
    path = tmp_path / "book.json"
    path.write_text(json.dumps(book))
    _assert_input_error(["openbook", "--file", str(path), *flags], capsys,
                        f"{path}.word[{index}]: ")


def test_diagram_stab_signs_are_a_multiset(tmp_path, capsys):
    def diagram(signs):
        return {"components": [
            {"tb": -1, "rot": 0, "coeff": "+1"},
            {"tb": -3, "rot": 0, "coeff": "-1", "stab_signs": signs},
        ]}

    from contactsurgery.homology import d3_invariant

    mixed = presentation_from_dict(diagram(["+", "-"]))
    ordered = presentation_from_dict(diagram(["-", "+"]))
    assert mixed == ordered
    assert d3_invariant(mixed) == d3_invariant(ordered)
    assert presentation_to_dict(mixed)["components"][1]["stab_signs"] == ["-", "+"]
    outputs = []
    for signs in (["+", "-"], ["-", "+"]):
        path = tmp_path / f"{''.join(signs)}.json"
        path.write_text(json.dumps(diagram(signs)))
        assert main(["d3", "--file", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == f"{d3_invariant(ordered)}\n"


@pytest.mark.parametrize("window, message", [
    (["5", "-3"], "--window 5 -3: LO must not exceed HI"),
    (["0", "30000000"], "--window 0 30000000: a window spans at most 1000000 framings"),
    (["-1000000", "0"], "--window -1000000 0: a window spans at most 1000000 framings"),
])
def test_cli_ledger_rejects_a_bad_window(capsys, window, message):
    assert main(["ledger", "--window", *window]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {message}")


def test_cli_ledger_window_cap_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "WINDOW_CAP", 10)
    assert main(["ledger", "--window", "3", "12"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11
    assert main(["ledger", "--window", "3", "13"]) == 2
    assert main(["ledger", "--window", "7", "7"]) == 0


def test_cli_ledger_json_window_is_written_whole(capsys):
    # Thousands of rows give many batches of encoder chunks; the bytes must
    # be those of one json.dumps.
    assert main(["ledger", "--json", "--knot", "C(2,3;T(2,3))", "--tb", "6",
                 "--rot", "-1", "--sl", "7", "--binding",
                 "--window", "-1500", "1500"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(list(json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload))) > 4096
    rows = payload["window"]
    assert [row["framing"] for row in (rows[0], rows[-1])] == ["f_S-1500", "f_S+1500"]
    assert len(rows) == 3001 and rows[1508]["rule"] == "R5"
    assert payload["inverse_limit"] == "NotAllZero"


def _long_word_book(tmp_path):
    """The torus book with a 22,000-letter word, whose action has entries
    of more than 4,300 digits; every entry of the file is small."""
    book = json.loads(pathlib.Path(FIXTURE_BOOK).read_text())
    book["word"] = [["a", "+"], ["b", "-"]] * 11000
    path = tmp_path / "long-word.json"
    path.write_text(json.dumps(book))
    return ["openbook", "--file", str(path), "--action"]


def _huge_rot_diagram(tmp_path):
    """Three unstabilized pushoffs with rot 10**4200 + 1: each entry is
    under the reader's limit, but d3 has about twice as many digits."""
    component = {"tb": -2, "rot": 10**4200 + 1, "coeff": "-1"}
    path = tmp_path / "huge-rot.json"
    path.write_text(json.dumps({"components": [component] * 3}))
    return ["d3", "--file", str(path)]


def _capped_page_of_huge_classes(tmp_path):
    """A planar page whose capped class (10**4200, 1) reduces the curve
    (1, 10**4200) to 1 - 10**8400, which --json prints."""
    big = 10**4200
    book = {
        "surface": {"genus": 0, "boundary": 3, "pairing": [[0, 0], [0, 0]],
                    "boundary_classes": [[big, 1], [-big, -1], [0, 0]]},
        "alphabet": {"a": [1, big]},
        "word": [["a", "+"]],
    }
    path = tmp_path / "huge-classes.json"
    path.write_text(json.dumps(book))
    return ["openbook", "--file", str(path), "--cap", "0", "--json"]


def _huge_genus_catalog(tmp_path):
    """A knot of genus 5 * 10**4299, whose certified anchor 2g = 10**4300
    has 4,301 digits."""
    genus = 5 * 10**4299
    record = {"name": "K", "genus": genus, "slice_genus": genus, "max_tb": 2 * genus - 3,
              "max_sl": 2 * genus - 1, "flags": [], "provenance": "test"}
    path = tmp_path / "huge-genus.json"
    path.write_text(json.dumps([record]))
    return ["classify", "--catalog", str(path), "--knot", "K"]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="Python without an int-to-str limit"
)
@pytest.mark.parametrize("argv", [
    _long_word_book,
    lambda tmp_path: _long_word_book(tmp_path) + ["--json"],
    _capped_page_of_huge_classes,
    _huge_rot_diagram,
    _huge_genus_catalog,
    # One negative stabilization takes tb from -(10**4300 - 1) to -10**4300.
    lambda tmp_path: ["expand", "--tb=-" + "9" * 4300, "--rot", "0", "--coeff=-2"],
], ids=["openbook-action", "openbook-action-json", "openbook-cap-json", "d3", "classify",
       "expand"])
def test_cli_refuses_a_result_past_the_int_to_str_limit(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.encode()) < 200


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="Python without an int-to-str limit"
)
@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_cli_expand_checks_the_extreme_rot_exactly(capsys, sign, json_flag):
    # |rot| = 10**4300 - 2.  One stabilization takes the link's rot to at most
    # 10**4300 - 1 in magnitude, which prints; two reach 10**4300, which does not.
    argv = ["expand", "--tb", "-1", f"--rot={sign}{'9' * 4299}8", *json_flag]
    assert main([*argv, "--coeff=-2"]) == 0
    assert f"{sign}{'9' * 4300}" in capsys.readouterr().out
    assert main([*argv, "--coeff=-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the result has an integer of more than 4300 digits")

