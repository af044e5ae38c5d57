"""Malformed input files and boundary flag values, fed to `cli.main` in
process: every call ends in a documented exit code with a short message on
stderr and nothing on stdout, never in a traceback."""

import contextlib
import copy
import io
import json
import os
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from contactsurgery.cli import WINDOW_CAP, main

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None, database=None)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIAGRAM = json.loads((ROOT / "fixtures" / "unknot-n2.json").read_text())
BOOK_FILE = str(ROOT / "fixtures" / "torus-book.json")
BOOK = json.loads(pathlib.Path(BOOK_FILE).read_text())
SEED = json.loads((ROOT / "src" / "contactsurgery" / "data" / "seed_catalog.json").read_text())
CATALOG = SEED[:3]
FACTS = [{"offset": 2, "status": "NonZero", "rule": "a"}, {"offset": -3, "status": "Zero"}]

# Each input document with the verbs that read it; the path is appended.
INPUTS = [
    (DIAGRAM, [["d3", "--file"], ["homology", "--json", "--file"]]),
    (BOOK, [["openbook", "--action", "--json", "--file"], ["openbook", "--cap", "0", "--file"]]),
    (CATALOG, [["catalog", "--list", "--catalog"],
               ["classify", "--knot", "T(2,3)", "--catalog"]]),
    (FACTS, [["ledger", "--facts"]]),
]

DELETE = object()
REPLACEMENTS = [DELETE, None, True, 1.5, "x", [], {}, [1], 10**49]

PREFIXES = ("error: ", "input error: ", "contradiction: ", "usage:")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone before the first write."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _paths(node, prefix=()):
    """The key path of every value in a JSON document, the root's first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutations(draw, document):
    """`document` with one to three values deleted or replaced."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(document))))
        value = draw(st.sampled_from(REPLACEMENTS))
        if not path:
            if value is not DELETE:
                document = copy.deepcopy(value)
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return document


@st.composite
def file_calls(draw):
    """A verb's argv without the path, and the bytes of a mutated input,
    now and then with a byte that is not UTF-8 in front."""
    document, verbs = draw(st.sampled_from(INPUTS))
    text = json.dumps(draw(mutations(document))).encode()
    return draw(st.sampled_from(verbs)), draw(st.sampled_from([b"", b"\xff"])) + text


def _call(argv, stdout=None):
    """main(argv) in process: its exit code ("usage" when argparse refuses
    the flags), stdout text and stderr text."""
    out, err = stdout or io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = "usage"
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _call(argv)
    assert len(err.encode()) < 4096
    if code == 0:
        assert err == ""
        if out:
            assert _call(argv, _ClosedPipe())[::2] == (1, "")
        return
    assert code in ("usage", 1, 2, 3)
    assert out == ""
    assert err.startswith("usage:" if code == "usage" else PREFIXES)


@SETTINGS
@given(file_calls())
def test_a_malformed_input_file_ends_in_a_documented_exit_code(call):
    verb, data = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(data)
        _check(verb + [path])


NUMBERS = ["0", "1", "-1", "2", "-2", "3", "-3", str(WINDOW_CAP), str(WINDOW_CAP + 1),
           str(-WINDOW_CAP), str(2**63), str(-2**63 - 1), str(10**49), "-" + "9" * 50,
           "1.5", "x", ""]
COEFFICIENTS = ["1", "-1", "2", "-7/3", "5/2", "-999/1000", "1/2", "0", "-1e400", "1e-400",
                "x", str(10**49), "-" + str(10**49)]
numbers = st.sampled_from(NUMBERS)


@st.composite
def windows(draw):
    """--window LO HI, HI - LO just below, at and past the bounds."""
    lo = draw(numbers)
    try:
        hi = str(int(lo) + draw(st.sampled_from([-1, 0, 2, WINDOW_CAP])))
    except ValueError:
        hi = "0"
    return ["--window", lo, hi]


def _flatten(flags):
    return [part for flag in flags for part in flag]


expand_calls = st.builds(
    lambda tb, rot, coeff, tail, extra: ["expand", "--tb", tb, "--rot", rot,
                                         f"--coeff={coeff}", *tail, *extra],
    numbers, numbers, st.sampled_from(COEFFICIENTS),
    # No call prints a combinatorial number of presentations.
    st.one_of(st.just(["--count"]),
              st.tuples(st.just("--limit"), st.sampled_from(["-1", "0", "1", "2"]))),
    st.lists(st.sampled_from([("--json",), ("--knot", "unknot"), ("--knot", "T(2,3)")]),
             unique_by=lambda flag: flag[0]).map(_flatten),
)
ledger_calls = st.builds(
    lambda window, flags: ["ledger", *window, *flags],
    windows(),
    st.lists(st.one_of(st.tuples(st.sampled_from(["--tb", "--rot", "--sl"]), numbers),
                       st.sampled_from([("--knot", "unknot"), ("--knot", "T(2,3)"),
                                        ("--binding",), ("--positively-stabilized",),
                                        ("--json",)])),
             unique_by=lambda flag: flag[0], max_size=4).map(_flatten),
)
openbook_calls = st.builds(
    lambda cap, flags: ["openbook", "--file", BOOK_FILE, "--cap", cap, *flags],
    numbers, st.lists(st.sampled_from(["--action", "--json"]), unique=True),
)


@SETTINGS
@given(st.one_of(expand_calls, ledger_calls, openbook_calls))
def test_boundary_flag_values_end_in_a_documented_exit_code(argv):
    _check(argv)


# Free text: the seed names, the coefficients above and edge-case literals,
# the same with a few characters around them, strings over the characters
# they are written with, and any string.
WORDS = [record["name"] for record in SEED] + COEFFICIENTS + [
    "1/0", "-0/0", "1_000/3", "\u0663", "inf", "nan", "1e", ".", "-", "/", "--1"]
TEXT_ALPHABET = "0123456789+-/._eE ()TCK,;x#"
free_text = st.one_of(
    st.sampled_from(WORDS),
    st.builds(lambda head, word, tail: head + word + tail,
              st.text(alphabet=TEXT_ALPHABET, max_size=2), st.sampled_from(WORDS),
              st.text(alphabet=TEXT_ALPHABET, max_size=2)),
    st.text(alphabet=TEXT_ALPHABET, max_size=40),
    st.text(max_size=40),
)
free_text_calls = st.one_of(
    st.builds(lambda text: ["expand", "--count", "--tb", "-1", "--rot", "0",
                            f"--coeff={text}"], free_text),
    st.builds(lambda verb, text, json_flag: [*verb, f"--knot={text}", *json_flag],
              st.sampled_from([["catalog"], ["classify"], ["ledger", "--window", "0", "1"]]),
              free_text, st.sampled_from([[], ["--json"]])),
)


@settings(SETTINGS, max_examples=200)
@given(free_text_calls)
def test_free_text_ends_in_a_documented_exit_code(argv):
    _check(argv)
