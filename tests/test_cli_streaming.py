"""The CLI's streamed stdout: byte parity with one encoding of the whole
payload, memory that does not grow with the output, and a quiet exit when
the reader closes the pipe."""

import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactsurgery import cli
from contactsurgery.catalog import Catalog
from contactsurgery.cli import main
from contactsurgery.diagramio import presentation_to_dict
from contactsurgery.errors import Contradiction
from contactsurgery.expansion import expand
from contactsurgery.ledger import LedgerSubject, apply_rules, assert_fact, inverse_limit_status
from contactsurgery.legendrian import InvariantStatus, LegendrianKnot

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run(argv, stdout=None):
    """main(argv) in process: its code, its stdout object and its stderr text."""
    out, err = stdout or io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out, err.getvalue()


# (argv, the subject those flags describe).
_UNKNOT = Catalog.builtin().lookup("unknot")
LEDGER_SUBJECTS = [
    ([], LedgerSubject()),
    (["--tb", "3", "--rot", "0"], LedgerSubject(legendrian=LegendrianKnot(3, 0))),
    (["--knot", "unknot", "--tb", "-1", "--rot", "0"],
     LedgerSubject(legendrian=LegendrianKnot(-1, 0), knot_type=_UNKNOT)),
    (["--positively-stabilized"], LedgerSubject(positively_stabilized=True)),
]

facts = st.lists(st.one_of(
    st.tuples(st.integers(-40, 40), st.sampled_from(["Zero", "NonZero"]), st.sampled_from("AB")),
    st.tuples(st.none(), st.just("Zero"), st.just("C")),
), max_size=4)


@SETTINGS
@given(st.sampled_from(LEDGER_SUBJECTS), st.integers(-50, 50), st.integers(0, 60),
       st.none() | facts)
@example(LEDGER_SUBJECTS[2], 7, 0, None)  # lo == hi
@example(LEDGER_SUBJECTS[1], -5, 20, [(8, "NonZero", "A"), (-2, "Zero", "B")])
def test_streamed_ledger_json_is_one_encoding_of_the_window(subject, lo, width, records):
    flags, ledger_subject = subject
    hi = lo + width
    argv = ["ledger", *flags, "--window", str(lo), str(hi), "--json"]
    with tempfile.TemporaryDirectory() as tmp:
        if records is not None:
            path = os.path.join(tmp, "facts.json")
            with open(path, "w") as f:
                json.dump([dict(zip(("offset", "status", "rule"), r)) for r in records], f)
            argv += ["--facts", path]
        code, out, err = _run(argv)
    try:
        state = apply_rules(ledger_subject)
        for offset, status, rule in records or ():
            state = assert_fact(state, offset, InvariantStatus(status), rule)
    except Contradiction:
        assert (code, out.getvalue()) == (3, "")
        return
    payload = {
        "window": [{"framing": f"f_S{k:+d}", "status": status.value, "rule": rule}
                   for k, status, rule in state.window(lo, hi)],
        "inverse_limit": inverse_limit_status(state).value,
    }
    assert (code, err) == (0, "")
    assert out.getvalue() == cli._JSON.encode(payload) + "\n"


def test_write_json_refuses_a_set_rather_than_write_it_in_hash_order():
    # Only an iterator is streamed: a frozenset's order depends on the hash seed.
    flags = frozenset({"algebraic", "torus", "strongly-quasipositive-fibered"})
    with pytest.raises(TypeError, match="frozenset is not JSON serializable"):
        cli._write_json({"flags": flags})


@st.composite
def surgeries(draw):
    """A realizable knot and a coefficient r < 0 or r >= 1 with at most 200
    presentations."""
    tb = draw(st.integers(-6, 2))
    rot = draw(st.sampled_from([r for r in range(-5, 6) if (tb + r) % 2]))
    r = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 6)))
    assume(r < 0 or r >= 1)
    assume(expand(LegendrianKnot(tb, rot), r).count <= 200)
    return LegendrianKnot(tb, rot), r


@SETTINGS
@given(surgeries(), st.none() | st.integers(0, 1) | st.integers(2, 12))
@example((LegendrianKnot(-1, 0), Fraction(1)), None)  # r = 1: the +1 head alone
@example((LegendrianKnot(-1, 0), Fraction(1)), 0)
@example((LegendrianKnot(-3, 2), Fraction(7, 2)), 3)  # +1 head and a chain
@example((LegendrianKnot(-1, 0), Fraction(-1000, 7)), 1)
def test_streamed_expand_json_is_one_encoding_of_the_presentations(surgery, limit):
    knot, r = surgery
    argv = ["expand", "--tb", str(knot.tb), "--rot", str(knot.rot), f"--coeff={r}", "--json"]
    if limit is not None:
        argv += ["--limit", str(limit)]
    code, out, err = _run(argv)
    shown = itertools.islice(expand(knot, r), limit)
    payload = {"presentations": [presentation_to_dict(p) for p in shown]}
    assert (code, err) == (0, "")
    assert out.getvalue() == cli._JSON.encode(payload) + "\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_wide_ledger_window_is_written_in_constant_memory(json_flag):
    # 10**5 framings: held whole, the rows take megabytes (tens with --json).
    argv = ["ledger", "--tb", "-1", "--rot", "0", "--knot", "unknot",
            "--window", "0", "99999", *json_flag]
    _run(["ledger", *json_flag])  # imports and the catalog, outside the measure
    with open(os.devnull, "w") as null:
        tracemalloc.start()
        try:
            code, _, err = _run(argv, stdout=null)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 2**20


class _ReaderGoneAfter(io.StringIO):
    """A stdout whose reader closes the pipe once `limit` characters are in."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


# Small outputs end in one buffered write; large ones span many batches.
CLOSED_PIPE_ARGV = {
    "expand-small": ["expand", "--tb", "-1", "--rot", "0", "--coeff", "3"],
    "expand-large": ["expand", "--tb", "-1", "--rot", "0", "--coeff=-1000/7"],
    "expand-json-large": ["expand", "--tb", "-1", "--rot", "0", "--coeff=-1000/7", "--json"],
    "ledger-small": ["ledger", "--window", "-3", "12"],
    "ledger-json-small": ["ledger", "--window", "-3", "12", "--json"],
    "ledger-large": ["ledger", "--window", "-20000", "20000"],
    "ledger-json-large": ["ledger", "--window", "-20000", "20000", "--json"],
}


@pytest.mark.parametrize("limit", [0, 300, 50_000])
@pytest.mark.parametrize("argv", CLOSED_PIPE_ARGV.values(), ids=CLOSED_PIPE_ARGV)
def test_a_closed_pipe_ends_the_call_quietly_in_process(argv, limit):
    whole = _run(argv)[1].getvalue()
    code, out, err = _run(argv, stdout=_ReaderGoneAfter(limit))
    assert err == ""
    if len(whole) <= limit:
        assert (code, out.getvalue()) == (0, whole)
    else:
        assert code == 1
        assert whole.startswith(out.getvalue())


@pytest.mark.parametrize("argv", [
    CLOSED_PIPE_ARGV["expand-small"],
    CLOSED_PIPE_ARGV["expand-json-large"],
    CLOSED_PIPE_ARGV["ledger-small"],
    ["ledger", "--window", "-100000", "100000", "--json"],
], ids=["expand-small", "expand-json-large", "ledger-small", "ledger-json-large"])
def test_a_closed_pipe_ends_the_process_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        result = subprocess.run(
            [sys.executable, "-m", "contactsurgery.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")
