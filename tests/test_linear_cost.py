"""Cost linear in the input, pinned by line counts.

A verb runs in process under `sys.settrace` after one warm-up call, so the
count holds no import.  The count at sizes 200, 400 and 800 gives the ratio
(c800 - c400) / (c400 - c200): 2 for a cost linear in the size, 4 for a
quadratic one.  Line events are exact from run to run, but they differ
between Python versions, so the tests pin ratios, not counts.  Work done
inside C (a tuple copy, a big-integer product) makes no line event, so a
cost that grows there is not seen here.
"""

import contextlib
import io
import json
import sys

import pytest

from contactsurgery.cli import main

SIZES = (200, 400, 800)


def _line_events(argv) -> int:
    """Line events of one `main(argv)` call, which must exit 0."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    with contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(lambda frame, event, arg: local)
        try:
            code = main(argv)
        finally:
            sys.settrace(None)
    assert code == 0
    return count


def _diagram(n):
    """An n-component chain: each link a pushoff of the last with one '-'."""
    return {"components": [{"tb": -1 - i, "rot": -i, "coeff": "-1", "stab_signs": ["-"] * (i > 0)}
                           for i in range(n)]}


def _facts(n):
    return [{"offset": k, "status": "NonZero", "rule": "file"} for k in range(n)]


def _word(n):
    """The torus-book page with a word of n letters."""
    return {
        "surface": {"genus": 1, "boundary": 2, "pairing": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                    "boundary_classes": [[0, 0, 1], [0, 0, -1]]},
        "alphabet": {"a": [1, 0, 0], "b": [0, 1, 0]},
        "word": [["ab"[k % 2], "+-"[k % 3 % 2]] for k in range(n)],
    }


def _page(n):
    """A genus-0 page with n boundary components and zero pairing: classes
    e_0 ... e_{n-2} and -(e_0 + ... + e_{n-2}), about n**2 numbers."""
    r = n - 1
    classes = [[int(i == j) for j in range(r)] for i in range(r)] + [[-1] * r]
    return {"surface": {"genus": 0, "boundary": n, "pairing": [[0] * r] * r,
                        "boundary_classes": classes},
            "alphabet": {}, "word": []}


def _with_file(make, *argv):
    """argv with the path of a file holding make(n) in place of FILE."""
    def run(tmp_path, n):
        path = tmp_path / f"input-{n}.json"
        path.write_text(json.dumps(make(n)))
        return [str(path) if arg == "FILE" else arg for arg in argv]
    return run


# (argv builder, sizes, bound on the ratio).  The page's input has about
# B**2 numbers, so a cost linear in it reads 4 when B doubles.
CASES = {
    "d3-components": (_with_file(_diagram, "d3", "--file", "FILE"), SIZES, 2.05),
    "ledger-facts": (_with_file(_facts, "ledger", "--facts", "FILE"), SIZES, 2.05),
    "ledger-window": (lambda tmp_path, n: ["ledger", "--tb", "3", "--window", "0", str(n - 1)],
                      SIZES, 2.05),
    "openbook-action": (_with_file(_word, "openbook", "--file", "FILE", "--action"),
                        SIZES, 2.05),
    # 1 - r = [12, 12, 12]: three links of 10 stabilizations, 1,331 presentations.
    "expand-presentations": (lambda tmp_path, n: ["expand", "--tb", "-1", "--rot", "0",
                                                  "--coeff=-1561/143", "--limit", str(n)],
                             SIZES, 2.05),
    # A page of 800 boundary components alone takes about a minute traced.
    "openbook-cap": (_with_file(_page, "openbook", "--file", "FILE", "--cap", "0"),
                     (50, 100, 200), 4.1),
}


@pytest.mark.parametrize("case", CASES)
def test_a_verb_costs_line_events_linear_in_its_input(tmp_path, case):
    argv, sizes, bound = CASES[case]
    _line_events(argv(tmp_path, sizes[0]))  # warm-up: lazy imports and caches
    small, middle, large = (_line_events(argv(tmp_path, n)) for n in sizes)
    ratio = (large - middle) / (middle - small)
    assert ratio <= bound, (case, small, middle, large)
