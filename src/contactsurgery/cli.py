"""Command-line front end.

Verbs: catalog, expand, homology, d3, classify, ledger, openbook,
selftest.  All numeric output is exact (rationals printed as p/q) and
byte-identical across runs.  Exit codes: 0 success, 1 computational
error or a reader that closed stdout, 2 input error, 3 ledger
contradiction.  Output of combinatorial size (expand's presentations,
ledger's window) is written as it is computed, never held whole.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import sys
from itertools import chain, islice

# Each verb imports the library modules it uses, so a call loads only those.
from .errors import (
    ContactSurgeryError,
    DiagramFormatError,
    InvalidCoefficient,
    NotRealizable,
    OutOfRange,
    UnsupportedCoefficient,
    quote,
)


class _Streamed(list):
    """An iterator as a list for `_write_json`.  The pure-Python encoder tests
    a list once for emptiness, then iterates it, so each item is read once,
    as it is written.  (`JSONEncoder.encode` may run the C encoder, which
    would read the empty list underneath.)  An object that is not an
    iterator is refused with the TypeError of `json`: a set, say, would be
    written in hash order."""

    def __init__(self, items):
        if not hasattr(items, "__next__"):
            raise TypeError(f"Object of type {type(items).__name__} is not JSON serializable")
        super().__init__()
        self._items = items
        self._head = list(islice(items, 1))

    def __bool__(self) -> bool:
        return bool(self._head)

    def __iter__(self):
        return chain(self._head, self._items)


# The one JSON format of every --json output.  An iterator in a payload is
# encoded as a list, item by item.
_JSON = json.JSONEncoder(indent=2, sort_keys=True, default=_Streamed)

# The most framings `ledger --window` renders.  Rows are streamed, so the
# cap bounds the time a call takes, not its memory.
WINDOW_CAP = 10**6

# The largest decimal exponent magnitude --coeff takes.  Past it every
# coefficient would stop at the continued fraction's term cap, or run
# unbounded building and expanding a number of more than a million digits.
EXPONENT_CAP = 10**6

# The most decimal digits --coeff text may carry, under Python's 4,300-digit
# int-to-str limit, so no digit string reaches Fraction's own error.  The cap
# is on the text, not on the reduced fraction.  In lowest terms, 2,000 digits
# in the numerator or denominator already mean more than 10**6 continued
# fraction terms or more than 2**300 presentations.
DIGITS_CAP = 4000

# A decimal with an exponent, as Fraction reads it; group 1 is the exponent's
# magnitude.  Other text goes to Fraction and its parse error.
_DECIMAL_EXPONENT = re.compile(
    r"\s*[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?e[-+]?(\d+(?:_\d+)*)\s*",
    re.IGNORECASE,
)


def _load_catalog(args):
    from .catalog import Catalog

    if args.catalog:
        return Catalog.from_json(args.catalog)
    return Catalog.builtin()


def _write_json(payload) -> None:
    """Write `payload` as one _JSON document and a newline, in batches of
    encoder chunks, so that a list given as an iterator is never held whole."""
    chunks = _JSON.iterencode(payload)
    while batch := "".join(islice(chunks, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _parse_fraction(text: str):
    from fractions import Fraction

    if sum(map(str.isdecimal, text)) > DIGITS_CAP:
        raise OutOfRange(f"the coefficient has more than {DIGITS_CAP} digits")
    match = _DECIMAL_EXPONENT.fullmatch(text)
    digits = match[1].replace("_", "").lstrip("0") if match else ""
    # Eight or more digits exceed the cap; they are not converted to an int.
    if len(digits) > 7 or int(digits or 0) > EXPONENT_CAP:
        raise OutOfRange(f"the decimal exponent's magnitude exceeds {EXPONENT_CAP}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidCoefficient(f"cannot parse coefficient {quote(text)!r}") from exc


def _check_printable(values) -> None:
    """Refuse a result with an integer that str() cannot render under
    Python's int-to-str limit, before the verb writes anything.  Python
    3.10.0 - 3.10.6 have no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        bound = 10**limit
        if any(abs(value) >= bound for value in values):
            raise ContactSurgeryError(
                f"the result has an integer of more than {limit} digits, past "
                "Python's int-to-str limit (sys.set_int_max_str_digits)"
            )


def _integer(text: str) -> int:
    """The argparse type of the integer flags.  Its message quotes at most
    errors.QUOTE_CAP characters of the argument."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)!r}") from None


def _knot(flags: str, knot_class, *invariants):
    """knot_class(*invariants); the NotRealizable it raises is named by
    `flags`, the flags that gave the invariants."""
    try:
        return knot_class(*invariants)
    except NotRealizable as exc:
        raise NotRealizable(f"{flags}: {exc}") from None


def _cmd_catalog(args) -> int:
    from .catalog import lint_knot

    catalog = _load_catalog(args)
    if args.list:
        for name in catalog.names():
            print(name)
        return 0
    knot = catalog.lookup(args.knot)
    if args.json:
        # The record's fields, with its flags sorted: a frozenset has no order.
        _write_json({name: getattr(knot, name) for name in knot._fields}
                    | {"flags": sorted(knot.flags)})
    else:
        print(f"name: {knot.name}")
        print(f"genus: {knot.genus}")
        print(f"slice genus: {knot.slice_genus}")
        print(f"max tb: {'unknown' if knot.max_tb is None else knot.max_tb}")
        print(f"max sl: {'unknown' if knot.max_sl is None else knot.max_sl}")
        print(f"flags: {', '.join(sorted(knot.flags)) or 'none'}")
        for note in lint_knot(knot):
            print(f"lint: {note}")
    return 0


def _cmd_expand(args) -> int:
    from .expansion import TERMS_CAP, expand
    from .legendrian import LegendrianKnot

    flags = f"--tb {quote(args.tb)} --rot {quote(args.rot)}"
    knot = _knot(flags, LegendrianKnot, args.tb, args.rot)
    if args.limit is not None and args.limit < 0:
        raise OutOfRange(f"--limit {quote(args.limit)}: must not be negative")
    try:
        expansion = expand(knot, _parse_fraction(args.coeff))
    except (OutOfRange, UnsupportedCoefficient) as exc:
        raise type(exc)(f"--coeff {quote(args.coeff)}: {exc}") from None
    if args.count:
        _check_printable((expansion.count,))
        print(expansion.count)
        return 0
    # Every presentation has the same tbs, and a rot of at most
    # |rot_0| + (all the stabilizations): checked once, not per presentation.
    stabilizations = expansion.stabilizations
    if any(k > TERMS_CAP for k in stabilizations):
        raise OutOfRange(
            f"--coeff {quote(args.coeff)}: a chain link has more than {TERMS_CAP} "
            "stabilizations to print; --count prints the number of presentations"
        )
    printed = [*expansion.tbs, abs(knot.rot) + sum(stabilizations)]
    if not args.json:
        printed.append(expansion.count)  # the text form's first line
    _check_printable(printed)
    shown = expansion
    if args.limit is not None:
        shown = (p for _, p in zip(range(args.limit), expansion))
    if args.json:
        from . import diagramio

        _write_json({"presentations": map(diagramio.presentation_to_dict, shown)})
        return 0
    print(f"{expansion.count} presentation(s)")
    for i, presentation in enumerate(shown):
        print(f"presentation {i}:")
        for comp in presentation.components:
            signs = "".join(comp.stab_signs) or "none"
            print(
                f"  {comp.role}: tb {comp.legendrian.tb}, rot {comp.legendrian.rot}, "
                f"coeff {'+1' if comp.coefficient == 1 else '-1'}, stabs {signs}"
            )
    return 0


def _cmd_homology(args) -> int:
    from . import diagramio
    from .homology import homology_fields, linking_matrix

    presentation = diagramio.parse_diagram_file(args.file)
    data = homology_fields(linking_matrix(presentation))
    _check_printable((data["determinant"], data["signature"], data["euler_characteristic"]))
    if args.json:
        _write_json(data)
        return 0
    order = "infinite" if data["order_h1"] is None else str(data["order_h1"])
    print(f"|H1| = {order}")
    print(f"signature = {data['signature']}")
    print(f"euler characteristic = {data['euler_characteristic']}")
    print(f"determinant = {data['determinant']}")
    return 0


def _cmd_d3(args) -> int:
    from . import diagramio
    from .homology import d3_invariant

    d3 = d3_invariant(diagramio.parse_diagram_file(args.file))
    _check_printable((d3.numerator, d3.denominator))
    print(d3)
    return 0


def _cmd_classify(args) -> int:
    from .ledger import tight_surgery_ranges

    knot = _load_catalog(args).lookup(args.knot)
    report = tight_surgery_ranges(knot)
    _check_printable([rng.anchor for rng in report.ranges] + [report.sl_tb_gap or 0])
    if args.json:
        _write_json({
            "knot": knot.name,
            "ranges": [rng._asdict() for rng in report.ranges],
            "sl_tb_gap": report.sl_tb_gap,
        })
        return 0
    if not report.ranges:
        print(f"{knot.name}: no tight range certified by the built-in rules")
    for rng in sorted(report.ranges, key=lambda r: (r.anchor, r.rule)):
        print(f"{knot.name}: tight for r >= {rng.anchor} [{rng.rule}]")
    if report.sl_tb_gap is not None:
        print(f"max_sl - max_tb = {report.sl_tb_gap}")
    return 0


def _cmd_ledger(args) -> int:
    from .ledger import (
        LedgerSubject, apply_rules, assert_facts, check_realizable, inverse_limit_status)
    from .legendrian import LegendrianKnot, TransverseKnot

    lo, hi = args.window
    window = f"--window {quote(lo)} {quote(hi)}"
    if lo > hi:
        raise OutOfRange(f"{window}: LO must not exceed HI")
    if hi - lo + 1 > WINDOW_CAP:
        raise OutOfRange(
            f"{window}: a window spans at most {WINDOW_CAP} framings, "
            f"got {quote(hi - lo + 1)}"
        )
    knot_type = None
    if args.knot:
        knot_type = _load_catalog(args).lookup(args.knot)
    legendrian = f"--tb {quote(args.tb)} --rot {quote(args.rot)}"
    transverse = f"--sl {quote(args.sl)}"
    subject = LedgerSubject(
        legendrian=(None if args.tb is None
                    else _knot(legendrian, LegendrianKnot, args.tb, args.rot)),
        transverse=None if args.sl is None else _knot(transverse, TransverseKnot, args.sl),
        knot_type=knot_type,
        binding=args.binding,
        positively_stabilized=args.positively_stabilized,
    )
    check_realizable(subject, legendrian, transverse)
    state = apply_rules(subject)
    if args.facts:
        from . import diagramio

        state = assert_facts(state, diagramio.facts_from_file(args.facts))
    rows = state.rows(lo, hi)
    if args.json:
        _write_json({
            "window": (
                {"framing": f"f_S{k:+d}", "status": status.value, "rule": rule}
                for k, status, rule in rows
            ),
            "inverse_limit": inverse_limit_status(state).value,
        })
        return 0
    for k, status, rule in rows:
        provenance = f"  [{rule}]" if rule else ""
        print(f"f_S{k:+d}  {status.value}{provenance}")
    print(f"inverse limit: {inverse_limit_status(state).value}")
    return 0


def _cmd_openbook(args) -> int:
    from . import diagramio
    from .openbook import cap_off, homology_action

    surface, letters = diagramio.parse_open_book_file(args.file)
    if args.cap is not None:
        try:
            surface, letters = cap_off(surface, letters, args.cap)
        except DiagramFormatError as exc:
            raise DiagramFormatError(
                f"--cap {quote(args.cap)}: {quote(args.file)}.surface.{exc}") from exc
    action = homology_action(letters, surface) if args.action else ()
    # A capped page's classes are computed too, and --json prints them.
    classes = (*surface.boundary_classes, *(c for _, c in surface.curves)) if args.json else ()
    _check_printable(x for rows in (action, classes) for row in rows for x in row)
    if args.json:
        payload = diagramio.open_book_to_dict(surface, letters)
        if args.action:
            payload["action"] = [list(row) for row in action]
        _write_json(payload)
        return 0
    print(f"genus {surface.genus}, boundary components {surface.boundary_count}, "
          f"H1 rank {surface.h1_rank}")
    print("word: " + (" ".join(f"{name}{sign}" for name, sign in letters) or "identity"))
    for row in action:
        print(" ".join(f"{x:4d}" for x in row))
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance

    return 0 if acceptance.run_all(print) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contact-surgery",
        description="Exact contact surgery calculus: expansions, homological "
        "invariants, open book words, tightness classification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    cat = sub.add_parser("catalog", help="look up knot-type records")
    which = cat.add_mutually_exclusive_group(required=True)
    which.add_argument("--knot", help="knot name, e.g. T(2,3)")
    which.add_argument("--list", action="store_true", help="list all names")
    cat.add_argument("--catalog", help="path to a catalog JSON file")
    cat.add_argument("--json", action="store_true")
    cat.set_defaults(run=_cmd_catalog)

    exp = sub.add_parser("expand", help="expand a rational contact surgery")
    exp.add_argument("--tb", type=_integer, required=True)
    exp.add_argument("--rot", type=_integer, required=True)
    exp.add_argument("--coeff", required=True,
                     help="rational coefficient, e.g. 3 or -2; write negative "
                          "fractions in the = form: --coeff=-7/2")
    exp.add_argument("--json", action="store_true")
    exp.add_argument("--count", action="store_true",
                     help="print only the number of presentations")
    exp.add_argument("--limit", type=_integer, metavar="N",
                     help="print only the first N presentations")
    exp.set_defaults(run=_cmd_expand)

    hom = sub.add_parser("homology", help="homological data of a diagram file")
    hom.add_argument("--file", required=True)
    hom.add_argument("--json", action="store_true")
    hom.set_defaults(run=_cmd_homology)

    d3p = sub.add_parser("d3", help="d3 invariant of a diagram file")
    d3p.add_argument("--file", required=True)
    d3p.set_defaults(run=_cmd_d3)

    cls = sub.add_parser("classify", help="certified-tight surgery ranges")
    cls.add_argument("--knot", required=True)
    cls.add_argument("--catalog", help="path to a catalog JSON file")
    cls.add_argument("--json", action="store_true")
    cls.set_defaults(run=_cmd_classify)

    led = sub.add_parser("ledger", help="framed invariant statuses")
    led.add_argument("--knot", help="catalog name supplying genus data")
    led.add_argument("--catalog", help="path to a catalog JSON file")
    led.add_argument("--tb", type=_integer, help="Legendrian tb (enables rule R1)")
    led.add_argument("--rot", type=_integer, default=0)
    led.add_argument("--sl", type=_integer, help="transverse self-linking number")
    led.add_argument("--binding", action="store_true",
                     help="assert the subject is an open book binding")
    led.add_argument("--positively-stabilized", action="store_true")
    led.add_argument("--facts", help="JSON file of extra (offset, status, rule) facts")
    led.add_argument("--window", type=_integer, nargs=2, default=(-3, 12),
                     metavar=("LO", "HI"),
                     help=f"framings to render, LO <= HI, at most {WINDOW_CAP}")
    led.add_argument("--json", action="store_true")
    led.set_defaults(run=_cmd_ledger)

    book = sub.add_parser("openbook", help="inspect an open book file")
    book.add_argument("--file", required=True)
    book.add_argument("--action", action="store_true",
                      help="print the induced matrix on H1")
    book.add_argument("--cap", type=_integer, help="cap off the given boundary index")
    book.add_argument("--json", action="store_true")
    book.set_defaults(run=_cmd_openbook)

    self_test = sub.add_parser("selftest", help="run the acceptance checks")
    self_test.set_defaults(run=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except ContactSurgeryError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit, so
        # a real file descriptor is pointed at the null device, as the Python
        # docs advise for SIGPIPE; an in-memory stdout has none.
        try:
            fd = sys.stdout.fileno()
        except io.UnsupportedOperation:
            return 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    finally:
        if argv is None:
            # The process's own call, about to exit: frozen objects are not
            # walked by the collections at shutdown.  A caller that passes
            # argv goes on running, so its collector is left alone.
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
