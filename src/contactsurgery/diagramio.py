"""JSON serialization of surgery diagrams, open books and ledger facts.

Diagram schema: a top-level object with "components" and an optional
"overtwisted" boolean (default false), each component an object
{"tb": int, "rot": int, "coeff": "+1"|"-1"|1|-1, "role": str,
"stab_signs": [str, ...]}; role and stab_signs are optional on input, and
a role must be the one its coeff gives: "originalPlusOne" for +1,
"chainLink" for -1.  Every component has tb + rot odd, and each one after
the first is a pushoff of its predecessor stabilized by its stab_signs.
Stabilizations commute, so stab_signs is read as a multiset (a component
stores the two counts, and the pushoff rule is checked from them) and is
written negatives first.  Open book schema:
{"surface": {genus, boundary, pairing, boundary_classes}, "alphabet":
{name: class vector}, "word": [[name, sign], ...]}.  Every field is read
by `errors.read_field`, and the entries of nested integer lists by
`_integers`.
"""

from __future__ import annotations

# Each reader imports its format's records when it runs, so an open book or
# a facts file loads no presentation records, and a diagram no openbook and
# no expansion.
from .errors import (
    DiagramFormatError, InvalidCoefficient, NotRealizable, quote, read_field, read_json)


def _integers(raw, path: str, depth: int):
    """Lists nested `depth` deep with integers (not bools) inside, as tuples."""
    if depth == 0:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise DiagramFormatError(f"{path}: expected an integer, got {quote(repr(raw))}")
        return raw
    if not isinstance(raw, list):
        raise DiagramFormatError(f"{path}: expected a list")
    return tuple(_integers(x, f"{path}[{k}]", depth - 1) for k, x in enumerate(raw))


def parse_coefficient(raw, path: str) -> int:
    """The string "+1" or "-1", or the integer 1 or -1: a bool or a float is
    not read as an integer."""
    if raw in ("+1", "-1") or (type(raw) is int and raw in (1, -1)):
        return int(raw)
    raise InvalidCoefficient(
        f"{path}: contact coefficient must be +1 or -1, got {quote(repr(raw))}")


def presentation_from_dict(data: object, source: str = "diagram") -> ContactSurgeryPresentation:
    from .legendrian import LegendrianKnot
    from .presentation import Component, ContactSurgeryPresentation

    raw_components = read_field(data, "components", list, source)
    components = []
    for i, raw in enumerate(raw_components):
        path = f"{source}.components[{i}]"
        tb = read_field(raw, "tb", int, path)
        rot = read_field(raw, "rot", int, path)
        if "coeff" not in raw:
            raise DiagramFormatError(f"{path}: missing field 'coeff'")
        coeff = parse_coefficient(raw["coeff"], f"{path}.coeff")
        signs = read_field(raw, "stab_signs", list, path, [])
        if any(s not in ("+", "-") for s in signs):
            raise DiagramFormatError(f"{path}.stab_signs: entries must be '+' or '-'")
        try:
            knot = LegendrianKnot(tb, rot)
        except NotRealizable as exc:
            raise DiagramFormatError(f"{path}: {exc}") from exc
        negatives, positives = signs.count("-"), signs.count("+")
        if components:
            # Each stabilization lowers tb by 1 and moves rot by -1 ('-') or +1 ('+').
            prev = components[-1].legendrian
            expected = (prev.tb - negatives - positives, prev.rot + positives - negatives)
            if (tb, rot) != expected:
                raise DiagramFormatError(
                    f"{path}: (tb, rot) = ({quote(tb)}, {quote(rot)}) is not "
                    f"the previous component ({quote(prev.tb)}, {quote(prev.rot)}) "
                    f"stabilized by stab_signs {quote(signs)}, which gives "
                    f"({quote(expected[0])}, {quote(expected[1])})"
                )
        component = Component(knot, coeff, negatives, positives)
        if read_field(raw, "role", str, path, component.role) != component.role:
            raise DiagramFormatError(
                f"{path}.role: a {coeff:+d} component has role {component.role!r}"
            )
        components.append(component)
    overtwisted = read_field(data, "overtwisted", bool, source, False)
    try:
        return ContactSurgeryPresentation(tuple(components), overtwisted=overtwisted)
    except ValueError as exc:
        raise DiagramFormatError(f"{source}.components: {exc}") from exc


def parse_diagram_file(path: str) -> ContactSurgeryPresentation:
    return presentation_from_dict(read_json(path), quote(path))


def presentation_to_dict(presentation: ContactSurgeryPresentation) -> dict:
    data: dict = {
        "components": [
            {
                "tb": c.legendrian.tb,
                "rot": c.legendrian.rot,
                "coeff": "+1" if c.coefficient == 1 else "-1",
                "role": c.role,
                "stab_signs": list(c.stab_signs),
            }
            for c in presentation.components
        ]
    }
    if presentation.overtwisted:
        data["overtwisted"] = True
    return data


def open_book_from_dict(data: object, source: str = "openbook") -> tuple:
    """The (SurfaceModel, letters) pair of an open-book object."""
    from .openbook import SurfaceModel, word as make_word

    surf = read_field(data, "surface", dict, source)
    where = f"{source}.surface"
    genus = read_field(surf, "genus", int, where)
    boundary = read_field(surf, "boundary", int, where)
    pairing = read_field(surf, "pairing", list, where)
    alphabet = read_field(data, "alphabet", dict, source)
    raw_word = read_field(data, "word", list, source)
    try:
        surface = SurfaceModel(
            genus=genus,
            boundary_count=boundary,
            pairing=_integers(pairing, f"{where}.pairing", 2),
            curves=tuple(
                (name, _integers(cls, f"{source}.alphabet.{quote(name)}", 1))
                for name, cls in alphabet.items()
            ),
            boundary_classes=_integers(
                read_field(surf, "boundary_classes", list, where, []),
                f"{where}.boundary_classes", 2,
            ),
        )
    except (TypeError, ValueError) as exc:
        raise DiagramFormatError(f"{source}.surface: {exc}") from exc
    letters = []
    for i, letter in enumerate(raw_word):
        path = f"{source}.word[{i}]"
        if not (isinstance(letter, list) and len(letter) == 2
                and all(isinstance(x, str) for x in letter)):
            raise DiagramFormatError(
                f"{path}: expected [name, sign], two strings, got {quote(repr(letter))}")
        try:
            letters += make_word(tuple(letter))
        except ValueError as exc:
            raise DiagramFormatError(f"{path}: {exc}") from exc
        if not surface.has_curve(letter[0]):
            raise DiagramFormatError(f"{path}: unknown curve {quote(letter[0])!r}")
    return surface, tuple(letters)


def parse_open_book_file(path: str) -> tuple:
    return open_book_from_dict(read_json(path), quote(path))


def open_book_to_dict(surface, letters) -> dict:
    return {
        "surface": {
            "genus": surface.genus,
            "boundary": surface.boundary_count,
            "pairing": [list(row) for row in surface.pairing],
            "boundary_classes": [list(b) for b in surface.boundary_classes],
        },
        "alphabet": {name: list(cls) for name, cls in surface.curves},
        "word": [[name, sign] for name, sign in letters],
    }


def facts_from_file(path: str) -> list[tuple]:
    """The facts of a list of {offset, status, rule} objects, as the
    (offset, InvariantStatus, rule) triples `ledger.assert_facts` takes."""
    from .legendrian import InvariantStatus

    data, source = read_json(path), quote(path)
    if not isinstance(data, list):
        raise DiagramFormatError(f"{source}: top level must be a list")
    facts = []
    for i, raw in enumerate(data):
        where = f"{source}[{i}]"
        status = read_field(raw, "status", str, where)
        if status not in ("Zero", "NonZero"):
            raise DiagramFormatError(f"{where}.status: must be Zero or NonZero")
        offset = read_field(raw, "offset", int, where, None)
        if offset is None and status != "Zero":
            raise DiagramFormatError(f"{where}.offset: null (every framing) is valid only for Zero")
        facts.append((offset, InvariantStatus(status), read_field(raw, "rule", str, where, "file")))
    return facts
