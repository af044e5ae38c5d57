"""JSON serialization of surgery diagrams, open books and ledger facts.

Diagram schema: a top-level object with "components", each component an
object {"tb": int, "rot": int, "coeff": "+1"|"-1", "role": str,
"stab_signs": [str, ...]}; role and stab_signs are optional on input, and
a role must be the one its coeff gives: "originalPlusOne" for +1,
"chainLink" for -1.  Every
component has tb + rot odd, and each one after the first is a pushoff of
its predecessor stabilized by its stab_signs.  Stabilizations commute, so
stab_signs is read as a multiset (a component stores the two counts) and
is written negatives first.  Open book schema: {"surface": {genus,
boundary, pairing, boundary_classes}, "alphabet": {name: class vector},
"word": [[name, sign], ...]}.
"""

from __future__ import annotations

from .catalog import read_json
from .errors import DiagramFormatError, InvalidCoefficient, quote
from .expansion import Component, ContactSurgeryPresentation
from .legendrian import LegendrianKnot, stabilize_many


def _require(mapping: dict, key: str, kind, path: str):
    if key not in mapping:
        raise DiagramFormatError(f"{path}: missing field {key!r}")
    value = mapping[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise DiagramFormatError(f"{path}.{key}: expected {kind.__name__}")
    return value


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
    if raw == "+1" or raw == 1:
        return 1
    if raw == "-1" or raw == -1:
        return -1
    raise InvalidCoefficient(
        f"{path}: contact coefficient must be +1 or -1, got {quote(repr(raw))}")


def presentation_from_dict(data: object, source: str = "diagram") -> ContactSurgeryPresentation:
    if not isinstance(data, dict):
        raise DiagramFormatError(f"{source}: top level must be an object")
    raw_components = _require(data, "components", list, source)
    components = []
    for i, raw in enumerate(raw_components):
        path = f"{source}.components[{i}]"
        if not isinstance(raw, dict):
            raise DiagramFormatError(f"{path}: expected an object")
        tb = _require(raw, "tb", int, path)
        rot = _require(raw, "rot", int, path)
        coeff = parse_coefficient(raw.get("coeff"), f"{path}.coeff")
        signs = raw.get("stab_signs", [])
        if not isinstance(signs, list) or any(s not in ("+", "-") for s in signs):
            raise DiagramFormatError(f"{path}.stab_signs: entries must be '+' or '-'")
        if (tb + rot) % 2 == 0:
            raise DiagramFormatError(
                f"{path}: tb + rot = {quote(tb + rot)} is even; a Legendrian knot in "
                "the 3-sphere has tb + rot odd"
            )
        if components:
            prev = components[-1].legendrian
            expected = stabilize_many(prev, signs)
            if (tb, rot) != (expected.tb, expected.rot):
                raise DiagramFormatError(
                    f"{path}: (tb, rot) = ({quote(tb)}, {quote(rot)}) is not "
                    f"the previous component ({quote(prev.tb)}, {quote(prev.rot)}) "
                    f"stabilized by stab_signs {quote(signs)}, which gives "
                    f"({quote(expected.tb)}, {quote(expected.rot)})"
                )
        component = Component(LegendrianKnot(tb, rot), coeff, signs.count("-"), signs.count("+"))
        if raw.get("role", component.role) != component.role:
            raise DiagramFormatError(
                f"{path}.role: a {coeff:+d} component has role {component.role!r}"
            )
        components.append(component)
    try:
        return ContactSurgeryPresentation(
            tuple(components), overtwisted=bool(data.get("overtwisted", False))
        )
    except ValueError as exc:
        raise DiagramFormatError(f"{source}.components: {exc}") from exc


def parse_diagram_file(path: str) -> ContactSurgeryPresentation:
    return presentation_from_dict(read_json(path), path)


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
    # Imported here, so that the diagram verbs do not load openbook.
    from .openbook import SurfaceModel, word as make_word

    if not isinstance(data, dict):
        raise DiagramFormatError(f"{source}: top level must be an object")
    surf = _require(data, "surface", dict, source)
    genus = _require(surf, "genus", int, f"{source}.surface")
    boundary = _require(surf, "boundary", int, f"{source}.surface")
    pairing = _require(surf, "pairing", list, f"{source}.surface")
    alphabet = _require(data, "alphabet", dict, source)
    raw_word = _require(data, "word", list, source)
    try:
        surface = SurfaceModel(
            genus=genus,
            boundary_count=boundary,
            pairing=_integers(pairing, f"{source}.surface.pairing", 2),
            curves=tuple(
                (name, _integers(cls, f"{source}.alphabet.{name}", 1))
                for name, cls in alphabet.items()
            ),
            boundary_classes=_integers(
                surf.get("boundary_classes", []), f"{source}.surface.boundary_classes", 2
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
    return open_book_from_dict(read_json(path), path)


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


def facts_from_file(path: str) -> list[dict]:
    """Ledger fact records: a list of {offset, status, rule} objects."""
    data = read_json(path)
    if not isinstance(data, list):
        raise DiagramFormatError(f"{path}: top level must be a list")
    records = []
    for i, raw in enumerate(data):
        if not isinstance(raw, dict):
            raise DiagramFormatError(f"{path}[{i}]: expected an object")
        status = raw.get("status")
        if status not in ("Zero", "NonZero"):
            raise DiagramFormatError(f"{path}[{i}].status: must be Zero or NonZero")
        offset = raw.get("offset")
        if offset is None and status != "Zero":
            raise DiagramFormatError(f"{path}[{i}].offset: null (every framing) is valid only for Zero")
        if offset is not None and (isinstance(offset, bool) or not isinstance(offset, int)):
            raise DiagramFormatError(f"{path}[{i}].offset: must be an integer or null")
        rule = raw.get("rule", "file")
        if not isinstance(rule, str):
            raise DiagramFormatError(f"{path}[{i}].rule: must be a string")
        records.append({"offset": offset, "status": status, "rule": rule})
    return records
