"""JSON serialization of surgery diagrams, open books and ledger facts.

Diagram schema: a top-level object with "components", each component an
object {"tb": int, "rot": int, "coeff": "+1"|"-1", "role": str,
"stab_signs": [str, ...]}; stab_signs is optional on input.  Every
component has tb + rot odd, and each one after the first is a pushoff of
its predecessor stabilized by its stab_signs.  Open book
schema: {"surface": {genus, boundary, pairing, boundary_classes},
"alphabet": {name: class vector}, "word": [[name, sign], ...]}.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import DiagramFormatError, InvalidCoefficient
from .expansion import (
    Component,
    ContactSurgeryPresentation,
    ROLE_CHAIN,
    ROLE_PLUS_ONE,
)
from .legendrian import LegendrianKnot, stabilize_many
from .openbook import SurfaceModel, word as make_word


def _load_json(text: str, source: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramFormatError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _read_json_file(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DiagramFormatError(f"{path}: cannot read the file: {exc}") from exc
    return _load_json(text, path)


def _require(mapping: dict, key: str, kind, path: str):
    if key not in mapping:
        raise DiagramFormatError(f"{path}: missing field {key!r}")
    value = mapping[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise DiagramFormatError(f"{path}.{key}: expected {kind.__name__}")
    return value


def parse_coefficient(raw, path: str) -> int:
    if raw == "+1" or raw == 1:
        return 1
    if raw == "-1" or raw == -1:
        return -1
    raise InvalidCoefficient(f"{path}: contact coefficient must be +1 or -1, got {raw!r}")


def presentation_from_dict(data: Any, source: str = "diagram") -> ContactSurgeryPresentation:
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
        role = raw.get("role", ROLE_PLUS_ONE if coeff == 1 else ROLE_CHAIN)
        signs = raw.get("stab_signs", [])
        if not isinstance(signs, list) or any(s not in ("+", "-") for s in signs):
            raise DiagramFormatError(f"{path}.stab_signs: entries must be '+' or '-'")
        signs = tuple(signs)
        if (tb + rot) % 2 == 0:
            raise DiagramFormatError(
                f"{path}: tb + rot = {tb + rot} is even; a Legendrian knot in "
                "the 3-sphere has tb + rot odd"
            )
        if components:
            prev = components[-1].legendrian
            expected = stabilize_many(prev, signs)
            if (tb, rot) != (expected.tb, expected.rot):
                raise DiagramFormatError(
                    f"{path}: (tb, rot) = ({tb}, {rot}) is not the previous "
                    f"component ({prev.tb}, {prev.rot}) stabilized by "
                    f"stab_signs {list(signs)}, which gives "
                    f"({expected.tb}, {expected.rot})"
                )
        try:
            components.append(
                Component(role, LegendrianKnot(tb, rot), coeff, stab_signs=signs)
            )
        except ValueError as exc:
            raise DiagramFormatError(f"{path}: {exc}") from exc
    try:
        return ContactSurgeryPresentation(
            tuple(components), overtwisted=bool(data.get("overtwisted", False))
        )
    except ValueError as exc:
        raise DiagramFormatError(f"{source}.components: {exc}") from exc


def parse_diagram_file(path: str) -> ContactSurgeryPresentation:
    return presentation_from_dict(_read_json_file(path), path)


def presentation_to_dict(presentation: ContactSurgeryPresentation) -> dict:
    data: dict[str, Any] = {
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


def open_book_from_dict(data: Any, source: str = "openbook") -> tuple[SurfaceModel, tuple]:
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
            pairing=tuple(tuple(row) for row in pairing),
            curves=tuple((name, tuple(cls)) for name, cls in alphabet.items()),
            boundary_classes=tuple(
                tuple(cls) for cls in surf.get("boundary_classes", [])
            ),
        )
    except (TypeError, ValueError) as exc:
        raise DiagramFormatError(f"{source}.surface: {exc}") from exc
    try:
        letters = make_word(*(tuple(letter) for letter in raw_word))
    except (TypeError, ValueError) as exc:
        raise DiagramFormatError(f"{source}.word: {exc}") from exc
    for name, _ in letters:
        if not surface.has_curve(name):
            raise DiagramFormatError(f"{source}.word: unknown curve {name!r}")
    return surface, letters


def parse_open_book_file(path: str) -> tuple[SurfaceModel, tuple]:
    return open_book_from_dict(_read_json_file(path), path)


def open_book_to_dict(surface: SurfaceModel, letters) -> dict:
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
    data = _read_json_file(path)
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
        if offset is not None and not isinstance(offset, int):
            raise DiagramFormatError(f"{path}[{i}].offset: must be an integer or null")
        rule = raw.get("rule", "file")
        records.append({"offset": offset, "status": status, "rule": rule})
    return records
