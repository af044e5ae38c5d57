"""Topological knot-type records and the built-in catalog.

A KnotType stores the invariants every downstream classifier consumes:
Seifert genus, slice genus, maximal Thurston-Bennequin number and maximal
self-linking number.  Unknown values are stored as None, never guessed.

The connected-sum additivity rules (max_sl and max_tb each gain +1 over
the sum of the summands) are standard external facts; each seed entry
records its provenance as free text in the catalog file.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import (
    DiagramFormatError,
    IncompleteData,
    InvalidCableParameters,
    NotInCatalog,
    quote,
)

FLAG_SQP_FIBERED = "strongly-quasipositive-fibered"
FLAG_ALGEBRAIC = "algebraic"
FLAG_TORUS = "torus"
FLAG_CABLE = "cable"
FLAG_CONNECTED_SUM = "connected-sum"

_KNOWN_FLAGS = frozenset(
    {FLAG_SQP_FIBERED, FLAG_ALGEBRAIC, FLAG_TORUS, FLAG_CABLE, FLAG_CONNECTED_SUM}
)


def read_json(path: str):
    """The JSON value in a UTF-8 file.  An unreadable file, malformed JSON, an
    integer past Python's int-to-str digit limit and nesting past the
    recursion limit are format errors naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DiagramFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DiagramFormatError(f"{path}: cannot read the file: {exc}") from exc
    except ValueError as exc:
        raise DiagramFormatError(f"{path}: an integer has too many digits") from exc
    except RecursionError as exc:
        raise DiagramFormatError(f"{path}: the JSON nests too deeply") from exc


@dataclass(frozen=True)
class KnotType:
    """Invariant record for a topological knot type in the 3-sphere.

    max_tb and max_sl are measured in Seifert-framing coordinates and may
    be None when unknown.  Construction enforces the hard consistency
    rules; the soft cross-check between max_tb and max_sl is a lint only
    (see lint_knot), since it fails for e.g. negative torus knots.
    """

    name: str
    genus: int
    slice_genus: int
    max_tb: int | None = None
    max_sl: int | None = None
    flags: frozenset[str] = field(default_factory=frozenset)
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError(f"{self.name}: genus must be non-negative")
        if not 0 <= self.slice_genus <= self.genus:
            raise ValueError(f"{self.name}: slice genus must lie in [0, genus]")
        if self.max_sl is not None and self.max_sl > 2 * self.genus - 1:
            raise ValueError(
                f"{self.name}: max self-linking {self.max_sl} exceeds "
                f"2*genus - 1 = {2 * self.genus - 1}"
            )
        if FLAG_SQP_FIBERED in self.flags:
            if self.max_sl is None or self.max_sl != 2 * self.genus - 1:
                raise ValueError(
                    f"{self.name}: the {FLAG_SQP_FIBERED} flag requires "
                    f"max_sl == 2*genus - 1"
                )
        unknown = self.flags - _KNOWN_FLAGS
        if unknown:
            raise ValueError(f"{self.name}: unknown flags {sorted(unknown)}")
        if self.max_sl is not None and self.max_sl % 2 != 1:
            # A transverse knot in the 3-sphere has odd self-linking number.
            raise ValueError(f"{self.name}: max self-linking {self.max_sl} must be odd")


def lint_knot(knot: KnotType) -> list[str]:
    """Soft consistency warnings that are not construction errors."""
    notes = []
    if knot.max_tb is not None and knot.max_sl is not None:
        if knot.max_sl < knot.max_tb:
            notes.append(
                f"{knot.name}: recorded max_sl {knot.max_sl} is below "
                f"max_tb {knot.max_tb}"
            )
    if knot.max_tb is not None and knot.max_tb > 2 * knot.genus - 1:
        notes.append(
            f"{knot.name}: max_tb {knot.max_tb} exceeds 2*genus - 1"
        )
    return notes


def torus_knot(p: int, q: int) -> KnotType:
    """Positive torus knot record, parameters coprime with q > p >= 2."""
    if not (2 <= p < q) or math.gcd(p, q) != 1:
        raise InvalidCableParameters(f"torus knot parameters ({p}, {q}) invalid")
    genus = (p - 1) * (q - 1) // 2
    tb = p * q - p - q
    return KnotType(
        name=f"T({p},{q})",
        genus=genus,
        slice_genus=genus,
        max_tb=tb,
        max_sl=2 * genus - 1,
        flags=frozenset({FLAG_TORUS, FLAG_SQP_FIBERED, FLAG_ALGEBRAIC}),
        provenance="positive torus knot closed forms",
    )


def cable_of_trefoil(p: int, q: int) -> KnotType:
    """The (p, q)-cable of the right-handed trefoil, q > p >= 1 coprime.

    max_sl = p*q + q - p, max_tb = p*q, and the genus is pinned by
    max_sl = 2*genus - 1.
    """
    if not (1 <= p < q):
        raise InvalidCableParameters(f"cable parameters ({p}, {q}) need q > p >= 1")
    if math.gcd(p, q) != 1:
        raise InvalidCableParameters(f"cable parameters ({p}, {q}) must be coprime")
    max_sl = p * q + q - p
    genus, rem = divmod(max_sl + 1, 2)
    if rem:
        raise InvalidCableParameters(f"cable ({p}, {q}) gives non-integral genus")
    return KnotType(
        name=f"C({p},{q};T(2,3))",
        genus=genus,
        slice_genus=genus,
        max_tb=p * q,
        max_sl=max_sl,
        flags=frozenset({FLAG_CABLE, FLAG_SQP_FIBERED, FLAG_ALGEBRAIC}),
        provenance="cable of trefoil closed forms",
    )


def connected_sum(a: KnotType, b: KnotType) -> KnotType:
    """Connected sum with additive genera and max_sl/max_tb each gaining 1."""
    for part in (a, b):
        if part.max_tb is None or part.max_sl is None:
            raise IncompleteData(
                f"connected sum needs max_tb and max_sl for {part.name}"
            )
    flags = {FLAG_CONNECTED_SUM}
    if FLAG_SQP_FIBERED in a.flags and FLAG_SQP_FIBERED in b.flags:
        flags.add(FLAG_SQP_FIBERED)
    return KnotType(
        name=f"{a.name} # {b.name}",
        genus=a.genus + b.genus,
        slice_genus=a.slice_genus + b.slice_genus,
        max_tb=a.max_tb + b.max_tb + 1,
        max_sl=a.max_sl + b.max_sl + 1,
        flags=frozenset(flags),
        provenance="connected sum additivity (standard external facts)",
    )


UNKNOT = KnotType(
    name="unknot",
    genus=0,
    slice_genus=0,
    max_tb=-1,
    max_sl=-1,
    provenance="standard unknot values",
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_or_null(value) -> bool:
    return value is None or _is_int(value)


def _is_str(value) -> bool:
    return isinstance(value, str)


# Each catalog record field with its check and the type it must have.
_RECORD_FIELDS = {
    "name": (_is_str, "a string"),
    "genus": (_is_int, "an integer"),
    "slice_genus": (_is_int, "an integer"),
    "max_tb": (_is_int_or_null, "an integer or null"),
    "max_sl": (_is_int_or_null, "an integer or null"),
    "flags": (lambda v: isinstance(v, list) and all(map(_is_str, v)), "a list of strings"),
    "provenance": (_is_str, "a string"),
}
# The value of an optional field that a record omits.
_RECORD_DEFAULTS = {"max_tb": None, "max_sl": None, "flags": [], "provenance": ""}


class Catalog:
    """Immutable name-indexed collection of KnotType records."""

    def __init__(self, entries: Iterator[KnotType] | list[KnotType]):
        self._entries: dict[str, KnotType] = {}
        for entry in entries:
            if entry.name in self._entries:
                raise DiagramFormatError(f"duplicate catalog entry {quote(entry.name)!r}")
            self._entries[entry.name] = entry

    def lookup(self, name: str) -> KnotType:
        try:
            return self._entries[name]
        except KeyError:
            raise NotInCatalog(f"no catalog entry named {quote(name)!r}") from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[KnotType]:
        return iter(self._entries.values())

    @classmethod
    def from_records(cls, records: list[dict]) -> "Catalog":
        entries = []
        for i, rec in enumerate(records):
            try:
                fields = {}
                for key, (ok, kind) in _RECORD_FIELDS.items():
                    if key in _RECORD_DEFAULTS:
                        value = rec.get(key, _RECORD_DEFAULTS[key])
                    else:
                        value = rec[key]
                    if not ok(value):
                        raise DiagramFormatError(f"catalog record [{i}].{key}: must be {kind}")
                    fields[key] = value
                fields["flags"] = frozenset(fields["flags"])
                entries.append(KnotType(**fields))
            except (KeyError, TypeError, ValueError) as exc:
                raise DiagramFormatError(f"catalog record [{i}]: {exc}") from exc
        return cls(entries)

    @classmethod
    def from_json(cls, path: str) -> "Catalog":
        records = read_json(path)
        if not isinstance(records, list):
            raise DiagramFormatError(f"catalog {path}: top level must be a list")
        return cls.from_records(records)

    @classmethod
    def builtin(cls) -> "Catalog":
        """The seed catalog shipped with the package."""
        return cls.from_json(
            os.path.join(os.path.dirname(__file__), "data", "seed_catalog.json")
        )


def build_seed_entries() -> list[KnotType]:
    """Recompute the seed catalog from the closed-form constructors.

    Kept as the generator of data/seed_catalog.json and as a test oracle
    for the shipped file.  Non-coprime (p, q) pairs are links rather than
    knots, so they are excluded.
    """
    entries: list[KnotType] = [UNKNOT]
    for p in range(2, 7):
        for q in range(p + 1, 8):
            if math.gcd(p, q) == 1:
                entries.append(torus_knot(p, q))
    cables = []
    for p in range(1, 4):
        for q in range(p + 1, 5):
            if math.gcd(p, q) == 1:
                cables.append(cable_of_trefoil(p, q))
    entries.extend(cables)
    for cable in cables:
        double = connected_sum(cable, cable)
        entries.append(double)
        entries.append(connected_sum(double, cable))
    return entries
