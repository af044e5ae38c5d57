"""Topological knot-type records and the built-in catalog.

A KnotType stores the invariants every downstream classifier consumes:
Seifert genus, slice genus, maximal Thurston-Bennequin number and maximal
self-linking number.  Unknown values are stored as None, never guessed.

The connected-sum additivity rules (max_sl and max_tb each gain +1 over
the sum of the summands) are standard external facts; each seed entry
records its provenance as free text in the catalog file.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator

from .errors import (
    DiagramFormatError,
    IncompleteData,
    InvalidCableParameters,
    NotInCatalog,
    NotRealizable,
    quote,
    read_field,
    read_json,
)
from .legendrian import TransverseKnot
from .record import Record

FLAG_SQP_FIBERED = "strongly-quasipositive-fibered"
FLAG_ALGEBRAIC = "algebraic"
FLAG_TORUS = "torus"
FLAG_CABLE = "cable"
FLAG_CONNECTED_SUM = "connected-sum"

_KNOWN_FLAGS = frozenset(
    {FLAG_SQP_FIBERED, FLAG_ALGEBRAIC, FLAG_TORUS, FLAG_CABLE, FLAG_CONNECTED_SUM}
)


class KnotType(Record):
    """Invariant record for a topological knot type in the 3-sphere.

    max_tb and max_sl are measured in Seifert-framing coordinates and may
    be None when unknown.  Construction enforces the hard consistency
    rules; the soft cross-check between max_tb and max_sl is a lint only
    (see lint_knot), since it fails for e.g. negative torus knots.
    """

    _fields = ("name", "genus", "slice_genus", "max_tb", "max_sl", "flags", "provenance")
    _defaults = {"max_tb": None, "max_sl": None, "flags": frozenset(), "provenance": ""}

    def _check(self) -> None:
        genus, slice_genus, max_sl, flags = self.genus, self.slice_genus, self.max_sl, self.flags
        # The name and the flags are free text from a catalog file.
        where = quote(self.name)
        if genus < 0:
            raise ValueError(f"{where}: genus must be non-negative")
        if not 0 <= slice_genus <= genus:
            raise ValueError(f"{where}: slice genus must lie in [0, genus]")
        if max_sl is not None and max_sl > 2 * genus - 1:
            raise ValueError(
                f"{where}: max self-linking {quote(max_sl)} exceeds "
                f"2*genus - 1 = {quote(2 * genus - 1)}"
            )
        if FLAG_SQP_FIBERED in flags:
            if max_sl is None or max_sl != 2 * genus - 1:
                raise ValueError(
                    f"{where}: the {FLAG_SQP_FIBERED} flag requires "
                    f"max_sl == 2*genus - 1"
                )
        unknown = flags - _KNOWN_FLAGS
        if unknown:
            raise ValueError(f"{where}: unknown flags {quote(sorted(unknown))}")
        if max_sl is not None:
            try:
                TransverseKnot(max_sl)  # the home of the parity rule
            except NotRealizable:
                raise ValueError(f"{where}: max self-linking {quote(max_sl)} must be odd") from None


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
        raise InvalidCableParameters(f"torus knot parameters ({quote(p)}, {quote(q)}) invalid")
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
        raise InvalidCableParameters(f"cable parameters ({quote(p)}, {quote(q)}) need q > p >= 1")
    if math.gcd(p, q) != 1:
        raise InvalidCableParameters(f"cable parameters ({quote(p)}, {quote(q)}) must be coprime")
    max_sl = p * q + q - p
    # max_sl + 1 = (p + 1)(q - 1) + 2 is even: coprime p and q are not both even.
    genus = (max_sl + 1) // 2
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
                f"connected sum needs max_tb and max_sl for {quote(part.name)}"
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

    @classmethod
    def from_records(cls, records: list[dict]) -> "Catalog":
        entries = []
        for i, rec in enumerate(records):
            path = f"catalog record [{i}]"
            name = read_field(rec, "name", str, path)
            genus = read_field(rec, "genus", int, path)
            slice_genus = read_field(rec, "slice_genus", int, path)
            max_tb = read_field(rec, "max_tb", int, path, None)
            max_sl = read_field(rec, "max_sl", int, path, None)
            flags = read_field(rec, "flags", list, path, [])
            if not all(isinstance(flag, str) for flag in flags):
                raise DiagramFormatError(f"{path}.flags: must be a list of strings")
            provenance = read_field(rec, "provenance", str, path, "")
            try:
                entries.append(KnotType(name, genus, slice_genus, max_tb, max_sl,
                                        frozenset(flags), provenance))
            except ValueError as exc:
                raise DiagramFormatError(f"{path}: {exc}") from exc
        return cls(entries)

    @classmethod
    def from_json(cls, path: str) -> "Catalog":
        records = read_json(path)
        if not isinstance(records, list):
            raise DiagramFormatError(f"catalog {quote(path)}: top level must be a list")
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
