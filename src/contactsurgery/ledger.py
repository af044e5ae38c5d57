"""Per-framing vanishing/nonvanishing bookkeeping and the tightness classifier.

A ledger records, for one framed subject (a Legendrian or transverse
knot in a tagged contact manifold), which framings are known to carry a
Zero or NonZero invariant (a legendrian.InvariantStatus); a framing
f_S + k is given by its integer offset k.  The framed invariants form a
thread under the framing-lowering maps, so the closure is monotone:

    NonZero at f propagates to every framing above f,
    Zero at f propagates to every framing below f,

and a framing that ends up both Zero and NonZero is a Contradiction,
never silently resolved.

The built-in rules R1-R6 and E1 are the entries of RULES, each with its
id (recorded as the provenance of the facts it asserts), precondition and
conclusion.  apply_rules asserts them in table order; the classifier
tight_surgery_ranges reads the entries R5 and R6.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

from .errors import Contradiction, IncompleteData
from .legendrian import InvariantStatus, LegendrianKnot, TransverseKnot

# KnotType annotations name a catalog.KnotType; they are never evaluated,
# so this module does not import catalog.

STANDARD_TIGHT_S3 = "S3-standard"

ZERO = InvariantStatus.ZERO
NONZERO = InvariantStatus.NONZERO


class LedgerVerdict(enum.Enum):
    ZERO = "Zero"
    NOT_ALL_ZERO = "NotAllZero"
    UNKNOWN = "Unknown"


# offset: int | None, status: InvariantStatus, rule: str.
Fact = namedtuple("Fact", "offset status rule")
Fact.__doc__ = """One recorded status; offset None means 'at every framing'."""


@dataclass(frozen=True)
class LedgerSubject:
    """What the ledger is about, with the caller-asserted geometric flags."""

    legendrian: LegendrianKnot | None = None
    transverse: TransverseKnot | None = None
    manifold: str = STANDARD_TIGHT_S3
    positively_stabilized: bool = False
    complement_overtwisted_or_torsion: bool = False
    binding: bool = False
    ambient_invariant: InvariantStatus = InvariantStatus.NONZERO
    ambient_b1: int = 0

    def knot_type(self) -> KnotType | None:
        for knot in (self.legendrian, self.transverse):
            if knot is not None and knot.knot_type is not None:
                return knot.knot_type
        return None


@dataclass(frozen=True)
class LedgerState:
    """An immutable fact set and its closure.

    The closure is three facts that assert_fact carries forward: the first
    Zero fact that covers every framing, the Zero fact at the largest
    offset (the zero ceiling) and the NonZero fact at the smallest offset
    (the nonzero floor), the first asserted among facts at one offset.
    Start from LedgerState() and add facts with assert_fact.
    """

    facts: tuple[Fact, ...] = ()
    everywhere: Fact | None = None
    ceiling: Fact | None = None
    floor: Fact | None = None

    def check_consistent(self) -> None:
        """Raise Contradiction when some framing is both Zero and NonZero."""
        floor = self.floor
        if floor is None:
            return
        if self.everywhere is not None:
            raise Contradiction(None, self.everywhere.rule, floor.rule)
        if self.ceiling is not None and floor.offset <= self.ceiling.offset:
            zero_rule = next(
                f.rule
                for f in self.facts
                if f.status is ZERO and f.offset is not None and f.offset >= floor.offset
            )
            raise Contradiction(floor.offset, zero_rule, floor.rule)

    def status_at(self, offset: int) -> InvariantStatus:
        if self.everywhere is not None or (
            self.ceiling is not None and offset <= self.ceiling.offset
        ):
            return ZERO
        if self.floor is not None and offset >= self.floor.offset:
            return NONZERO
        return InvariantStatus.UNKNOWN

    def window(self, lo: int, hi: int) -> list[tuple[int, InvariantStatus, str | None]]:
        return list(self.rows(lo, hi))

    @cached_property
    def _by_offset(self) -> dict[InvariantStatus, tuple[list[int], dict[int, str]]]:
        """Per status, the distinct concrete offsets in increasing order and
        the rule first asserted at each."""
        first: dict[InvariantStatus, dict[int, str]] = {ZERO: {}, NONZERO: {}}
        for fact in self.facts:
            if fact.offset is not None:
                first[fact.status].setdefault(fact.offset, fact.rule)
        return {status: (sorted(rules), rules) for status, rules in first.items()}

    def rows(self, lo: int, hi: int):
        """(framing, status, provenance) for lo..hi, one at a time; `window`
        is their list.  A Zero framing is justified by the Zero fact at the
        nearest offset at or above it, a NonZero framing by the NonZero fact
        at the nearest offset at or below it, each found by one bisect."""
        zeros, zero_rules = self._by_offset[ZERO]
        nonzeros, nonzero_rules = self._by_offset[NONZERO]
        for k in range(lo, hi + 1):
            status = self.status_at(k)
            if status is InvariantStatus.UNKNOWN:
                rule = None
            elif status is NONZERO:
                rule = nonzero_rules[nonzeros[bisect_right(nonzeros, k) - 1]]
            elif self.everywhere is not None:
                rule = self.everywhere.rule
            else:
                rule = zero_rules[zeros[bisect_left(zeros, k)]]
            yield k, status, rule


def assert_fact(
    state: LedgerState,
    offset: int | None,
    status: InvariantStatus,
    rule: str,
) -> LedgerState:
    """Record a fact at the framing offset `offset`, or at every framing when
    it is None, and carry the closure forward; raises Contradiction when the
    closure would assign both statuses to some framing."""
    if status not in (ZERO, NONZERO):
        raise ValueError("only Zero and NonZero facts can be asserted")
    if offset is None and status is not ZERO:
        raise ValueError("only Zero facts may cover all framings")
    fact = Fact(offset, status, rule)
    everywhere, ceiling, floor = state.everywhere, state.ceiling, state.floor
    if offset is None:
        everywhere = everywhere or fact
    elif status is ZERO:
        if ceiling is None or offset > ceiling.offset:
            ceiling = fact
    elif floor is None or offset < floor.offset:
        floor = fact
    updated = LedgerState(state.facts + (fact,), everywhere, ceiling, floor)
    updated.check_consistent()
    return updated


# id: str, holds: LedgerSubject -> bool, status: InvariantStatus,
# offset: LedgerSubject -> int, or None.
Rule = namedtuple("Rule", "id holds status offset", defaults=(None,))
Rule.__doc__ = """A built-in rule: a subject that meets `holds` carries `status` at the
framing offset `offset(subject)`, or at every framing when `offset` is
None."""


def _standard_s3_knot_type(subject: LedgerSubject) -> KnotType | None:
    """The subject's knot type, when it is known and the subject lies in the
    standard tight 3-sphere."""
    if subject.manifold != STANDARD_TIGHT_S3:
        return None
    return subject.knot_type()


def _max_self_linking_binding(s: LedgerSubject) -> bool:
    knot_type = _standard_s3_knot_type(s)
    return (
        s.transverse is not None
        and s.binding
        and knot_type is not None
        and knot_type.genus >= 1
        and s.transverse.sl == 2 * knot_type.genus - 1
    )


def _max_tb_legendrian(s: LedgerSubject) -> bool:
    knot_type = _standard_s3_knot_type(s)
    return (
        s.legendrian is not None
        and knot_type is not None
        and s.legendrian.tb == 2 * knot_type.slice_genus - 1
        and s.legendrian.tb > 0
    )


def _max_unknot(s: LedgerSubject) -> bool:
    knot_type = _standard_s3_knot_type(s)
    return (
        s.legendrian is not None
        and knot_type is not None
        and knot_type.genus == 0
        and s.legendrian.tb == -1
    )


RULES = (
    # Zero at every framing f <= tb of a Legendrian subject.
    Rule("R1", lambda s: s.legendrian is not None, ZERO, lambda s: s.legendrian.tb),
    # Zero everywhere for a positive stabilization.
    Rule("R2", lambda s: s.positively_stabilized, ZERO),
    # Zero everywhere when the complement is overtwisted or has positive
    # Giroux torsion.
    Rule("R3", lambda s: s.complement_overtwisted_or_torsion, ZERO),
    # Zero everywhere for a binding of an open book supporting a structure
    # with vanishing invariant on a rational homology sphere.
    Rule(
        "R4",
        lambda s: s.binding and s.ambient_invariant is ZERO and s.ambient_b1 == 0,
        ZERO,
    ),
    # NonZero at f_S + 2g for a binding with sl = 2g - 1, g >= 1.
    Rule("R5", _max_self_linking_binding, NONZERO, lambda s: 2 * s.knot_type().genus),
    # NonZero at tb + 1 for a Legendrian with tb = 2*slice_genus - 1 > 0.
    Rule("R6", _max_tb_legendrian, NONZERO, lambda s: s.legendrian.tb + 1),
    # NonZero at tb + 1 for the maximal Legendrian unknot (tb = -1).
    Rule("E1", _max_unknot, NONZERO, lambda s: s.legendrian.tb + 1),
)
RULES_BY_ID = {rule.id: rule for rule in RULES}


def apply_rules(subject: LedgerSubject) -> LedgerState:
    """Assert every built-in rule whose preconditions the subject meets."""
    state = LedgerState()
    for rule in RULES:
        if rule.holds(subject):
            offset = None if rule.offset is None else rule.offset(subject)
            state = assert_fact(state, offset, rule.status, rule.id)
    return state


def inverse_limit_status(state: LedgerState) -> LedgerVerdict:
    """Verdict on the inverse-limit element defined by the framed family.

    Zero when every component vanishes; NotAllZero when some framing is
    known NonZero (so the element of the product is nonzero); Unknown
    otherwise.  The rules never certify nonvanishing of every component,
    so no stronger verdict is ever claimed.
    """
    state.check_consistent()
    if state.everywhere is not None:
        return LedgerVerdict.ZERO
    if state.floor is not None:
        return LedgerVerdict.NOT_ALL_ZERO
    return LedgerVerdict.UNKNOWN


RULE_MAX_SELF_LINKING = "max-self-linking"
RULE_MAX_THURSTON_BENNEQUIN = "max-thurston-bennequin"

# The classifier's ranges in report order: the label of each and the rule
# that certifies it.  E1 stays ledger-only.
_TIGHT_RANGE_RULES = (
    (RULE_MAX_SELF_LINKING, RULES_BY_ID["R5"]),
    (RULE_MAX_THURSTON_BENNEQUIN, RULES_BY_ID["R6"]),
)


# anchor: int, rule: str.
TightRange = namedtuple("TightRange", "anchor rule")
TightRange.__doc__ = """All rational coefficients r >= anchor, with the certifying rule."""


@dataclass(frozen=True)
class TightnessReport:
    """Union of upward-closed ranges of surgery coefficients certified to
    carry tight contact structures, with per-range provenance."""

    knot: KnotType
    ranges: tuple[TightRange, ...]
    sl_tb_gap: int | None = None

    def anchor(self) -> int | None:
        return min((rng.anchor for rng in self.ranges), default=None)


def tight_surgery_ranges(knot: KnotType) -> TightnessReport:
    """Certified-tight rational surgery coefficients for a knot type.

    Rules R5 and R6, evaluated on a binding with sl = max_sl and a
    Legendrian with tb = max_tb in the standard tight 3-sphere, certify
    every r at or above the framing offset they assert NonZero at.
    Integer anchors extend to rational coefficients by subsequent
    negative-coefficient surgeries, which preserve nonvanishing of the
    invariant.
    """
    if knot.max_sl is None and knot.max_tb is None:
        raise IncompleteData(
            f"{knot.name}: neither max_sl nor max_tb is recorded"
        )
    subject = LedgerSubject(
        # R6 reads tb only, so the rotation number is immaterial.
        legendrian=None if knot.max_tb is None else LegendrianKnot(knot.max_tb, 0, knot),
        transverse=None if knot.max_sl is None else TransverseKnot(knot.max_sl, knot),
        binding=True,
    )
    ranges = tuple(
        TightRange(rule.offset(subject), label)
        for label, rule in _TIGHT_RANGE_RULES
        if rule.holds(subject)
    )
    gap = None
    if knot.max_sl is not None and knot.max_tb is not None:
        gap = knot.max_sl - knot.max_tb
    return TightnessReport(knot=knot, ranges=ranges, sl_tb_gap=gap)
