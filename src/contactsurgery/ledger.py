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
from itertools import chain

from .errors import Contradiction, IncompleteData, NotRealizable, quote
from .legendrian import InvariantStatus, LegendrianKnot, TransverseKnot
from .record import Record, set_field

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


class LedgerSubject(Record):
    """What the ledger is about: a Legendrian or transverse knot, or both,
    of one knot type (a catalog.KnotType, or None when unknown), with the
    caller-asserted geometric flags."""

    _fields = ("legendrian", "transverse", "knot_type", "manifold", "positively_stabilized",
               "complement_overtwisted_or_torsion", "binding", "ambient_invariant",
               "ambient_b1")
    _defaults = {"legendrian": None, "transverse": None, "knot_type": None,
                 "manifold": STANDARD_TIGHT_S3, "positively_stabilized": False,
                 "complement_overtwisted_or_torsion": False, "binding": False,
                 "ambient_invariant": NONZERO, "ambient_b1": 0}


def check_realizable(subject: LedgerSubject, legendrian: str, transverse: str) -> None:
    """Raise NotRealizable, named by `legendrian` or `transverse`, when a knot
    of a subject in the standard tight 3-sphere breaks a bound of its knot
    type: tb + |rot| <= 2 g_s - 1 (Rudolph's slice-Bennequin inequality) and
    tb <= max_tb, or sl <= max_sl and sl <= 2 g_s - 1.  An unknown knot type
    or bound checks nothing."""
    knot_type = _standard_s3_knot_type(subject)
    if knot_type is None:
        return
    bound, bounds = 2 * knot_type.slice_genus - 1, []
    if subject.legendrian is not None:
        tb, rot = subject.legendrian.tb, subject.legendrian.rot
        bounds += [(legendrian, "tb + |rot|", tb + abs(rot), "2 g_s - 1", bound),
                   (legendrian, "tb", tb, "max_tb", knot_type.max_tb)]
    if subject.transverse is not None:
        sl = subject.transverse.sl
        bounds += [(transverse, "sl", sl, "max_sl", knot_type.max_sl),
                   (transverse, "sl", sl, "2 g_s - 1", bound)]
    for knot, what, value, limit_name, limit in bounds:
        if limit is not None and value > limit:
            raise NotRealizable(f"{knot}: {what} = {quote(value)} exceeds {limit_name} = "
                                f"{quote(limit)} for {quote(knot_type.name)}")


class LedgerState(Record):
    """An immutable fact set and its closure.

    The closure is two facts that assert_fact carries forward: the zero
    ceiling, the Zero fact at the largest offset, offset None (every
    framing) above all, and the nonzero floor, the NonZero fact at the
    smallest offset; among facts at one offset the first asserted wins.
    Building a state whose ceiling covers every framing or reaches its floor
    raises Contradiction.  Start from LedgerState() and add facts with
    assert_fact, or many at once with assert_facts.
    """

    _fields = ("facts", "ceiling", "floor")
    _defaults = {"facts": (), "ceiling": None, "floor": None}
    _by_offset = None  # `_offset_index(facts)`, built by the first `rows` that needs it

    def _check(self) -> None:
        _clash(self.ceiling, self.floor, self.facts)

    def status_at(self, offset: int) -> InvariantStatus:
        ceiling = self.ceiling
        if ceiling is not None and (ceiling.offset is None or offset <= ceiling.offset):
            return ZERO
        if self.floor is not None and offset >= self.floor.offset:
            return NONZERO
        return InvariantStatus.UNKNOWN

    def window(self, lo: int, hi: int) -> list[tuple[int, InvariantStatus, str | None]]:
        return list(self.rows(lo, hi))

    def rows(self, lo: int, hi: int):
        """(framing, status, provenance) for lo..hi, one at a time; `window`
        is their list.  The framings come in three runs: Zero up to the
        ceiling, Unknown, and NonZero from the floor.  A Zero framing is
        justified by the ceiling when it covers every framing, else by the
        Zero fact at the nearest offset at or above it, a NonZero framing by
        the NonZero fact at the nearest offset at or below it.  Each run
        finds its first fact by one bisect and then advances with k;
        `status_at` gives the same statuses framing by framing."""
        ceiling, floor = self.ceiling, self.floor
        if ceiling is not None and ceiling.offset is None:
            for k in range(lo, hi + 1):
                yield k, ZERO, ceiling.rule
            return
        # The Zero run is lo..zero_end - 1 and the NonZero run nonzero_start..hi.
        zero_end = lo if ceiling is None else max(lo, min(ceiling.offset, hi) + 1)
        nonzero_start = hi + 1 if floor is None else min(max(floor.offset, lo), hi + 1)
        by_offset = self._by_offset
        if by_offset is None:
            by_offset = _offset_index(self.facts)
            set_field(self, "_by_offset", by_offset)
        zeros, zero_rules = by_offset[ZERO]
        j = bisect_left(zeros, lo)
        for k in range(lo, zero_end):
            if zeros[j] < k:
                j += 1
            yield k, ZERO, zero_rules[zeros[j]]
        for k in range(zero_end, nonzero_start):
            yield k, InvariantStatus.UNKNOWN, None
        if nonzero_start <= hi:
            nonzeros, nonzero_rules = by_offset[NONZERO]
            rule = nonzero_rules[nonzeros[bisect_right(nonzeros, nonzero_start) - 1]]
            for k in range(nonzero_start, hi + 1):
                rule = nonzero_rules.get(k, rule)
                yield k, NONZERO, rule


def _offset_index(facts) -> dict[InvariantStatus, tuple[list[int], dict[int, str]]]:
    """Per status, the distinct concrete offsets in increasing order and
    the rule first asserted at each."""
    first: dict[InvariantStatus, dict[int, str]] = {ZERO: {}, NONZERO: {}}
    for fact in facts:
        if fact.offset is not None:
            first[fact.status].setdefault(fact.offset, fact.rule)
    return {status: (sorted(rules), rules) for status, rules in first.items()}


def _clash(ceiling, floor, facts) -> None:
    """Raise Contradiction when the closure (ceiling, floor) makes some
    framing both Zero and NonZero; facts are read only to name the rule, the
    first Zero fact at or above a concrete floor (the ceiling if none is)."""
    if ceiling is None or floor is None:
        return
    if ceiling.offset is None:
        raise Contradiction(None, ceiling.rule, floor.rule)
    if floor.offset <= ceiling.offset:
        zero_rule = next(
            (f.rule for f in facts
             if f.status is ZERO and f.offset is not None and f.offset >= floor.offset),
            ceiling.rule,
        )
        raise Contradiction(floor.offset, zero_rule, floor.rule)


def _carry(ceiling, floor, fact: Fact):
    """The closure step of assert_fact and assert_facts: the closure with one more fact."""
    offset, status, _ = fact
    if status not in (ZERO, NONZERO):
        raise ValueError("only Zero and NonZero facts can be asserted")
    if status is NONZERO:
        if offset is None:
            raise ValueError("only Zero facts may cover all framings")
        if floor is None or offset < floor.offset:
            floor = fact
    elif ceiling is None or (ceiling.offset is not None
                             and (offset is None or offset > ceiling.offset)):
        ceiling = fact
    return ceiling, floor


def assert_fact(
    state: LedgerState,
    offset: int | None,
    status: InvariantStatus,
    rule: str,
) -> LedgerState:
    """Record a fact at the framing offset `offset`, or at every framing when
    it is None, and carry the closure forward; raises Contradiction when the
    closure would assign both statuses to some framing."""
    fact = Fact(offset, status, rule)
    return LedgerState(state.facts + (fact,), *_carry(state.ceiling, state.floor, fact))


def assert_facts(state: LedgerState, facts) -> LedgerState:
    """assert_fact for each (offset, status, rule) in turn, in one pass that
    builds the fact tuple and the state once: time linear in the number of
    facts.  Raises what the first failing assert_fact call would."""
    closure = state.ceiling, state.floor
    added = []
    for fact in map(Fact._make, facts):
        closure = _carry(*closure, fact)
        added.append(fact)
        _clash(*closure, chain(state.facts, added))
    return LedgerState(state.facts + tuple(added), *closure)


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
    return subject.knot_type


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
    Rule("R5", _max_self_linking_binding, NONZERO, lambda s: 2 * s.knot_type.genus),
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
    if state.ceiling is not None and state.ceiling.offset is None:
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


class TightnessReport(Record):
    """Union of upward-closed ranges of surgery coefficients certified to
    carry tight contact structures, with per-range provenance."""

    _fields = ("knot", "ranges", "sl_tb_gap")
    _defaults = {"sl_tb_gap": None}

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
            f"{quote(knot.name)}: neither max_sl nor max_tb is recorded"
        )
    # R6 can fire only when max_tb = 2 g_s - 1, which is odd, so rot 0 is realizable.
    r6 = knot.max_tb == 2 * knot.slice_genus - 1
    subject = LedgerSubject(
        legendrian=LegendrianKnot(knot.max_tb, 0) if r6 else None,
        transverse=None if knot.max_sl is None else TransverseKnot(knot.max_sl),
        knot_type=knot,
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
