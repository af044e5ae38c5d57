import bisect
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurgery import ledger
from contactsurgery.catalog import (
    KnotType,
    UNKNOT,
    cable_of_trefoil,
    connected_sum,
    torus_knot,
)
from contactsurgery.errors import Contradiction, IncompleteData
from contactsurgery.ledger import (
    Fact,
    LedgerState,
    LedgerSubject,
    LedgerVerdict,
    RULE_MAX_SELF_LINKING,
    RULE_MAX_THURSTON_BENNEQUIN,
    apply_rules,
    assert_fact,
    assert_facts,
    inverse_limit_status,
    tight_surgery_ranges,
)
from contactsurgery.legendrian import InvariantStatus as Status
from contactsurgery.legendrian import LegendrianKnot, TransverseKnot


def test_upward_propagation():
    state = assert_fact(LedgerState(), 0, Status.NONZERO, "seed")
    assert state.status_at(5) is Status.NONZERO
    assert state.status_at(0) is Status.NONZERO
    assert state.status_at(-1) is Status.UNKNOWN


def test_downward_propagation():
    state = assert_fact(LedgerState(), 0, Status.ZERO, "seed")
    assert state.status_at(-3) is Status.ZERO
    assert state.status_at(1) is Status.UNKNOWN


@pytest.mark.parametrize("offset, status, message", [
    (0, Status.UNKNOWN, "only Zero and NonZero facts can be asserted"),
    (None, Status.UNKNOWN, "only Zero and NonZero facts can be asserted"),
    (None, Status.NONZERO, "only Zero facts may cover all framings"),
])
def test_assert_fact_refuses_what_no_fact_can_say(offset, status, message):
    with pytest.raises(ValueError, match=message):
        assert_fact(LedgerState(), offset, status, "r")


def test_the_nonvanishing_rules_need_the_standard_tight_sphere():
    trefoil = torus_knot(2, 3)
    subject = LedgerSubject(legendrian=LegendrianKnot(1, 0), transverse=TransverseKnot(1),
                            knot_type=trefoil, binding=True)
    assert [f.rule for f in apply_rules(subject).facts] == ["R1", "R5", "R6"]
    elsewhere = LedgerSubject(legendrian=subject.legendrian, transverse=subject.transverse,
                              knot_type=trefoil, manifold="L(5,1)", binding=True)
    assert [f.rule for f in apply_rules(elsewhere).facts] == ["R1"]


def test_contradiction_carries_both_provenances():
    state = assert_fact(LedgerState(), 4, Status.NONZERO, "nz-rule")
    with pytest.raises(Contradiction) as info:
        assert_fact(state, 5, Status.ZERO, "z-rule")
    assert info.value.zero_rule == "z-rule"
    assert info.value.nonzero_rule == "nz-rule"


@pytest.mark.parametrize("offset, where", [
    (4, "f_S+4"), (0, "f_S+0"), (-4, "f_S-4"),
    # Past Python's 4,300-digit int-to-str limit: the sign stays.
    (10**5000, "f_S+<an integer too long to print>"),
    (-10**5000, "f_S-<an integer too long to print>"),
], ids=["positive", "zero", "negative", "positive-past-limit", "negative-past-limit"])
def test_a_contradiction_names_its_framing_with_its_sign(offset, where):
    state = assert_fact(LedgerState(), offset, Status.ZERO, "z")
    with pytest.raises(Contradiction) as info:
        assert_fact(state, offset, Status.NONZERO, "n")
    assert info.value.offset == offset
    assert str(info.value) == f"status clash at {where}: Zero by z, NonZero by n"


def test_order_independence():
    rng = random.Random(3)
    for _ in range(30):
        facts = [
            (rng.randrange(-5, 6), rng.choice((Status.ZERO, Status.NONZERO)))
            for _ in range(4)
        ]
        results = set()
        for perm in itertools.permutations(facts):
            state = LedgerState()
            try:
                for offset, status in perm:
                    state = assert_fact(state, offset, status, "r")
                results.add(tuple(state.status_at(k) for k in range(-7, 8)))
            except Contradiction:
                results.add("contradiction")
        assert len(results) == 1


def test_closure_idempotent():
    base = assert_fact(LedgerState(), 2, Status.NONZERO, "r")
    again = assert_fact(base, 2, Status.NONZERO, "r")
    assert [base.status_at(k) for k in range(-4, 6)] == [
        again.status_at(k) for k in range(-4, 6)
    ]


def test_no_nonzero_then_zero_pair_in_rule_ledgers():
    cable = cable_of_trefoil(2, 3)
    subject = LedgerSubject(
        legendrian=LegendrianKnot(6, -1),
        transverse=TransverseKnot(7),
        knot_type=cable,
        binding=True,
    )
    state = apply_rules(subject)
    window = [state.status_at(k) for k in range(-10, 20)]
    seen_nonzero = False
    for status in window:
        if status is Status.NONZERO:
            seen_nonzero = True
        assert not (seen_nonzero and status is Status.ZERO)


def test_rule_r1_and_r5_on_cable():
    cable = cable_of_trefoil(2, 3)
    state = apply_rules(
        LedgerSubject(
            legendrian=LegendrianKnot(6, -1),
            transverse=TransverseKnot(7),
            knot_type=cable,
            binding=True,
        )
    )
    assert state.status_at(6) is Status.ZERO
    assert state.window(6, 6)[0][2] == "R1"
    assert state.status_at(7) is Status.UNKNOWN
    assert state.status_at(8) is Status.NONZERO
    assert state.window(8, 8)[0][2] == "R5"
    assert inverse_limit_status(state) is LedgerVerdict.NOT_ALL_ZERO


def test_rule_r2_positive_stabilization():
    state = apply_rules(
        LedgerSubject(legendrian=LegendrianKnot(-4, 3), positively_stabilized=True)
    )
    assert all(state.status_at(k) is Status.ZERO for k in range(-20, 21))
    assert inverse_limit_status(state) is LedgerVerdict.ZERO


def test_rule_r3_overtwisted_complement():
    state = apply_rules(
        LedgerSubject(
            legendrian=LegendrianKnot(-3, 0),
            knot_type=UNKNOT,
            complement_overtwisted_or_torsion=True,
        )
    )
    assert inverse_limit_status(state) is LedgerVerdict.ZERO


def test_inconsistent_subject_surfaces_contradiction():
    # The maximal Legendrian unknot cannot have overtwisted complement;
    # asserting both is bad input and must clash rather than resolve.
    with pytest.raises(Contradiction):
        apply_rules(
            LedgerSubject(
                legendrian=LegendrianKnot(-1, 0),
                knot_type=UNKNOT,
                complement_overtwisted_or_torsion=True,
            )
        )


def test_rule_r4_binding_of_vanishing_structure():
    state = apply_rules(
        LedgerSubject(
            transverse=TransverseKnot(-1),
            knot_type=UNKNOT,
            binding=True,
            ambient_invariant=Status.ZERO,
            ambient_b1=0,
        )
    )
    assert inverse_limit_status(state) is LedgerVerdict.ZERO
    assert state.window(0, 0)[0][2] == "R4"


@pytest.mark.parametrize("ambient,b1", [(Status.NONZERO, 0), (Status.ZERO, 1)])
def test_rule_r4_skipped_unless_zero_invariant_and_b1_zero(ambient, b1):
    state = apply_rules(
        LedgerSubject(
            transverse=TransverseKnot(-1),
            knot_type=UNKNOT,
            binding=True,
            ambient_invariant=ambient,
            ambient_b1=b1,
        )
    )
    assert inverse_limit_status(state) is LedgerVerdict.UNKNOWN


def test_rule_r6_trefoil():
    trefoil = torus_knot(2, 3)
    state = apply_rules(LedgerSubject(legendrian=LegendrianKnot(1, 0), knot_type=trefoil))
    assert state.status_at(2) is Status.NONZERO
    assert state.window(2, 2)[0][2] == "R6"
    assert state.status_at(1) is Status.ZERO  # R1 at tb


def test_rule_e1_unknot():
    state = apply_rules(LedgerSubject(legendrian=LegendrianKnot(-1, 0), knot_type=UNKNOT))
    assert state.status_at(0) is Status.NONZERO
    assert state.window(0, 0)[0][2] == "E1"
    assert state.status_at(-1) is Status.ZERO


def test_empty_ledger_unknown():
    assert inverse_limit_status(LedgerState()) is LedgerVerdict.UNKNOWN


def test_window_rendering():
    state = apply_rules(LedgerSubject(legendrian=LegendrianKnot(-1, 0), knot_type=UNKNOT))
    rows = state.window(-3, 2)
    assert [r[0] for r in rows] == list(range(-3, 3))
    statuses = {k: status for k, status, _ in rows}
    assert statuses[-1] is Status.ZERO
    assert statuses[0] is Status.NONZERO


def test_tight_surgeries_cable():
    report = tight_surgery_ranges(cable_of_trefoil(2, 3))
    assert report.anchor() == 8
    assert [rng.rule for rng in report.ranges] == [RULE_MAX_SELF_LINKING]


def test_tight_surgeries_trefoil_both_routes():
    report = tight_surgery_ranges(torus_knot(2, 3))
    rules = sorted(rng.rule for rng in report.ranges)
    assert rules == sorted((RULE_MAX_SELF_LINKING, RULE_MAX_THURSTON_BENNEQUIN))
    assert all(rng.anchor == 2 for rng in report.ranges)


def test_tight_surgeries_unknot_empty():
    assert tight_surgery_ranges(UNKNOT).ranges == ()


def test_tight_surgeries_upward_closed():
    # Each anchor is where the ledger of the maximal binding turns NonZero,
    # and the ledger stays NonZero at every framing above it.
    cable = cable_of_trefoil(3, 4)
    report = tight_surgery_ranges(cable)
    anchor = report.anchor()
    state = apply_rules(
        LedgerSubject(transverse=TransverseKnot(cable.max_sl), knot_type=cable, binding=True)
    )
    assert state.status_at(anchor - 1) is not Status.NONZERO
    rows = state.window(anchor, anchor + 11)
    assert [status for _, status, _ in rows] == [Status.NONZERO] * 12
    assert {rule for _, _, rule in rows} == {"R5"}


def test_tight_surgeries_gap_tracks_summands():
    cable = cable_of_trefoil(2, 3)
    total = cable
    for copies in range(2, 6):
        total = connected_sum(total, cable)
        assert tight_surgery_ranges(total).sl_tb_gap == copies


def test_tight_surgeries_incomplete_data():
    with pytest.raises(IncompleteData):
        tight_surgery_ranges(KnotType("mystery", genus=2, slice_genus=1))


# ---------------------------------------------------------------------------
# The stored closure against a brute-force rescan of every fact.


def _rescan(facts, k):
    """Status and provenance of framing k, read from every fact: the first
    Zero-everywhere fact; else the Zero fact at the nearest offset at or
    above k; else the NonZero fact at the nearest offset at or below k;
    the first asserted among facts at one offset."""
    everywhere = [f for f in facts if f.status is Status.ZERO and f.offset is None]
    if everywhere:
        return Status.ZERO, everywhere[0].rule
    above = [f for f in facts if f.status is Status.ZERO and f.offset is not None
             and f.offset >= k]
    if above:
        return Status.ZERO, min(above, key=lambda f: f.offset).rule
    below = [f for f in facts if f.status is Status.NONZERO and f.offset <= k]
    if below:
        return Status.NONZERO, max(below, key=lambda f: f.offset).rule
    return Status.UNKNOWN, None


def _rescan_clash(facts):
    """(offset, zero rule, nonzero rule) of the clash in a fact list, or None:
    at every framing when a Zero-everywhere fact meets any NonZero fact,
    else at the smallest NonZero offset when a Zero fact lies at or above
    it, named by the first asserted such facts."""
    nonzeros = [f for f in facts if f.status is Status.NONZERO]
    if not nonzeros:
        return None
    floor = min(f.offset for f in nonzeros)
    nonzero_rule = next(f.rule for f in nonzeros if f.offset == floor)
    zeros = [f for f in facts if f.status is Status.ZERO]
    everywhere = [f for f in zeros if f.offset is None]
    if everywhere:
        return None, everywhere[0].rule, nonzero_rule
    above = [f for f in zeros if f.offset >= floor]
    if above:
        return floor, above[0].rule, nonzero_rule
    return None


@st.composite
def fact_lists(draw):
    """Zero facts at or below a split and NonZero facts above it, with
    duplicate offsets, Zero-everywhere facts and sometimes a planted clash,
    in a random order.  Each fact has its own rule, so every tie-break
    shows in the provenance."""
    split = draw(st.integers(-4, 4))
    facts = [(o, Status.ZERO) for o in draw(st.lists(st.integers(-6, split), max_size=6))]
    facts += [(o, Status.NONZERO) for o in draw(st.lists(st.integers(split + 1, 6), max_size=6))]
    facts += [(None, Status.ZERO)] * draw(st.integers(0, 2))
    planted = draw(st.sampled_from(["none", "zero", "nonzero"]))
    if planted == "zero":
        facts.append((draw(st.integers(split + 1, 7)), Status.ZERO))
    elif planted == "nonzero":
        facts.append((draw(st.integers(-7, split)), Status.NONZERO))
    order = draw(st.permutations(facts))
    return [Fact(offset, status, f"r{i}") for i, (offset, status) in enumerate(order)]


def _facts(*pairs):
    return [Fact(offset, status, f"r{i}") for i, (offset, status) in enumerate(pairs)]


@settings(max_examples=300, deadline=None, database=None)
@example(_facts((None, Status.ZERO), (2, Status.NONZERO)))
@example(_facts((2, Status.NONZERO), (None, Status.ZERO), (None, Status.ZERO)))
@example(_facts((1, Status.ZERO), (3, Status.ZERO), (3, Status.ZERO), (0, Status.NONZERO)))
@example(_facts((1, Status.NONZERO), (1, Status.NONZERO), (-2, Status.ZERO), (-2, Status.ZERO)))
@given(fact_lists())
def test_closure_matches_a_rescan(facts):
    state = LedgerState()
    for i, fact in enumerate(facts):
        clash = _rescan_clash(facts[: i + 1])
        try:
            state = assert_fact(state, fact.offset, fact.status, fact.rule)
        except Contradiction as exc:
            assert (exc.offset, exc.zero_rule, exc.nonzero_rule) == clash
            return
        assert clash is None
    expected = [(k, *_rescan(facts, k)) for k in range(-9, 10)]
    assert state.window(-9, 9) == expected
    assert [(k, state.status_at(k), state.window(k, k)[0][2]) for k in range(-9, 10)] == expected
    assert state.window(3, 2) == []


class _CountingFacts(tuple):
    """A fact tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_a_window_does_not_rescan_the_facts_per_framing():
    state = LedgerState()
    for i in range(100):
        state = assert_fact(state, -i, Status.ZERO, f"z{i}")
        state = assert_fact(state, i + 1, Status.NONZERO, f"n{i}")
    counted = LedgerState(_CountingFacts(state.facts), state.ceiling, state.floor)
    rows = counted.window(-150, 150)
    assert counted.facts.passes <= 1
    assert rows == state.window(-150, 150)
    assert rows[0] == (-150, Status.ZERO, "z99")
    assert rows[150] == (0, Status.ZERO, "z0")
    assert rows[-1] == (150, Status.NONZERO, "n99")
    for k in range(-150, 151):
        counted.status_at(k)
        counted.window(k, k)
    # One pass builds the offset index; nothing else reads the facts.
    assert counted.facts.passes <= 1


def _bisect_rows(state, lo, hi):
    """The rows framing by framing: status_at, then the fact behind it by one
    bisect into the sorted offsets of that status."""
    first = {Status.ZERO: {}, Status.NONZERO: {}}
    for fact in state.facts:
        if fact.offset is not None:
            first[fact.status].setdefault(fact.offset, fact.rule)
    zeros, nonzeros = sorted(first[Status.ZERO]), sorted(first[Status.NONZERO])
    rows = []
    for k in range(lo, hi + 1):
        status = state.status_at(k)
        if status is Status.UNKNOWN:
            rule = None
        elif status is Status.NONZERO:
            rule = first[status][nonzeros[bisect.bisect_right(nonzeros, k) - 1]]
        elif state.ceiling.offset is None:
            rule = state.ceiling.rule
        else:
            rule = first[status][zeros[bisect.bisect_left(zeros, k)]]
        rows.append((k, status, rule))
    return rows


@st.composite
def read_windows(draw):
    """A state from fact_lists' facts, stopped before its first clash, and
    a window lo..hi that may start below, inside or above the Unknown gap
    and may be empty."""
    state = LedgerState()
    for fact in draw(fact_lists()):
        try:
            state = assert_fact(state, *fact)
        except Contradiction:
            break
    lo = draw(st.integers(-12, 12))
    return state, lo, draw(st.integers(lo - 2, lo + 16))


def _read_window(*pairs, lo, hi):
    return assert_facts(LedgerState(), _facts(*pairs)), lo, hi


@settings(max_examples=300, deadline=None, database=None)
@example(_read_window((None, Status.ZERO), (-3, Status.ZERO), lo=-5, hi=5))
@example(_read_window((-2, Status.ZERO), (3, Status.NONZERO), lo=-6, hi=6))
@example(_read_window((-2, Status.ZERO), (3, Status.NONZERO), lo=0, hi=6))
@example(_read_window((-2, Status.ZERO), (3, Status.NONZERO), lo=5, hi=9))
@example(_read_window((-2, Status.ZERO), (-4, Status.ZERO), lo=0, hi=3))
@example(_read_window((4, Status.NONZERO), (1, Status.NONZERO), lo=-3, hi=6))
@given(read_windows())
def test_rows_walk_the_runs_as_status_at_and_a_bisect_read_them(window):
    state, lo, hi = window
    assert list(state.rows(lo, hi)) == _bisect_rows(state, lo, hi)


@settings(max_examples=200, deadline=None, database=None)
@example(_read_window((None, Status.ZERO), (-3, Status.ZERO), lo=-5, hi=5))
@example(_read_window((-2, Status.ZERO), (3, Status.NONZERO), lo=-6, hi=6))
@example(_read_window(lo=0, hi=2))
@given(read_windows())
def test_rows_build_the_offset_index_on_first_use_only(window):
    # The index is kept on the state by the first read that needs it; a
    # ceiling that covers every framing names every row without it.
    state, lo, hi = window
    with mock.patch.object(ledger, "_offset_index", wraps=ledger._offset_index) as index:
        first = list(state.rows(lo, hi))
        assert list(state.rows(lo, hi)) == first
        wider = list(state.rows(lo - 3, hi + 3))
    covers_all = state.ceiling is not None and state.ceiling.offset is None
    assert index.call_count == (0 if covers_all else 1)
    assert wider[3:len(wider) - 3] == first
    assert [(k, status) for k, status, _ in wider] == [
        (k, state.status_at(k)) for k in range(lo - 3, hi + 4)]


def _one_by_one(state, facts):
    """assert_fact per fact: the closure reached, or the error it raised."""
    try:
        for fact in facts:
            state = assert_fact(state, *fact)
    except (Contradiction, ValueError) as exc:
        return type(exc), str(exc)
    return state


@st.composite
def batches(draw):
    """A state built one fact at a time and a batch of further facts, which
    may hold a fact that no assert_fact call accepts."""
    facts = draw(fact_lists())
    cut = draw(st.integers(0, len(facts)))
    state = _one_by_one(LedgerState(), facts[:cut])
    if not isinstance(state, LedgerState):
        state = LedgerState()
    batch = facts[cut:]
    if draw(st.booleans()):
        bad = draw(st.sampled_from([(None, Status.NONZERO), (0, Status.UNKNOWN)]))
        batch.insert(draw(st.integers(0, len(batch))), Fact(*bad, "bad"))
    return state, batch


@settings(max_examples=300, deadline=None, database=None)
@given(batches())
def test_assert_facts_is_assert_fact_once_per_fact(batch):
    state, facts = batch
    expected = _one_by_one(state, facts)
    try:
        got = assert_facts(state, facts)
    except (Contradiction, ValueError) as exc:
        got = type(exc), str(exc)
    # States compare by their facts and closure.
    assert got == expected
    if isinstance(got, LedgerState):
        assert list(got.rows(-9, 9)) == list(expected.rows(-9, 9))


def test_a_facts_file_builds_a_bounded_number_of_states(tmp_path, monkeypatch, capsys):
    from contactsurgery.cli import main

    records = [{"offset": -i, "status": "Zero", "rule": f"z{i}"} for i in range(2000)]
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(records))
    built = 0
    init = LedgerState.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(LedgerState, "__init__", counted)
    assert main(["ledger", "--facts", str(path), "--window", "-1", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["f_S-1  Zero  [z1]", "f_S+0  Zero  [z0]"]
    # apply_rules' empty state and the one the facts build.
    assert built <= 2


def test_a_state_whose_closure_clashes_is_never_built():
    facts = (Fact(5, Status.ZERO, "z"), Fact(0, Status.NONZERO, "n"))
    with pytest.raises(Contradiction, match=r"^status clash at f_S\+0: Zero by z, NonZero by n$"):
        LedgerState(facts, facts[0], facts[1])


@st.composite
def closures(draw):
    """A fact list and a ceiling and floor drawn from its Zero and NonZero
    facts, each possibly None, whether or not they clash."""
    facts = draw(fact_lists())
    zeros = [f for f in facts if f.status is Status.ZERO]
    nonzeros = [f for f in facts if f.status is Status.NONZERO]
    ceiling = draw(st.sampled_from([None, *zeros]))
    floor = draw(st.sampled_from([None, *nonzeros]))
    return tuple(facts), ceiling, floor


@settings(max_examples=300, deadline=None, database=None)
@given(closures())
def test_building_a_state_raises_exactly_when_its_closure_clashes(closure):
    facts, ceiling, floor = closure
    clashes = ceiling is not None and floor is not None and (
        ceiling.offset is None or ceiling.offset >= floor.offset)
    if not clashes:
        assert LedgerState(facts, ceiling, floor).facts == facts
        return
    with pytest.raises(Contradiction) as raised:
        LedgerState(facts, ceiling, floor)
    if ceiling.offset is None:
        zero_rule = ceiling.rule
    else:
        zero_rule = next(f.rule for f in facts if f.status is Status.ZERO
                         and f.offset is not None and f.offset >= floor.offset)
    exc = raised.value
    assert (exc.offset, exc.zero_rule, exc.nonzero_rule) == (
        None if ceiling.offset is None else floor.offset, zero_rule, floor.rule)
