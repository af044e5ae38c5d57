"""The frozen records: equality, hash, repr and immutability of each one."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import contactsurgery
from contactsurgery.catalog import KnotType
from contactsurgery.errors import NotRealizable
from contactsurgery.expansion import _UNCHECKED, Component, ContactSurgeryPresentation
from contactsurgery.homology import SpinCEvaluation, linking_matrix
from contactsurgery.ledger import (
    LedgerState, LedgerSubject, TightnessReport, TightRange, assert_fact)
from contactsurgery.legendrian import InvariantStatus, LegendrianKnot, TransverseKnot
from contactsurgery.linalg import LinkingMatrix
from contactsurgery.openbook import LanternConfiguration, SurfaceModel, homology_action
from contactsurgery.record import Record, unchecked_builder

_KNOT = "LegendrianKnot(tb=-2, rot=-1)"
_NONZERO = "<InvariantStatus.NONZERO: 'NonZero'>"
_TREFOIL = ("KnotType(name='T(2,3)', genus=1, slice_genus=1, max_tb=1, max_sl=1, "
            "flags=frozenset(), provenance='')")

# Per record: a builder of equal copies, and the repr a frozen dataclass with
# the same fields gives.
CASES = {
    "LegendrianKnot": (lambda: LegendrianKnot(-2, -1), _KNOT),
    "TransverseKnot": (lambda: TransverseKnot(1), "TransverseKnot(sl=1)"),
    "Component": (lambda: Component(LegendrianKnot(-2, -1), -1, 1),
                  f"Component(legendrian={_KNOT}, coefficient=-1, negative_stabs=1, "
                  "positive_stabs=0)"),
    "ContactSurgeryPresentation": (
        lambda: ContactSurgeryPresentation((Component(LegendrianKnot(-2, -1), 1),), True),
        f"ContactSurgeryPresentation(components=(Component(legendrian={_KNOT}, "
        "coefficient=1, negative_stabs=0, positive_stabs=0),), overtwisted=True)"),
    "LinkingMatrix": (lambda: LinkingMatrix((0, -3), (-1,)),
                      "LinkingMatrix(diagonal=(0, -3), linking=(-1,))"),
    "LedgerSubject": (lambda: LedgerSubject(LegendrianKnot(-2, -1), binding=True),
                      f"LedgerSubject(legendrian={_KNOT}, transverse=None, knot_type=None, "
                      "manifold='S3-standard', positively_stabilized=False, "
                      "complement_overtwisted_or_torsion=False, binding=True, "
                      f"ambient_invariant={_NONZERO}, ambient_b1=0)"),
    "LedgerState": (lambda: assert_fact(LedgerState(), 1, InvariantStatus.NONZERO, "r"),
                    f"LedgerState(facts=(Fact(offset=1, status={_NONZERO}, rule='r'),), "
                    f"ceiling=None, floor=Fact(offset=1, status={_NONZERO}, rule='r'))"),
    "TightnessReport": (
        lambda: TightnessReport(KnotType("T(2,3)", 1, 1, 1, 1), (TightRange(2, "r"),)),
        f"TightnessReport(knot={_TREFOIL}, ranges=(TightRange(anchor=2, rule='r'),))"),
    "KnotType": (lambda: KnotType("T(2,3)", 1, 1, 1, 1), _TREFOIL),
    "SurfaceModel": (lambda: SurfaceModel(0, 2, ((0,),), (("a", (1,)),), ((1,), (-1,))),
                     "SurfaceModel(genus=0, boundary_count=2, pairing=((0,),), "
                     "curves=(('a', (1,)),), boundary_classes=((1,), (-1,)))"),
    "LanternConfiguration": (
        lambda: LanternConfiguration("a", "b", "c", "d", "ab", "ac", "bc"),
        "LanternConfiguration(one='a', two='b', three='c', four='d', one_two='ab', "
        "one_three='ac', two_three='bc')"),
    "SpinCEvaluation": (
        lambda: SpinCEvaluation((1, 2), (Fraction(1), Fraction(-1, 2)), Fraction(0)),
        "SpinCEvaluation(rot_vector=(1, 2), solution=(Fraction(1, 1), Fraction(-1, 2)), "
        "c_squared=Fraction(0, 1))"),
}

# The classes `expansion` compiles an unchecked builder for, in the order of
# its `_UNCHECKED`.
UNCHECKED = dict(zip(("LegendrianKnot", "Component", "ContactSurgeryPresentation"), _UNCHECKED))


def _twin(record):
    """A record of another class with the same fields and values."""
    twin = object.__new__(type("Twin", (Record,), {"_fields": record._fields}))
    twin.__dict__.update({name: getattr(record, name) for name in record._fields})
    return twin


@pytest.mark.parametrize("build, expected", CASES.values(), ids=CASES)
def test_a_record_is_a_frozen_value(build, expected):
    record, copy = build(), build()
    assert repr(record) == expected
    assert record == copy and not record != copy and record is not copy
    assert hash(record) == hash(copy)
    assert hash(record) == hash(tuple(getattr(record, name) for name in record._fields))
    twin = _twin(record)
    assert record != twin and twin != record
    assert repr(twin) == "Twin" + expected[expected.index("("):]
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record == copy
    with pytest.raises(TypeError):
        record < copy


@pytest.mark.parametrize("name", CASES)
def test_the_unchecked_builder_stores_the_same_fields_in_the_same_order(name):
    # The expansion's three builders, and one compiled on request for each
    # other class.
    record = CASES[name][0]()
    builder = UNCHECKED.get(name) or unchecked_builder(type(record))
    copy = builder(*record._values(record))
    assert type(copy) is type(record) and copy == record and copy is not record
    # A `_check` may store a value after the fields; the copy has none.
    assert list(vars(copy)) == list(vars(record))[:len(record._fields)] == list(record._fields)
    if name in UNCHECKED:
        assert list(vars(record)) == list(record._fields)


def test_the_unchecked_builder_runs_no_check():
    with pytest.raises(NotRealizable):
        LegendrianKnot(0, 0)
    assert UNCHECKED["LegendrianKnot"](0, 0).tb == 0
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        Component(LegendrianKnot(-1, 0), 0)
    assert UNCHECKED["Component"](LegendrianKnot(-1, 0), 0).coefficient == 0
    knot = LegendrianKnot(-1, 0)
    misplaced = (Component(knot, -1), Component(knot, 1))
    with pytest.raises(ValueError, match="must precede every -1"):
        ContactSurgeryPresentation(misplaced)
    assert UNCHECKED["ContactSurgeryPresentation"](misplaced).components == misplaced


def test_cached_values_are_not_fields():
    matrix, copy = LinkingMatrix((0, -3), (-1,)), LinkingMatrix((0, -3), (-1,))
    assert matrix.determinant() == -1
    assert matrix.entries == ((0, -1), (-1, -3))
    assert matrix == copy and hash(matrix) == hash(copy) and repr(matrix) == repr(copy)
    presentation, fresh = (CASES["ContactSurgeryPresentation"][0]() for _ in range(2))
    assert linking_matrix(presentation) is vars(presentation)["_matrix"]
    assert presentation == fresh and hash(presentation) == hash(fresh)
    assert repr(presentation) == repr(fresh)
    torus, fresh = (SurfaceModel(1, 1, ((0, 1), (-1, 0)), (("a", (1, 0)), ("b", (0, 1))))
                    for _ in range(2))
    assert homology_action((("a", "+"), ("b", "-")), torus) == ((2, -1), (-1, 1))
    assert set(torus._updates) == {"a", "b"} and not fresh._updates
    assert torus == fresh and hash(torus) == hash(fresh) and repr(torus) == repr(fresh)
    # A ledger state keeps no cache: reading it stores nothing.
    state = CASES["LedgerState"][0]()
    assert list(state.rows(0, 1)) == [(0, InvariantStatus.UNKNOWN, None),
                                      (1, InvariantStatus.NONZERO, "r")]
    assert list(vars(state)) == list(state._fields)


def test_a_knot_type_has_no_flags_by_default():
    assert KnotType("k", 1, 1).flags == frozenset()


def _package_records():
    """Every Record subclass the package's modules define."""
    for module in pkgutil.iter_modules(contactsurgery.__path__):
        importlib.import_module(f"contactsurgery.{module.name}")
    return [cls for cls in Record.__subclasses__() if cls.__module__.startswith("contactsurgery.")]


def test_each_record_signature_is_its_fields():
    records = _package_records()
    assert {cls.__name__ for cls in records} == set(CASES)
    for cls in records:
        parameters = inspect.signature(cls).parameters.values()
        assert tuple(p.name for p in parameters) == cls._fields
        assert cls.__init__.__code__.co_filename == "<string>"
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
        assert defaults == cls._defaults
        assert tuple(defaults) == cls._fields[len(cls._fields) - len(defaults):]
    for name, builder in UNCHECKED.items():
        cls = type(CASES[name][0]())
        assert builder.__code__.co_filename == "<string>"
        assert builder.__name__ == builder.__qualname__ == f"unchecked_{name}"
        assert builder.__module__ == cls.__module__
        assert inspect.signature(builder) == inspect.signature(cls)


def test_each_record_class_compiles_only_its_init():
    # Unchecked builders are compiled on request; no class keeps one.
    for cls in _package_records():
        assert not hasattr(cls, "_unchecked")
        functions = [getattr(value, "__func__", value) for value in vars(cls).values()]
        compiled = [f.__name__ for f in functions
                    if getattr(getattr(f, "__code__", None), "co_filename", "") == "<string>"]
        assert compiled == ["__init__"]
