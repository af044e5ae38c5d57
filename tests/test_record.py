"""The frozen records: equality, hash, repr and immutability of each one."""

import importlib
import inspect
import pkgutil

import pytest

import contactsurgery
from contactsurgery.catalog import KnotType
from contactsurgery.errors import NotRealizable
from contactsurgery.expansion import Component, ContactSurgeryPresentation
from contactsurgery.ledger import (
    LedgerState, LedgerSubject, TightnessReport, TightRange, assert_fact)
from contactsurgery.legendrian import InvariantStatus, LegendrianKnot, TransverseKnot
from contactsurgery.linalg import LinkingMatrix
from contactsurgery.openbook import LanternConfiguration, SurfaceModel
from contactsurgery.record import Record

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
        lambda: TightnessReport(KnotType("T(2,3)", 1, 1, 1, 1), (TightRange(2, "r"),), 0),
        f"TightnessReport(knot={_TREFOIL}, ranges=(TightRange(anchor=2, rule='r'),), "
        "sl_tb_gap=0)"),
    "KnotType": (lambda: KnotType("T(2,3)", 1, 1, 1, 1), _TREFOIL),
    "SurfaceModel": (lambda: SurfaceModel(0, 2, ((0,),), (("a", (1,)),), ((1,), (-1,))),
                     "SurfaceModel(genus=0, boundary_count=2, pairing=((0,),), "
                     "curves=(('a', (1,)),), boundary_classes=((1,), (-1,)))"),
    "LanternConfiguration": (
        lambda: LanternConfiguration("a", "b", "c", "d", "ab", "ac", "bc"),
        "LanternConfiguration(one='a', two='b', three='c', four='d', one_two='ab', "
        "one_three='ac', two_three='bc')"),
}


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


@pytest.mark.parametrize("build", [build for build, _ in CASES.values()], ids=CASES)
def test_the_unchecked_builder_stores_the_same_fields_in_the_same_order(build):
    record = build()
    copy = type(record)._unchecked(*record._values(record))
    assert copy == record and copy is not record
    # A `_check` may store a value after the fields; the copy has none.
    assert list(vars(copy)) == list(vars(record))[:len(record._fields)] == list(record._fields)


def test_the_unchecked_builder_runs_no_check():
    with pytest.raises(NotRealizable):
        LegendrianKnot(0, 0)
    assert LegendrianKnot._unchecked(0, 0).tb == 0


def test_cached_values_are_not_fields():
    matrix, copy = LinkingMatrix((0, -3), (-1,)), LinkingMatrix((0, -3), (-1,))
    assert matrix.determinant() == -1
    assert matrix.entries == ((0, -1), (-1, -3))
    assert matrix == copy and hash(matrix) == hash(copy) and repr(matrix) == repr(copy)
    state, fresh = CASES["LedgerState"][0](), CASES["LedgerState"][0]()
    assert state.window(1, 1) == [(1, InvariantStatus.NONZERO, "r")]
    assert state == fresh and hash(state) == hash(fresh) and repr(state) == repr(fresh)


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
        for builder in (cls.__init__, cls._unchecked):
            assert builder.__code__.co_filename == "<string>"
            assert builder.__qualname__ == f"{cls.__name__}.{builder.__name__}"
        assert inspect.signature(cls._unchecked) == inspect.signature(cls)
        defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
        assert defaults == cls._defaults
        assert tuple(defaults) == cls._fields[len(cls._fields) - len(defaults):]
