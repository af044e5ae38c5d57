"""The frozen record base of the package's value types.

A record is declared by `_fields`, its field names in order, and
`_defaults`, the values of its trailing fields that have one; `_check(self)`,
if the class defines it, holds its checks.  The base writes the positional
`__init__` of every record: one `set_field` per field, since assignment
and deletion raise AttributeError, then `_check(self)`.

Beside it, the same `exec` writes `_unchecked`, a static builder with
the same parameters.  It makes the instance with `object.__new__` and
stores the same fields in the same order, so the instance layout is the
same, but it runs no `_check`.  Use it only where the caller holds the
invariants `_check` would prove, and where an oracle test builds the
same values through `__init__`.  Its one caller is the generator of
`expansion.Expansion`, for knots, components and presentations: the
generator walks an expansion's last link in an inner loop that builds
one of each per presentation.  A class whose `_check` also stores a
value (`LinkingMatrix`'s factored chain, `SurfaceModel`'s classes) must
never be built with it.
Both builders are compiled once per class, so the base imports neither
`dataclasses` nor `inspect`.

Equality, hash and repr read the fields through one `operator.attrgetter`,
as a frozen dataclass's methods would: two records are equal when they are
of the same class with equal fields, the hash is that of the field tuple,
and the repr reads `Name(a=..., b=...)`.  Other attributes are seen by
none of the three.  A value a record computes on first use and keeps is
such an attribute: a class attribute that starts at None, which the first
reader replaces on the instance with `set_field`.
"""

from operator import attrgetter

# set_field(record, name, value) stores past the frozen __setattr__.  One call
# per field keeps CPython's compact instance layout, so reading a field costs
# what it costs on a dataclass; writing to `__dict__` instead makes each later
# read slower.
set_field = object.__setattr__


def _write_builders(cls):
    """The positional `__init__` of a record class, and its `_unchecked`."""
    fields, check = cls._fields, getattr(cls, "_check", None)
    params = ", ".join(
        f"{name}=_defaults[{name!r}]" if name in cls._defaults else name for name in fields)
    sets = "".join(f"\n    set_field(self, {name!r}, {name})" for name in fields)
    source = (f"def __init__(self, {params}):{sets}" + ("\n    _check(self)" if check else "")
              + f"\ndef _unchecked({params}):\n    self = new(cls){sets}\n    return self")
    namespace = {"set_field": set_field, "_defaults": cls._defaults, "_check": check,
                 "new": object.__new__, "cls": cls}
    exec(source, namespace)
    builders = namespace["__init__"], namespace["_unchecked"]
    for builder in builders:
        builder.__module__ = cls.__module__
        builder.__qualname__ = f"{cls.__qualname__}.{builder.__name__}"
    return builders


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the bare value, not a 1-tuple.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))
        init, unchecked = _write_builders(cls)
        cls.__init__, cls._unchecked = init, staticmethod(unchecked)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"
