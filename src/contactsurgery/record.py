"""The frozen record base of the package's value types.

A record is declared by `_fields`, its field names in order, and
`_defaults`, the values of its trailing fields that have one; `_check(self)`,
if the class defines it, holds its checks.  The base writes the positional
`__init__` of every record: one `set_field` per field, since assignment
and deletion raise AttributeError, then `_check(self)`.  It is compiled
once per class with `exec`, so the base imports neither `dataclasses` nor
`inspect`.

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


def _write_init(cls):
    """The positional `__init__` of a record class."""
    fields, check = cls._fields, getattr(cls, "_check", None)
    params = [f"{name}=_defaults[{name!r}]" if name in cls._defaults else name for name in fields]
    body = [f"set_field(self, {name!r}, {name})" for name in fields]
    if check is not None:
        body.append("_check(self)")
    namespace = {"set_field": set_field, "_defaults": cls._defaults, "_check": check}
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), namespace)
    init = namespace["__init__"]
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    return init


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the bare value, not a 1-tuple.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))
        cls.__init__ = _write_init(cls)

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
