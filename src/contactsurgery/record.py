"""The frozen record base of the package's value types.

A record names its fields, in order, in `_fields`, and its own positional
`__init__` checks its arguments and stores each one with `set_field`, since
assignment and deletion raise AttributeError.  Equality, hash and repr read
the fields through one `operator.attrgetter`, as a frozen dataclass's
methods would: two records are equal when they are of the same class with
equal fields, the hash is that of the field tuple, and the repr reads
`Name(a=..., b=...)`.  Other attributes, such as a `cached_property`, are
seen by none of the three.  The base writes no code when a class is
created, so it imports neither `dataclasses` nor `inspect`.
"""

from operator import attrgetter

# set_field(record, name, value) stores past the frozen __setattr__.  One call
# per field keeps CPython's compact instance layout, so reading a field costs
# what it costs on a dataclass; writing to `__dict__` instead makes each later
# read slower.
set_field = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the bare value, not a 1-tuple.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

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
