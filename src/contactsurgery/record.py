"""The frozen record base of the package's value types.

A record is declared by `_fields`, its field names in order, and
`_defaults`, the values of its trailing fields that have one; `_check(self)`,
if the class defines it, holds its checks.  The base writes the positional
`__init__` of every record: one `set_field` per field, since assignment
and deletion raise AttributeError, then `_check(self)`.  It is compiled
once per class, so the base imports neither `dataclasses` nor `inspect`.

`unchecked_builder(cls)` compiles, when asked, a builder with the same
parameters and the same `set_field`s on `object.__new__`, so its instances
have the same layout, but it runs no `_check`.  `expansion` asks for three,
where it holds what their checks would prove.

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


def _compile(cls, name, source):
    """The function `name` that `source` defines for the record class `cls`.
    In `source`, `{params}` stands for the fields as positional parameters
    with their defaults, and `{sets}` for one `set_field` line per field, in
    order, on `self`."""
    fields, defaults = cls._fields, cls._defaults
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
    sets = "".join(f"\n    set_field(self, {f!r}, {f})" for f in fields)
    namespace = {"set_field": set_field, "_defaults": defaults,
                 "_check": getattr(cls, "_check", None), "new": object.__new__, "cls": cls}
    exec(source.format(params=params, sets=sets), namespace)
    function = namespace[name]
    function.__module__ = cls.__module__
    return function


def unchecked_builder(cls):
    """`unchecked_<class name>`, a builder of `cls` records that runs no
    `_check`, so its records lack any value a `_check` stores."""
    name = f"unchecked_{cls.__name__}"
    source = f"def {name}({{params}}):\n    self = new(cls){{sets}}\n    return self"
    return _compile(cls, name, source)


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the bare value, not a 1-tuple.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))
        check = "\n    _check(self)" if hasattr(cls, "_check") else ""
        init = _compile(cls, "__init__", "def __init__(self, {params}):{sets}" + check)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

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
