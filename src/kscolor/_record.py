"""Immutable values: ``Frozen`` refuses change, and ``Record`` builds a
value class from its field names."""


class Frozen:
    """Base of every value type: assignment and deletion raise
    ``AttributeError``.  Constructors store through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    """Base of the result records: a subclass lists its field names in
    ``_fields`` and maps trailing ones to defaults in ``_defaults``.
    Instances print, compare and hash by their fields as one tuple, cannot
    change, and copy and pickle through ``__reduce__``.  ``__init__`` is
    compiled once per subclass, as ``collections.namedtuple`` compiles its
    ``__new__``, so arguments bind by Python's own rules.  Nothing here
    reads ``__dict__``: in CPython that turns an instance's inline
    attribute values into a dict, and every later attribute read slows."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in cls._fields)
        stores = "".join(f"\n    _setattr(self, {n!r}, {n})" for n in cls._fields)
        namespace = {"_defaults": cls._defaults, "_setattr": object.__setattr__}
        exec(f"def __init__(self, {params}):{stores}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()
