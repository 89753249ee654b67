"""Immutable values: ``Frozen`` refuses change, ``Record`` makes a value of
named fields, and ``Items`` reads a record's one field as a sequence."""


class Frozen:
    """Base of every value type: assignment and deletion raise
    ``AttributeError``.  Constructors store through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    """Base of the result records and the checked value types: a subclass
    names its constructor's arguments in ``_fields`` and maps trailing ones
    to defaults in ``_defaults``.  Instances print, copy and pickle by their
    fields as one tuple, through the constructor, and compare and hash by
    ``_key``: that tuple, or a stored form equal exactly when it is.  A
    class with ``_fields`` and no ``__init__`` or ``__new__`` of its own gets
    ``__init__`` compiled, as ``collections.namedtuple`` compiles its
    ``__new__``, so arguments bind by Python's own rules.  Nothing here
    reads an instance's ``__dict__``: in CPython that turns its inline
    attribute values into a dict, and every later attribute read slows."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__ or "__init__" in cls.__dict__ or "__new__" in cls.__dict__:
            return
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

    def _key(self) -> tuple:
        return self._values()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._values()


class Items(Record):
    """A record whose ``len``, ``iter`` and ``[]`` read its one field."""

    __slots__ = ()

    def __len__(self):
        return len(getattr(self, self._fields[0]))

    def __iter__(self):
        return iter(getattr(self, self._fields[0]))

    def __getitem__(self, k):
        return getattr(self, self._fields[0])[k]
