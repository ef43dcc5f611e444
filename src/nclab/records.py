"""Plain immutable record classes: named fields without generated code.

A record's fields are the public names in its ``__slots__`` (a slot whose
name starts with ``_`` is private storage, not a field).  Records are built
once, positionally or by keyword, with every field given, and cannot be
changed afterwards.  ``==`` holds between records of the same class whose
fields are equal.  Nothing is compiled when a record class is created, so
importing a module of records costs no more than importing its functions.
``Frozen`` makes instances immutable: the value classes and ``Record``
build on it.
"""


class Frozen:
    """Mixin: no attribute of an instance can be assigned or deleted.

    Constructors set their slots with ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} fields, {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{type(self).__name__} got field {name!r} twice")
            values[name] = value
        for name in fields:
            if name not in values:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"
