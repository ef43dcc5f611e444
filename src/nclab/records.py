"""Immutable values and plain record classes, without generated code.

``Frozen``, the base of every value class and of ``Record``, forbids
assigning or deleting attributes and owns value equality: ``==`` holds
between instances of exactly one class whose slots, over the whole class
hierarchy, are all equal, and the hash is that of the slot values.

A record's fields are the public names in its ``__slots__`` (a slot whose
name starts with ``_`` is private storage, not a field).  Records are built
once, positionally or by keyword, with every field given, and cannot be
changed afterwards.  A fact that the fields determine is derived, not
stored: a property, or a key that the report codec writes and never reads;
``serialize.loads`` refuses a document that is not the re-encoding of what it
decodes to, a derived key that disagrees with its fields included.  Values
follow the same rule: a series stores only its coefficients (its order is
their count less one), and the codec derives a polynomial's text and a
matrix's size.  Nothing is compiled when a record class is created, so
importing a module of records costs no more than importing its functions.
"""

from operator import attrgetter


class Frozen:
    """Mixin: immutable instances that compare and hash by class and every slot.

    Constructors set their slots with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [name for klass in reversed(cls.__mro__)
                 for name in vars(klass).get("__slots__", ())]
        # one slot gives its value, not a 1-tuple; a class with no slot has one value, its class
        cls._slot_values = attrgetter(*slots) if slots else attrgetter("__class__")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._slot_values(self) == self._slot_values(other)

    def __hash__(self):
        return hash(self._slot_values(self))

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

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"
