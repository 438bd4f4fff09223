"""Slotted record classes without generated code.

``@dataclass`` ``exec``-compiles its ``__init__``, ``__eq__``,
``__repr__`` and friends once per class, and a one-shot ``repro-analyze``
process pays that for every record class it imports (see DESIGN.md,
"Record classes").  A record here lists its fields in ``__slots__`` and
writes its own ``__init__``; the bases below supply the rest from that
field list, with dataclass semantics:

* equality compares the field tuples, and only between instances of the
  same class;
* :class:`FrozenRecord` hashes the field tuple and rejects assignment
  (its ``__init__`` stores fields through :data:`set_field`);
* ``repr`` has the dataclass form ``Name(field=value, ...)``;
* ``pickle`` and ``copy`` rebuild a frozen record by calling the class
  with its fields in order, so its ``__init__`` takes every field
  positionally; a mutable record pickles its slots.
"""

from __future__ import annotations

from operator import attrgetter

#: how a frozen record's ``__init__`` stores its fields
set_field = object.__setattr__


def _tuple_getter(names):
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


class Record:
    """A mutable record (a plain ``@dataclass``)."""

    __slots__ = ()

    #: the fields in ``__init__`` order: every slot of the class and its
    #: bases unless a class names them itself
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(
                name
                for klass in reversed(cls.__mro__)
                for name in klass.__dict__.get("__slots__", ())
            )
        cls._astuple = staticmethod(_tuple_getter(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    __hash__ = None  # mutable: unhashable, like an ``eq=True`` dataclass

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable record (a ``@dataclass(frozen=True)``)."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple(self)
