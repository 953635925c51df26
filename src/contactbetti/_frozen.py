"""Immutable ``__slots__`` records that may carry memos.

``Frozen`` gives a class value semantics with no import at start-up
beyond ``typing``: instances of one class compare equal when their
fields are, the hash is the hash of the tuple of fields, the repr is
``Class(field=value, ...)``, and assigning or deleting an attribute
raises AttributeError.  The fields are the entries of ``__slots__``, in
order, whose names do not start with "_"; a slot named "_..." is a memo,
which takes no part in equality, hash or repr and is set with
``object.__setattr__``.  Plain records without memos or checks are
``typing.NamedTuple``s, which compare, hash and print the same way.
"""
from __future__ import annotations

from typing import Tuple


class Frozen:
    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__
                            if not name.startswith("_"))

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, memos empty
        return type(self), self._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
