"""The base of the package's result records.

A record names its fields in ``__slots__``, in order, and sets them in its
own ``__init__``, which also checks them.  ``_Record`` gives it equality
field by field within one class, a ``Name(field=value, ...)`` repr, copies
and pickles that restore the fields without calling ``__init__``, and
``_replace``, which builds a changed record through ``__init__``.
``_Frozen`` records also refuse assignment and hash by their fields.

These are plain classes, not dataclasses: importing ``dataclasses`` (with
``inspect``) and generating each class's methods at import took about a
third of a fresh ``import wramsey``.
"""

from __future__ import annotations


def _restore(cls, values):
    """A ``cls`` record holding ``values``, in ``__slots__`` order, built
    without ``__init__``: how copies and pickles are rebuilt."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


class _Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return _restore, (self.__class__, self._values())

    def _replace(self, **changes):
        """A record of the same class with ``changes`` to some fields, built
        and checked by ``__init__``."""
        return self.__class__(**dict(zip(self.__slots__, self._values()), **changes))


class _Frozen(_Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
