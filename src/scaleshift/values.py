"""Immutable bases for the package's objects.

``Frozen`` refuses attribute assignment; constructors set their fields with
``object.__setattr__``.  ``Value`` adds equality, hashing and a repr taken
from one ``_key()`` tuple of the fields, for objects that are values: two
instances of one class with equal keys are interchangeable.  Classes that
subclass ``Frozen`` alone keep identity equality.  ``JsonText`` is JSON text
spelled ahead of output, which the CLI's writer copies as it is.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Value(Frozen):
    """Compared, hashed and shown by ``_key()``, which every subclass defines."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()!r}"


class JsonText(str):
    """A JSON value already spelled as ``json.dumps(value, ensure_ascii=False, sort_keys=True)``
    would spell it; ``json.dumps`` itself would quote it as a string."""

    __slots__ = ()
