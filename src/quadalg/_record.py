"""Immutable records, built without generated code.

A record class lists its fields in __slots__ and takes them, in that order, as
the parameters of its own __init__, which sets them through set_fields.
Assigning or deleting a field afterwards raises AttributeError, as on a frozen
dataclass. A copy or an unpickled record is rebuilt through __init__, so it
passes the class's checks again. Records compare and hash by identity, unless
their class takes field_eq as its __eq__, which makes them unhashable. A
dataclass would generate and compile its methods on every import.
"""

from __future__ import annotations

_set = object.__setattr__


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)


def set_fields(record: Frozen, *values) -> None:
    """The fields of record, in its class's __slots__ order, set to values."""
    for name, value in zip(type(record).__slots__, values, strict=True):
        _set(record, name, value)


def field_eq(record: Frozen, other) -> bool:
    """A record's __eq__ as a dataclass's: the same class and equal fields."""
    if type(other) is not type(record):
        return NotImplemented
    names = type(record).__slots__
    return ([getattr(record, name) for name in names]
            == [getattr(other, name) for name in names])
