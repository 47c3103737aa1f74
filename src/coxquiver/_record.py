"""Base classes of the package's records.

A record names its fields in ``__slots__``, in the order its ``__init__``
takes them, and gets from these bases what a dataclass would give it,
without importing ``dataclasses`` (and through it ``inspect``, ``ast`` and
``dis``) or generating code per class when the package is imported.
"""

from operator import attrgetter


class Record:
    """Equal to a record of the same class with equal fields, printed as
    ``Name(field=value, ...)``, and rebuilt through ``__init__`` by
    ``pickle`` and ``copy``.  Unhashable, as it may change."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # the field value, or the tuple of them: compared and hashed on
            # hot paths, so one C call rather than a loop over the names
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class FrozenRecord(Record):
    """A record whose ``__init__`` sets its fields once, through
    ``object.__setattr__``; hashed by value."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
