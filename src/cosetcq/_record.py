"""Frozen value records: what a frozen ``dataclasses`` class gives, without
code generation.

``dataclasses`` compiles six methods for every class it decorates, about
0.7 ms per class on Python 3.11, and the package's import paid that for
each of its value types.  ``Record`` reads a subclass's fields once, in
``__init_subclass__``, and serves every subclass from the same generic
methods.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from reprlib import recursive_repr

__all__ = ["Record"]


class Record:
    """Base of the package's immutable value types.

    A subclass's annotated names are its fields, in order (those of a base
    record first); a value assigned to one in the class body is its default,
    and no field without a default may follow one with a default.
    Instances are built by position or by keyword, with ``__post_init__``
    (when the class defines one) looked up and called after the fields are
    set.  Assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``; ``__post_init__`` may still write
    through ``object.__setattr__``.  Two records are equal when they are of
    the same class and their field tuples are equal; the hash is that of the
    field tuple.  There are no ``__slots__``, so ``cached_property`` works.
    """

    _fields = ()
    _required = 0  # the fields before the first one with a default
    _defaults = ()  # one per field, None where there is no default
    _post_init = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = list(cls._fields)
        defaults = dict(zip(fields[cls._required:], cls._defaults[cls._required:]))
        for name in cls.__dict__.get("__annotations__", {}):
            if name not in fields:
                fields.append(name)
            if name in cls.__dict__:
                defaults[name] = cls.__dict__[name]
            else:
                defaults.pop(name, None)
        required = len(fields) - len(defaults)
        for name in fields[required:]:
            if name not in defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        cls._fields = tuple(fields)
        cls._required = required
        cls._defaults = tuple(defaults.get(name) for name in fields)
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        fields, n = self._fields, len(args)
        if kwargs or not self._required <= n <= len(fields):
            args = self._bind(args, kwargs)
        else:
            args += self._defaults[n:]
        self.__dict__.update(zip(fields, args))
        if self._post_init:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, in field order, for a call with keywords or
        with too few or too many positional arguments."""
        name, fields, n = type(self).__qualname__, self._fields, len(args)
        if n > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {n} were given")
        values = dict(zip(fields, args + self._defaults[n:]))
        for key, value in kwargs.items():
            if key not in values:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[:n]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [field for field in fields[n:self._required] if field not in kwargs]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return tuple(values.values())

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    @recursive_repr()
    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({body})"
