"""Immutable value classes: a subclass names its fields in ``__slots__``
and sets them once, through ``Value.__init__``; instances compare equal
exactly when they are of the same class with equal fields, hash by those
fields, and copy and pickle as a call of the class on them.  The class
keyword ``caches`` names the slots that end ``__slots__`` and hold values
derived from the fields: they start as None unless ``__init__`` is given
them, take no part in equality, hashing or pickling, and are written by
``object.__setattr__`` where they are filled."""

from itertools import zip_longest
from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls, caches=()):
        n_fields = len(cls.__slots__) - len(caches)
        if tuple(cls.__slots__[n_fields:]) != tuple(caches):
            raise TypeError(f"{cls.__name__}: the caches must end __slots__")
        # the fields as one tuple, read in C; every subclass has several
        cls._fields = attrgetter(*cls.__slots__[:n_fields])

    def __init__(self, *fields):
        for name, value in zip_longest(self.__slots__, fields):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        # the default restore assigns each slot, which ``__setattr__`` refuses
        return type(self), self._fields(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__name__}({fields})"
