"""Immutable value classes, as plain slotted classes.

A value class names its fields in ``__slots__``.  ``Value.__init__`` takes
one argument per public field and sets them in slot order, since
``Value.__setattr__`` refuses every assignment; a class that checks or
defaults an argument keeps a short ``__init__`` that ends in
``super().__init__(...)``.  Two values are equal when they are of the same
class and their compared fields are equal, and a value hashes as the tuple
of those fields.  The compared fields are the slots in order, less the
names a class passes as ``uncompared``; a slot named ``_name`` is private,
neither compared nor shown nor set by ``Value.__init__``, and a ``memo``
keeps its value in one.  ``_set`` stores a private slot past
``__setattr__``.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls, uncompared=()):
        super().__init_subclass__()
        fields = [f for f in cls.__slots__ if not f.startswith("_")]
        cls._shown = tuple(fields)
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        cls._key = attrgetter(*[f for f in fields if f not in uncompared])

    def __init__(self, *fields):
        setters = self._setters
        if len(fields) != len(setters):
            raise TypeError("%s takes %d fields (%s), not %d" % (
                type(self).__name__, len(setters), ", ".join(self._shown), len(fields)))
        for put, field in zip(setters, fields):
            put(self, field)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._shown))


class memo:
    """A property computed on its first read and kept in the private slot
    ``_name`` of the value: functools.cached_property for a slotted class."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        slot = getattr(owner, "_" + name)
        self.read, self.keep = slot.__get__, slot.__set__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        try:
            return self.read(obj)
        except AttributeError:
            pass
        value = self.compute(obj)
        self.keep(obj, value)
        return value
