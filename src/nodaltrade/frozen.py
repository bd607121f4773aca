"""The immutable base of the package's value classes.

A subclass lists its fields in `__slots__` and sets them in its own
`__init__`, after its checks: all at once, in slot order, with `_set`, or
one by one with `object.__setattr__` where the constructor is hot.  The
base derives equality, hashing and the repr from those fields, refuses
assignment and deletion, and rebuilds changed copies through `__init__`,
so every copy passes the same checks.
"""

from operator import attrgetter


def _refusal(action: str, name: str) -> Exception:
    # the error frozen values have always raised, loaded only when one is raised
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {action} field {name!r}")


class Frozen:
    """A slotted, frozen value compared, hashed and shown by its fields.

    The class keyword `derived` names the fields that `__init__` computes
    from the others; they are left out of the repr, the comparison and
    `replace`.  A class that stores another form than its constructor takes
    names, with `fields`, the properties that read its fields back.  A class
    with an unhashable compared field is unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, derived=(), fields=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields or tuple(f for f in cls.__slots__ if f not in derived)
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise _refusal("assign to", name)

    def __delattr__(self, name):
        raise _refusal("delete", name)

    def __reduce__(self):
        # copies and pickles go through __init__ too: slot-by-slot restoring would assign
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def replace(self, **changes):
        """A copy with the named fields changed, built and checked by `__init__`."""
        fields = {f: getattr(self, f) for f in self._fields}
        fields.update(changes)
        return self.__class__(**fields)
