"""Value semantics for the package's small parameter and result classes.

A subclass names its fields in ``_fields``, in constructor order.  ``Plain``
compares them and shows them in the repr, as a dataclass does; ``Frozen``
also hashes them and refuses assignment.  Fields in ``_uncompared`` are
shown but not compared.  ``dataclasses`` is not used: importing it loads
``inspect`` and ``ast``, and it builds each method with ``exec``, which
together cost more start-up time than a small job.
"""


class Plain:
    _fields = ()
    _uncompared = ()
    __hash__ = None

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields if name not in self._uncompared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class Frozen(Plain):
    def __hash__(self):
        return hash(self._key())

    def _set(self, **fields) -> None:  # for __init__ only
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
