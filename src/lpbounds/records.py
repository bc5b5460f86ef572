"""Frozen records, the package's value types, made without generating code.

A subclass's annotated class attributes are its fields, in order, a class-level
value giving a default.  A record compares and hashes as its field tuple, prints
as ``Name(field=value, ...)`` and refuses assignment and deletion.  ``__init__``
runs ``__post_init__`` if the class has one; what that stores is no field.  A
class made thousands of times per run sets its fields in its own ``__init__``.
"""

from operator import attrgetter

set_field = object.__setattr__  # past the frozen __setattr__, into the inline values that read fastest


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*cls._fields)  # reads one field as a bare value, so that is wrapped
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda record: (get(record),))
        cls._required = {name for name in cls._fields if not hasattr(cls, name)}

    def __init__(self, *args, **kwargs) -> None:
        fields = zip(self._fields, args)
        if kwargs or len(args) != len(self._fields):  # else every field by position: nothing to check
            fields = dict(fields, **kwargs)
            if len(fields) != len(args) + len(kwargs) or not self._required <= fields.keys() <= set(self._fields):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
            fields = fields.items()
        for name, value in fields:
            set_field(self, name, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __eq__(self, other):
        return self._values(self) == self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values(self)))})"

    def __setattr__(self, name: str, *value) -> None:  # no value: __delattr__
        raise AttributeError(f"cannot {'set' if value else 'delete'} {name}: {type(self).__name__} is frozen")

    __delattr__ = __setattr__


def replace(record: Record, **changes):
    """``record`` with ``changes``, made by its class and so checked again."""
    return type(record)(**dict(zip(record._fields, record._values(record)), **changes))
