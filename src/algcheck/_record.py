"""Value types, built without generating source code.

`record` turns a class whose body annotates its fields into a value type,
as a frozen `dataclasses.dataclass` does: the fields are
positional-or-keyword arguments in annotation order, with defaults and
`factory` defaults, and `__post_init__` runs after they are set; `==`, the
hash and the repr read the fields.  Every value type is frozen, and one with
a list or dict field is unhashable.  Attributes that are not fields, such as
`functools.cached_property` tables, stay out of equality, hash and repr.
Every method is a closure over the field names, so neither `dataclasses` nor
the `inspect` it imports is loaded: importing the package stays short.
"""

from operator import attrgetter

_MISSING = object()


class factory:
    """A field default made anew for each instance: `factory(list)`."""

    def __init__(self, make):
        self.make = make


def record(cls):
    """Class decorator: make `cls` a frozen value type."""
    name, fields = cls.__qualname__, tuple(cls.__annotations__)
    defaults = {f: cls.__dict__.get(f, _MISSING) for f in fields}
    for f, default in defaults.items():
        if isinstance(default, factory):
            delattr(cls, f)
    post_init, key = getattr(cls, "__post_init__", None), attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        given = dict(zip(fields, args))
        if len(args) > len(fields) or kwargs.keys() - defaults.keys() or kwargs.keys() & given.keys():
            raise TypeError(f"{name}() takes the arguments {fields}, got {len(args)} "
                            f"positional and {sorted(kwargs)}")
        given.update(kwargs)
        state = vars(self)
        for f, default in defaults.items():
            if f in given:
                state[f] = given[f]
            elif default is _MISSING:
                raise TypeError(f"{name}() missing argument {f!r}")
            else:
                state[f] = default.make() if isinstance(default, factory) else default
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        return f"{name}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

    def _frozen(self, attr, *value):
        raise AttributeError(f"{name} is frozen: cannot set or delete {attr!r}")

    cls._fields = fields
    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj, **changes):
    """A copy of the record `obj` with `changes`, validated anew."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj._fields}, **changes})
