"""Frozen record classes, built without generating code.

`record` makes a class with annotated fields into an immutable value type,
as `dataclasses.dataclass(frozen=True)` does, but it installs shared
closures instead of compiling fresh methods for every class.  Importing
`dataclasses` (which pulls in `inspect`) and compiling six methods for each
of about thirty classes was most of the time it took to import `lamsys`,
and every CLI call pays that import.
"""

from __future__ import annotations

from operator import attrgetter

def record(cls=None, /, *, eq: bool = True):
    """Make `cls` a frozen record of its annotated fields; use as `@record` or `@record(eq=False)`.

    The fields are the names annotated in the class body, in order; a
    class-level value is that field's default.  The class gets:

    - `__init__`, taking the fields by position or keyword, with defaults,
      raising the `TypeError`s a plain function of that signature raises,
      then calling `__post_init__` if the class defines one;
    - `__eq__` and `__hash__` on the tuple of field values (with
      `eq=False` the class keeps identity equality and hashing);
    - `__repr__` as `Name(field=value, ...)`;
    - `__setattr__` and `__delattr__` that raise `AttributeError`.

    Field values live in the instance `__dict__`, so `functools.cached_property`
    works on a record.  Records do not inherit fields from record bases.
    `replace` builds a copy with some fields changed.
    """
    if cls is None:
        return lambda cls: _make_record(cls, eq)
    return _make_record(cls, eq)


def replace(obj, /, **changes):
    """A new record of `obj`'s class with the fields in `changes` replaced."""
    cls = obj.__class__
    return cls(**{**{name: getattr(obj, name) for name in cls._record_fields}, **changes})


def _make_record(cls, eq: bool):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required = names[: len(names) - len(defaults)]
    if any(name in defaults for name in required):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    n = len(names)
    qualname = f"{cls.__qualname__}.__init__"
    setattr_ = object.__setattr__
    post_init = getattr(cls, "__post_init__", None)

    # after[k]: the fields a call with k positional arguments may pass by
    # keyword; needed[k]: those of them it must pass
    after = [frozenset(names[k:]) for k in range(n + 1)]
    needed = [frozenset(required[k:]) for k in range(n + 1)]
    every = after[0]

    def bind(args: tuple, kwargs: dict) -> tuple:
        """The field values in order, or the TypeError Python raises for a call with this signature."""
        given = len(args)
        if given <= n and kwargs.keys() <= after[given] and needed[given] <= kwargs.keys():
            return args + tuple(map({**defaults, **kwargs}.__getitem__, names[given:]))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if names.index(name) < given:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        if given > n:
            takes = f"from {len(required) + 1} to {n + 1}" if defaults else f"{n + 1}"
            raise TypeError(f"{qualname}() takes {takes} positional arguments but {given + 1} were given")
        missing = [repr(name) for name in required[given:] if name not in kwargs]
        if len(missing) == 1:
            raise TypeError(f"{qualname}() missing 1 required positional argument: {missing[0]}")
        listed = ", ".join(missing[:-1]) + ("," if len(missing) > 2 else "") + " and " + missing[-1]
        raise TypeError(f"{qualname}() missing {len(missing)} required positional arguments: {listed}")

    def __init__(self, *args, **kwargs):
        # one store per field keeps the values inline, where reads are fastest
        if kwargs and not args and len(kwargs) == n and every.issuperset(kwargs):
            for name in names:  # every field by keyword, the usual keyword call
                setattr_(self, name, kwargs[name])
        else:
            if kwargs or len(args) != n:
                args = bind(args, kwargs)
            for name, value in zip(names, args):
                setattr_(self, name, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names
        ) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __delattr__}
    if eq:
        # attrgetter of several names gives the tuple of values; of one name, the bare value
        fields = attrgetter(*names) if n > 1 else lambda obj: tuple(getattr(obj, name) for name in names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return fields(self) == fields(other)
            return NotImplemented

        def __hash__(self):
            return hash(fields(self))

        methods.update(__eq__=__eq__, __hash__=__hash__)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls._record_fields = names
    return cls
