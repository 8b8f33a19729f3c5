"""Frozen records: the class decorator for endorank's immutable value types.

`@record` reads the class's annotations, in order, as its fields and adds

* `__init__`: fields by position or keyword, a class attribute of the same
  name as the default, then `__post_init__()` when the class defines one;
* `__eq__` and `__hash__` over the compared fields, and `__repr__` over the
  same fields unless the class writes its own;
* `__setattr__` and `__delattr__`, which raise AttributeError.

A field whose name starts with an underscore is not compared, hashed or
shown, and such fields come last.  The methods are closures, not source
generated and compiled per class as `dataclasses` does, so importing
endorank loads neither `dataclasses` nor `inspect`.  Each instance dict is
built whole, with the tuple of compared fields stored under `_key`: equality
and hashing read that one tuple, and a record is equal to itself at once.
"""

from __future__ import annotations

_MISSING = object()
_set = object.__setattr__


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    compared = sum(not n.startswith("_") for n in names)
    shown = names[:compared]
    if any(n.startswith("_") for n in shown):
        raise TypeError(f"{cls.__name__}: fields named _... must come last")
    defaults = tuple(cls.__dict__.get(n, _MISSING) for n in names)
    post = cls.__dict__.get("__post_init__")

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        args += tuple(map(kwargs.pop, names[len(args):], defaults[len(args):]))
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        if _MISSING in args:
            raise TypeError(f"{cls.__name__}() missing argument "
                            f"{names[args.index(_MISSING)]!r}")
        return args

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        _set(self, "__dict__", dict(zip(names, args), _key=args[:compared]))
        if post is not None:
            post(self)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not cls:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(shown, self._key))
        return f"{cls.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls
