"""Frozen value records, built without code generation.

@record turns a class whose fields are annotated in its body into an
immutable value type: fields in annotation order, a class attribute of
the same name is the field's default, __post_init__ (if any) runs after
the fields are set, == requires the same class and compares the field
tuple, hash is the hash of that tuple and repr is QualName(f=v!r, ...).
Assignment and deletion raise AttributeError.  A field whose class value
is HIDDEN is required and ignored by ==, hash and repr.  Every method is
a closure over the field names; nothing is exec'd.
"""

from operator import attrgetter

# class value of a required field that ==, hash and repr ignore
HIDDEN = object()

_set = object.__setattr__


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    hidden = [n for n in names if cls.__dict__.get(n) is HIDDEN]
    for name in hidden:
        delattr(cls, name)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    shown = tuple(n for n in names if n not in hidden)
    count, slots = len(names), tuple(enumerate(names))
    post, what = getattr(cls, "__post_init__", None), cls.__qualname__

    def bind(args, kwargs):
        if len(args) > count:
            raise TypeError(f"{what}() takes {count} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{what}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{what}() got unexpected or repeated arguments {sorted(kwargs)}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for i, name in slots:
            _set(self, name, args[i])
        if post is not None:
            post(self)

    get = attrgetter(*shown)
    key = get if len(shown) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(shown, key(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{what}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__record_fields__ = names
    return cls
