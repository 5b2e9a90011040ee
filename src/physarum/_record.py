"""Frozen records: what ``@dataclass(frozen=True)`` gives the package, without importing dataclasses.

``record`` reads a class's fields from its own annotations, in order,
and their defaults from its class attributes. It compiles one
``__init__`` with that parameter list, which stores the fields and then
calls ``__post_init__`` if the class defines one, and installs the
shared ``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__`` and
``__delattr__`` below. These behave as the frozen dataclass's do: the
repr ``Name(f=..., ...)``, equality of the field tuples for two records
of the same class only, the hash of that tuple, and FrozenInstanceError
on any assignment or deletion. The instance keeps its ``__dict__``, so
``functools.cached_property`` works on a record.

Importing dataclasses loads inspect, ast, dis and tokenize, and each
frozen dataclass compiles six methods; a cold command pays for both.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


def record(cls):
    """Make cls a frozen record of the fields it annotates (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name for name in names)
    # The local __dict__ cannot shadow a field: no record annotates that name.
    stores = "".join(f"    __dict__[{name!r}] = {name}\n" for name in names)
    post_init = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    namespace = {"_defaults": defaults}
    exec(f"def __init__(self, {params}):\n    __dict__ = self.__dict__\n{stores}{post_init}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # the name Python's TypeErrors give
    cls.__init__ = init
    cls.__record_fields__ = names
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__record_fields__)


def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__record_fields__)})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def fields(obj) -> tuple[str, ...]:
    """The field names of a record or record class, in declaration order."""
    return obj.__record_fields__


def asdict(obj) -> dict:
    """Field name -> value of a record; unlike dataclasses.asdict, the values are not copied."""
    return {name: getattr(obj, name) for name in fields(obj)}


def replace(obj, **changes):
    """A new record of obj's class with ``changes`` applied; its __init__ validates it again."""
    return type(obj)(**{**asdict(obj), **changes})
