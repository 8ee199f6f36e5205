"""Frozen, slotted value records with a constructor that stores through slots.

Every value type of the package (packets, DNS messages, decoy records,
log entries, analysis rows) is declared with :func:`frozen`.  The result is
a ``dataclass(frozen=True, slots=True)``: assignment and ``del`` raise
``FrozenInstanceError``; ``__eq__``, ``__hash__``, ``__repr__``,
``__match_args__``, ``dataclasses.replace``/``fields``/``asdict``/
``astuple``, ``copy`` and ``pickle`` behave as for any frozen dataclass.
Instances have no ``__dict__`` and cannot be weakly referenced.

What differs is the ``__init__``.  A frozen dataclass's class
``__setattr__`` raises, so the constructor ``dataclasses`` generates stores
each field with ``object.__setattr__(self, name, value)``, a
wrapper-descriptor call per field.  The constructor generated here takes
the same parameters in the same order with the same defaults, but stores
each field through its slot's member descriptor, whose ``__set__`` is bound
once when the class is created, and then calls ``__post_init__`` if the
class has one.  That about halves the cost of building a record.

The module imports only the standard library, so any layer can use it.
"""

import dataclasses

__all__ = ["frozen"]

_MISSING = dataclasses.MISSING


def _refuse_unsupported(cls) -> None:
    """A TypeError for each dataclass feature the generated ``__init__``
    does not implement."""
    for item in cls.__dataclass_fields__.values():
        where = f"@frozen {cls.__qualname__}.{item.name}"
        # InitVar pseudo-fields are passed to __post_init__, which the
        # generated constructor never does.
        if item._field_type is dataclasses._FIELD_INITVAR:
            raise TypeError(f"{where}: InitVar is not supported")
    defaulted = None
    for item in dataclasses.fields(cls):
        where = f"@frozen {cls.__qualname__}.{item.name}"
        if item.default_factory is not _MISSING:
            raise TypeError(f"{where}: default_factory is not supported")
        if not item.init:
            raise TypeError(f"{where}: field(init=False) is not supported")
        if item.kw_only is True:
            raise TypeError(f"{where}: kw_only is not supported")
        # dataclass(init=False) skips this check of its own __init__.
        if item.default is not _MISSING:
            defaulted = item.name
        elif defaulted is not None:
            raise TypeError(f"{where}: non-default argument {item.name!r} "
                            f"follows default argument {defaulted!r}")


def _make_init(cls, fields):
    """Build ``cls.__init__`` from source text, as ``dataclasses`` does.

    The setters and defaults are closure variables of a factory function,
    so the body reads them with one load each."""
    names = {item.name for item in fields}
    self_name = "__dataclass_self__" if "self" in names else "self"
    bound = {}
    params = [self_name]
    body = []
    for item in fields:
        setter = f"__set_{item.name}__"
        bound[setter] = vars(cls)[item.name].__set__
        if item.default is _MISSING:
            params.append(item.name)
        else:
            default = f"__dflt_{item.name}__"
            bound[default] = item.default
            params.append(f"{item.name}={default}")
        body.append(f"  {setter}({self_name}, {item.name})")
    if hasattr(cls, "__post_init__"):
        body.append(f"  {self_name}.__post_init__()")
    if not body:
        body.append("  pass")
    source = (
        f"def __create_fn__({', '.join(bound)}):\n"
        f" def __init__({', '.join(params)}):\n"
        + "\n".join(f" {line}" for line in body)
        + "\n return __init__\n"
    )
    namespace = {}
    exec(source, {"__name__": cls.__module__}, namespace)
    init = namespace["__create_fn__"](**bound)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{item.name: item.type for item in fields},
                            "return": None}
    return init


def _make_guards(cls, fields):
    """``__setattr__`` and ``__delattr__`` as ``dataclasses`` writes them for
    a frozen class.  Its own pair closes over the class that ``slots=True``
    replaced, so assigning a name that is not a field raised a TypeError
    from ``super()`` instead of ``FrozenInstanceError``."""
    names = frozenset(item.name for item in fields)
    refuse = dataclasses.FrozenInstanceError

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise refuse(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise refuse(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for guard in (__setattr__, __delattr__):
        guard.__qualname__ = f"{cls.__qualname__}.{guard.__name__}"
    return __setattr__, __delattr__


def frozen(cls):
    """Declare ``cls`` a frozen, slotted record (see the module docstring).

    Refuses, with a TypeError, ``default_factory``, ``field(init=False)``,
    ``kw_only`` and ``InitVar``; no record needs them."""
    cls = dataclasses.dataclass(frozen=True, slots=True, init=False)(cls)
    _refuse_unsupported(cls)
    fields = dataclasses.fields(cls)
    cls.__init__ = _make_init(cls, fields)
    cls.__setattr__, cls.__delattr__ = _make_guards(cls, fields)
    return cls
