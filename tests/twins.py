"""A hand-written frozen-dataclass ``__init__`` against its generated twin.

``Frame``, ``Message`` and ``RelayPayload`` fill their instance dict
directly instead of through the generated frozen ``__init__``.  Each
construction test compares one against a *twin*: the same fields declared
on a plain ``@dataclass(frozen=True)``, so everything the generated code
would do is the expectation.
"""

import dataclasses
import inspect

import pytest


def _default(field):
    if field.default is not dataclasses.MISSING:
        return field.default
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return inspect.Parameter.empty


def assert_parameters_are_the_fields(cls):
    """Same names, order, defaults and kinds as the generated ``__init__``."""
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    assert [p.default for p in params] == [_default(f) for f in fields]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def assert_builds_the_twin(cls, twin, args, changes):
    """``cls(*args)`` is the object ``twin(*args)`` is, field for field.

    Same ``vars()`` in the same order, equal to itself built by keyword,
    the twin's hash (or its ``TypeError``), and ``dataclasses.replace``
    with each of *changes* gives a *cls* with the twin's dict.
    """
    ours, plain = cls(*args), twin(*args)
    assert vars(ours) == vars(plain) and list(vars(ours)) == list(vars(plain))
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(**dict(zip(names, args))) == ours
    assert ours == cls(*args) and ours != plain
    try:
        expected = hash(plain)
    except TypeError:
        with pytest.raises(TypeError):
            hash(ours)
    else:
        assert hash(ours) == expected == hash(cls(*args))
    for change in changes:
        moved = dataclasses.replace(ours, **change)
        assert type(moved) is cls
        twin_moved = dataclasses.replace(plain, **change)
        assert vars(moved) == vars(twin_moved)
        assert list(vars(moved)) == list(vars(twin_moved))
    return ours, plain


def assert_frozen(obj):
    """Every field refuses assignment and deletion, and stays as it was."""
    for field in dataclasses.fields(obj):
        before = getattr(obj, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field.name)
        assert getattr(obj, field.name) is before


def assert_arguments_checked(cls, required):
    """One argument short, one too many, or an unknown keyword: refused."""
    arity = len(dataclasses.fields(cls))
    with pytest.raises(TypeError):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*required, *([None] * (arity - len(required) + 1)))
    with pytest.raises(TypeError):
        cls(*required, bogus=1)
