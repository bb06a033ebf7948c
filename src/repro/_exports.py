"""Package re-exports that resolve on first use (PEP 562).

A package ``__init__`` declares what it re-exports as one table,
``{submodule: (name, ...)}``, and binds what :func:`lazy_exports` returns::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "vote": ("majority", "vote"),
    })

Importing the package imports none of its submodules: ``pkg.name`` (and
``from pkg import name``, ``from pkg import *``) imports the submodule on
first access and caches the object in the package's globals, so a second
access is a plain attribute read.  A submodule is an attribute too, as it
was when every package imported all of its submodules: ``import repro``
then ``repro.net.LocalBus`` imports ``repro.net`` on the way.  A name that
is also its submodule's name (``repro.core.vote``) is bound at once:
importing that submodule later would otherwise set the package attribute
to the module itself.
"""

from importlib import import_module
from importlib.util import find_spec


def lazy_exports(namespace, table):
    """``(__all__, __getattr__, __dir__)`` for the package whose globals are
    *namespace*, re-exporting each submodule's names as *table* lists them."""
    package = namespace["__name__"]
    origin = {
        name: f"{package}.{submodule}"
        for submodule, names in table.items()
        for name in names
    }

    def __getattr__(name):
        module = origin.get(name)
        if module is not None:
            value = namespace[name] = getattr(import_module(module), name)
            return value
        submodule = f"{package}.{name}"
        if not name.startswith("__") and find_spec(submodule) is not None:
            return import_module(submodule)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    for submodule, names in table.items():
        if submodule in names:
            __getattr__(submodule)
    return list(origin), __getattr__, __dir__
