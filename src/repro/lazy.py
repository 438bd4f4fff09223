"""Lazily exported package names (PEP 562).

A package lists the names it exports but does not import eagerly, each
with the submodule defining it, and installs :func:`exports` as its
module ``__getattr__``::

    __getattr__ = exports(globals(), {"run_batch": "batch"})

The submodule is imported the first time one of its names is read, and
the value is then stored in the package, so later reads never come back
here.  A one-shot ``repro-analyze`` thereby loads only the code its
script needs (DESIGN.md, "What a one-shot process loads").
"""

from importlib import import_module


def exports(namespace: dict, table: dict):
    """The ``__getattr__`` of the module whose globals are ``namespace``:
    ``table`` maps each lazy name to its module, relative to the package
    (a package's submodule, or a plain module's sibling)."""
    name_of, package = namespace["__name__"], namespace["__package__"]

    def __getattr__(name):
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {name_of!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    return __getattr__
