"""Lazy package exports (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
lists them once, grouped by submodule, and takes its ``__getattr__``,
``__dir__`` and ``__all__`` from :func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "series": ("FigureData", "Series"),
        "stats": ("OnlineStats", "mean_confidence_interval"),
    })

Importing the package then loads none of its submodules. The first read
of an exported name imports the one submodule that defines it and binds
the name in the package namespace, so later reads are plain lookups.
``from repro.lb import CHSHPairedAssignment`` loads ``repro.lb.policies``
and what that module imports, not every module of ``repro.lb``.
Submodules still import as before (``import repro.lb.engine``,
``from repro.lb import simulation``), and every exported object keeps
its defining module as ``__module__``, so pickles are unchanged.

One kind of name is bound at once instead: a name that is also the name
of the submodule defining it (``repro.quantum.tomography``). Importing
that submodule by its own path rebinds the package attribute to the
module, after which ``__getattr__`` would never be asked for the name.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of a lazily exporting package.

    Args:
        package: the package's ``__name__``.
        exports: submodule name (relative to ``package``) → the names it
            defines that the package re-exports.

    Returns:
        A module-level ``__getattr__`` that imports the defining submodule
        on the first read of an exported name, a ``__dir__`` that lists
        the exported names next to whatever the namespace already holds,
        and ``__all__``, the exported names in table order.
    """
    table = {
        name: submodule
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        qualified = f"{package}.{submodule}"
        # The import statement's own path, unlike importlib.import_module,
        # is what ``python -X importtime`` reports.
        __import__(qualified)
        value = getattr(sys.modules[qualified], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    for name, submodule in table.items():
        if name == submodule:  # see the module docstring
            __getattr__(name)
    return __getattr__, __dir__, list(table)
