"""Package exports resolved on first use (PEP 562).

A package lists what it re-exports without importing it, as a table
mapping each module to the names taken from it, and installs::

    __getattr__ = lazy_exports(__name__, {"repro.pkg.mod": ("Name", ...)})

The first lookup of a name (``package.name`` or ``from package import
name``) imports its module and stores the value on the package, so
later lookups are plain attribute reads.  A name equal to the last
component of its module is that submodule itself.  ``import package``
then loads only what the package's own code imports, and a process
pays for a module only when something it runs asks for it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: "dict[str, tuple[str, ...]]"
) -> "Callable[[str], Any]":
    """The module ``__getattr__`` of ``package``."""
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module)
        if module.rpartition(".")[2] != name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
