"""Exact computer algebra for noncommutative 2-tori.

The smooth noncommutative 2-torus with parameter q on the unit circle, its
deformed tensor square and cube, the comultiplication / counit / antipode /
multiplication structure maps between them, a normal-ordering oracle driven
purely by the generator relations, and a seeded verification suite checking
every identity exactly.

The package re-exports each module's ``__all__``.  ``rewrite``, ``maps``, ``suite``
and ``cli`` load on first access (PEP 562), so a command loads only what it runs.
"""

import importlib

from . import algebra, phases
from .algebra import *
from .phases import *

__version__ = "0.1.0"
_LAZY = ("rewrite", "maps", "suite", "cli")


def __getattr__(name: str):
    # import_module: ``from . import x`` would call hasattr on the package and recurse
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    modules = [algebra, phases]
    for lazy in _LAZY:  # in import order, up to the first module that declares the name
        modules.append(importlib.import_module(f"{__name__}.{lazy}"))
        if name in modules[-1].__all__:
            return globals().setdefault(name, getattr(modules[-1], name))
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, sorted({n for m in modules for n in m.__all__}))


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__getattr__("__all__")})
