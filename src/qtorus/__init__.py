"""Exact computer algebra for noncommutative 2-tori.

The smooth noncommutative 2-torus with parameter q on the unit circle, its
deformed tensor square and cube, the comultiplication / counit / antipode /
multiplication structure maps between them, a normal-ordering oracle driven
purely by the generator relations, and a seeded verification suite checking
every identity exactly.

The package re-exports the ``__all__`` of each of its modules.
"""

from . import algebra, cli, maps, phases, rewrite, suite
from .algebra import *
from .phases import *
from .rewrite import *
from .maps import *
from .suite import *
from .cli import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (algebra, phases, rewrite, maps, suite, cli)
                  for name in module.__all__})
