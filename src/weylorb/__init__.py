"""Exact combinatorics of minimal-parabolic orbit families.

Root systems and Weyl groups in simple-root coordinates, orbit data with
six raise-cell kinds and lattice compatibility rules, the induced action
of simple reflections with braid and stabilizer checks, a mod-2 Hecke
module, and a finite-field brute-force oracle that infers orbit data
from point counts over several primes.

Each module names what the package re-exports in its own ``__all__``.
"""

from . import action, bundled, coxeter, datum, hecke, oracle
from .action import *
from .bundled import *
from .coxeter import *
from .datum import *
from .hecke import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*action.__all__, *bundled.__all__, *coxeter.__all__, *datum.__all__,
           *hecke.__all__, *oracle.__all__, "__version__"]
