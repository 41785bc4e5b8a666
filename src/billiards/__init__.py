"""Numerical invariants and conjugacies of strictly convex billiards.

Computes Mather's beta-function and its conjugacy-invariant normalization,
Marvizi-Melrose perimeter coefficients, and, for elliptic tables, the
explicit near-boundary conjugacy in caustic action-angle coordinates
together with the eccentricity-rigidity witness built from
hyperbolic-caustic periodic orbits.
"""

from .dynamics import *
from .elliptic import *
from .ellipse_maps import *
from .errors import *
from .invariants import *
from .orbits import *
from .tables import *

__version__ = "0.1.0"

# each submodule's __all__ is the one list of its public names; the imports
# above also bind each submodule's own name in this namespace
__all__ = ["__version__", *(name for module in (dynamics, elliptic, ellipse_maps, errors,
                                                invariants, orbits, tables)
                            for name in module.__all__)]
