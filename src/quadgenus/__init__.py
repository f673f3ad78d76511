"""quadgenus: exact arithmetic for imaginary quadratic orders.

Quadratic integers, integer lattices with a constructive transform solver,
multi-variable norm forms with matrix actions, binary quadratic form
composition by two independent routes (congruences and explicit matrix
substitution), standard-basis ideals, and class groups with two-torsion
and genus quotients.

Each module's __all__ is its public API; the package re-exports them all.
"""

from .arith import *
from .lattice import *
from .normforms import *
from .forms import *
from .ideals import *
from .classgroup import *

__version__ = "0.1.0"

__all__ = (
    arith.__all__
    + lattice.__all__
    + normforms.__all__
    + forms.__all__
    + ideals.__all__
    + classgroup.__all__
)
