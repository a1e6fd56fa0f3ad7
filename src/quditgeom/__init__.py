"""quditgeom: geometry of diagonal qudit density matrices.

The package exposes three coordinate systems for diagonal states
(probability simplex, diagonal Bloch coefficients, trace-power
invariants) with the exact maps between them, Gibbs thermal states and
trajectories, angular-momentum and Lipkin-Meshkov-Glick spectra with
their phase diagrams, and generators for the constant-invariant loci and
boundary curves of the qutrit and ququart.  The ``quditgeom`` command
line tool exports any of these datasets to CSV or JSON.
"""

from . import basis, curves, models, representations, thermal
from .basis import *
from .curves import *
from .errors import DimensionError, PositivityError
from .linalg import real_roots
from .models import *
from .representations import *
from .thermal import *

__version__ = "0.1.0"

# errors and linalg are imported by name: a star import would also export
# linalg's real_roots_batch
__all__ = [
    "__version__", "DimensionError", "PositivityError", "real_roots",
    *basis.__all__, *representations.__all__, *thermal.__all__, *models.__all__, *curves.__all__,
]
