"""Feature-selected fused Gromov-Wasserstein distances.

Compares attributed structured objects (graphs with node features) by a
transport objective that blends feature costs with structure distortion,
while learning per-feature suppression weights that expose which features
drive the distance.  Includes an exact transportation LP, a conditional
gradient solver, closed-form suppression updates, synthetic recovery and
redistricting pipelines, and a CLI.
"""

__version__ = "0.1.0"

# Each submodule's ``__all__`` is the one list of its public names.
from .core import *
from .fgw import *
from .pipelines import *
from .suppression import *
from .transport import *

__all__ = [name for name in dir() if not name.startswith("_")]
