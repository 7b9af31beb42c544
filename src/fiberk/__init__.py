"""Spatial-and-shape summary statistics for fiber (space curve) data.

Fibers are represented as currents in the dual of a reproducing kernel
Hilbert space; the two-parameter K-function counts neighboring fibers by
center distance and shape (currents) distance.
"""

from . import currents, fiber_core, fileio, kfunction, simulate
from .fiber_core import *  # noqa: F403
from .currents import *  # noqa: F403
from .kfunction import *  # noqa: F403
from .fileio import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (fiber_core, currents, kfunction, fileio, simulate)
    for name in module.__all__
]
