"""SABR pricing and calibration toolkit.

Closed-form vol-of-vol series prices and implied vols for the lognormal
SABR model (with optional mean reversion), a regularized industry-standard
implied-vol formula, finite-difference and Monte Carlo benchmarks, a PDE
residual diagnostic, and daily panel calibration.

Each module's `__all__` declares its public names; the package exports
exactly those.
"""

from . import core, expansion, hagan, fd, mc, calibration, meanrev, models
from .core import *
from .expansion import *
from .hagan import *
from .fd import *
from .mc import *
from .calibration import *
from .meanrev import *
from .models import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *expansion.__all__, *hagan.__all__, *fd.__all__,
    *mc.__all__, *calibration.__all__, *meanrev.__all__, *models.__all__,
    "__version__",
]
