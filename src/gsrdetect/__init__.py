"""Online mean/variance change-point detection via complete-graph spanning ratios.

A scanning window of 2n multivariate observations is split at a candidate
change time into two halves; the sums of squared pairwise distances of the
full window and of each half combine into three pivotal ratio statistics
whose null laws are Fisher distributions.  Thresholds are calibrated once
(analytically or by Monte Carlo over a scanning zone) and reused for any
Gaussian stream, making the detector suitable for online monitoring of mean
and variance changes from low to high dimension.
"""

from . import calibration, detector, distributions, power, ratios, simulate, windows
from .calibration import *
from .detector import *
from .distributions import *
from .power import *
from .ratios import *
from .simulate import *
from .windows import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += calibration.__all__
__all__ += detector.__all__
__all__ += distributions.__all__
__all__ += power.__all__
__all__ += ratios.__all__
__all__ += simulate.__all__
__all__ += windows.__all__
