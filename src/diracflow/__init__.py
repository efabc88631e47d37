"""Free 1D Dirac wave packets, Bohmian trajectories, and their stationary-phase asymptotics."""

from .dirac_exact import *
from .errors import *
from .packets import *
from .spa import *
from .specfun import *
from .trajectories import *

__version__ = "0.1.0"
