"""Decoherent-histories simulator for a random-matrix heat-exchange model.

The package root re-exports each module's __all__, which is the one
list of that module's public names.
"""

from .model import *
from .spectral import *
from .histories import *
from .metrics import *
from .experiments import *

__version__ = "0.1.0"
