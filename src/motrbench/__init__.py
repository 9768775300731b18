"""Adversarial disturbance generation for linear-quadratic control.

Generates maximally adversarial disturbance sequences for blackbox
controllers of linear systems with quadratic costs: an online
trust-region learner with memory (MOTR) plus equilibrium, gradient,
sinusoid and noise baselines, baseline controllers to attack, and a
reproducible benchmark harness.

The package exports each module's __all__; the command line (cli) is
not imported here.
"""

from . import bench, cdg, controllers, generators, lds, online, trust_region
from .lds import *
from .trust_region import *
from .online import *
from .cdg import *
from .controllers import *
from .generators import *
from .bench import *

__all__ = [name for module in (lds, trust_region, online, cdg, controllers, generators, bench)
           for name in module.__all__]

__version__ = "0.1.0"
