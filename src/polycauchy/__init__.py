"""Exact-rational Cauchy / Stirling / Bernoulli / hyperharmonic families
with an executable identity catalog and a batch CLI.

Every name in a library module's ``__all__`` is republished here.
"""

from .rational import *
from .poly import *
from .series import *
from .stirling import *
from .cauchy import *
from .bernoulli import *
from .harmonic import *

__version__ = "0.1.0"
