"""Weighted-norm approximants and zero-set analysis for bidisk polynomials.

The package computes weighted coefficient norms, optimal polynomial
approximants of 1/f with their distances to 1, torus and bidisk zero sets
of two-variable polynomials, and a cyclicity classifier that checks the
predicted verdict against the measured distance decay.  A small lab module
makes the alpha = 2 threshold mechanism observable through coefficient
recurrences and quotient spectra.

The public names are the union of the modules' ``__all__`` lists.
"""

from . import (
    approximant,
    classify,
    errors,
    expr,
    operators,
    poly,
    prooflab,
    spaces,
    zeroset,
)
from .approximant import *
from .classify import *
from .errors import *
from .expr import *
from .operators import *
from .poly import *
from .prooflab import *
from .spaces import *
from .zeroset import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (
        approximant, classify, errors, expr, operators, poly,
        prooflab, spaces, zeroset,
    )
    for name in module.__all__
)
