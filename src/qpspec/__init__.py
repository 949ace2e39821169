"""Dual lattice matrices for quasi-periodic Schroedinger operators:
reduced Schur-complement resolvent, resonance geometry, gap verification.
"""

__version__ = "0.1.0"

from .lattice import SiteSet, ball, l1_norm
from .model import (Frequency, Potential, Problem, ScaleLadder, build_ladder,
                    diophantine_margin, validate_potential)
from .dual_operator import DualMatrix, dense_spectrum, restrict

__all__ = [
    "SiteSet", "ball", "l1_norm",
    "Frequency", "Potential", "Problem", "ScaleLadder", "build_ladder",
    "diophantine_margin", "validate_potential",
    "DualMatrix", "dense_spectrum", "restrict",
    "__version__",
]
