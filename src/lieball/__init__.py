"""Exact K-type computations for the conformal group of the Lie ball.

Two independent routes to the same table: an alternating cohomology sum
over minimal-length coset representatives, and Laplacian kernels on
polynomial spaces whose dimension comes from a rank certified by one
witness column per row.  Everything runs in rational
arithmetic; no floats anywhere.  Everything else is imported from its
submodule (`lieball.weyl`, `lieball.kostant`, ...).
"""

from .blattner import ktype_table, multiplicity
from .harmonic import harmonic_dimension, sol_ktype_table
from .kostant import cohomology
from .repdata import KTypeParam, weyl_dim_so2m
from .weyl import enumerate_coset_reps

__version__ = "0.1.0"

__all__ = [
    "KTypeParam",
    "cohomology",
    "enumerate_coset_reps",
    "harmonic_dimension",
    "ktype_table",
    "multiplicity",
    "sol_ktype_table",
    "weyl_dim_so2m",
]
