"""Exact K-type computations for the conformal group of the Lie ball.

Two independent routes to the same table: an alternating cohomology sum
over minimal-length coset representatives, and Laplacian kernels on
polynomial spaces whose dimension comes from the Laplacian's rank, full
because it is the Fischer adjoint of multiplication by Σ z_i².  Everything
runs in rational arithmetic; no floats anywhere.  `import lieball` loads
no submodule: each name in `__all__` is imported from its submodule on
first use, so a caller of one route never loads the other.  Everything
else is imported from its submodule (`lieball.weyl`, `lieball.kostant`, ...).
"""

__version__ = "0.1.0"

# Each public name, and the submodule it is imported from on first access.
_SUBMODULE = {
    "KTypeParam": "ktype",
    "cohomology": "kostant",
    "enumerate_coset_reps": "weyl",
    "harmonic_dimension": "harmonic",
    "ktype_table": "blattner",
    "multiplicity": "blattner",
    "sol_ktype_table": "harmonic",
    "weyl_dim_so2m": "ktype",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    return value
