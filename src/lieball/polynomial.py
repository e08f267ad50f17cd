"""The operators of the sampled equivariance check on term dicts: the
Laplacian Δ = Σ ∂²/∂z_i², the rotation generators z_a ∂_b − z_b ∂_a, and
random homogeneous inputs.

A polynomial here is its terms, a dict from exponent tuples to nonzero
ints; each function takes and returns such a dict, and the module defines
no polynomial type.  `harmonic.so_invariance_check` imports this module
when it runs, so the harmonic certificate never compiles it.  It imports
no `lieball` module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    import random

__all__ = ["laplacian", "rotation_generator", "random_homogeneous"]

Exponents = Tuple[int, ...]
Terms = Dict[Exponents, int]


def _nonzero(terms: Terms) -> Terms:
    """The terms whose coefficients did not cancel to 0."""
    return {e: c for e, c in terms.items() if c}


def laplacian(f: Terms) -> Terms:
    """Σ_i ∂²f/∂z_i², exactly."""
    out: Terms = {}
    for exps, c in f.items():
        for i, a in enumerate(exps):
            if a >= 2:
                e2 = exps[:i] + (a - 2,) + exps[i + 1 :]
                out[e2] = out.get(e2, 0) + c * a * (a - 1)
    return _nonzero(out)


def rotation_generator(f: Terms, a: int, b: int) -> Terms:
    """The infinitesimal rotation (z_a ∂_b − z_b ∂_a) applied to f, term by
    term: z_a ∂_b sends z^e to e_b z^(e − δ_b + δ_a), and z_b ∂_a sends it to
    e_a z^(e − δ_a + δ_b).  For a = b the two cancel to 0."""
    out: Terms = {}
    for src, dst, sign in ((b, a, 1), (a, b, -1)):
        for exps, c in f.items():
            e = exps[src]
            if e:
                moved = list(exps)
                moved[src] -= 1
                moved[dst] += 1
                key = tuple(moved)
                out[key] = out.get(key, 0) + sign * e * c
    return _nonzero(out)


def random_homogeneous(n: int, degree: int, rng: random.Random) -> Terms:
    """A random homogeneous polynomial in n variables with up to six terms
    and small nonzero integer coefficients."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    terms: Terms = {}
    for _ in range(rng.randint(1, 6)):
        counts = [0] * n
        for _ in range(degree):
            counts[rng.randrange(n)] += 1
        exps = tuple(counts)
        terms[exps] = terms.get(exps, 0) + rng.choice([x for x in range(-9, 10) if x != 0])
    return _nonzero(terms)
