"""Root data for so(2, 2m): the nilradical u of the parabolic and the half-sums.

Coordinates are exact rationals in an orthonormal basis.  G-weights live in
rank m+1 (basis e_0..e_m, with e_0 attached to the so(2) factor); weights of
the maximal compact factor SO(2m) live in rank m (basis e_1..e_m).  All
half-sums are half-integral, so every coordinate has denominator 1 or 2.

A root e_i + σ·e_j (i < j, σ = ±1) is stored as the int triple (i, j, σ).
Only this module reads that storage: `pairing` gives ⟨a, α⟩ = a_i + σ·a_j
and `root_vector` writes α out as an int vector.  The half-sums have closed
forms (Bourbaki, Lie Groups and Lie Algebras, ch. VI, plate IV); the tests
check each one against the sum of its roots.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterable, Tuple

__all__ = [
    "Weight",
    "Root",
    "as_weight",
    "u_roots",
    "pairing",
    "root_vector",
    "rho_u",
    "rho_c",
    "rho_l",
    "rho_g",
]

Weight = Tuple[Q, ...]
Root = Tuple[int, int, int]


def as_weight(coords: Iterable[object]) -> Weight:
    """Coerce coordinates to an exact weight; denominators must divide 2."""
    w = tuple(Q(c) for c in coords)
    for c in w:
        if c.denominator not in (1, 2):
            raise ValueError(f"weight coordinate {c} is not half-integral")
    return w


def u_roots(m: int) -> Tuple[Root, ...]:
    """The roots of u, in rank m+1, for m >= 2.

    The grading element is 1_{m+1} = e_0 + ... + e_m: u collects the roots
    pairing positively with it, {e_i + e_j : i < j}.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    return tuple((i, j, 1) for i in range(m + 1) for j in range(i + 1, m + 1))


def pairing(a: Weight, alpha: Root) -> Q:
    """⟨a, α⟩ = a_i + σ·a_j for α = e_i + σ·e_j; the basis is orthonormal."""
    i, j, sigma = alpha
    return a[i] + sigma * a[j]


def root_vector(rank: int, alpha: Root) -> Tuple[int, ...]:
    """α = e_i + σ·e_j as its int coordinate vector of the given rank."""
    i, j, sigma = alpha
    out = [0] * rank
    out[i] = 1
    out[j] = sigma
    return tuple(out)


@lru_cache(maxsize=None)
def rho_u(m: int) -> Weight:
    """Half-sum over u: (m/2)·1_{m+1}."""
    return (Q(m, 2),) * (m + 1)


@lru_cache(maxsize=None)
def rho_c(m: int) -> Weight:
    """Half-sum of the positive compact roots: (m−1, m−2, ..., 1, 0)."""
    return tuple(Q(m - 1 - i) for i in range(m))


@lru_cache(maxsize=None)
def rho_l(m: int) -> Weight:
    """Half-sum of the positive roots of the Levi factor gl(m+1):
    ((m − 2i)/2) for i = 0..m."""
    return tuple(Q(m - 2 * i, 2) for i in range(m + 1))


@lru_cache(maxsize=None)
def rho_g(m: int) -> Weight:
    """Half-sum of the positive roots of so(2m+2): (m, m−1, ..., 1, 0)."""
    return tuple(Q(m - i) for i in range(m + 1))
