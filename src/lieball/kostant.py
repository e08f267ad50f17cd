"""Lie algebra cohomology of u∩k on K-types, via Kostant's theorem.

A K-type for K = SO(2) × SO(2m) is a pair (μ_0; μ) with μ_0 the SO(2)
charge and μ a dominant highest weight of SO(2m).  The cohomology H^j(u∩k, ·)
is a T × U(m)-module; the SO(2) charge passes through untouched and the U(m)
constituents are the Weyl-shifted weights w(μ+ρ_c) − ρ_c over the minimal
coset representatives of length j.

This is the forward walk over the representatives.  No CLI path loads it:
the Euler-sum table straightens its one term in `blattner` instead.
"""

from __future__ import annotations

from typing import List, Tuple

from .ktype import KTypeParam, _Record, rho_c
from .weyl import SignedPermutation, act, enumerate_coset_reps, length

__all__ = [
    "LKTypeParam",
    "cohomology",
    "euler_character",
]


class LKTypeParam(_Record):
    """Highest weight of an irreducible T × U(m)-type: a charge and a
    weakly decreasing integer vector."""

    __slots__ = ("charge", "hw")

    def __init__(self, charge: int, hw: Tuple[int, ...]) -> None:
        object.__setattr__(self, "charge", charge)
        object.__setattr__(self, "hw", hw)
        if any(not isinstance(c, int) for c in (self.charge, *self.hw)):
            raise ValueError("coordinates must be integers")
        if any(self.hw[i] < self.hw[i + 1] for i in range(len(self.hw) - 1)):
            raise ValueError(f"{self.hw} is not weakly decreasing")


def _shifted_weight(m: int, mu: Tuple[int, ...], w: SignedPermutation) -> Tuple[int, ...]:
    """w(μ+ρ_c) − ρ_c with everything exact; the result is integral."""
    rc = rho_c(m)
    moved = act(w, tuple(a + b for a, b in zip(mu, rc)))
    return tuple(a - b for a, b in zip(moved, rc))


def _constituents(m: int, pi: KTypeParam) -> List[Tuple[LKTypeParam, int]]:
    """Each coset representative's constituent with its degree, in the coset
    enumeration order."""
    if m < 2:
        raise ValueError("need m >= 2")
    if len(pi.mu) != m:
        raise ValueError("K-type rank does not match m")
    return [
        (LKTypeParam(pi.mu0, _shifted_weight(m, pi.mu, w)), length(w))
        for w in enumerate_coset_reps(m)
    ]


def cohomology(m: int, pi: KTypeParam, j: int) -> List[LKTypeParam]:
    """Constituents of H^j(u∩k, V_pi) as T × U(m) highest weights.

    Empty beyond the top degree m(m−1)/2.  Each listed weight occurs with
    multiplicity one, and distinct coset representatives give distinct
    weights because μ+ρ_c is regular for every dominant μ.
    """
    if j < 0:
        raise ValueError("cohomology degree must be nonnegative")
    return [t for t, degree in _constituents(m, pi) if degree == j]


def euler_character(m: int, pi: KTypeParam) -> List[Tuple[LKTypeParam, int]]:
    """All cohomology constituents with the sign (−1)^j of their degree.

    Exactly 2^{m−1} terms, ordered by degree and then by the coset
    enumeration order.  No CLI path calls it; it stays because the
    benchmark's memory pass times shifted-weight evaluation through it.
    """
    return [(t, (-1) ** degree) for t, degree in _constituents(m, pi)]
