"""Lie algebra cohomology of u∩k on K-types, via Kostant's theorem.

A K-type for K = SO(2) × SO(2m) is a pair (μ_0; μ) with μ_0 the SO(2)
charge and μ a dominant highest weight of SO(2m).  The cohomology H^j(u∩k, ·)
is a T × U(m)-module; the SO(2) charge passes through untouched and the U(m)
constituents are the Weyl-shifted weights w(μ+ρ_c) − ρ_c over the minimal
coset representatives of length j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .root_data import rho_c
from .weyl import SignedPermutation, act, enumerate_coset_reps, inverse, length

__all__ = [
    "is_dominant",
    "KTypeParam",
    "LKTypeParam",
    "cohomology",
    "euler_character",
]


def is_dominant(mu: Tuple[int, ...]) -> bool:
    """Dominance for SO(2m): μ_1 ≥ ... ≥ μ_{m−1} ≥ |μ_m|."""
    return all(mu[i] >= mu[i + 1] for i in range(len(mu) - 2)) and mu[-2] >= abs(mu[-1])


@dataclass(frozen=True)
class KTypeParam:
    """Highest weight (μ_0; μ_1, ..., μ_m) of an irreducible K-type.

    Dominance for SO(2m) demands μ_1 ≥ ... ≥ μ_{m−1} ≥ |μ_m| with integer
    entries; μ_0 is any integer.
    """

    mu0: int
    mu: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mu) < 2:
            raise ValueError("need at least two SO(2m) coordinates")
        if any(not isinstance(c, int) for c in (self.mu0, *self.mu)):
            raise ValueError("K-type coordinates must be integers")
        if not is_dominant(self.mu):
            raise ValueError(f"{self.mu} is not dominant")


@dataclass(frozen=True)
class LKTypeParam:
    """Highest weight of an irreducible T × U(m)-type: a charge and a
    weakly decreasing integer vector."""

    charge: int
    hw: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(c, int) for c in (self.charge, *self.hw)):
            raise ValueError("coordinates must be integers")
        if any(self.hw[i] < self.hw[i + 1] for i in range(len(self.hw) - 1)):
            raise ValueError(f"{self.hw} is not weakly decreasing")


def _integral_rho_c(m: int) -> Tuple[int, ...]:
    """ρ_c as integers; it is integral in type D."""
    half_integral = rho_c(m)
    if any(c.denominator != 1 for c in half_integral):
        raise ValueError("compact half-sum must be integral in type D")
    return tuple(int(c) for c in half_integral)


def _shifted_weight(m: int, mu: Tuple[int, ...], w: SignedPermutation) -> Tuple[int, ...]:
    """w(μ+ρ_c) − ρ_c with everything exact; the result is integral."""
    rc = _integral_rho_c(m)
    moved = act(w, tuple(a + b for a, b in zip(mu, rc)))
    return tuple(a - b for a, b in zip(moved, rc))


def _dominant_preimages(m: int, target: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], int]]:
    """The dominant μ with w(μ+ρ_c) − ρ_c = target, each with the sign (−1)^len(w).

    μ = w⁻¹(target+ρ_c) − ρ_c over the coset representatives w.  Since μ+ρ_c
    is regular for dominant μ, at most one w qualifies.
    """
    rc = _integral_rho_c(m)
    shifted = tuple(a + b for a, b in zip(target, rc))
    out = []
    for w in enumerate_coset_reps(m):
        mu = tuple(a - b for a, b in zip(act(inverse(w), shifted), rc))
        if is_dominant(mu):
            out.append((mu, (-1) ** length(w)))
    return out


def cohomology(m: int, pi: KTypeParam, j: int) -> List[LKTypeParam]:
    """Constituents of H^j(u∩k, V_pi) as T × U(m) highest weights.

    Empty beyond the top degree m(m−1)/2.  Each listed weight occurs with
    multiplicity one, and distinct coset representatives give distinct
    weights because μ+ρ_c is regular for every dominant μ.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if len(pi.mu) != m:
        raise ValueError("K-type rank does not match m")
    if j < 0:
        raise ValueError("cohomology degree must be nonnegative")
    out = []
    for w in enumerate_coset_reps(m):
        if length(w) == j:
            out.append(LKTypeParam(pi.mu0, _shifted_weight(m, pi.mu, w)))
    return out


def euler_character(m: int, pi: KTypeParam) -> List[Tuple[LKTypeParam, int]]:
    """All cohomology constituents with the sign (−1)^j of their degree.

    Exactly 2^{m−1} terms, ordered by degree and then by the coset
    enumeration order.  No CLI path calls it; it stays because the
    benchmark's memory pass times shifted-weight evaluation through it.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if len(pi.mu) != m:
        raise ValueError("K-type rank does not match m")
    out = []
    for w in enumerate_coset_reps(m):
        j = length(w)
        out.append((LKTypeParam(pi.mu0, _shifted_weight(m, pi.mu, w)), (-1) ** j))
    return out
