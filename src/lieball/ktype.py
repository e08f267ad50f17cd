"""The K-type vocabulary both routes share.

It imports no other `lieball` module and owns the K-type format: the record
base `_Record`, the root triple `Root` and its writer `root_vector`, the
compact half-sum `rho_c`, SO(2m) dominance, `KTypeParam` and `KTypeTable`,
and the Weyl dimension formula for SO(2m).  This module is the one home of
these names: the Euler-sum and the harmonic routes, the group `weyl` and
the `ranges` and `verify` handlers import them from here, and no other
module exports them.  `repdata`'s scalar arithmetic does not load it.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, NamedTuple, Tuple

__all__ = [
    "Root",
    "root_vector",
    "rho_c",
    "is_dominant",
    "KTypeParam",
    "KTypeTable",
    "weyl_dim_so2m",
]


class _Record:
    """An immutable record of the fields named in its class's __slots__,
    equal and hashed by type and fields, with a dataclass-style repr."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


# A root e_i + σ·e_j (i < j, σ = ±1) stored as the int triple (i, j, σ).
Root = Tuple[int, int, int]


def root_vector(rank: int, alpha: Root) -> Tuple[int, ...]:
    """α = e_i + σ·e_j as its int coordinate vector of the given rank."""
    i, j, sigma = alpha
    out = [0] * rank
    out[i] = 1
    out[j] = sigma
    return tuple(out)


def rho_c(m: int) -> Tuple[int, ...]:
    """Half-sum of the positive compact roots e_i ± e_j of SO(2m):
    (m−1, ..., 1, 0), integral in type D."""
    return tuple(range(m - 1, -1, -1))


def is_dominant(mu: Tuple[int, ...]) -> bool:
    """Dominance for SO(2m): μ_1 ≥ ... ≥ μ_{m−1} ≥ |μ_m|."""
    return all(mu[i] >= mu[i + 1] for i in range(len(mu) - 2)) and mu[-2] >= abs(mu[-1])


class KTypeParam(_Record):
    """Highest weight (μ_0; μ_1, ..., μ_m) of an irreducible K-type.

    Dominance for SO(2m) demands μ_1 ≥ ... ≥ μ_{m−1} ≥ |μ_m| with integer
    entries; μ_0 is any integer.
    """

    __slots__ = ("mu0", "mu")

    def __init__(self, mu0: int, mu: Tuple[int, ...]) -> None:
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu", mu)
        if len(self.mu) < 2:
            raise ValueError("need at least two SO(2m) coordinates")
        if any(not isinstance(c, int) for c in (self.mu0, *self.mu)):
            raise ValueError("K-type coordinates must be integers")
        if not is_dominant(self.mu):
            raise ValueError(f"{self.mu} is not dominant")


class KTypeTable(NamedTuple):
    """A window of K-types with integer multiplicities.

    entries maps KTypeParam to a nonzero integer; the scan bounds record the
    window μ_0 ≤ max_mu0, μ_1 ≤ max_mu1 the table was computed over.  A
    table certified against the harmonic kernel also records, per entry, its
    kernel and Weyl dimensions.
    """

    m: int
    lam: int
    entries: Dict[KTypeParam, int]
    max_mu0: int
    max_mu1: int
    dims: Dict[KTypeParam, Tuple[int, int]] | None = None

    def sorted_entries(self) -> List[Tuple[KTypeParam, int]]:
        return sorted(self.entries.items(), key=lambda kv: (kv[0].mu0, kv[0].mu))


def weyl_dim_so2m(m: int, mu: Tuple[int, ...]) -> int:
    """Weyl dimension of the SO(2m) representation with highest weight μ.

    The product of ⟨μ+ρ_c, α⟩ / ⟨ρ_c, α⟩ over the positive roots
    {e_i ± e_j : i < j}, taken a pair at a time: with r = μ + ρ_c and
    ρ_c = (m−1, ..., 1, 0), the pair i < j gives
    (r_i − r_j)(r_i + r_j) / ((ρ_i − ρ_j)(ρ_i + ρ_j)), cancelled as it goes.
    A pair of the zeros that end a dominant μ gives 1, so only the pairs
    i < j with μ_i ≠ 0 are multiplied.  Always a positive integer for
    dominant μ; a μ that is not half-integral raises ArithmeticError.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if len(mu) != m:
        raise ValueError("weight rank does not match m")
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    # Doubled, so that half-integral (spin) weights are ints.
    if any(2 * c != int(2 * c) for c in mu):
        raise ArithmeticError(f"{mu} is not half-integral")
    rho = [2 * p for p in rho_c(m)]
    r = [int(2 * c) + p for c, p in zip(mu, rho)]
    num = den = 1
    for i in range(m):
        if not mu[i]:
            break
        for j in range(i + 1, m):
            num *= (r[i] - r[j]) * (r[i] + r[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
            g = gcd(num, den)
            num, den = num // g, den // g
    if den != 1 or num <= 0:
        raise ArithmeticError(f"Weyl dimension came out as {num}/{den}")
    return num
