"""Lie algebra cohomology of u∩k on K-types, via Kostant's theorem.

A K-type for K = SO(2) × SO(2m) is a pair (μ_0; μ) with μ_0 the SO(2)
charge and μ a dominant highest weight of SO(2m).  The cohomology H^j(u∩k, ·)
is a T × U(m)-module; the SO(2) charge passes through untouched and the U(m)
constituents are the Weyl-shifted weights w(μ+ρ_c) − ρ_c over the minimal
coset representatives of length j.

Straightening (`_dominant_preimage`) inverts the shifted action without any
group element, so `weyl` is imported only inside the functions that walk
the representatives: `_shifted_weight`, `cohomology` and `euler_character`.
The Euler-sum table, which straightens, never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .repdata import KTypeParam, _Record

if TYPE_CHECKING:
    from .weyl import SignedPermutation

__all__ = [
    "rho_c",
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


def rho_c(m: int) -> Tuple[int, ...]:
    """Half-sum of the positive compact roots e_i ± e_j of SO(2m):
    (m−1, ..., 1, 0), integral in type D."""
    return tuple(range(m - 1, -1, -1))


def _shifted_weight(m: int, mu: Tuple[int, ...], w: SignedPermutation) -> Tuple[int, ...]:
    """w(μ+ρ_c) − ρ_c with everything exact; the result is integral."""
    from .weyl import act
    rc = rho_c(m)
    moved = act(w, tuple(a + b for a, b in zip(mu, rc)))
    return tuple(a - b for a, b in zip(moved, rc))


def _dominant_preimage(m: int, target: Tuple[int, ...]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """The dominant μ with w(μ+ρ_c) − ρ_c = target for a coset representative
    w, with the sign (−1)^len(w), or None; at most one w qualifies.

    Bott's straightening of s = target + ρ_c, with no walk over the group: s
    must be strictly decreasing with distinct |s_i|; μ+ρ_c is then the sorted
    |s_i|, the last negated when s has an odd number of negative entries, and
    w inverts the roots e_i + e_j with s_i + s_j < 0.
    """
    rc = rho_c(m)
    s = [a + b for a, b in zip(target, rc)]
    sizes = sorted((abs(c) for c in s), reverse=True)
    if any(a <= b for a, b in zip(s, s[1:])) or len(set(sizes)) < m:
        return None
    if sum(1 for c in s if c < 0) % 2:
        sizes[-1] = -sizes[-1]
    return tuple(a - b for a, b in zip(sizes, rc)), (-1) ** _negative_pairs(s)


def _negative_pairs(s: List[int]) -> int:
    """The pairs i < j with s_i + s_j < 0, for strictly decreasing s, counted
    in one pass: if s_i + s_j < 0, so is s_i' + s_j for all i ≤ i' < j."""
    count, i, j = 0, 0, len(s) - 1
    while i < j:
        if s[i] + s[j] < 0:
            count += j - i
            j -= 1
        else:
            i += 1
    return count


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
    from .weyl import enumerate_coset_reps, length
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
    from .weyl import enumerate_coset_reps, length
    out = []
    for w in enumerate_coset_reps(m):
        j = length(w)
        out.append((LKTypeParam(pi.mu0, _shifted_weight(m, pi.mu, w)), (-1) ** j))
    return out
