"""K-type multiplicities of the derived-functor modules, by Euler sum.

For the scalar module with parameter λ the multiplicity of the K-type
(μ_0; μ) equals the signed count over coset representatives w of the
coincidences

    w(μ+ρ_c) − ρ_c = (ℓ+λ−m+1, λ−m+1, ..., λ−m+1),   ℓ := μ_0 − λ,

which matches degree-ℓ symmetric tensors of u∩p twisted by the bottom
character.  The sum is an honest multiplicity inside the weakly fair range
and an Euler characteristic otherwise.  At most one term is nonzero, and
Bott's straightening of the target names it, so no group element is walked
and this module imports only `ktype`.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Tuple

from .ktype import KTypeParam, KTypeTable, rho_c

__all__ = [
    "multiplicity",
    "ktype_table",
    "dominant_mu_vectors",
    "unique_scalar_match_check",
]


def _target_hw(m: int, lam: int, l: int) -> Tuple[int, ...]:
    """U(m) weight of S^l(u∩p) ⊗ C_{μ_λ}: the symmetric power's (l, 0, ..., 0)
    plus the bottom character's (λ−m+1)·1_m, the λ-th power of the
    determinant twisted by the top exterior power of the opposite of u∩k."""
    c = lam - m + 1
    return (l + c,) + (c,) * (m - 1)


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


def multiplicity(m: int, lam: int, pi: KTypeParam) -> int:
    """Multiplicity of the K-type pi in the scalar module with parameter λ.

    Zero whenever μ_0 < λ, since the charge pins the symmetric power degree
    μ_0 − λ, which must be a nonnegative integer.  Otherwise read off the
    target by straightening, as in `ktype_table`: the sign of its one
    coset representative when its dominant preimage is μ, else 0.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if len(pi.mu) != m:
        raise ValueError("K-type rank does not match m")
    l = pi.mu0 - lam
    if l < 0:
        return 0
    found = _dominant_preimage(m, _target_hw(m, lam, l))
    return found[1] if found and found[0] == pi.mu else 0


def dominant_mu_vectors(m: int, max_mu1: int) -> List[Tuple[int, ...]]:
    """All dominant SO(2m) weights with μ_1 ≤ max_mu1, sorted lexicographically.

    No CLI path calls it; it stays because the benchmark's memory pass feeds
    these weights to `kostant.euler_character`.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    return sorted(
        head + (last,)
        for head in combinations_with_replacement(range(max_mu1, -1, -1), m - 1)
        for last in range(-head[-1], head[-1] + 1)
    )


def ktype_table(m: int, lam: int, max_mu0: int, max_mu1: int) -> KTypeTable:
    """All K-types with nonzero signed multiplicity in the scan window.

    Computed from the target side: for each charge μ_0 the target weight of
    S^{μ_0−λ}(u∩p) ⊗ C_{μ_λ} has at most one dominant preimage μ, which
    straightening names together with its sign.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    entries: Dict[KTypeParam, int] = {}
    for mu0 in range(lam, max_mu0 + 1):
        found = _dominant_preimage(m, _target_hw(m, lam, mu0 - lam))
        if found and found[0][0] <= max_mu1:
            entries[KTypeParam(mu0, found[0])] = found[1]
    return KTypeTable(m=m, lam=lam, entries=entries, max_mu0=max_mu0, max_mu1=max_mu1)


def unique_scalar_match_check(m: int, grid_bound: int) -> bool:
    """Exhaustively confirm the scalar K-type match is unique.

    Over every dominant μ with entries in [−grid_bound, grid_bound], every
    l in [0, 2·grid_bound] and every coset representative w, the equality
    w(μ+ρ_c) − ρ_c = (l, 0, ..., 0) holds exactly when w = 1
    and μ = (l, 0, ..., 0).  Read off the Euler-sum table at λ = m − 1,
    where the target of charge l + m − 1 is exactly (l, 0, ..., 0): over
    those charges and μ_1 ≤ grid_bound its entries must be
    (l + m − 1; l, 0, ..., 0) with multiplicity 1 for each l ≤ grid_bound,
    and nothing else.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if grid_bound < 0:
        raise ValueError("grid bound must be nonnegative")
    table = ktype_table(m, m - 1, max_mu0=m - 1 + 2 * grid_bound, max_mu1=grid_bound)
    return table.entries == {
        KTypeParam(l + m - 1, (l,) + (0,) * (m - 1)): 1 for l in range(grid_bound + 1)
    }
