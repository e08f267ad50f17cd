"""K-type multiplicities of the derived-functor modules, by Euler sum.

For the scalar module with parameter λ the multiplicity of the K-type
(μ_0; μ) equals the signed count over coset representatives w of the
coincidences

    w(μ+ρ_c) − ρ_c = (ℓ+λ−m+1, λ−m+1, ..., λ−m+1),   ℓ := μ_0 − λ,

which matches degree-ℓ symmetric tensors of u∩p twisted by the bottom
character.  The sum is an honest multiplicity inside the weakly fair range
and an Euler characteristic otherwise.  At most one term is nonzero, and
Bott's straightening of the target names it, so no group element is walked.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .kostant import LKTypeParam, _dominant_preimage
from .repdata import KTypeParam, KTypeTable

__all__ = [
    "mu_lambda",
    "s_u_cap_p_component",
    "multiplicity",
    "ktype_table",
    "dominant_mu_vectors",
    "unique_scalar_match_check",
]


def mu_lambda(m: int, lam: int) -> LKTypeParam:
    """The bottom character: charge λ with U(m)-weight (λ−m+1)·1_m.

    This is the λ-th power of the determinant character twisted by the top
    exterior power of the opposite of u∩k, whose weight is −(m−1)·1_m.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    return LKTypeParam(lam, ((lam - m + 1),) * m)


def s_u_cap_p_component(m: int, l: int) -> LKTypeParam:
    """Degree-l symmetric power of u∩p as a T × U(m) highest weight."""
    if m < 2:
        raise ValueError("need m >= 2")
    if l < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    return LKTypeParam(l, (l,) + (0,) * (m - 1))


def _target_hw(m: int, lam: int, l: int) -> Tuple[int, ...]:
    """U(m) weight of S^l(u∩p) ⊗ C_{μ_λ}: the symmetric power shifted by
    the bottom character."""
    sym = s_u_cap_p_component(m, l)
    bottom = mu_lambda(m, lam)
    return tuple(a + b for a, b in zip(sym.hw, bottom.hw))


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
    if max_mu1 < 0:
        return []
    out: List[Tuple[int, ...]] = []

    def extend(prefix: Tuple[int, ...]) -> None:
        if len(prefix) == m - 1:
            bound = prefix[-1]
            for last in range(-bound, bound + 1):
                out.append(prefix + (last,))
            return
        for nxt in range(prefix[-1], -1, -1):
            extend(prefix + (nxt,))

    for mu1 in range(max_mu1, -1, -1):
        extend((mu1,))
    out.sort()
    return out


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
    and μ = (l, 0, ..., 0).  Checked from the target side, where
    straightening names the one pair (μ, w) that could match: the
    preimage of (l, 0, ..., 0) in the grid is itself, with sign +1, and
    exists only when it lies in the grid.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if grid_bound < 0:
        raise ValueError("grid bound must be nonnegative")
    for l in range(0, 2 * grid_bound + 1):
        target = (l,) + (0,) * (m - 1)
        found = _dominant_preimage(m, target)
        in_grid = found if found and found[0][0] <= grid_bound else None
        if in_grid != ((target, 1) if l <= grid_bound else None):
            return False
    return True
