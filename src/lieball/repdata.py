"""Scalar representation arithmetic.

It covers infinitesimal characters and their regularity, the good and
weakly fair positivity ranges, scalar generalized Verma homomorphism
arithmetic, Knapp–Stein residue degrees, the Enright–Howe–Wallach
unitarizability window for scalar lowest weights, and Weyl-orbit equality
in type D.  It imports no `lieball` module at run time: a witness names its
root by the triple `ktype.Root`, which `ktype.root_vector` writes out.
Exact parameters stay plain ints when they are given as ints, and become
Fractions otherwise, so `fractions` is loaded only for a parameter that
needs it.

One table relates the normalizations of the scalar parameter, with n = 2m:
ehw's z, the Wallach parameter ν of the scalar holomorphic family, and the
scalar λ of the ranges, residues and tables.

    z = n − 1 − ν        for every z
    A = n/2              is ν = (n − 2)/2 = m − 1, the paper's λ
    B = n − 1            is ν = 0, the trivial module
    residue degree       n/2 − λ, which is 1 at λ = m − 1
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

    from .ktype import Root

__all__ = [
    "Weight",
    "as_weight",
    "inf_char",
    "is_regular_type_d",
    "RangeVerdict",
    "weakly_fair",
    "range_violation_counts",
    "range_verdict",
    "verma_hom_condition",
    "verma_inf_char",
    "knapp_stein_residue_degree",
    "ehw_first_reduction_point",
    "ehw_last_unitary_point",
    "ehw_unitarizable",
    "orbit_equal",
]

# G-weights in rank m+1 (basis e_0..e_m, e_0 attached to the so(2) factor),
# exact, with denominators 1 or 2: ints where every parameter was an int.
Weight = Tuple["int | Fraction", ...]


def _q(*args) -> int | Fraction:
    """A plain int unchanged, since it is already exact; else Fraction(*args).
    `fractions`, which loads `decimal`, is imported on the first Fraction
    built, so a caller whose parameters are all ints never loads it.  A bool,
    a numpy integer or a float is not an int here, and becomes a Fraction."""
    if len(args) == 1 and type(args[0]) is int:
        return args[0]
    from fractions import Fraction

    return Fraction(*args)


def as_weight(coords: Iterable[object]) -> Weight:
    """Coerce coordinates to an exact weight; denominators must divide 2."""
    w = tuple(_q(c) for c in coords)
    for c in w:
        if c.denominator not in (1, 2):
            raise ValueError(f"weight coordinate {c} is not half-integral")
    return w


def inf_char(m: int, lam: object) -> Weight:
    """Infinitesimal character (λ, λ−1, ..., λ−m) of the scalar module."""
    if m < 2:
        raise ValueError("need m >= 2")
    q = _q(lam)
    return as_weight(tuple(q - i for i in range(m + 1)))


def is_regular_type_d(w: Weight) -> bool:
    """Regular for the type-D root system: no two coordinates share an
    absolute value.  A single zero coordinate does not break regularity."""
    values = [abs(c) for c in w]
    return len(set(values)) == len(values)


class RangeVerdict(NamedTuple):
    """Positivity verdicts for a scalar parameter, with exact witnesses.

    Each witness is a pair (root, pairing) recording a violated inequality:
    a root e_i + e_j of u, as the triple (i, j, 1) of rank m + 1, whose
    pairing with the shifted parameter fails the bound.
    """

    m: int
    lam: int
    weakly_fair: bool
    good: bool
    weakly_fair_witnesses: Tuple[Tuple[Root, int], ...]
    good_witnesses: Tuple[Tuple[Root, int], ...]


def weakly_fair(m: int, lam: int) -> bool:
    """Whether λ is in the weakly fair range: every root of u pairs with
    λ·1 − ρ(u) to 2λ − m (see `range_verdict`), so the test is 2λ ≥ m."""
    return 2 * lam >= m


def range_violation_counts(m: int, lam: int) -> Tuple[int, int]:
    """The numbers of weakly fair and of good witnesses in `range_verdict`,
    counted without building a root: all C(m + 1, 2) roots of u when
    2λ < m, else none; and for each j ≤ m, the i < j with i ≥ 2λ − j,
    of which there are some only when j > λ."""
    if m < 2:
        raise ValueError("need m >= 2")
    fair = 0 if weakly_fair(m, lam) else comb(m + 1, 2)
    return fair, sum(j - max(0, 2 * lam - j) for j in range(max(1, lam + 1), m + 1))


def range_verdict(m: int, lam: int) -> RangeVerdict:
    """Weakly fair and good range tests for the scalar parameter λ.

    Weakly fair requires ⟨λ·1 − ρ(u), α⟩ ≥ 0 for every root α = e_i + e_j
    (0 ≤ i < j ≤ m) of u; good requires ⟨λ·1 − ρ(u) + ρ_l, α⟩ > 0.  With
    ρ(u) = (m/2)·1 and ρ_l = ((m − 2i)/2)_i (Bourbaki, Lie Groups and Lie
    Algebras, ch. VI, plate IV) the two pairings are 2λ − m and 2λ − i − j,
    so every root witnesses the first failing when 2λ < m, and the roots with
    i + j ≥ 2λ witness the second.  Witnesses come in (i, j) order.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    fair = weakly_fair(m, lam)
    wf_witnesses = () if fair else tuple(
        ((i, j, 1), 2 * lam - m) for i, j in combinations(range(m + 1), 2)
    )
    good_witnesses = tuple(
        ((i, j, 1), 2 * lam - i - j)
        for i in range(m + 1) for j in range(max(i + 1, 2 * lam - i), m + 1)
    )
    return RangeVerdict(m, lam, fair, not good_witnesses, wf_witnesses, good_witnesses)


def verma_hom_condition(m: int, lam: object, nu: object) -> Optional[int]:
    """Degree of the scalar generalized Verma homomorphism, if any.

    A homomorphism M(ν) → M(λ) of degree l exists for the scalar family
    exactly when λ + ν = 2m with l = m − λ a nonnegative integer; returns
    l, or None when the condition fails.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    lam_q, nu_q = _q(lam), _q(nu)
    if lam_q + nu_q != 2 * m:
        return None
    l = m - lam_q
    if l.denominator != 1 or l < 0:
        return None
    return int(l)


def verma_inf_char(m: int, lam: object) -> Weight:
    """Harish-Chandra parameter −λ·e_0 + ρ of the scalar Verma module, with ρ
    = (m, m−1, ..., 1, 0) the half-sum of the positive roots of so(2m+2)."""
    if m < 2:
        raise ValueError("need m >= 2")
    return as_weight((m - _q(lam), *range(m - 1, -1, -1)))


def knapp_stein_residue_degree(n: int, lam: object) -> Optional[int]:
    """Order l = n/2 − λ of the residual intertwining differential operator.

    The standard intertwining family for the rank-one parabolic of
    SO_0(2, n) has simple poles exactly at λ ∈ {n/2, n/2 − 1, ...}; the
    residue there is the power Δ^l of the flat Laplacian, mapping the
    degenerate principal series at λ to the one at n − λ.  None when λ is
    not a pole.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("need even n >= 4")
    l = _q(n, 2) - _q(lam)
    if l.denominator != 1 or l < 0:
        return None
    return int(l)


def ehw_first_reduction_point(n: int) -> Fraction:
    """First reduction point A = n/2 of the scalar lowest-weight family."""
    if n < 4:
        raise ValueError("need n >= 4")
    return _q(n, 2)


def ehw_last_unitary_point(n: int) -> int | Fraction:
    """Last unitarizable parameter B = n − 1 of the scalar family."""
    if n < 4:
        raise ValueError("need n >= 4")
    return _q(n - 1)


def ehw_unitarizable(n: int, z: object) -> bool:
    """Unitarizability of the scalar lowest-weight module at parameter z:
    z ≤ A = n/2 (the continuous part) or z = B = n − 1 (the trivial module).

    In the normalization z = n − 1 − ν of the scalar holomorphic family of
    SO_0(2, n), A is ν = (n − 2)/2 and B is ν = 0, so this is the Wallach
    set ν ∈ {0} ∪ [(n − 2)/2, ∞) (Wallach, Trans. AMS 251, 1979;
    Faraut–Korányi, J. Funct. Anal. 88, 1990, the Lie ball's rank 2 and
    a = n − 2).
    """
    if n < 4:
        raise ValueError("need n >= 4")
    zq = _q(z)
    return zq <= ehw_first_reduction_point(n) or zq == ehw_last_unitary_point(n)


def orbit_equal(w1: Weight, w2: Weight) -> bool:
    """Whether two weights lie in one orbit of the type-D Weyl group.

    The group permutes coordinates and flips evenly many signs, so orbits
    are classified by the multiset of absolute values together with the
    sign parity, except that a zero coordinate absorbs any sign.
    """
    if len(w1) != len(w2):
        raise ValueError("rank mismatch")
    a1 = sorted(abs(c) for c in w1)
    a2 = sorted(abs(c) for c in w2)
    if a1 != a2:
        return False
    if any(c == 0 for c in w1):
        return True
    neg1 = sum(1 for c in w1 if c < 0)
    neg2 = sum(1 for c in w2 if c < 0)
    return neg1 % 2 == neg2 % 2
