"""Scalar representation arithmetic, and the vocabulary both routes share.

It imports no other `lieball` module and owns the K-type format: the record
base `_Record`, the root triple `Root` and its writer `root_vector`, SO(2m)
dominance, `KTypeParam` and `KTypeTable`, which the Euler-sum and the
harmonic routes import from here.
It covers the Weyl dimension formula for SO(2m), infinitesimal characters
and their regularity, the good and weakly fair positivity ranges, scalar
generalized Verma homomorphism arithmetic, Knapp–Stein residue degrees, the
Enright–Howe–Wallach unitarizability window for scalar lowest weights, the
Borel–Weil–Bott K-type target on the compact cycle, and Weyl-orbit equality
in type D.  Exact parameters stay plain ints when they are given as ints, and
become Fractions otherwise, so `fractions` is loaded only for a parameter
that needs it.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

__all__ = [
    "Root",
    "root_vector",
    "is_dominant",
    "KTypeParam",
    "KTypeTable",
    "Weight",
    "as_weight",
    "weyl_dim_so2m",
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
    "borel_weil_bott_ktype",
    "orbit_equal",
]

# A root e_i + σ·e_j (i < j, σ = ±1) stored as the int triple (i, j, σ).
Root = Tuple[int, int, int]


def root_vector(rank: int, alpha: Root) -> Tuple[int, ...]:
    """α = e_i + σ·e_j as its int coordinate vector of the given rank."""
    i, j, sigma = alpha
    out = [0] * rank
    out[i] = 1
    out[j] = sigma
    return tuple(out)


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
    window μ_0 ≤ max_mu0, μ_1 ≤ max_mu1 the table was computed over (None
    when no window was given).  A table certified against the harmonic
    kernel also records, per entry, its kernel and Weyl dimensions.
    """

    m: int
    lam: int
    entries: Dict[KTypeParam, int]
    max_mu0: int | None = None
    max_mu1: int | None = None
    dims: Dict[KTypeParam, Tuple[int, int]] | None = None

    def sorted_entries(self) -> List[Tuple[KTypeParam, int]]:
        return sorted(self.entries.items(), key=lambda kv: (kv[0].mu0, kv[0].mu))

    def same_entries(self, other: "KTypeTable") -> bool:
        return self.m == other.m and self.entries == other.entries


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
    rho = [2 * (m - 1 - i) for i in range(m)]
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
        for i, j in combinations(range(m + 1), 2)
        if i + j >= 2 * lam
    )
    good = not range_violation_counts(m, lam)[1]
    return RangeVerdict(m, lam, fair, good, wf_witnesses, good_witnesses)


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
    """Unitarizability of the scalar lowest-weight module at parameter z.

    The module with lowest weight z·e_0 is unitarizable iff z ≤ 0 (the
    continuous part) or z is one of the two discrete points n/2 and n−1.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    zq = _q(z)
    return zq <= 0 or zq == ehw_first_reduction_point(n) or zq == ehw_last_unitary_point(n)


def borel_weil_bott_ktype(m: int, lam: int) -> Optional[KTypeParam]:
    """The K-type (λ; (λ−m+1)·1_m) cut out on the compact cycle, when dominant.

    The weight is the bottom character pushed through the top cohomology of
    the cycle; it is a valid SO(2m) highest weight iff λ ≥ m − 1, and the
    transform has zero target otherwise.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    entry = lam - m + 1
    if entry < 0:
        return None
    return KTypeParam(lam, (entry,) * m)


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
