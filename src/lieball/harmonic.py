"""Harmonic polynomials for the holomorphic Laplacian Δ = Σ ∂²/∂z_i².

`ktype` is the one package module imported at the top; the sampled
equivariance check imports the polynomials of `polynomial` when it runs.
Kernel dimensions in n = 2m variables are certified one block shape at a
time: in the coordinates u_j = z_(2j−1) + i z_(2j), v_j = z_(2j−1) − i z_(2j)
the Laplacian has integer coefficients and keeps the weight w of each monomial,
and where the block of w has entries depends only on k = l − |w|₁.  A row or
column of that shape is a monomial in m variables, held as the multiset of
its variable indices.  Each row is the last row of its own witness column
(a lemma proved in `harmonic_dimension`), so the rank is the row count; the
support rule is checked on one witness per run count, and each shape's
kernel dimension is counted once for every weight with that k.  Every row
of the resulting K-type table, the analytic counterpart of the algebraic
Euler-sum table, is then checked to be the expected SO(2m) constituent: the
kernel holds its highest-weight vector u_1^l and has its Weyl dimension.
No matrix is built, neither a weight's block nor the full one.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Dict, Iterator, Tuple

from .ktype import KTypeParam, KTypeTable, weyl_dim_so2m

__all__ = [
    "CertificationError",
    "polynomial_space_dimension",
    "harmonic_dimension",
    "harmonic_dimension_formula",
    "so_invariance_check",
    "sol_ktype_table",
]

Multiset = Tuple[int, ...]  # a monomial's variable indices, nondecreasing


class CertificationError(RuntimeError):
    """An exact cross-check between two independent computations failed."""


def polynomial_space_dimension(n: int, degree: int) -> int:
    """Dimension of the homogeneous polynomials of the given degree."""
    if degree < 0:
        return 0
    return comb(n + degree - 1, degree)


Weight = Tuple[int, ...]


def _column_rows(t: Multiset) -> Iterator[Tuple[int, Multiset]]:
    """The support rule of every block shape: column t has its (j, row)
    entries at the rows t minus one j, one for each distinct index j in t."""
    return ((j, t[:i] + t[i + 1 :]) for i, j in enumerate(t) if not i or t[i - 1] != j)


@lru_cache(maxsize=None)
def _shape_kernel_dimension(m: int, s: int) -> int:
    """Certified kernel dimension of every weight block of Pol^l in 2m
    variables with l − |w|₁ = 2s: Pascal's C(m + s − 2, s) once the lemma
    of `harmonic_dimension` gives full row rank.  The support rule is
    checked on one witness column per number k ≤ min(m, s) of distinct
    indices, t = (0^(s−k+1), 1, 2, ..., k−1)."""
    for k in range(1, min(m, s) + 1):
        t = (0,) * (s - k + 1) + tuple(range(1, k))
        if max((row for _, row in _column_rows(t)), default=None) != t[1:]:
            row, column = (tuple(u.count(j) for j in range(m)) for u in (t[1:], t))
            raise CertificationError(
                f"row {row} is not the last row of its witness column {column} in the "
                f"k={2 * s} shape for n={2 * m}"
            )
    return polynomial_space_dimension(m, s) - polynomial_space_dimension(m, s - 1)


def _weight_count(m: int, s: int) -> int:
    """Number of torus weights w ∈ Z^m with |w|₁ = s: j nonzero entries in
    C(m, j) places, 2^j signs and C(s − 1, j − 1) sizes."""
    if s == 0:
        return 1
    return sum(comb(m, j) * comb(s - 1, j - 1) << j for j in range(1, min(m, s) + 1))


def harmonic_dimension(n: int, l: int) -> int:
    """dim ker(Δ) on degree-l polynomials in n = 2m variables, certified once
    per block shape and counted once per torus weight.

    In u_j = z_(2j−1) + i z_(2j), v_j = z_(2j−1) − i z_(2j), Δ = 4 Σ_j
    ∂_(u_j) ∂_(v_j) has integer coefficients and keeps the weight w = a − b
    of u^a v^b.  So its matrix is the direct sum of one block per weight.
    With b' = min(a, b), the columns of the block of w are labelled by the
    monomials b' of degree s, where 2s = k = l − |w|₁, and its rows by those
    of degree s − 1.  A monomial of degree s in m variables is a multiset of
    s variable indices (Stanley, Enumerative Combinatorics I, §1.2), held as
    a nondecreasing tuple.

    The support of block w is its shape, which depends on s alone: the
    entry 4(b'_j + w⁺_j)(b'_j + w⁻_j) of row b' minus one j exists only
    where j occurs in b' (one of w⁺_j, w⁻_j is 0), and then it is at least
    4.  Every entry is a positive integer, so every block with this s has
    nonzero entries exactly where the shape places them.

    The witness of row r is column t = (0,) + r, and r is its last row,
    the lexicographically largest.  Lemma: for any nondecreasing t that
    starts with 0, t[1:] is the largest of its rows t minus one j.  Proof:
    if t has no index j > 0, t[1:] is its only row.  Otherwise let c1 be
    the length of the first run of t, its 0s.  Removing a 0 and removing
    some j > 0 give tuples that agree before position c1 − 1, and at that
    position the first holds t[c1] ≥ 1 and the second holds 0.  The
    witnesses, with pairwise distinct last rows, are therefore triangular
    and independent, so the block has full row rank C(m + s − 2, s − 1),
    and its kernel dimension is C(m + s − 1, s) − C(m + s − 2, s − 1)
    = C(m + s − 2, s) by Pascal's rule, for each of the
    `_weight_count(m, l − 2s)` weights with this s.  The lemma rests on
    the support rule `_column_rows` alone, so that rule is checked on one
    witness per run count k (see `_shape_kernel_dimension`), and a wrong
    rule fails on a named row and column.

    The top weight (l, 0, ..., 0) has k = 0; its block holds the single
    monomial u_1^l, which must be a kernel vector (see `sol_ktype_table` for
    why).  Any failed check raises CertificationError naming n, l, the
    shape's k and its dominant weight (l − k, 0, ..., 0), and how many
    weights share the shape.  An n that is not even and at least 2 raises
    ValueError.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need an even number n = 2m >= 2 of variables, got {n}")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    m = n // 2

    def dominant(k: int) -> Weight:
        return (l - k,) + (0,) * (m - 1)

    def where(k: int) -> str:
        return f"for n={n}, l={l}, 1 of {_weight_count(m, l - k)} weights of the k={k} shape"

    def certified(k: int) -> int:
        try:
            return _shape_kernel_dimension(m, k // 2)
        except CertificationError as e:
            raise CertificationError(
                f"{e}; it is the block of weight w={dominant(k)} {where(k)}"
            ) from e

    top_kernel = certified(0)
    if top_kernel != 1:
        raise CertificationError(
            f"the block of weight w={dominant(0)} has {top_kernel} kernel vectors, "
            f"not u_1^{l} alone, {where(0)}"
        )
    return sum(_weight_count(m, l - k) * certified(k) for k in range(0, l + 1, 2))


def harmonic_dimension_formula(n: int, l: int) -> int:
    """Closed form: dim Pol^l − dim Pol^{l−2}."""
    if n < 2:
        raise ValueError("need at least two variables")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return polynomial_space_dimension(n, l) - polynomial_space_dimension(n, l - 2)


def so_invariance_check(n: int, trials: int, seed: int = 0) -> bool:
    """Check Δ(Gf) = G(Δf) for every rotation generator G = z_a ∂_b − z_b ∂_a
    on random polynomials: the SO(n)-equivariance of the Laplacian.

    Only the pairs (a, b) that meet the support of f (the variables it
    involves) are applied.  For any other pair both sides are 0:
    `rotation_generator` makes terms only from terms with a nonzero exponent
    at a or b, and the support of Δf lies inside that of f.
    """
    import random

    from .polynomial import laplacian, random_homogeneous, rotation_generator

    if n < 2:
        raise ValueError("need at least two variables")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    for _ in range(trials):
        degree = rng.randint(1, 4)
        f = random_homogeneous(n, degree, rng)
        lap_f = laplacian(f)
        support = {i for exps in f.terms for i, e in enumerate(exps) if e}
        for a in range(n):
            for b in range(a + 1, n):
                if a not in support and b not in support:
                    continue
                if laplacian(rotation_generator(f, a, b)) != rotation_generator(lap_f, a, b):
                    return False
    return True


def sol_ktype_table(m: int, max_l: int) -> KTypeTable:
    """K-types of the kernel of Δ on the ambient polynomial model.

    Row l is the K-type (l+m−1; l, 0, ..., 0) with multiplicity one; the
    charge carries the shift m−1 coming from the bundle trivialization.
    Every row is certified as that K-type.  `harmonic_dimension` checks that
    u_1^l is harmonic.  Its weight (l, 0, ..., 0) is the highest weight of
    Pol^l (adding any positive root of SO(2m) raises |w|₁ above l), so u_1^l
    is a highest-weight vector, and the SO(2m)-stable kernel contains the
    irreducible V_(l,0,...,0) it generates.  The kernel dimension, exact in
    2m variables by the lemma of `harmonic_dimension` (each block has full
    row rank), must then equal the Weyl dimension of V_(l,0,...,0), so the
    kernel is that constituent and nothing more; a mismatch raises
    CertificationError.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if max_l < 0:
        raise ValueError("max_l must be nonnegative")
    entries: Dict[KTypeParam, int] = {}
    dims: Dict[KTypeParam, Tuple[int, int]] = {}
    for l in range(max_l + 1):
        mu = (l,) + (0,) * (m - 1)
        kernel_dim = harmonic_dimension(2 * m, l)
        rep_dim = weyl_dim_so2m(m, mu)
        if kernel_dim != rep_dim:
            raise CertificationError(
                f"kernel dimension {kernel_dim} != Weyl dimension {rep_dim} "
                f"of weight {mu} for n={2 * m}, l={l}"
            )
        pi = KTypeParam(l + m - 1, mu)
        entries[pi] = 1
        dims[pi] = (kernel_dim, rep_dim)
    return KTypeTable(
        m=m, lam=m - 1, entries=entries, max_mu0=m - 1 + max_l, max_mu1=max_l, dims=dims
    )
