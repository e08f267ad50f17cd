"""Harmonic polynomials for the holomorphic Laplacian Δ = Σ ∂²/∂z_i².

`ktype` is the one package module imported at the top; the sampled
equivariance check imports the term-dict functions of `polynomial` as it runs.
Kernel dimensions in n = 2m variables are certified one block shape at a
time: in the coordinates u_j = z_(2j−1) + i z_(2j), v_j = z_(2j−1) − i z_(2j)
the Laplacian has integer coefficients and keeps the weight w of each monomial,
and where the block of w has entries depends only on k = l − |w|₁.  A row or
column of that shape is a monomial in m variables, held as its exponent
vector.  Each row is the last row of its own witness column (a lemma proved
in `harmonic_dimension`), so every block has full row rank; the support rule
is checked on one witness per count of nonzero exponents.  Every monomial of
degree l − 2 is a row of exactly one block, so Δ maps Pol^l onto Pol^(l−2),
and the kernel dimension is dim Pol^l − dim Pol^(l−2).  Every row
of the resulting K-type table, the analytic counterpart of the algebraic
Euler-sum table, is then checked to be the expected SO(2m) constituent: the
kernel holds its highest-weight vector u_1^l and has its Weyl dimension.
No matrix is built, neither a weight's block nor the full one.
"""

from __future__ import annotations

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


class CertificationError(RuntimeError):
    """An exact cross-check between two independent computations failed."""


def polynomial_space_dimension(n: int, degree: int) -> int:
    """Dimension of the homogeneous polynomials of the given degree."""
    if degree < 0:
        return 0
    return comb(n + degree - 1, degree)


def _column_rows(a: Tuple[int, ...]) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """The support rule of every block shape: column a has its (j, row)
    entries at the rows a − e_j, one for each j with a_j > 0."""
    return ((j, a[:j] + (x - 1,) + a[j + 1 :]) for j, x in enumerate(a) if x)


def _shape_kernel_dimension(m: int, s: int) -> int:
    """Certified kernel dimension of every weight block of Pol^l in 2m
    variables with l − |w|₁ = 2s: Pascal's C(m + s − 2, s) once the lemma
    of `harmonic_dimension` gives full row rank.  The support rule is
    checked on one witness column per number k ≤ min(m, s) of nonzero
    exponents, a = (s − k + 1, 1, ..., 1, 0, ..., 0), held as its k nonzero
    exponents: its row a − e_0 must be the last row, the smallest."""
    for k in range(1, min(m, s) + 1):
        a = (s - k + 1,) + (1,) * (k - 1)
        row = (s - k,) + a[1:]
        if min((r for _, r in _column_rows(a)), default=None) != row:
            pad = (0,) * (m - k)
            raise CertificationError(
                f"row {row + pad} is not the last row of its witness column {a + pad} in "
                f"the k={2 * s} shape for n={2 * m}"
            )
    return polynomial_space_dimension(m, s) - polynomial_space_dimension(m, s - 1)


def _certify(n: int, l: int, k: int) -> None:
    """Certify the k shape as met at degree l, where its dominant weight is
    (l − k, 0, ..., 0), and the k = 0 shape as holding u_1^l alone."""
    m = n // 2
    w = (l - k,) + (0,) * (m - 1)
    try:
        kernel = _shape_kernel_dimension(m, k // 2)
    except CertificationError as e:
        raise CertificationError(
            f"{e}; it is the block of weight w={w} for n={n}, l={l}, in the k={k} shape"
        ) from e
    if not k and kernel != 1:
        raise CertificationError(
            f"the block of weight w={w} has {kernel} kernel vectors, "
            f"not u_1^{l} alone, for n={n}, l={l}, in the k=0 shape"
        )


def harmonic_dimension(n: int, l: int) -> int:
    """dim ker(Δ) on degree-l polynomials in n = 2m variables, read off the
    rank: once every block shape is certified, Δ maps Pol^l onto Pol^(l−2).

    In u_j = z_(2j−1) + i z_(2j), v_j = z_(2j−1) − i z_(2j), Δ = 4 Σ_j
    ∂_(u_j) ∂_(v_j) has integer coefficients and keeps the weight w = a − b
    of u^a v^b.  So its matrix is the direct sum of one block per weight.
    With b' = min(a, b), the columns of the block of w are labelled by the
    exponent vectors b' of degree s, where 2s = k = l − |w|₁, and its rows by
    those of degree s − 1.

    The support of block w is its shape, which depends on s alone: the
    entry 4(b'_j + w⁺_j)(b'_j + w⁻_j) of row b' − e_j exists only where
    b'_j > 0 (one of w⁺_j, w⁻_j is 0), and then it is at least 4.  Every
    entry is a positive integer, so every block with this s has nonzero
    entries exactly where the shape places them.

    The witness of row r is column a = r + e_0, and r is its last row in
    decreasing lexicographic order, the smallest.  Lemma: for a_0 > 0, the
    row a − e_0 first differs from every other row a − e_j at coordinate 0,
    where it is smaller.  The witnesses, with pairwise distinct last rows,
    are therefore triangular and independent, so every block of the shape
    has full row rank C(m + s − 2, s − 1).  The lemma rests on the support
    rule `_column_rows` alone, so that rule is checked on one witness per
    count of nonzero exponents (see `_shape_kernel_dimension`) for each
    shape k = 2, 4, ..., l, and a wrong rule fails on a named row and column.

    Every monomial u^a v^b of degree l − 2 is a row of exactly one block:
    that of its own weight a − b, at b' = min(a, b), with k ≥ 2.  Each
    block has full row rank, so rank Δ = dim Pol^(l−2): Δ is onto, and
    dim ker Δ = dim Pol^l − dim Pol^(l−2), which
    `harmonic_dimension_formula` gives.

    The top weight (l, 0, ..., 0) has k = 0; its block holds the single
    monomial u_1^l, which must be a kernel vector (see `sol_ktype_table` for
    why).  Any failed check raises CertificationError naming n, l, the
    shape's k and its dominant weight (l − k, 0, ..., 0).  Each call
    certifies every shape anew; a table certifies each shape once.  An n that
    is not even and at least 2 raises ValueError.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need an even number n = 2m >= 2 of variables, got {n}")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    for k in range(0, l + 1, 2):
        _certify(n, l, k)
    return harmonic_dimension_formula(n, l)


def harmonic_dimension_formula(n: int, l: int) -> int:
    """Closed form: dim Pol^l − dim Pol^{l−2}."""
    if n < 2:
        raise ValueError("need at least two variables")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return polynomial_space_dimension(n, l) - polynomial_space_dimension(n, l - 2)


def so_invariance_check(n: int, trials: int, seed: int = 0) -> bool:
    """Check Δ(Gf) = G(Δf) for every rotation generator G = z_a ∂_b − z_b ∂_a
    on random polynomials: the SO(n)-equivariance of the Laplacian.  Each
    polynomial is a term dict {exponent tuple: nonzero int}, as `polynomial`
    builds and maps it, and two sides are equal when their dicts are.

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
        support = {i for exps in f for i, e in enumerate(exps) if e}
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
    Every row is certified as that K-type.  Pol^l has the shapes of Pol^(l−1)
    and, for even l, the shape k = l, so each shape is certified once, at
    l = k.  The k = 0 shape, certified once, holds u_1^l alone at every
    degree, so u_1^l is harmonic.  Its weight (l, 0, ..., 0) is the highest weight of
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
        if not l % 2:
            _certify(2 * m, l, l)
        mu = (l,) + (0,) * (m - 1)
        kernel_dim = harmonic_dimension_formula(2 * m, l)
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
