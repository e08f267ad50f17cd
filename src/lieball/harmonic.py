"""Harmonic polynomials for the holomorphic Laplacian Δ = Σ ∂²/∂z_i².

`ktype` is the one package module imported at the top; the sampled
equivariance check imports the term-dict functions of `polynomial` as it runs.
Kernel dimensions are read off a rank proved for every degree, not computed:
under the Fischer product, Δ is the adjoint of multiplication by q = Σ z_i²,
which is injective, so Δ maps Pol^l onto Pol^(l−2) and the kernel dimension
is dim Pol^l − dim Pol^(l−2) in any number n ≥ 1 of variables
(`harmonic_dimension`, the one closed form, with its proof).  Every row of the
resulting K-type table, the analytic counterpart of the algebraic Euler-sum
table, is then checked to be the expected SO(2m) constituent: the kernel
holds its highest-weight vector u_1^l, harmonic since Δ = 4 Σ_j ∂_(u_j) ∂_(v_j)
and u_1^l has no v, and has its Weyl dimension.  No matrix is built.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Tuple

from .ktype import KTypeParam, KTypeTable, weyl_dim_so2m

__all__ = [
    "CertificationError",
    "harmonic_dimension",
    "so_invariance_check",
    "sol_ktype_table",
]


class CertificationError(RuntimeError):
    """An exact cross-check between two independent computations failed."""


def harmonic_dimension(n: int, l: int) -> int:
    """dim ker(Δ) on degree-l polynomials in n ≥ 1 variables: Δ maps Pol^l
    onto Pol^(l−2), so it is dim Pol^l − dim Pol^(l−2)
    = C(n+l−1, l) − C(n+l−3, l−2), the second term 0 for l < 2.

    Proof, the Fischer decomposition (Axler–Bourdon–Ramey, *Harmonic Function
    Theory*, ch. 5).  The Fischer product ⟨z^α, z^β⟩ = α!·[α = β] is positive
    definite, and ∂_i z^α = α_i z^(α−e_i) gives ⟨∂_i z^α, z^β⟩ = α!·[α = β + e_i]
    = ⟨z^α, z_i z^β⟩: ∂_i is the adjoint of multiplication by z_i.  So
    ⟨Δf, g⟩ = ⟨f, q·g⟩ for f in Pol^l and g in Pol^(l−2), with q = Σ z_i².
    Multiplication by q is injective, since a product of nonzero polynomials
    is nonzero, so the image of its adjoint Δ is the orthogonal complement of
    its kernel 0, all of Pol^(l−2).  The argument holds for every n and l and
    needs no witness.  An n < 1 or a negative l raises ValueError.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return comb(n + l - 1, l) - (comb(n + l - 3, l - 2) if l >= 2 else 0)


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
    Every row is certified as that K-type.  In u_j = z_(2j−1) + i z_(2j),
    v_j = z_(2j−1) − i z_(2j), Δ = 4 Σ_j ∂_(u_j) ∂_(v_j), and u_1^l has no v,
    so u_1^l is harmonic.  Its weight (l, 0, ..., 0) is the highest weight of
    Pol^l (adding any positive root of SO(2m) raises |w|₁ above l), so u_1^l
    is a highest-weight vector, and the SO(2m)-stable kernel contains the
    irreducible V_(l,0,...,0) it generates.  The kernel dimension, exact by
    the Fischer rank of `harmonic_dimension`, must then equal the Weyl
    dimension W(m, l) of V_(l,0,...,0), so the kernel is that constituent
    and nothing more; a mismatch raises CertificationError.

    The claim holds at every l, not only up to max_l.  Only the pairs (1, j)
    of the Weyl product involve l, so W(m, l) = Π_(j=2..m) (l+j−1)(l+2m−j−1)
    / ((j−1)(2m−j−1)).  In W(m, l+1)/W(m, l) the factors l+j telescope to
    (l+m)/(l+1) and the factors l+2m−j to (l+2m−2)/(l+m−1), so
    W(m, l+1)/W(m, l) = (l+m)(l+2m−2)/((l+1)(l+m−1)).  The kernel dimension
    dim H^l = 2(l+m−1)·(l+2m−3)!/(l!·(2m−2)!) has the same ratio, and both
    are 1 at l = 0, so the two agree at every l.  The rows built here check
    that agreement once more, degree by degree.
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
