"""Harmonic polynomials for the holomorphic Laplacian Δ = Σ ∂²/∂z_i².

Polynomials carry int or Fraction coefficients, stored as given, on integer
exponent tuples; `repdata` is the one package module imported here.
Kernel dimensions in n = 2m variables are certified one block shape at a
time: in the coordinates u_j = z_(2j−1) + i z_(2j), v_j = z_(2j−1) − i z_(2j)
the Laplacian has integer coefficients and keeps the weight w of each monomial,
and where the block of w has entries depends only on k = l − |w|₁.  A row or
column of that shape is a monomial in m variables, held as the multiset of
its variable indices.  So the rank is certified once per k, by one witness
column per row, checked once per order type of the column, and counted once
for every weight with that k.  Every row of the resulting K-type table, the
analytic counterpart of the algebraic Euler-sum table, is then checked to be
the expected SO(2m) constituent: the kernel holds its highest-weight vector
u_1^l and has its Weyl dimension.  No matrix is built, neither a weight's
block nor the full one.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Dict, Iterator, Tuple

from .repdata import KTypeParam, KTypeTable, weyl_dim_so2m

if TYPE_CHECKING:
    from numbers import Rational

__all__ = [
    "SparsePolynomial",
    "CertificationError",
    "polynomial_space_dimension",
    "laplacian",
    "rotation_generator",
    "harmonic_dimension",
    "harmonic_dimension_formula",
    "random_homogeneous",
    "so_invariance_check",
    "sol_ktype_table",
]

Exponents = Tuple[int, ...]
Multiset = Tuple[int, ...]  # a monomial's variable indices, nondecreasing


class CertificationError(RuntimeError):
    """An exact cross-check between two independent computations failed."""


class SparsePolynomial:
    """A polynomial in nvars variables with exact rational coefficients.

    Terms map exponent tuples of ints to nonzero ints or Fractions: an
    integral coefficient (a numpy integer, say) is stored as an int, so it
    cannot overflow, and any other `numbers.Rational` as given.  A bool, as
    exponent or coefficient, or any other coefficient raises ValueError.
    It has no ring operations: `laplacian` and
    `rotation_generator` work on the terms directly, exactly.  `numbers` is
    imported by the constructor, so code that builds its polynomials through
    `_trusted` never loads it.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponents, object] | None = None):
        from numbers import Integral, Rational

        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: Dict[Exponents, Rational] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            if isinstance(c, bool) or not isinstance(c, Rational):
                raise ValueError(f"coefficient {c!r} is neither an int nor a Fraction")
            if c:
                clean[tuple(exps)] = int(c) if isinstance(c, Integral) else c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Exponents, Rational]) -> "SparsePolynomial":
        """Terms built in this module, unchecked; only the zero coefficients
        that cancellation leaves are dropped."""
        p = object.__new__(cls)
        p.nvars, p.terms = nvars, {e: c for e, c in terms.items() if c}
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "SparsePolynomial(0)"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[exps]
            mono = "*".join(
                f"z{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(exps)
                if a
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "SparsePolynomial(" + " + ".join(bits) + ")"


def polynomial_space_dimension(n: int, degree: int) -> int:
    """Dimension of the homogeneous polynomials of the given degree."""
    if degree < 0:
        return 0
    return comb(n + degree - 1, degree)


def laplacian(f: SparsePolynomial) -> SparsePolynomial:
    """Σ_i ∂²f/∂z_i², exactly."""
    out: Dict[Exponents, Rational] = {}
    for exps, c in f.terms.items():
        for i, a in enumerate(exps):
            if a >= 2:
                e2 = exps[:i] + (a - 2,) + exps[i + 1 :]
                out[e2] = out.get(e2, 0) + c * a * (a - 1)
    return SparsePolynomial._trusted(f.nvars, out)


def rotation_generator(f: SparsePolynomial, a: int, b: int) -> SparsePolynomial:
    """The infinitesimal rotation (z_a ∂_b − z_b ∂_a) applied to f, term by
    term: z_a ∂_b sends z^e to e_b z^(e − δ_b + δ_a), and z_b ∂_a sends it to
    e_a z^(e − δ_a + δ_b).  For a = b the two cancel to 0."""
    out: Dict[Exponents, Rational] = {}
    for src, dst, sign in ((b, a, 1), (a, b, -1)):
        for exps, c in f.terms.items():
            e = exps[src]
            if e:
                moved = list(exps)
                moved[src] -= 1
                moved[dst] += 1
                key = tuple(moved)
                out[key] = out.get(key, 0) + sign * e * c
    return SparsePolynomial._trusted(f.nvars, out)


Weight = Tuple[int, ...]


def _column_rows(t: Multiset) -> Iterator[Tuple[int, Multiset]]:
    """The support rule of every block shape: column t has its (j, row)
    entries at the rows t minus one j, one for each distinct index j in t."""
    return ((j, t[:i] + t[i + 1 :]) for i, j in enumerate(t) if not i or t[i - 1] != j)


@lru_cache(maxsize=None)
def _shape_kernel_dimension(m: int, s: int) -> int:
    """Certified kernel dimension of every weight block of Pol^l in 2m
    variables with l − |w|₁ = 2s, its witnesses checked once per order type
    (see `harmonic_dimension`)."""
    rows = 0
    for k in range(1, min(m, s) + 1):
        count = comb(m - 1, k - 1)  # the rows of each order type with k runs
        for cuts in combinations(range(1, s), k - 1):
            t = ()
            for v, (a, b) in enumerate(zip((0,) + cuts, cuts + (s,))):
                t += (v,) * (b - a)
            if max((row for _, row in _column_rows(t)), default=None) != t[1:]:
                row, column = (tuple(u.count(j) for j in range(m)) for u in (t[1:], t))
                raise CertificationError(
                    f"row {row} is not the last row of its witness column {column} in the "
                    f"k={2 * s} shape for n={2 * m}"
                )
            rows += count
    return polynomial_space_dimension(m, s) - rows


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

    The witness of row r is column t = (0,) + r, and the support rule must
    make r its last row, the lexicographically largest (the column with its
    smallest index removed).  The witnesses, with pairwise distinct last
    rows, are independent, so the rank is the row count and the kernel
    dimension is C(m + s − 1, s) minus it, for each of the
    `_weight_count(m, l − 2s)` weights with this s.  Whether r passes
    depends only on the order type of t, the sizes c of its k ≤ m runs of
    equal indices: lexicographic order and the support rule commute with
    order-preserving relabellings, and 0 is the smallest index.  So each
    composition c of s is checked once, on t = (0^c1, 1^c2, ..., (k−1)^ck),
    and stands for the C(m − 1, k − 1) rows with that order type; by
    Vandermonde's identity these sum to the C(m + s − 2, s − 1) rows.  A
    wrong support or witness rule fails on a named row and column.

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


def random_homogeneous(n: int, degree: int, rng: random.Random) -> SparsePolynomial:
    """A random homogeneous polynomial with up to six terms and small
    nonzero integer coefficients."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    nterms = rng.randint(1, 6)
    terms: Dict[Exponents, int] = {}
    for _ in range(nterms):
        counts = [0] * n
        for _ in range(degree):
            counts[rng.randrange(n)] += 1
        exps = tuple(counts)
        terms[exps] = terms.get(exps, 0) + rng.choice([x for x in range(-9, 10) if x != 0])
    return SparsePolynomial._trusted(n, terms)


def so_invariance_check(n: int, trials: int, seed: int = 0) -> bool:
    """Check Δ(Gf) = G(Δf) for every rotation generator G = z_a ∂_b − z_b ∂_a
    on random polynomials: the SO(n)-equivariance of the Laplacian.

    Only the pairs (a, b) that meet the support of f (the variables it
    involves) are applied.  For any other pair both sides are 0:
    `rotation_generator` makes terms only from terms with a nonzero exponent
    at a or b, and the support of Δf lies inside that of f.
    """
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
    2m variables, must then equal the Weyl dimension of V_(l,0,...,0), so the
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
