"""Harmonic polynomials for the holomorphic Laplacian Δ = Σ ∂²/∂z_i².

Polynomials carry exact rational coefficients on integer exponent tuples.
Kernel dimensions are certified one torus-weight block at a time: in the
coordinates u_j = z_(2j−1) + i z_(2j), v_j = z_(2j−1) − i z_(2j) the
Laplacian has integer coefficients and keeps the weight of each monomial,
and each block's rank is certified from its leading rows.  Permuting the
pairs and swapping u_j ↔ v_j fix Δ, so only one block per orbit of
weights, the one of its dominant weight, is built and certified; it counts
once for every weight in its orbit.  Every row of the resulting K-type
table, the analytic counterpart of the algebraic Euler-sum table, is then
checked to be the expected SO(2m) constituent: the kernel holds its
highest-weight vector u_1^l and has its Weyl dimension.  The stream of
every weight's block and the full matrix over the z-monomials serve the
tests as references.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from functools import lru_cache
from itertools import groupby, product
from math import comb, factorial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .blattner import KTypeTable
from .kostant import KTypeParam
from .repdata import weyl_dim_so2m

__all__ = [
    "SparsePolynomial",
    "CertificationError",
    "monomial_exponents",
    "polynomial_space_dimension",
    "laplacian",
    "laplacian_power",
    "rotation_generator",
    "harmonic_dimension",
    "harmonic_dimension_formula",
    "random_homogeneous",
    "so_invariance_check",
    "sol_ktype_table",
]

Exponents = Tuple[int, ...]


class CertificationError(RuntimeError):
    """An exact cross-check between two independent computations failed."""


class SparsePolynomial:
    """A polynomial in nvars variables with exact rational coefficients.

    Terms map exponent tuples to nonzero Fractions; arithmetic never leaves
    exact rationals.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponents, object] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: Dict[Exponents, Q] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars or any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            q = Q(c)
            if q != 0:
                clean[tuple(exps)] = q
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "SparsePolynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: object) -> "SparsePolynomial":
        return cls(nvars, {(0,) * nvars: Q(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "SparsePolynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Q(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff: object = 1) -> "SparsePolynomial":
        return cls(nvars, {tuple(exps): Q(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; −1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def partial(self, i: int) -> "SparsePolynomial":
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        out: Dict[Exponents, Q] = {}
        for exps, c in self.terms.items():
            a = exps[i]
            if a:
                e2 = exps[:i] + (a - 1,) + exps[i + 1 :]
                out[e2] = out.get(e2, Q(0)) + c * a
        return SparsePolynomial(self.nvars, out)

    def _check_same_ring(self, other: "SparsePolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_same_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Q(0)) + c
        return SparsePolynomial(self.nvars, out)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SparsePolynomial):
            self._check_same_ring(other)
            out: Dict[Exponents, Q] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Q(0)) + c1 * c2
            return SparsePolynomial(self.nvars, out)
        return SparsePolynomial(self.nvars, {e: c * Q(other) for e, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

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


def _compositions(n: int, total: int) -> Iterator[Exponents]:
    """Tuples of n nonnegative integers summing to `total`, in decreasing
    lexicographic order, one successor step at a time (no recursion)."""
    if total < 0:
        return
    x = [total] + [0] * (n - 1)
    while True:
        yield tuple(x)
        # The last nonzero part before the final one moves one unit right and
        # takes the final part along with it.
        i = n - 2
        while i >= 0 and not x[i]:
            i -= 1
        if i < 0:
            return
        tail = x[-1]
        x[-1] = 0
        x[i] -= 1
        x[i + 1] = tail + 1


@lru_cache(maxsize=None)
def monomial_exponents(n: int, degree: int) -> Tuple[Exponents, ...]:
    """Exponent tuples of total degree `degree`, in decreasing lexicographic
    order; the graded-lexicographic basis enumerates degrees separately."""
    if n < 1:
        raise ValueError("need at least one variable")
    return tuple(_compositions(n, degree))


def polynomial_space_dimension(n: int, degree: int) -> int:
    """Dimension of the homogeneous polynomials of the given degree."""
    if degree < 0:
        return 0
    return comb(n + degree - 1, degree)


def laplacian(f: SparsePolynomial) -> SparsePolynomial:
    """Σ_i ∂²f/∂z_i², exactly."""
    out: Dict[Exponents, Q] = {}
    for exps, c in f.terms.items():
        for i, a in enumerate(exps):
            if a >= 2:
                e2 = exps[:i] + (a - 2,) + exps[i + 1 :]
                out[e2] = out.get(e2, Q(0)) + c * a * (a - 1)
    return SparsePolynomial(f.nvars, out)


def laplacian_power(f: SparsePolynomial, l: int) -> SparsePolynomial:
    if l < 0:
        raise ValueError("power must be nonnegative")
    for _ in range(l):
        f = laplacian(f)
    return f


def rotation_generator(f: SparsePolynomial, a: int, b: int) -> SparsePolynomial:
    """The infinitesimal rotation (z_a ∂_b − z_b ∂_a) applied to f."""
    za = SparsePolynomial.variable(f.nvars, a)
    zb = SparsePolynomial.variable(f.nvars, b)
    return za * f.partial(b) - zb * f.partial(a)


def _laplacian_columns(n: int, l: int) -> List[Dict[int, int]]:
    """Columns of Δ: Pol^l → Pol^{l−2} over the z-monomial bases, all at once.
    No CLI path builds them; they are the tests' full-matrix oracle."""
    source = monomial_exponents(n, l)
    target = monomial_exponents(n, l - 2)
    index = {e: i for i, e in enumerate(target)}
    cols = []
    for exps in source:
        col: Dict[int, int] = {}
        for i, a in enumerate(exps):
            if a >= 2:
                e2 = exps[:i] + (a - 2,) + exps[i + 1 :]
                col[index[e2]] = a * (a - 1)
        cols.append(col)
    return cols


Weight = Tuple[int, ...]
# Per block column: its label (b', c), the (row, j) of each 4 a_j b_j entry,
# and the row of its c(c − 1) entry (None when c < 2).
Shape = List[Tuple[Exponents, List[Tuple[int, int]], Optional[int]]]


def _block_labels(m: int, odd: int, k: int) -> List[Exponents]:
    """Labels b' (with c appended when n = 2m + 1 is odd) of the monomials
    u^(b'+w⁺) v^(b'+w⁻) z_n^c of a weight-w block, 2|b'| + c = k = l − |w|₁,
    in decreasing lexicographic order."""
    if not odd:
        return list(_compositions(m, k // 2))
    return sorted(
        (b + (k - 2 * s,) for s in range(k // 2 + 1) for b in _compositions(m, s)),
        reverse=True,
    )


def _block_shape(m: int, odd: int, k: int) -> Tuple[Shape, int]:
    """Where the entries of every weight block with l − |w|₁ = k sit, and
    its row count.  A row index depends only on the row's label, so all
    these blocks share one index; their coefficients differ."""
    index = {t: i for i, t in enumerate(_block_labels(m, odd, k - 2))}
    shape: Shape = []
    for t in _block_labels(m, odd, k):
        entries = [(index[t[:j] + (t[j] - 1,) + t[j + 1 :]], j) for j in range(m) if t[j]]
        down = index[t[:m] + (t[m] - 2,)] if odd and t[m] >= 2 else None
        shape.append((t, entries, down))
    return shape, len(index)


def _weight_blocks(n: int, l: int) -> Iterator[Tuple[Weight, Shape, int]]:
    """Every torus weight w of Pol^l in n variables, with its block's shape
    and row count.  For odd n the extra variable z_n has weight 0.  No CLI
    path walks it; the tests check `_dominant_blocks` against it."""
    m, odd = divmod(n, 2)
    for k in range(0, l + 1, 1 if odd else 2):
        shape, rows = _block_shape(m, odd, k)
        for size in _compositions(m, l - k):
            for w in product(*[(x, -x) if x else (0,) for x in size]):
                yield w, shape, rows


def _partitions(m: int, total: int) -> Iterator[Weight]:
    """Partitions of `total` into at most m parts, as nonincreasing m-tuples
    padded with zeros, in decreasing lexicographic order, one successor step
    at a time (no recursion)."""
    if total < 0:
        return
    x = [total] + [0] * (m - 1)
    while True:
        yield tuple(x)
        # The rightmost part that can give up a unit to the parts after it,
        # none of them outgrowing it, does; they are refilled greedily.
        rest = 0
        for i in range(m - 1, -1, -1):
            if rest < (x[i] - 1) * (m - 1 - i):
                break
            rest += x[i]
        else:
            return
        x[i] -= 1
        rest += 1
        for j in range(i + 1, m):
            x[j] = min(x[i], rest)
            rest -= x[j]


def _orbit_size(w: Weight) -> int:
    """Number of weights in the orbit of the dominant weight w: m!/∏ mult!
    pair permutations (the multiplicities of its values, zeros included)
    times 2^#nonzero sign changes."""
    size = factorial(len(w))
    for _, run in groupby(w):
        size //= factorial(len(list(run)))
    return size << sum(1 for x in w if x)


def _dominant_blocks(n: int, l: int) -> Iterator[Tuple[Weight, int, Shape, int]]:
    """One weight per orbit of the torus weights of Pol^l in n variables,
    the dominant one (nonincreasing, nonnegative: a partition of l − k into
    at most m parts), with its orbit size, its block's shape and row count."""
    m, odd = divmod(n, 2)
    for k in range(0, l + 1, 1 if odd else 2):
        shape, rows = _block_shape(m, odd, k)
        for w in _partitions(m, l - k):
            yield w, _orbit_size(w), shape, rows


def _block_columns(w: Weight, shape: Shape) -> List[Dict[int, int]]:
    """Columns of Δ on the block of weight w.  With a = b' + w⁺, b = b' + w⁻,
    Δ(u^a v^b z_n^c) = Σ_j 4 a_j b_j u^(a−e_j) v^(b−e_j) z_n^c
    + c(c − 1) u^a v^b z_n^(c−2); every coefficient is a positive integer."""
    plus = [x if x > 0 else 0 for x in w]
    minus = [-x if x < 0 else 0 for x in w]
    cols = []
    for t, entries, down in shape:
        col = {r: 4 * (t[j] + plus[j]) * (t[j] + minus[j]) for r, j in entries}
        if down is not None:
            col[down] = t[-1] * (t[-1] - 1)
        cols.append(col)
    return cols


def _block_kernel_dimension(
    n: int, l: int, w: Weight, size: int, cols: List[Dict[int, int]], rows: int
) -> int:
    """Certified kernel dimension of one block, whose weight w has an orbit
    of `size` weights.  The columns are passed in and live only for this
    call, so one block's columns exist at a time."""
    leads = {max(col) for col in cols if col}
    if len(leads) != rows:
        raise CertificationError(
            f"Laplacian columns lead in {len(leads)} of {rows} rows "
            f"of the block of weight w={w} for n={n}, l={l}, orbit size {size}"
        )
    return len(cols) - rows


@lru_cache(maxsize=None)
def harmonic_dimension(n: int, l: int) -> int:
    """dim ker(Δ) on degree-l polynomials in n variables, certified block by
    block over one torus weight per Weyl orbit.

    In u_j = z_(2j−1) + i z_(2j), v_j = z_(2j−1) − i z_(2j) (j ≤ m = n // 2)
    and, for odd n, z_n, Δ = 4 Σ_j ∂_(u_j) ∂_(v_j) + ∂²_(z_n) has integer
    coefficients and keeps the weight w = a − b of u^a v^b z_n^c.  So its
    matrix is the direct sum of one block per weight.  With b' = min(a, b),
    the columns of the block of w are labelled by (b', c) with
    2|b'| + c = l − |w|₁ and its rows by the labels of degree l − 2.

    Only the dominant weights' blocks are built, certified and dropped, each
    counted once per weight of its orbit.  Permuting the pairs
    (z_(2j−1), z_(2j)) and sending z_(2j) ↦ −z_(2j), which swaps u_j and v_j,
    are orthogonal maps, so they fix Δ; they act on weights by permuting
    the entries and changing signs w_j ↦ −w_j, and every orbit holds exactly
    one nonincreasing, nonnegative weight.  A sign change maps the block of
    w onto the block of the changed weight with the same labels and the same
    entries 4(b'_j + w⁺_j)(b'_j + w⁻_j), which are symmetric in w⁺_j and
    w⁻_j; a permutation maps it onto the permuted weight's block up to the
    same relabelling of its rows and columns.  So the blocks of one orbit
    have equal rank and equal kernel dimension.

    Columns with pairwise distinct last nonzero rows are triangular, hence
    independent, so the rank of a block is at least the number of distinct
    last rows and at most the number of rows; when the two agree the rank
    is exact.  They always do: over the decreasing-lexicographic order of
    (b', c), the last row of column (b', c), b' ≠ 0, is (b' − e_j, c) for
    the first j with b'_j > 0, and b'' ↦ b'' + e_1 reaches every row
    exactly once.

    The top weight (l, 0, ..., 0) is dominant; its block holds the single
    monomial u_1^l, which must be a kernel vector (see `sol_ktype_table` for
    why).  Any failed check raises CertificationError naming n, l, the
    dominant weight and its orbit size.
    """
    if n < 2:
        raise ValueError("need at least two variables")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    top = (l,) + (0,) * (n // 2 - 1)
    kernel = top_kernel = 0
    for w, size, shape, rows in _dominant_blocks(n, l):
        dim = _block_kernel_dimension(n, l, w, size, _block_columns(w, shape), rows)
        kernel += size * dim
        if w == top:
            top_kernel = dim
    if top_kernel != 1:
        raise CertificationError(
            f"the block of weight w={top} has {top_kernel} kernel vectors, "
            f"not u_1^{l} alone, for n={n}, l={l}, orbit size {_orbit_size(top)}"
        )
    return kernel


def harmonic_dimension_formula(n: int, l: int) -> int:
    """Closed form: dim Pol^l − dim Pol^{l−2}."""
    if n < 2:
        raise ValueError("need at least two variables")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return polynomial_space_dimension(n, l) - polynomial_space_dimension(n, l - 2)


def random_homogeneous(n: int, degree: int, rng: random.Random) -> SparsePolynomial:
    """A random homogeneous polynomial with up to six terms and small
    rational coefficients."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    nterms = rng.randint(1, 6)
    terms: Dict[Exponents, Q] = {}
    for _ in range(nterms):
        counts = [0] * n
        for _ in range(degree):
            counts[rng.randrange(n)] += 1
        exps = tuple(counts)
        num = rng.choice([x for x in range(-9, 10) if x != 0])
        den = rng.randint(1, 3)
        terms[exps] = terms.get(exps, Q(0)) + Q(num, den)
    return SparsePolynomial(n, terms)


def so_invariance_check(
    n: int,
    trials: int,
    seed: int = 0,
    generator: Callable[[SparsePolynomial, int, int], SparsePolynomial] = rotation_generator,
) -> bool:
    """Check Δ(Gf) = G(Δf) for every pair generator G on random polynomials.

    With the default rotation generators this is the SO(n)-equivariance of
    the Laplacian; a deliberately broken generator makes the check fail.
    """
    if n < 2:
        raise ValueError("need at least two variables")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    for _ in range(trials):
        degree = rng.randint(1, 4)
        f = random_homogeneous(n, degree, rng)
        for a in range(n):
            for b in range(a + 1, n):
                if laplacian(generator(f, a, b)) != generator(laplacian(f), a, b):
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
