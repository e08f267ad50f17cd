"""Slow reference computations that the tests hold `lieball` to.

The package keeps one path per computation: the straightened Euler sum,
the per-shape lemma and closed form for the Laplacian's rank,
and the term-wise `laplacian` and `rotation_generator`.  The paths they
replaced, or that they are checked against, live here:

- `exact_kernel`, a fraction-free elimination, the kernel oracle over the
  full Laplacian matrix and over each weight block;
- `Polynomial` and `partial`, the polynomial ring the tests build their
  inputs and the product-form generator with;
- the witness walk over order types, `order_type_shape_kernel_dimension`,
  which checks the witness rule once per composition of s and which the
  lemma's closed form `_shape_kernel_dimension` is held to shape by shape;
  the per-row witness walk over index multisets,
  `multiset_shape_kernel_dimension`, which the closed form is also held
  to, and the dense walk over exponent vectors (`compositions`, the
  support rule `dense_column_rows` and `dense_shape_kernel_dimension`),
  which the multiset walk is checked against;
- `negative_pairs`, the double-loop count behind the sign of a
  straightened Euler-sum term;
- the full matrix over the z-monomials (`monomial_exponents`,
  `laplacian_columns`) and the stream of every weight's block
  (`block_shape`, `weight_blocks`, `block_columns`);
- the roots built as dense Fraction vectors (`dense_roots`, `half_sum`,
  `dot`), against which the closed-form pairings are checked;
- the whole Weyl group `enumerate_group` and the coset filter
  `is_coset_rep`, which `enumerate_coset_reps` is checked against, and the
  forward signed sum over every coset representative,
  `forward_multiplicity`, which the straightened `multiplicity` and
  `ktype_table` are checked against;
- `laplacian_power`, `laplacian` applied l times;
- `all_pairs_invariance_check`, the sampled equivariance check over all
  C(n, 2) rotation generators, which the check restricted to the pairs that
  meet each polynomial's support is held equal to;
- `reference_parser`, the `lieball` argparse parser whose subcommand
  parsers join a negative fraction to its flag themselves, which the CLI's
  reading of a command line is held equal to.

Everything is exact; nothing here is fast.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, gcd, prod
from typing import Dict, Iterable, Iterator, List, Tuple

import lieball.polynomial as polynomial
from lieball.harmonic import CertificationError, Weight, _column_rows
from lieball.polynomial import Exponents, SparsePolynomial, laplacian, random_homogeneous
from lieball.kostant import _shifted_weight
from lieball.ktype import KTypeParam
from lieball.weyl import SignedPermutation, _inversions, enumerate_coset_reps, length

Vector = Dict[int, int]
# One block column: its label b' and the (row, j) of each 4 a_j b_j entry.
Column = Tuple[Exponents, List[Tuple[int, int]]]


# --- Exact kernel of sparse integer columns -------------------------------


def _content(v: Vector) -> int:
    """gcd of the entries, signed so the leading entry comes out positive."""
    g = 0
    for x in v.values():
        g = gcd(g, x)
    return -g if v[min(v)] < 0 else g


def _combine(v: Vector, pivot: Vector, key: int) -> Vector:
    """pivot[key]·v − v[key]·pivot, which clears position key."""
    a, b = pivot[key], v[key]
    out = {k: a * x for k, x in v.items()}
    for k, x in pivot.items():
        y = out.get(k, 0) - b * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    return out


def exact_kernel(vectors: List[Vector]) -> List[Vector]:
    """A basis of the kernel of the matrix whose columns are the vectors.

    Vectors map row index to an integer.  Each basis element maps column
    index to an integer coefficient; the corresponding combination of
    columns vanishes.  Coefficients are coprime with positive leading
    entry.  Column c carries its tag, the combination it stands for, as the
    entry 1 at position top + c below every row, so one elimination clears
    rows and tracks tags together; a column reduced to its tag is a kernel
    element.  Integer cross-multiplication with gcd normalization after
    every combination keeps all arithmetic exact.
    """
    top = 1 + max((k for v in vectors for k in v), default=-1)
    pivots: Dict[int, Vector] = {}
    kernel: List[Vector] = []
    for c, v0 in enumerate(vectors):
        v = {k: x for k, x in v0.items() if x}
        v[top + c] = 1
        while (key := min(v)) < top:
            pivot = pivots.get(key)
            if pivot is None:
                pivots[key] = v
                break
            v = _combine(v, pivot, key)
            g = _content(v)
            v = {k: x // g for k, x in v.items()}
        else:
            kernel.append({k - top: x for k, x in v.items()})
    return kernel


# --- The polynomial ring ----------------------------------------------------


class Polynomial(SparsePolynomial):
    """A `SparsePolynomial` with the ring operations (+, −, negation,
    products with polynomials and rationals).  The other operand may be any
    `SparsePolynomial`, such as a result of `laplacian`."""

    __slots__ = ()

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        """The coordinate z_i."""
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Q(1)})

    def _check_same_ring(self, other: SparsePolynomial) -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other: SparsePolynomial) -> "Polynomial":
        self._check_same_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Q(0)) + c
        return Polynomial(self.nvars, out)

    def __sub__(self, other: SparsePolynomial) -> "Polynomial":
        return self + Polynomial(other.nvars, {e: -c for e, c in other.terms.items()})

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, SparsePolynomial):
            self._check_same_ring(other)
            out: Dict[Exponents, Q] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Q(0)) + c1 * c2
            return Polynomial(self.nvars, out)
        return Polynomial(self.nvars, {e: c * Q(other) for e, c in self.terms.items()})

    __rmul__ = __mul__


def partial(f: SparsePolynomial, i: int) -> Polynomial:
    """∂f/∂z_i, for any `SparsePolynomial` f."""
    if not 0 <= i < f.nvars:
        raise ValueError("variable index out of range")
    out: Dict[Exponents, Q] = {}
    for exps, c in f.terms.items():
        a = exps[i]
        if a:
            e2 = exps[:i] + (a - 1,) + exps[i + 1 :]
            out[e2] = out.get(e2, Q(0)) + c * a
    return Polynomial(f.nvars, out)


# --- The walk over order types ----------------------------------------------


def order_type_shape_kernel_dimension(m: int, s: int) -> int:
    """`harmonic._shape_kernel_dimension` checked once per order type: row r
    passes or fails by the order type of its witness column t = (0,) + r,
    the sizes c of its k ≤ m runs of equal indices, since lexicographic
    order and the support rule commute with order-preserving relabellings
    and 0 is the smallest index.  So each composition c of s is checked on
    t = (0^c1, 1^c2, ..., (k−1)^ck) and counted for the C(m − 1, k − 1)
    rows with that order type; a failing one raises CertificationError."""
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
    return comb(m + s - 1, s) - rows


# --- The per-row walk over index multisets -----------------------------------


def multiset_shape_kernel_dimension(m: int, s: int) -> int:
    """`harmonic._shape_kernel_dimension` one row at a time: each row r, a
    nondecreasing tuple of s − 1 indices, must be the largest row of its
    witness column (0,) + r under the package's support rule."""
    rows = 0
    for r in combinations_with_replacement(range(m), s - 1) if s else ():
        t = (0,) + r
        assert max((row for _, row in _column_rows(t)), default=None) == r, (r, t)
        rows += 1
    return comb(m + s - 1, s) - rows


# --- The dense walk over compositions ----------------------------------------


def compositions(n: int, total: int) -> Iterator[Exponents]:
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


def dense_column_rows(t: Exponents) -> Iterator[Tuple[int, Exponents]]:
    """The support rule on exponent vectors: column t has its (j, row)
    entries at the rows t − e_j, one for each j with t_j ≥ 1."""
    return ((j, t[:j] + (x - 1,) + t[j + 1 :]) for j, x in enumerate(t) if x)


def dense_shape_kernel_dimension(m: int, s: int) -> int:
    """`multiset_shape_kernel_dimension` on exponent vectors: each row r of
    degree s − 1 must be the last row, in decreasing lexicographic order, of
    its witness column r + e_1.  The column count is counted, too."""
    rows = 0
    for r in compositions(m, s - 1):
        t = (r[0] + 1,) + r[1:]
        assert min(row for _, row in dense_column_rows(t)) == r, (r, t)
        rows += 1
    return sum(1 for _ in compositions(m, s)) - rows


# --- The full Laplacian matrix over the z-monomials --------------------------


def monomial_exponents(n: int, degree: int) -> Tuple[Exponents, ...]:
    """Exponent tuples of total degree `degree` in n variables, in decreasing
    lexicographic order."""
    if n < 1:
        raise ValueError("need at least one variable")
    return tuple(compositions(n, degree))


def laplacian_columns(n: int, l: int) -> List[Vector]:
    """Columns of Δ: Pol^l → Pol^{l−2} over the z-monomial bases, all at once."""
    source = monomial_exponents(n, l)
    target = monomial_exponents(n, l - 2)
    index = {e: i for i, e in enumerate(target)}
    cols = []
    for exps in source:
        col: Vector = {}
        for i, a in enumerate(exps):
            if a >= 2:
                e2 = exps[:i] + (a - 2,) + exps[i + 1 :]
                col[index[e2]] = a * (a - 1)
        cols.append(col)
    return cols


# --- Every weight's block ------------------------------------------------------


def block_shape(m: int, s: int) -> Tuple[int, Iterator[Column]]:
    """The row count of every weight block with l − |w|₁ = 2s, and its
    columns one at a time: where their entries sit.  A row index depends
    only on the row's label, so all these blocks share one shape; their
    coefficients differ."""
    index = {t: i for i, t in enumerate(compositions(m, s - 1))}

    def columns() -> Iterator[Column]:
        for t in compositions(m, s):
            yield t, [(index[row], j) for j, row in dense_column_rows(t)]

    return len(index), columns()


def weight_blocks(n: int, l: int) -> Iterator[Tuple[Weight, List[Column], int]]:
    """Every torus weight w of Pol^l in n = 2m variables, with its block's
    shape and row count."""
    m = n // 2
    for k in range(0, l + 1, 2):
        rows, columns = block_shape(m, k // 2)
        shape = list(columns)
        for size in compositions(m, l - k):
            for w in product(*[(x, -x) if x else (0,) for x in size]):
                yield w, shape, rows


def block_columns(w: Weight, shape: Iterable[Column]) -> List[Vector]:
    """Columns of Δ on the block of weight w.  With a = b' + w⁺, b = b' + w⁻,
    Δ(u^a v^b) = Σ_j 4 a_j b_j u^(a−e_j) v^(b−e_j); every coefficient is a
    positive integer."""
    plus = [x if x > 0 else 0 for x in w]
    minus = [-x if x < 0 else 0 for x in w]
    return [
        {r: 4 * (t[j] + plus[j]) * (t[j] + minus[j]) for r, j in entries}
        for t, entries in shape
    ]


# --- Signs of the straightened Euler-sum terms ----------------------------------


def negative_pairs(s) -> int:
    """The number of pairs i < j with s_i + s_j < 0, by a double loop."""
    return sum(1 for i in range(len(s)) for j in range(i + 1, len(s)) if s[i] + s[j] < 0)


# --- Dense roots ----------------------------------------------------------------


def dense_root(rank, i, si, j, sj):
    """si·e_i + sj·e_j as a dense vector of Fractions."""
    out = [Q(0)] * rank
    out[i] = Q(si)
    out[j] = Q(sj)
    return tuple(out)


def dense_roots(rank, signs):
    """e_i + s·e_j for i < j and each s in signs, in that order."""
    return [
        dense_root(rank, i, 1, j, s)
        for i in range(rank)
        for j in range(i + 1, rank)
        for s in signs
    ]


def half_sum(roots, rank):
    total = [Q(0)] * rank
    for r in roots:
        total = [a + b for a, b in zip(total, r, strict=True)]
    return tuple(c / 2 for c in total)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), Q(0))


# --- The whole Weyl group and the forward Euler sum ----------------------------


def enumerate_group(m: int) -> Iterator[SignedPermutation]:
    """All of W(D_m): every permutation with every even sign vector."""
    if m < 1:
        raise ValueError("need m >= 1")
    for perm in permutations(range(m)):
        for flips in product((1, -1), repeat=m - 1):
            yield SignedPermutation(perm, flips + (prod(flips),))


def is_coset_rep(w: SignedPermutation) -> bool:
    """True iff the inversion set of w lies inside the u∩k roots {e_i + e_j},
    i.e. no inverted root is an e_i − e_j."""
    return all(sigma == 1 for _, _, sigma in _inversions(w))


def forward_multiplicity(m: int, lam: int, pi: KTypeParam) -> int:
    """`blattner.multiplicity` as the signed count over every coset
    representative w of the coincidences w(μ+ρ_c) − ρ_c = (l+λ−m+1,
    λ−m+1, ..., λ−m+1), with l = μ_0 − λ; zero when l < 0."""
    l = pi.mu0 - lam
    if l < 0:
        return 0
    target = (l + lam - m + 1,) + (lam - m + 1,) * (m - 1)
    reps = enumerate_coset_reps(m)
    return sum((-1) ** length(w) for w in reps if _shifted_weight(m, pi.mu, w) == target)


# --- Iterated Laplacians -------------------------------------------------------


def laplacian_power(f: SparsePolynomial, l: int) -> SparsePolynomial:
    """Δ^l f, one `laplacian` at a time."""
    if l < 0:
        raise ValueError("power must be nonnegative")
    for _ in range(l):
        f = laplacian(f)
    return f


# --- The equivariance check over every pair ------------------------------------


def all_pairs_invariance_check(n: int, trials: int, seed: int = 0) -> bool:
    """`harmonic.so_invariance_check` over all C(n, 2) generators, the pairs
    off the support of f included.  The generator is looked up on
    `polynomial`, where the check imports it from when it runs, so a test
    that patches it patches both checks."""
    if n < 2:
        raise ValueError("need at least two variables")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    for _ in range(trials):
        degree = rng.randint(1, 4)
        f = random_homogeneous(n, degree, rng)
        lap_f = laplacian(f)
        for a in range(n):
            for b in range(a + 1, n):
                rotated = polynomial.rotation_generator(f, a, b)
                if laplacian(rotated) != polynomial.rotation_generator(lap_f, a, b):
                    return False
    return True


# --- The parser that joins a negative fraction itself ---------------------------

# The flags whose value may be a negative fraction such as -3/2.
RATIONAL_FLAGS = ("--lambda", "--nu", "--z")


def reference_parser():
    """The `lieball` argparse parser built from the CLI's flag tables, whose
    subcommand parsers read `--lambda -3/2` as `--lambda=-3/2`, and likewise
    for --nu and --z."""
    import argparse

    from lieball.cli import _SUBCOMMANDS, _subcommand_flags

    class _SubcommandParser(argparse.ArgumentParser):
        """argparse takes a token that starts with '-' as a value only if it
        reads as a plain negative decimal, so it would take -3/2 for an
        option.  Such a token is joined to the flag before it when that flag
        names one of the rational flags the way argparse reads it: in full,
        or as a prefix that no other option of the subcommand shares, such
        as --lamb.  A token that starts with '--' is left alone, as is every
        other token."""

        def _long_option(self, token: str):
            """The option string argparse reads `token` as, or None."""
            options = self._option_string_actions
            if token in options:
                return token
            matches = [o for o in options if o.startswith(token)]
            return matches[0] if len(matches) == 1 else None

        def parse_known_args(self, args=None, namespace=None):
            out: List[str] = []
            for token in args:
                negative = token.startswith("-") and not token.startswith("--")
                if negative and out and self._long_option(out[-1]) in RATIONAL_FLAGS:
                    out[-1] += "=" + token
                else:
                    out.append(token)
            return super().parse_known_args(out, namespace)

    parser = argparse.ArgumentParser(
        prog="lieball",
        description="Exact K-type tables for the conformal group of the Lie ball",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, help_, _ in _SUBCOMMANDS:
        p = subs.add_parser(name, help=help_)
        for flag, keywords in _subcommand_flags(name).items():
            p.add_argument(flag, **keywords)
    return parser
