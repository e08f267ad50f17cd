"""Slow reference computations that the tests hold `lieball` to.

The package keeps one path per computation: the straightened Euler sum,
the Fischer adjoint's closed form for the Laplacian's rank,
and the term-wise `laplacian` and `rotation_generator` on term dicts
(exponent tuple to nonzero coefficient).  The paths they replaced, or that
they are checked against, live here:

- `exact_kernel`, a fraction-free elimination, the kernel oracle over the
  full Laplacian matrix and over each weight block;
- `Polynomial` and `partial`, the polynomial ring the tests build their
  inputs, the sums of second partials and the product-form generator
  with, a class of its own whose `terms` is the package's term dict;
- the witness walk, a proof by computation that each weight block of
  the Laplacian has full row rank: the support rule `column_rows` of every
  block shape on exponent vectors, and the walk over order types,
  `order_type_shape_kernel_dimension`, which checks that rule once per
  composition of s, the order type's own exponent vector, and which is
  held to Pascal's C(m + s − 2, s) and to exact elimination of the blocks;
- the per-row witness walk over index multisets,
  `multiset_shape_kernel_dimension`, with its own support rule
  `multiset_column_rows`; the order-type walk is held to it, and
  `column_rows` to `multiset_column_rows`, monomial by monomial;
- the per-row walk of `column_rows` over every exponent vector
  (`compositions`, `dense_shape_kernel_dimension`), which the multiset
  walk is checked against;
- `negative_pairs`, the double-loop count behind the sign of a
  straightened Euler-sum term;
- the full matrix over the z-monomials (`monomial_exponents`,
  `laplacian_columns`) and the stream of every weight's block
  (`block_shape`, `weight_blocks`, `block_columns`), whose entries sit
  where `column_rows` puts them and are checked against the
  Laplacian in the u, v coordinates;
- the roots built as dense Fraction vectors (`dense_roots`, `half_sum`,
  `dot`), against which the closed-form pairings are checked;
- the whole Weyl group `enumerate_group` and the coset filter
  `is_coset_rep`, which `enumerate_coset_reps` is checked against, and the
  forward signed sum over every coset representative,
  `forward_multiplicity`, which the straightened `multiplicity` and
  `ktype_table` are checked against;
- `laplacian_power`, `laplacian` applied l times to a term dict;
- `all_pairs_invariance_check`, the sampled equivariance check over all
  C(n, 2) rotation generators, which the check restricted to the pairs that
  meet each polynomial's support is held equal to;
- `faraut_koranyi_unitarizable`, the Wallach set read off the signs of
  the Faraut–Korányi norms, which `ehw_unitarizable` is held to;
- `reference_parser`, the `lieball` argparse parser whose subcommand
  parsers join a negative fraction to its flag themselves, which the CLI's
  reading of a command line is held equal to;
- `perfbench`, which loads the benchmark's output oracle
  (`perfbench/oracle.py`, the table rows in closed form) and its workloads
  from their files, read-only.

Everything is exact; nothing here is fast.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, gcd, prod
from typing import Dict, Iterable, Iterator, List, Tuple

import lieball.polynomial as polynomial
from lieball.harmonic import CertificationError
from lieball.polynomial import Exponents, Terms, laplacian, random_homogeneous
from lieball.kostant import _shifted_weight
from lieball.ktype import KTypeParam
from lieball.weyl import SignedPermutation, _inversions, enumerate_coset_reps, length

Vector = Dict[int, int]
Weight = Tuple[int, ...]
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


class Polynomial:
    """A polynomial in nvars variables with exact rational coefficients and
    the ring operations (+, −, negation, products with polynomials and
    rationals), the ring the package does not have.  `terms` maps exponent
    tuples to the nonzero coefficients, as given: the term dict that the
    functions of `lieball.polynomial` take and return, so
    `Polynomial(n, laplacian(p.terms))` is Δp."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponents, object] | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        """The coordinate z_i."""
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Q(1)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        bits = [
            f"{c}" + "".join(f"*z{i + 1}^{a}" for i, a in enumerate(exps) if a)
            for exps, c in sorted(self.terms.items())
        ]
        return "Polynomial(" + (" + ".join(bits) or "0") + ")"

    def _check_same_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Q(0)) + c
        return Polynomial(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_same_ring(other)
            out: Dict[Exponents, Q] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Q(0)) + c1 * c2
            return Polynomial(self.nvars, out)
        return Polynomial(self.nvars, {e: c * Q(other) for e, c in self.terms.items()})

    __rmul__ = __mul__


def partial(f: Polynomial, i: int) -> Polynomial:
    """∂f/∂z_i."""
    if not 0 <= i < f.nvars:
        raise ValueError("variable index out of range")
    out: Dict[Exponents, Q] = {}
    for exps, c in f.terms.items():
        a = exps[i]
        if a:
            e2 = exps[:i] + (a - 1,) + exps[i + 1 :]
            out[e2] = out.get(e2, Q(0)) + c * a
    return Polynomial(f.nvars, out)


# --- The witness walk over the weight blocks ----------------------------------

# In u_j = z_(2j−1) + i z_(2j), v_j = z_(2j−1) − i z_(2j), Δ = 4 Σ_j ∂_(u_j) ∂_(v_j)
# keeps the weight w = a − b of u^a v^b, so its matrix is the direct sum of
# one block per weight.  With b' = min(a, b), the columns of the block of w
# are the exponent vectors b' of degree s, where 2s = l − |w|₁, and its rows
# those of degree s − 1; where the entries sit depends on s alone.


def column_rows(a: Exponents) -> Iterator[Tuple[int, Exponents]]:
    """The support rule of every block shape: column a has its (j, row)
    entries at the rows a − e_j, one for each j with a_j > 0."""
    return ((j, a[:j] + (x - 1,) + a[j + 1 :]) for j, x in enumerate(a) if x)


def order_type_shape_kernel_dimension(m: int, s: int) -> int:
    """The kernel dimension of every weight block with l − |w|₁ = 2s in 2m
    variables, by one witness per row: row r must be the last row, the
    smallest in decreasing lexicographic order, of its witness column
    a = r + e_0, so the witnesses are triangular and the block has full row
    rank.  Row r passes or fails by the order type of a, the sizes c of its
    k ≤ m nonzero exponents in order, since lexicographic order and the
    support rule commute with dropping zero exponents and 0 is the first
    index.  So each composition c of s is checked as the column itself and
    counted for the C(m − 1, k − 1) rows with that order type; a failing one
    raises CertificationError."""
    rows = 0
    for k in range(1, min(m, s) + 1):
        count = comb(m - 1, k - 1)  # the rows of each order type with k parts
        for cuts in combinations(range(1, s), k - 1):
            a = tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (s,)))
            row = (a[0] - 1,) + a[1:]
            if min((r for _, r in column_rows(a)), default=None) != row:
                pad = (0,) * (m - k)
                raise CertificationError(
                    f"row {row + pad} is not the last row of its witness column {a + pad} in "
                    f"the k={2 * s} shape for n={2 * m}"
                )
            rows += count
    return comb(m + s - 1, s) - rows


# --- The per-row walk over index multisets -----------------------------------


def multiset_column_rows(t: Tuple[int, ...]) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """The support rule on index multisets, nondecreasing tuples: column t
    has its (j, row) entries at the rows t minus one j, one for each
    distinct index j in t."""
    return ((j, t[:i] + t[i + 1 :]) for i, j in enumerate(t) if not i or t[i - 1] != j)


def multiset_shape_kernel_dimension(m: int, s: int) -> int:
    """`order_type_shape_kernel_dimension` one row at a time on index
    multisets: each row r, a nondecreasing tuple of s − 1 indices, must be
    the largest row of its witness column (0,) + r under
    `multiset_column_rows`."""
    rows = 0
    for r in combinations_with_replacement(range(m), s - 1) if s else ():
        t = (0,) + r
        assert max((row for _, row in multiset_column_rows(t)), default=None) == r, (r, t)
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


def dense_shape_kernel_dimension(m: int, s: int) -> int:
    """`multiset_shape_kernel_dimension` on exponent vectors, under
    `column_rows`: each row r of degree s − 1 must be the last row,
    in decreasing lexicographic order, of its witness column r + e_0.  The
    column count is counted, too."""
    rows = 0
    for r in compositions(m, s - 1):
        t = (r[0] + 1,) + r[1:]
        assert min(row for _, row in column_rows(t)) == r, (r, t)
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
            yield t, [(index[row], j) for j, row in column_rows(t)]

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


def laplacian_power(f: Terms, l: int) -> Terms:
    """Δ^l f on a term dict, one `laplacian` at a time."""
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
    that patches it with a fault on term dicts patches both checks."""
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


# --- The Wallach set by the signs of the Faraut–Korányi norms -------------------


def faraut_koranyi_unitarizable(n: int, z: Q, max_degree: int = 8) -> bool:
    """Whether the scalar lowest-weight module of SO_0(2, n) at z is
    unitarizable, read off the signs of its norms.

    At ν = n − 1 − z, the Schmid component P_(l1, l2) = q^l2 · H^(l1 − l2)
    of Pol(C^n), l1 ≥ l2 ≥ 0 (Schmid, Invent. Math. 9, 1969), has the
    Faraut–Korányi norm (ν)_(l1, l2) = (ν)_l1 · (ν − (n − 2)/2)_l2, with
    (a)_k = a (a + 1) ... (a + k − 1) (Faraut–Korányi, J. Funct. Anal. 88,
    1990).  The module is unitarizable iff no norm is negative; the norms
    are scanned for l1 + l2 ≤ max_degree.
    """
    nu, shift = n - 1 - Q(z), Q(n - 2, 2)
    return all(
        prod(nu + i for i in range(l1)) * prod(nu - shift + i for i in range(l2)) >= 0
        for l1 in range(max_degree + 1) for l2 in range(min(l1, max_degree - l1) + 1))


# --- The parser that joins a negative fraction itself ---------------------------

# The flags whose value may be a negative fraction such as -3/2.
RATIONAL_FLAGS = ("--lambda", "--nu", "--z")


def reference_parser():
    """The `lieball` argparse parser built from the CLI's command table, whose
    subcommand parsers read `--lambda -3/2` as `--lambda=-3/2`, and likewise
    for --nu and --z, and refuse a flag that argparse reads as [] from
    `--flag=--`."""
    import argparse

    from lieball.cli import _SUBCOMMANDS

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

    class _Parser(argparse.ArgumentParser):
        def parse_args(self, args=None, namespace=None):
            """argparse before 3.13 reads `--flag=--` as [], which `lieball`
            refuses once the whole command line is read, as a flag given
            no value."""
            namespace = super().parse_args(args, namespace)
            sub = subs.choices[namespace.command]
            for action in sub._actions:
                if getattr(namespace, action.dest, None) == []:
                    sub.error(f"argument {action.option_strings[0]}: expected one argument")
            return namespace

    parser = _Parser(
        prog="lieball",
        description="Exact K-type tables for the conformal group of the Lie ball",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, (help_, _, flags) in _SUBCOMMANDS.items():
        p = subs.add_parser(name, help=help_)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def perfbench():
    """perfbench/workloads.py and perfbench/oracle.py, loaded from their files
    and left as they are, and the names of the workloads BENCHMARK.json runs."""
    import importlib.util

    root = pathlib.Path(__file__).resolve().parent.parent
    modules = {}
    try:
        for name in ("workloads", "oracle"):
            spec = importlib.util.spec_from_file_location(name, root / "perfbench" / f"{name}.py")
            # dataclasses looks its module up, and oracle imports workloads
            modules[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
    finally:
        for name in modules:
            del sys.modules[name]
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    return modules["workloads"], modules["oracle"], names
