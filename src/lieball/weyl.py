"""The Weyl group W(D_m) as signed permutations, with coset enumeration.

Elements permute the basis e_1..e_m and flip an even number of signs.  The
action convention is act(w, e_j) = signs[perm(j)] · e_{perm(j)}, so on
coordinate vectors (w·μ)_i = signs_i · μ_{perm⁻¹(i)}.  Indices are 0-based
internally; printed one-line windows are 1-based.  A root is the triple
`repdata.Root`, written out by `repdata.root_vector`, which is imported
here so that `weyl.root_vector` still resolves; the Euler-sum table and
`verify` need only that writer, and so never load this module.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from .repdata import Root, _Record, root_vector

__all__ = [
    "SignedPermutation",
    "inverse",
    "act",
    "inversion_set",
    "length",
    "enumerate_coset_reps",
    "one_line_window",
]


class SignedPermutation(_Record):
    """A signed permutation with an even number of sign flips.

    perm[j] is the image of position j; signs[i] is the sign attached to the
    target position i.  Both tuples have length m.
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm: Tuple[int, ...], signs: Tuple[int, ...]) -> None:
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)
        m = len(self.perm)
        if sorted(self.perm) != list(range(m)):
            raise ValueError(f"{self.perm} is not a permutation of 0..{m - 1}")
        if len(self.signs) != m or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be a ±1 vector of matching length")
        if sum(1 for s in self.signs if s < 0) % 2 != 0:
            raise ValueError("sign flips must be even in number")

    @property
    def rank(self) -> int:
        return len(self.perm)


def act(w: SignedPermutation, mu: Sequence) -> tuple:
    """Apply w to a coordinate vector: (w·μ)_i = signs_i · μ_{perm⁻¹(i)}."""
    m = w.rank
    if len(mu) != m:
        raise ValueError("vector length does not match rank")
    out = [None] * m
    for j in range(m):
        i = w.perm[j]
        out[i] = w.signs[i] * mu[j]
    return tuple(out)


def inverse(w: SignedPermutation) -> SignedPermutation:
    m = w.rank
    q = [0] * m
    for j in range(m):
        q[w.perm[j]] = j
    signs = tuple(w.signs[w.perm[j]] for j in range(m))
    return SignedPermutation(tuple(q), signs)


def _inversions(w: SignedPermutation) -> Iterator[Root]:
    """The roots α = e_i + σe_j (i < j) of Δ+(k) with w⁻¹α ∈ Δ−(k).

    With q = perm⁻¹ and t the signs of w⁻¹, w⁻¹(e_i + σe_j) = t[q_i] e_(q_i)
    + σ t[q_j] e_(q_j), so its first nonzero coefficient is t[q_i] if
    q_i < q_j and σ t[q_j] otherwise; the root is inverted iff that is
    negative.  Since perm(q_i) = i, t[q_i] = signs_i.
    """
    m = w.rank
    q = [0] * m
    for j in range(m):
        q[w.perm[j]] = j
    for i in range(m):
        for j in range(i + 1, m):
            for sigma in (1, -1):
                lead = w.signs[i] if q[i] < q[j] else sigma * w.signs[j]
                if lead < 0:
                    yield (i, j, sigma)


def inversion_set(w: SignedPermutation) -> Tuple[Tuple[int, ...], ...]:
    """The roots {α ∈ Δ+(k) : w⁻¹α ∈ Δ−(k)} as int vectors, e_i + e_j
    before e_i − e_j for each i < j; its size is the length of w.

    Only the `weyl` listing, which prints these roots, calls it.
    """
    return tuple(root_vector(w.rank, alpha) for alpha in _inversions(w))


@lru_cache(maxsize=None)
def length(w: SignedPermutation) -> int:
    """The size of the inversion set, counted on integers."""
    return sum(1 for _ in _inversions(w))


@lru_cache(maxsize=None)
def enumerate_coset_reps(m: int) -> Tuple[SignedPermutation, ...]:
    """Minimal-length representatives of W(D_m) modulo the gl(m) Weyl group.

    One per even set N of flipped coordinates: w is a representative iff
    w⁻¹(e_i − e_j) is positive for i < j, so w⁻¹ sends e_1, ..., e_m first to
    the +e_k with k ∉ N in increasing k, then to the −e_k with k ∈ N in
    decreasing k.  Sorted by length, then perm, then the negated signs, each
    tuple compared lexicographically (the order of the perm's Lehmer code and
    of the sign bitmask with position 0 most significant); there are 2^{m−1}
    of them.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    reps = []
    for r in range(0, m + 1, 2):
        for flipped in itertools.combinations(range(m), r):
            kept = tuple(k for k in range(m) if k not in flipped)
            signs = tuple(-1 if k in flipped else 1 for k in range(m))
            reps.append(inverse(SignedPermutation(kept + flipped[::-1], signs)))
    reps.sort(key=lambda w: (length(w), w.perm, tuple(-s for s in w.signs)))
    return tuple(reps)


def one_line_window(w: SignedPermutation) -> Tuple[int, ...]:
    """Signed one-line notation: entry j is ±(perm(j)+1) with the target sign."""
    return tuple(w.signs[w.perm[j]] * (w.perm[j] + 1) for j in range(w.rank))
