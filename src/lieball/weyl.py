"""The Weyl group W(D_m) as signed permutations, with coset enumeration.

Elements permute the basis e_1..e_m and flip an even number of signs.  The
action convention is act(w, e_j) = signs[perm(j)] · e_{perm(j)}, so on
coordinate vectors (w·μ)_i = signs_i · μ_{perm⁻¹(i)}.  Indices are 0-based
internally; printed one-line windows are 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from .root_data import RootSet, build_root_sets

__all__ = [
    "SignedPermutation",
    "inverse",
    "act",
    "enumerate_group",
    "inversion_set",
    "length",
    "is_coset_rep",
    "enumerate_coset_reps",
    "lehmer_code",
    "sign_bits",
    "one_line_window",
]


@dataclass(frozen=True)
class SignedPermutation:
    """A signed permutation with an even number of sign flips.

    perm[j] is the image of position j; signs[i] is the sign attached to the
    target position i.  Both tuples have length m.
    """

    perm: Tuple[int, ...]
    signs: Tuple[int, ...]

    def __post_init__(self) -> None:
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


def enumerate_group(m: int) -> Iterator[SignedPermutation]:
    """All of W(D_m): every permutation with every even sign vector.

    No CLI path walks the whole group.  It stays because the acceptance gate
    counts the coset representatives in it and the tests filter it as the
    oracle for `enumerate_coset_reps`.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    for perm in itertools.permutations(range(m)):
        for flips in itertools.product((1, -1), repeat=m - 1):
            parity = 1
            for s in flips:
                parity *= s
            signs = flips + (parity,)
            yield SignedPermutation(perm, signs)


def _is_negative_root(v: Sequence) -> bool:
    """Negative for the positive system {e_i ± e_j : i < j}: first nonzero < 0."""
    for c in v:
        if c != 0:
            return c < 0
    raise ValueError("zero vector is not a root")


def inversion_set(w: SignedPermutation) -> RootSet:
    """The roots {α ∈ Δ+(k) : w⁻¹α ∈ Δ−(k)}; its size is the length of w."""
    m = w.rank
    roots = build_root_sets(m).k_pos.roots if m >= 2 else ()
    winv = inverse(w)
    inv = [alpha for alpha in roots if _is_negative_root(act(winv, alpha))]
    return RootSet(m, tuple(inv))


@lru_cache(maxsize=None)
def length(w: SignedPermutation) -> int:
    return len(inversion_set(w))


def is_coset_rep(w: SignedPermutation) -> bool:
    """True iff the inversion set of w lies inside the u∩k roots {e_i + e_j}.

    Equivalent direct test: no root e_i − e_j (i < j) maps under w⁻¹ to a
    negative root.  Writing q = perm⁻¹, w⁻¹(e_i − e_j) = signs_i e_{q(i)} −
    signs_j e_{q(j)}, which is positive iff the coefficient on the smaller
    target index is +1.  No CLI path calls it; it stays as that filter in
    the acceptance gate and in the tests' coset oracle.
    """
    m = w.rank
    q = [0] * m
    for j in range(m):
        q[w.perm[j]] = j
    for i in range(m):
        for j in range(i + 1, m):
            if q[i] < q[j]:
                if w.signs[i] != 1:
                    return False
            else:
                if w.signs[j] != -1:
                    return False
    return True


def lehmer_code(perm: Sequence[int]) -> int:
    """The permutation's Lehmer code packed in factorial base."""
    m = len(perm)
    code = 0
    for j in range(m):
        smaller_later = sum(1 for k in range(j + 1, m) if perm[k] < perm[j])
        base = 1
        for t in range(1, m - j):
            base *= t
        code += smaller_later * base
    return code


def sign_bits(signs: Sequence[int]) -> int:
    """Sign vector as a bitmask, position 0 in the most significant bit."""
    bits = 0
    for s in signs:
        bits = (bits << 1) | (1 if s < 0 else 0)
    return bits


@lru_cache(maxsize=None)
def enumerate_coset_reps(m: int) -> Tuple[SignedPermutation, ...]:
    """Minimal-length representatives of W(D_m) modulo the gl(m) Weyl group.

    One per even set N of flipped coordinates: w is a representative iff
    w⁻¹(e_i − e_j) is positive for i < j, so w⁻¹ sends e_1, ..., e_m first to
    the +e_k with k ∉ N in increasing k, then to the −e_k with k ∈ N in
    decreasing k.  Sorted by (length, Lehmer code of perm, sign bitmask);
    there are 2^{m−1} of them.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    reps = []
    for r in range(0, m + 1, 2):
        for flipped in itertools.combinations(range(m), r):
            kept = tuple(k for k in range(m) if k not in flipped)
            signs = tuple(-1 if k in flipped else 1 for k in range(m))
            reps.append(inverse(SignedPermutation(kept + flipped[::-1], signs)))
    reps.sort(key=lambda w: (length(w), lehmer_code(w.perm), sign_bits(w.signs)))
    return tuple(reps)


def one_line_window(w: SignedPermutation) -> Tuple[int, ...]:
    """Signed one-line notation: entry j is ±(perm(j)+1) with the target sign."""
    return tuple(w.signs[w.perm[j]] * (w.perm[j] + 1) for j in range(w.rank))
