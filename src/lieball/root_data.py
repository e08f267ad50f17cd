"""Root data for so(2, 2m): the nilradical u of the parabolic and the compact roots.

Coordinates are exact rationals in an orthonormal basis.  G-weights live in
rank m+1 (basis e_0..e_m, with e_0 attached to the so(2) factor); weights of
the maximal compact factor SO(2m) live in rank m (basis e_1..e_m).  All
half-sums are half-integral, so every coordinate has denominator 1 or 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterable, Tuple

__all__ = [
    "Weight",
    "RootSet",
    "RootData",
    "as_weight",
    "add",
    "sub",
    "dot",
    "build_root_sets",
    "half_sum",
    "rho_u",
    "rho_c",
    "rho_l",
    "rho_g",
]

Weight = Tuple[Q, ...]


def as_weight(coords: Iterable[object]) -> Weight:
    """Coerce coordinates to an exact weight; denominators must divide 2."""
    w = tuple(Q(c) for c in coords)
    for c in w:
        if c.denominator not in (1, 2):
            raise ValueError(f"weight coordinate {c} is not half-integral")
    return w


def add(x: Weight, y: Weight) -> Weight:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def sub(x: Weight, y: Weight) -> Weight:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def dot(x: Weight, y: Weight) -> Q:
    """Standard inner product; the basis e_i is orthonormal."""
    return sum((a * b for a, b in zip(x, y, strict=True)), Q(0))


@dataclass(frozen=True)
class RootSet:
    """A finite set of roots, stored in a fixed deterministic order."""

    rank: int
    roots: Tuple[Weight, ...]

    def __post_init__(self) -> None:
        seen = set()
        for r in self.roots:
            if len(r) != self.rank:
                raise ValueError("root rank mismatch")
            support = [c for c in r if c != 0]
            if len(support) != 2 or any(abs(c) != 1 for c in support):
                raise ValueError(f"{r} is not a root of type B/D shape ±e_i±e_j")
            if r in seen:
                raise ValueError(f"duplicate root {r}")
            seen.add(r)

    def __contains__(self, w: Weight) -> bool:
        return w in set(self.roots)

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def _root(rank: int, i: int, si: int, j: int, sj: int) -> Weight:
    out = [Q(0)] * rank
    out[i] = Q(si)
    out[j] = Q(sj)
    return tuple(out)


@dataclass(frozen=True)
class RootData:
    """The root sets used downstream, for one rank parameter m >= 2.

    u has rank m+1 (basis e_0..e_m); k_pos has rank m (basis e_1..e_m, the
    SO(2m) factor) and is the positive system {e_i ± e_j : i < j}.
    """

    m: int
    u: RootSet
    k_pos: RootSet


@lru_cache(maxsize=None)
def build_root_sets(m: int) -> RootData:
    """Construct the root sets of so(2m+2, C) cut out by the grading element.

    The grading element is 1_{m+1} = e_0 + ... + e_m: u collects the roots
    pairing positively with it, {e_i + e_j : i < j}.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    n = m + 1
    u = [_root(n, i, 1, j, 1) for i in range(n) for j in range(i + 1, n)]
    k_pos = []
    for i in range(m):
        for j in range(i + 1, m):
            k_pos.append(_root(m, i, 1, j, 1))
            k_pos.append(_root(m, i, 1, j, -1))
    return RootData(m=m, u=RootSet(n, tuple(u)), k_pos=RootSet(m, tuple(k_pos)))


def half_sum(rs: RootSet) -> Weight:
    """Half the sum of the roots in the set."""
    total = tuple(Q(0) for _ in range(rs.rank))
    for r in rs:
        total = add(total, r)
    return tuple(c / 2 for c in total)


@lru_cache(maxsize=None)
def rho_u(m: int) -> Weight:
    """Half-sum over u; equals (m/2)·1_{m+1}."""
    return half_sum(build_root_sets(m).u)


@lru_cache(maxsize=None)
def rho_c(m: int) -> Weight:
    """Half-sum of the positive compact roots; equals (m−1, m−2, ..., 1, 0)."""
    return half_sum(build_root_sets(m).k_pos)


@lru_cache(maxsize=None)
def rho_l(m: int) -> Weight:
    """Half-sum of the positive roots of the Levi factor gl(m+1)."""
    pos = RootSet(
        m + 1,
        tuple(
            _root(m + 1, i, 1, j, -1)
            for i in range(m + 1)
            for j in range(i + 1, m + 1)
        ),
    )
    return half_sum(pos)


@lru_cache(maxsize=None)
def rho_g(m: int) -> Weight:
    """Half-sum of the positive roots of so(2m+2); equals (m, m−1, ..., 1, 0)."""
    n = m + 1
    pos = []
    for i in range(n):
        for j in range(i + 1, n):
            pos.append(_root(n, i, 1, j, 1))
            pos.append(_root(n, i, 1, j, -1))
    return half_sum(RootSet(n, tuple(pos)))

