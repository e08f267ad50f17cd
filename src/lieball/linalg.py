"""Exact fraction-free kernel of sparse integer matrices.

Vectors are dicts mapping row index to a nonzero integer.  Elimination uses
integer cross-multiplication with gcd normalization after every combination,
so all arithmetic is exact; no floating point and no modular arithmetic
anywhere.  No CLI path eliminates: `harmonic_dimension` certifies its ranks
from witness columns, and this kernel is the tests' full-matrix oracle for it.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List

__all__ = ["exact_kernel"]

Vector = Dict[int, int]


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

    Each basis element maps column index to an integer coefficient; the
    corresponding combination of columns vanishes.  Coefficients are coprime
    with positive leading entry.  Column c carries its tag, the combination
    it stands for, as the entry 1 at position top + c below every row, so
    one elimination clears rows and tracks tags together; a column reduced
    to its tag is a kernel element.  It is the oracle that the tests hold
    the kernel dimensions to, over `harmonic._laplacian_columns` and over
    each weight block's `harmonic._block_columns`.
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
