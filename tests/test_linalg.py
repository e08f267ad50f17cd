"""Fraction-free kernel computations on sparse integer columns."""

import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_kernel


def rank(cols):
    """Rank by rank-nullity from the kernel."""
    return len(cols) - len(exact_kernel(cols))


def dense(cols, nrows):
    return [[col.get(r, 0) for col in cols] for r in range(nrows)]


def apply_combination(cols, coeffs):
    out = {}
    for c, x in coeffs.items():
        for r, v in cols[c].items():
            out[r] = out.get(r, Q(0)) + x * v
    return {r: v for r, v in out.items() if v}


def test_rank_of_identity_columns():
    cols = [{0: 1}, {1: 1}, {2: 1}]
    assert rank(cols) == 3


def test_rank_with_dependent_column():
    cols = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 0}]
    assert rank(cols) == 1


def test_rank_empty_and_zero():
    assert rank([]) == 0
    assert rank([{}, {0: 0}]) == 0


def test_rank_needs_no_normal_ordering():
    cols = [{5: 3, 2: -1}, {2: 2}, {5: 6, 2: -2}]
    assert rank(cols) == 2


def test_kernel_of_proportional_columns():
    cols = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    kernel = exact_kernel(cols)
    assert len(kernel) == 1
    assert apply_combination(cols, kernel[0]) == {}
    # normalized: coprime integer entries, leading one positive
    assert kernel[0] == {0: Q(2), 1: Q(-1)}


def test_kernel_of_independent_columns_is_empty():
    assert exact_kernel([{0: 1}, {1: 1}]) == []


def test_kernel_includes_zero_columns():
    cols = [{0: 1}, {}, {0: -3}]
    kernel = exact_kernel(cols)
    assert len(kernel) == 2
    for tag in kernel:
        assert apply_combination(cols, tag) == {}


def test_kernel_three_term_relation():
    cols = [{0: 1, 1: 1}, {0: 1, 1: -1}, {0: 2, 1: 0}]
    kernel = exact_kernel(cols)
    assert len(kernel) == 1
    assert apply_combination(cols, kernel[0]) == {}
    assert kernel[0] == {0: Q(1), 1: Q(1), 2: Q(-1)}


def test_kernel_entries_are_normalized_integers():
    cols = [{0: 2, 1: 6}, {0: 4, 1: 12}, {0: 3, 1: 5}]
    for tag in exact_kernel(cols):
        assert all(x.denominator == 1 for x in tag.values())
        g = 0
        for x in tag.values():
            g = __import__("math").gcd(g, int(x))
        assert g == 1
        assert tag[min(tag)] > 0


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=1, max_value=6))
    cols = []
    for _ in range(ncols):
        entries = draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=nrows - 1),
                st.integers(min_value=-9, max_value=9),
                max_size=nrows,
            )
        )
        cols.append({k: v for k, v in entries.items() if v})
    return cols


@settings(max_examples=200)
@given(sparse_matrices())
def test_rank_nullity(cols):
    kernel = exact_kernel(cols)
    nrows = 1 + max((r for col in cols for r in col), default=0)
    assert _reference_rank(dense(cols, nrows)) + len(kernel) == len(cols)
    for tag in kernel:
        assert apply_combination(cols, tag) == {}


@settings(max_examples=100)
@given(sparse_matrices())
def test_kernel_vectors_are_independent(cols):
    kernel = exact_kernel(cols)
    as_columns = [
        {r: int(x) for r, x in tag.items()} for tag in kernel
    ]
    assert exact_kernel(as_columns) == []


def test_rank_against_random_reference():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        cols = [
            {r: rng.randint(-4, 4) for r in range(nrows)} for _ in range(ncols)
        ]
        cols = [{r: v for r, v in col.items() if v} for col in cols]
        assert rank(cols) == _reference_rank(dense(cols, nrows))


def _reference_rank(rows):
    mat = [[Q(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[row])]
        row += 1
        rank += 1
    return rank
