"""Signed permutations with even flips: group laws, lengths, coset filter."""

import itertools
from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieball.root_data import build_root_sets
from lieball.weyl import (
    SignedPermutation,
    act,
    enumerate_coset_reps,
    enumerate_group,
    inverse,
    inversion_set,
    is_coset_rep,
    lehmer_code,
    length,
    one_line_window,
    sign_bits,
)


def sp(perm, signs):
    return SignedPermutation(tuple(perm), tuple(signs))


def identity(m):
    return sp(range(m), (1,) * m)


def sum_roots(m):
    """The roots e_i + e_j (i < j) of rank m, where coset inversions lie."""
    return {r for r in build_root_sets(m).k_pos if -1 not in r}


def test_validation_rejects_odd_flip_count():
    with pytest.raises(ValueError):
        sp((0, 1), (1, -1))


def test_validation_rejects_non_bijection():
    with pytest.raises(ValueError):
        sp((0, 0), (1, 1))


def test_validation_rejects_bad_sign_value():
    with pytest.raises(ValueError):
        sp((0, 1), (2, 2))


def test_act_example():
    w = sp((1, 0), (-1, -1))
    assert act(w, (Q(2), Q(1))) == (Q(-1), Q(-2))


def test_act_identity():
    mu = (Q(3), Q(-1), Q(1, 2))
    assert act(identity(3), mu) == mu


def test_inverse_example():
    w = sp((1, 2, 0), (1, -1, -1))
    wi = inverse(w)
    assert wi == sp((2, 0, 1), (-1, -1, 1))
    # only the identity fixes a vector with distinct nonzero entries
    mu = (Q(1), Q(2), Q(3))
    assert act(w, act(wi, mu)) == mu
    assert act(wi, act(w, mu)) == mu


@pytest.mark.parametrize("m", [2, 3, 4])
def test_enumerate_group_is_exhaustive(m):
    elems = list(enumerate_group(m))
    assert len(elems) == len(set(elems)) == factorial(m) * 2 ** (m - 1)


@st.composite
def signed_permutations(draw, max_rank=4):
    m = draw(st.integers(min_value=2, max_value=max_rank))
    perm = tuple(draw(st.permutations(range(m))))
    flips = draw(
        st.lists(st.integers(min_value=0, max_value=m - 1), unique=True).filter(
            lambda xs: len(xs) % 2 == 0
        )
    )
    signs = tuple(-1 if i in flips else 1 for i in range(m))
    return SignedPermutation(perm, signs)


@settings(max_examples=150)
@given(signed_permutations())
def test_inverse_is_two_sided(w):
    assert inverse(inverse(w)) == w
    mu = tuple(Q(i + 1) for i in range(w.rank))
    assert act(inverse(w), act(w, mu)) == mu
    assert act(w, act(inverse(w), mu)) == mu


@settings(max_examples=150)
@given(signed_permutations())
def test_length_equals_inversion_count(w):
    assert length(w) == len(inversion_set(w))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_coset_filter_matches_definition(m):
    # the definitional filter: every inverted positive root lies among the
    # e_i + e_j with i < j
    allowed = sum_roots(m)
    for w in enumerate_group(m):
        definitional = set(inversion_set(w)) <= allowed
        assert is_coset_rep(w) == definitional


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_coset_reps_match_full_group_filter(m):
    # oracle: filter the whole group by the inversion test and sort the same way
    reps = sorted(
        (w for w in enumerate_group(m) if is_coset_rep(w)),
        key=lambda w: (length(w), lehmer_code(w.perm), sign_bits(w.signs)),
    )
    assert list(enumerate_coset_reps(m)) == reps


def test_coset_reps_m2():
    reps = enumerate_coset_reps(2)
    assert reps[0] == identity(2)
    assert reps[1] == sp((1, 0), (-1, -1))
    assert [length(w) for w in reps] == [0, 1]


def test_coset_reps_m3_lengths():
    assert [length(w) for w in enumerate_coset_reps(3)] == [0, 1, 2, 3]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_coset_reps_count(m):
    assert len(enumerate_coset_reps(m)) == 2 ** (m - 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_coset_reps_poincare_polynomial(m):
    # length generating function is prod_{i=1}^{m-1} (1 + q^i)
    from collections import Counter

    counts = Counter(length(w) for w in enumerate_coset_reps(m))
    poly = {0: 1}
    for i in range(1, m):
        nxt = dict(poly)
        for d, c in poly.items():
            nxt[d + i] = nxt.get(d + i, 0) + c
        poly = nxt
    assert dict(counts) == poly


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_coset_reps_flip_patterns(m):
    # flipped source positions form exactly the even-size subsets of 1..m,
    # and the length only depends on the pattern
    reps = enumerate_coset_reps(m)
    patterns = {
        tuple(j + 1 for j in range(m) if w.signs[w.perm[j]] < 0): length(w) for w in reps
    }
    expected = {
        tuple(sorted(fs)): sum(m - j for j in fs)
        for r in range(0, m + 1, 2)
        for fs in itertools.combinations(range(1, m + 1), r)
    }
    assert patterns == expected


@pytest.mark.parametrize("m", [2, 3, 4])
def test_coset_reps_inversions_avoid_short_roots(m):
    allowed = sum_roots(m)
    for w in enumerate_coset_reps(m):
        assert set(inversion_set(w)) <= allowed


def test_coset_reps_sorted_by_length_then_code():
    for m in (3, 4):
        reps = enumerate_coset_reps(m)
        keys = [(length(w), lehmer_code(w.perm), sign_bits(w.signs)) for w in reps]
        assert keys == sorted(keys)


def test_one_line_window_m2():
    assert one_line_window(identity(2)) == (1, 2)
    assert one_line_window(sp((1, 0), (-1, -1))) == (-2, -1)


def test_lehmer_code_orders_permutations():
    perms = sorted(itertools.permutations(range(3)))
    codes = [lehmer_code(p) for p in perms]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
