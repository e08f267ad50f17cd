"""Signed permutations with even flips: group laws, lengths, coset filter."""

import itertools
from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieball.ktype import _Record
from lieball.weyl import (
    SignedPermutation,
    act,
    enumerate_coset_reps,
    inverse,
    inversion_set,
    length,
    one_line_window,
)
from oracles import enumerate_group, is_coset_rep


def sp(perm, signs):
    return SignedPermutation(tuple(perm), tuple(signs))


def identity(m):
    return sp(range(m), (1,) * m)


def lehmer_code(perm):
    """The permutation's Lehmer code packed in factorial base."""
    m = len(perm)
    code = 0
    for j in range(m):
        smaller_later = sum(1 for k in range(j + 1, m) if perm[k] < perm[j])
        code += smaller_later * factorial(m - 1 - j)
    return code


def sign_bits(signs):
    """Sign vector as a bitmask, position 0 in the most significant bit."""
    bits = 0
    for s in signs:
        bits = (bits << 1) | (1 if s < 0 else 0)
    return bits


def documented_order(w):
    """The documented order of the coset representatives: length, then
    Lehmer code of the permutation, then sign bitmask."""
    return (length(w), lehmer_code(w.perm), sign_bits(w.signs))


def sum_roots(m):
    """The roots e_i + e_j (i < j) of rank m, where coset inversions lie."""
    return {
        tuple(int(k in (i, j)) for k in range(m)) for i in range(m) for j in range(i + 1, m)
    }


def dense_inversion_set(w):
    """The definition of the inversion set, on Fraction vectors: the roots
    e_i + e_j, e_i − e_j (i < j, in that order) whose image under w⁻¹ has
    its first nonzero coordinate negative."""
    m = w.rank
    winv = inverse(w)
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            for s in (1, -1):
                alpha = tuple(Q(1) if k == i else Q(s) if k == j else Q(0) for k in range(m))
                if next(c for c in act(winv, alpha) if c != 0) < 0:
                    out.append(alpha)
    return tuple(out)


def test_validation_rejects_odd_flip_count():
    with pytest.raises(ValueError, match="even in number"):
        sp((0, 1), (1, -1))


def test_validation_rejects_non_bijection():
    with pytest.raises(ValueError, match="not a permutation of 0..1"):
        sp((0, 0), (1, 1))


def test_validation_rejects_bad_sign_value():
    with pytest.raises(ValueError, match="±1 vector"):
        sp((0, 1), (2, 2))
    with pytest.raises(ValueError, match="matching length"):
        sp((0, 1), (1, 1, 1, 1))


def test_signed_permutation_record_semantics():
    a, b, c = sp((1, 0), (-1, -1)), sp((1, 0), (-1, -1)), identity(2)
    assert a == b and hash(a) == hash(b) and a != c
    table = {a: "a", c: "c"}
    assert table[b] == "a" and len({a, b, c}) == 2
    assert repr(a) == "SignedPermutation(perm=(1, 0), signs=(-1, -1))"
    for name in ("perm", "signs", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, (0, 1))
    for name in ("perm", "signs"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and a.perm == (1, 0)


def test_signed_permutation_differs_from_other_classes_with_its_fields():
    class Twin(_Record):
        __slots__ = ("perm", "signs")

        def __init__(self, perm, signs):
            object.__setattr__(self, "perm", perm)
            object.__setattr__(self, "signs", signs)

    a, twin = sp((1, 0), (-1, -1)), Twin((1, 0), (-1, -1))
    assert twin._fields() == a._fields()
    assert a != twin and twin != a
    assert a != ((1, 0), (-1, -1))


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


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_length_matches_inversion_set_on_the_whole_group(m):
    for w in enumerate_group(m):
        oracle = dense_inversion_set(w)
        assert inversion_set(w) == oracle
        assert length(w) == len(oracle)


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
        key=documented_order,
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
    for m in range(2, 9):
        keys = [documented_order(w) for w in enumerate_coset_reps(m)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_one_line_window_m2():
    assert one_line_window(identity(2)) == (1, 2)
    assert one_line_window(sp((1, 0), (-1, -1))) == (-2, -1)


def test_lehmer_code_orders_permutations():
    # lexicographic order on permutations is the order of their Lehmer codes
    for m in range(1, 7):
        perms = sorted(itertools.permutations(range(m)))
        assert [lehmer_code(p) for p in perms] == list(range(factorial(m)))


def test_sign_bits_order_negated_signs():
    # lexicographic order on the negated signs is the order of the bitmask
    for m in range(1, 8):
        signs = sorted(itertools.product((1, -1), repeat=m), key=lambda t: tuple(-s for s in t))
        assert [sign_bits(t) for t in signs] == list(range(2**m))
