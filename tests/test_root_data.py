"""Root sets, half sums, and weight helpers."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieball.root_data import (
    add,
    as_weight,
    build_root_sets,
    dot,
    half_sum,
    rho_c,
    rho_g,
    rho_l,
    rho_u,
    sub,
)


def test_as_weight_accepts_half_integers():
    w = as_weight((1, Q(1, 2), Q(-3, 2)))
    assert w == (Q(1), Q(1, 2), Q(-3, 2))


def test_as_weight_rejects_other_denominators():
    with pytest.raises(ValueError):
        as_weight((Q(1, 3),))


def test_vector_helpers():
    a = as_weight((1, 2))
    b = as_weight((Q(1, 2), -1))
    assert add(a, b) == (Q(3, 2), Q(1))
    assert sub(a, b) == (Q(1, 2), Q(3))
    assert dot(a, b) == Q(1, 2) - 2


# counts for m=2: |u| = 3, |k| = 2.
ROOT_COUNTS = {
    "u": lambda m: m * (m - 1) // 2 + m,
    "k": lambda m: m * (m - 1),
}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_root_set_cardinalities(m):
    data = build_root_sets(m)
    assert len(data.u) == ROOT_COUNTS["u"](m)
    assert len(data.k_pos) == ROOT_COUNTS["k"](m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_root_set_decompositions(m):
    data = build_root_sets(m)
    # u splits into the e_0 + e_j and a copy of the e_i + e_j among k_pos
    with_e0 = {r for r in data.u if r[0] != 0}
    assert len(with_e0) == m
    assert {r[1:] for r in set(data.u) - with_e0} == {r for r in data.k_pos if -1 not in r}


@pytest.mark.parametrize(
    "m,expected",
    [
        (2, (Q(1), Q(1), Q(1))),
        (3, (Q(3, 2), Q(3, 2), Q(3, 2), Q(3, 2))),
    ],
)
def test_rho_u(m, expected):
    assert rho_u(m) == expected


@pytest.mark.parametrize("m,expected", [(2, (Q(1), Q(0))), (4, (Q(3), Q(2), Q(1), Q(0)))])
def test_rho_c(m, expected):
    assert rho_c(m) == expected


def test_rho_l_and_rho_g():
    assert rho_l(2) == (Q(1), Q(0), Q(-1))
    assert rho_g(2) == (Q(2), Q(1), Q(0))
    assert rho_g(3) == (Q(3), Q(2), Q(1), Q(0))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rho_functions_are_half_sums(m):
    data = build_root_sets(m)
    assert rho_u(m) == half_sum(data.u)
    assert rho_c(m) == half_sum(data.k_pos)


@given(
    st.lists(st.fractions(max_denominator=2), min_size=1, max_size=6),
    st.lists(st.fractions(max_denominator=2), min_size=1, max_size=6),
)
def test_add_sub_roundtrip(xs, ys):
    n = min(len(xs), len(ys))
    a = as_weight(tuple(xs[:n]))
    b = as_weight(tuple(ys[:n]))
    assert sub(add(a, b), b) == a
    assert add(sub(a, b), b) == a


@given(st.lists(st.fractions(max_denominator=2), min_size=1, max_size=6))
def test_dot_neg(xs):
    a = as_weight(tuple(xs))
    assert dot(a, tuple(-x for x in a)) == -dot(a, a)
