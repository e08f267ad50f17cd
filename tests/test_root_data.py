"""Root triples and half sums, against the roots built as dense vectors."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieball.root_data import (
    as_weight,
    pairing,
    rho_c,
    rho_g,
    rho_l,
    rho_u,
    root_vector,
    u_roots,
)


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


def k_pos(m):
    """The positive compact roots e_i ± e_j (i < j) of SO(2m) as triples."""
    return [(i, j, s) for i in range(m) for j in range(i + 1, m) for s in (1, -1)]


def test_as_weight_accepts_half_integers():
    w = as_weight((1, Q(1, 2), Q(-3, 2)))
    assert w == (Q(1), Q(1, 2), Q(-3, 2))


def test_as_weight_rejects_other_denominators():
    with pytest.raises(ValueError):
        as_weight((Q(1, 3),))


# counts for m=2: |u| = 3, |k| = 2.
ROOT_COUNTS = {
    "u": lambda m: m * (m - 1) // 2 + m,
    "k": lambda m: m * (m - 1),
}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_root_set_cardinalities(m):
    assert len(u_roots(m)) == len(set(u_roots(m))) == ROOT_COUNTS["u"](m)
    assert len(k_pos(m)) == ROOT_COUNTS["k"](m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_root_set_decompositions(m):
    u = set(u_roots(m))
    # u splits into the e_0 + e_j and a copy of the e_i + e_j among k_pos
    with_e0 = {(i, j, s) for i, j, s in u if i == 0}
    assert len(with_e0) == m
    assert {(i - 1, j - 1, s) for i, j, s in u - with_e0} == {r for r in k_pos(m) if r[2] == 1}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_u_roots_are_the_dense_roots(m):
    assert [root_vector(m + 1, a) for a in u_roots(m)] == dense_roots(m + 1, (1,))


def test_u_roots_need_rank_two():
    with pytest.raises(ValueError):
        u_roots(1)


@given(st.lists(st.fractions(max_denominator=2), min_size=2, max_size=6))
def test_pairing_is_the_dense_inner_product(xs):
    a = as_weight(xs)
    rank = len(a)
    triples = [(i, j, s) for i in range(rank) for j in range(i + 1, rank) for s in (1, -1)]
    for alpha, dense in zip(triples, dense_roots(rank, (1, -1)), strict=True):
        assert root_vector(rank, alpha) == dense
        assert pairing(a, alpha) == sum((x * y for x, y in zip(a, dense)), Q(0))


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


@pytest.mark.parametrize("m", range(2, 9))
def test_rho_functions_are_half_sums(m):
    n = m + 1
    assert rho_u(m) == half_sum(dense_roots(n, (1,)), n)
    assert rho_c(m) == half_sum(dense_roots(m, (1, -1)), m)
    assert rho_l(m) == half_sum(dense_roots(n, (-1,)), n)
    assert rho_g(m) == half_sum(dense_roots(n, (1, -1)), n)
