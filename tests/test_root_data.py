"""Root triples and half sums, against the roots built as dense vectors.

The other modules keep only closed forms: `weyl.root_vector` writes a root
triple out, `kostant.rho_c` is (m−1, ..., 0), `repdata.verma_inf_char(m, 0)`
is ρ_g, and `repdata.range_verdict` reads its pairings with ρ(u) and ρ_l off
i and j.  Each is checked here against the dense roots and their half sums.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieball.kostant import rho_c
from lieball.repdata import as_weight, range_verdict, verma_inf_char
from lieball.weyl import root_vector
from oracles import dense_roots, dot, half_sum


def k_pos(m):
    """The positive compact roots e_i ± e_j (i < j) of SO(2m) as triples."""
    return [(i, j, s) for i in range(m) for j in range(i + 1, m) for s in (1, -1)]


def u_roots(m):
    """The roots of u as int vectors, read off `range_verdict` far below the
    weakly fair range, where every root witnesses its failure."""
    return [root_vector(m + 1, root) for root, _ in range_verdict(m, -m).weakly_fair_witnesses]


def u_half_sum_pairings(m):
    """(α, ⟨ρ(u), α⟩, ⟨ρ_l, α⟩) for each root α of u, read off `range_verdict`
    at λ = 0: there every root witnesses both ranges, with the shifts −ρ(u)
    and −ρ(u) + ρ_l."""
    v = range_verdict(m, 0)
    assert [r for r, _ in v.weakly_fair_witnesses] == [r for r, _ in v.good_witnesses]
    return [
        (root_vector(m + 1, root), -p, q - p)
        for (root, p), (_, q) in zip(v.weakly_fair_witnesses, v.good_witnesses, strict=True)
    ]


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
    with_e0 = {r for r in u if r[0] == 1}
    assert len(with_e0) == m
    assert {r[1:] for r in u - with_e0} == {root_vector(m, r) for r in k_pos(m) if r[2] == 1}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_u_roots_are_the_dense_roots(m):
    assert u_roots(m) == dense_roots(m + 1, (1,))


def test_u_roots_need_rank_two():
    with pytest.raises(ValueError):
        range_verdict(1, -1)


@given(st.integers(2, 6), st.integers(-10, 15))
def test_pairing_is_the_dense_inner_product(m, lam):
    triples = [(i, j, s) for i in range(m) for j in range(i + 1, m) for s in (1, -1)]
    for alpha, dense in zip(triples, dense_roots(m, (1, -1)), strict=True):
        assert root_vector(m, alpha) == dense
    n = m + 1
    wf_shift = tuple(lam - c for c in half_sum(dense_roots(n, (1,)), n))
    good_shift = tuple(a + b for a, b in zip(wf_shift, half_sum(dense_roots(n, (-1,)), n)))
    v = range_verdict(m, lam)
    for root, p in v.weakly_fair_witnesses:
        assert p == dot(wf_shift, root_vector(n, root))
    for root, p in v.good_witnesses:
        assert p == dot(good_shift, root_vector(n, root))


@pytest.mark.parametrize(
    "m,expected",
    [
        (2, (Q(1), Q(1), Q(1))),
        (3, (Q(3, 2), Q(3, 2), Q(3, 2), Q(3, 2))),
    ],
)
def test_rho_u(m, expected):
    for root, rho_u_pairing, _ in u_half_sum_pairings(m):
        assert rho_u_pairing == dot(expected, root)


@pytest.mark.parametrize("m,expected", [(2, (1, 0)), (4, (3, 2, 1, 0))])
def test_rho_c(m, expected):
    assert rho_c(m) == expected


def test_rho_l_and_rho_g():
    rho_l = (Q(1), Q(0), Q(-1))
    assert [p for _, _, p in u_half_sum_pairings(2)] == [dot(rho_l, r) for r in u_roots(2)]
    assert verma_inf_char(2, 0) == (Q(2), Q(1), Q(0))
    assert verma_inf_char(3, 0) == (Q(3), Q(2), Q(1), Q(0))


@pytest.mark.parametrize("m", range(2, 9))
def test_rho_functions_are_half_sums(m):
    n = m + 1
    rho_u = half_sum(dense_roots(n, (1,)), n)
    rho_l = half_sum(dense_roots(n, (-1,)), n)
    pairings = u_half_sum_pairings(m)
    assert [r for r, _, _ in pairings] == dense_roots(n, (1,))
    for root, rho_u_pairing, rho_l_pairing in pairings:
        assert rho_u_pairing == dot(rho_u, root)
        assert rho_l_pairing == dot(rho_l, root)
    assert rho_c(m) == half_sum(dense_roots(m, (1, -1)), m)
    assert verma_inf_char(m, 0) == half_sum(dense_roots(n, (1, -1)), n)
