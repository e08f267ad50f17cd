"""Scalar representation arithmetic: dimensions, ranges, degeneracy points."""

import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieball.repdata import (
    KTypeParam,
    borel_weil_bott_ktype,
    ehw_first_reduction_point,
    ehw_last_unitary_point,
    ehw_unitarizable,
    inf_char,
    is_regular_type_d,
    knapp_stein_residue_degree,
    orbit_equal,
    range_verdict,
    range_violation_counts,
    verma_hom_condition,
    verma_inf_char,
    weyl_dim_so2m,
)
from lieball.weyl import act, root_vector
from oracles import dense_roots, dot, enumerate_group, half_sum


def root_set_weyl_dim(m, mu):
    """Reference: the product of <mu + rho, alpha> / <rho, alpha> over every
    positive root alpha = e_i +- e_j (i < j) of so(2m), rho their half sum."""
    roots = [
        tuple((k == i) + s * (k == j) for k in range(m))
        for i in range(m)
        for j in range(i + 1, m)
        for s in (1, -1)
    ]
    rho = [Q(sum(column), 2) for column in zip(*roots)]
    shifted = [Q(c) + r for c, r in zip(mu, rho)]
    dim = Q(1)
    for alpha in roots:
        num = sum(a * x for a, x in zip(alpha, shifted) if a)
        dim *= num / sum(a * x for a, x in zip(alpha, rho) if a)
    return dim


def dominant_weights(m, top):
    """Every dominant integral weight of SO(2m) with mu_1 <= top."""
    for mu in itertools.combinations_with_replacement(range(top, -1, -1), m):
        yield mu
        if mu[-1]:
            yield mu[:-1] + (-mu[-1],)


class TestWeylDim:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_root_set_formula(self, m):
        weights = list(dominant_weights(m, 4))
        assert len(set(weights)) == len(weights)
        for mu in weights:
            assert weyl_dim_so2m(m, mu) == root_set_weyl_dim(m, mu)

    @pytest.mark.parametrize("m", [20, 40])
    def test_matches_root_set_formula_on_symmetric_powers(self, m):
        for l in (0, 1, 2, 5, 10):
            mu = (l,) + (0,) * (m - 1)
            assert weyl_dim_so2m(m, mu) == root_set_weyl_dim(m, mu)

    def test_symmetric_powers_rank_two(self):
        for l in range(6):
            assert weyl_dim_so2m(2, (l, 0)) == (l + 1) ** 2

    def test_standard_reps(self):
        assert weyl_dim_so2m(3, (1, 0, 0)) == 6
        assert weyl_dim_so2m(4, (1, 0, 0, 0)) == 8

    def test_selfdual_forms_rank_three(self):
        assert weyl_dim_so2m(3, (1, 1, 1)) == 10
        assert weyl_dim_so2m(3, (1, 1, -1)) == 10

    def test_half_spin(self):
        assert weyl_dim_so2m(3, (Q(1, 2), Q(1, 2), Q(1, 2))) == 4
        assert weyl_dim_so2m(3, (Q(1, 2), Q(1, 2), Q(-1, 2))) == 4

    def test_large_rank(self):
        for mu in ((4, 3, 3, 1) + (0,) * 76, (Q(3, 2),) * 79 + (Q(-1, 2),)):
            assert weyl_dim_so2m(80, mu) == root_set_weyl_dim(80, mu)
        # dim Pol^l - dim Pol^(l-2) in n = 2m variables
        m, n = 20000, 40000
        for l in (2, 5, 10):
            mu = (l,) + (0,) * (m - 1)
            assert weyl_dim_so2m(m, mu) == math.comb(n + l - 1, l) - math.comb(n + l - 3, l - 2)

    def test_rejects_weights_that_are_not_half_integral(self):
        # 2 * 3/4 is not an integer; truncated, it would read as the half-spin (1/2, 1/2)
        for mu in ((Q(1, 3), Q(1, 3)), (Q(3, 4), Q(3, 4))):
            with pytest.raises(ArithmeticError):
                weyl_dim_so2m(2, mu)

    def test_trivial(self):
        assert weyl_dim_so2m(2, (0, 0)) == 1
        assert weyl_dim_so2m(5, (0,) * 5) == 1

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            weyl_dim_so2m(2, (0, 1))
        with pytest.raises(ValueError):
            weyl_dim_so2m(3, (1, 0, -2))

    @settings(max_examples=80)
    @given(
        st.integers(min_value=2, max_value=4),
        st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4),
        st.sampled_from([1, -1]),
    )
    def test_positive_on_dominant_grid(self, m, raw, sign):
        mu = tuple(sorted(raw[:m], reverse=True))
        mu = mu[:-1] + (sign * mu[-1],)
        assert weyl_dim_so2m(m, mu) >= 1


class TestInfChar:
    def test_values(self):
        assert inf_char(2, 1) == (Q(1), Q(0), Q(-1))
        assert inf_char(3, 2) == (Q(2), Q(1), Q(0), Q(-1))
        assert inf_char(2, Q(1, 2)) == (Q(1, 2), Q(-1, 2), Q(-3, 2))

    def test_regularity(self):
        assert not is_regular_type_d(inf_char(2, 1))
        assert not is_regular_type_d(inf_char(3, 2))
        assert is_regular_type_d(inf_char(2, 0))
        # half-integer lambda: 2*lam = i + j is still reachable
        assert not is_regular_type_d(inf_char(2, Q(1, 2)))
        assert is_regular_type_d(inf_char(2, Q(5, 2)))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_scalar_family_singular_iff_small_integer(self, m):
        # entries lambda - i collide in absolute value iff 2*lambda = i + j
        # for some 0 <= i < j <= m, so integer lambda in 1..m-1 is singular
        for lam in range(0, 2 * m + 2):
            chi = inf_char(m, lam)
            expect_singular = 1 <= lam <= m - 1
            assert is_regular_type_d(chi) == (not expect_singular)


def walked_range_verdict(m, lam):
    """The oracle for `range_verdict`: walk every root α of u, densely, and
    keep those with ⟨λ·1 − ρ(u), α⟩ < 0 (weakly fair witnesses) and with
    ⟨λ·1 − ρ(u) + ρ_l, α⟩ ≤ 0 (good witnesses), the half sums taken over the
    dense roots."""
    n = m + 1
    u = dense_roots(n, (1,))
    wf_shift = tuple(lam - c for c in half_sum(u, n))
    good_shift = tuple(a + b for a, b in zip(wf_shift, half_sum(dense_roots(n, (-1,)), n)))
    wf_witnesses = []
    good_witnesses = []
    for alpha in u:
        root = tuple(int(c) for c in alpha)
        p = dot(wf_shift, alpha)
        if p < 0:
            wf_witnesses.append((root, p))
        p = dot(good_shift, alpha)
        if p <= 0:
            good_witnesses.append((root, p))
    return not wf_witnesses, not good_witnesses, wf_witnesses, good_witnesses


def dense(m, witnesses):
    """Witnesses with each root triple written out as its vector."""
    return [(root_vector(m + 1, root), p) for root, p in witnesses]


class TestRanges:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_closed_forms_match_the_walk(self, m):
        for lam in range(-m - 3, 2 * m + 4):
            v = range_verdict(m, lam)
            fair, good, wf_witnesses, good_witnesses = walked_range_verdict(m, lam)
            assert (v.m, v.lam, v.weakly_fair, v.good) == (m, lam, fair, good)
            # tuples compare entrywise, so this checks root order and pairings
            assert dense(m, v.weakly_fair_witnesses) == wf_witnesses, lam
            assert dense(m, v.good_witnesses) == good_witnesses, lam

    @pytest.mark.parametrize("m", range(2, 31))
    def test_violation_counts_match_the_witnesses(self, m):
        # the CSV's counts, built without a witness, against the witnesses
        for lam in range(-3, m + 3):
            v = range_verdict(m, lam)
            expected = (len(v.weakly_fair_witnesses), len(v.good_witnesses))
            assert range_violation_counts(m, lam) == expected, lam

    def test_weakly_fair_threshold(self):
        for m in (2, 3, 4, 5, 6):
            for lam in range(-1, m + 3):
                verdict = range_verdict(m, lam)
                assert verdict.weakly_fair == (2 * lam - m >= 0)

    def test_good_threshold(self):
        for m in (2, 3, 4):
            for lam in range(-1, m + 3):
                verdict = range_verdict(m, lam)
                assert verdict.good == (lam >= m)

    def test_witnesses_only_when_failing(self):
        good = range_verdict(2, 2)
        assert good.weakly_fair and good.good
        assert good.weakly_fair_witnesses == ()
        assert good.good_witnesses == ()

    def test_witness_pairings_violate(self):
        v = range_verdict(2, 1)
        assert v.weakly_fair and not v.good
        assert v.good_witnesses
        for _, pairing in v.good_witnesses:
            assert pairing <= 0
        # the boundary case noted for lambda = m - 1: a pairing of -1 occurs
        assert any(p == Q(-1) for _, p in v.good_witnesses)

    def test_weakly_fair_witness_pairings(self):
        v = range_verdict(3, 1)
        assert not v.weakly_fair
        for _, pairing in v.weakly_fair_witnesses:
            assert pairing < 0


class TestVerma:
    def test_degree_examples(self):
        assert verma_hom_condition(2, 2, 2) == 0
        assert verma_hom_condition(2, 1, 3) == 1
        assert verma_hom_condition(2, 0, 4) == 2
        assert verma_hom_condition(3, 1, 5) == 2

    def test_rejects_mismatched_sums(self):
        assert verma_hom_condition(2, 1, 2) is None
        assert verma_hom_condition(2, 1, 4) is None

    def test_rejects_negative_degree(self):
        assert verma_hom_condition(2, 3, 1) is None

    def test_rejects_non_integral_degree(self):
        assert verma_hom_condition(2, Q(1, 2), Q(7, 2)) is None

    def test_inf_char_shift(self):
        assert verma_inf_char(2, 1) == (Q(1), Q(1), Q(0))
        assert verma_inf_char(2, 3) == (Q(-1), Q(1), Q(0))
        assert verma_inf_char(3, 0) == (Q(3), Q(2), Q(1), Q(0))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_paired_parameters_share_orbit(self, m):
        for l in range(6):
            a = verma_inf_char(m, m - l)
            b = verma_inf_char(m, m + l)
            assert orbit_equal(a, b)

    def test_unpaired_parameters_do_not_share_orbit(self):
        # parameters off the lambda + nu = 2m locus give different multisets
        assert not orbit_equal(verma_inf_char(2, 0), verma_inf_char(2, 3))
        assert not orbit_equal(verma_inf_char(2, Q(1, 2)), verma_inf_char(2, Q(9, 2)))


class TestOrbitEqual:
    def test_examples(self):
        assert orbit_equal((Q(1), Q(2)), (Q(2), Q(1)))
        assert orbit_equal((Q(1), Q(2)), (Q(-1), Q(-2)))
        assert not orbit_equal((Q(1), Q(2)), (Q(-1), Q(2)))
        assert orbit_equal((Q(0), Q(2)), (Q(0), Q(-2)))
        assert not orbit_equal((Q(1), Q(2)), (Q(1), Q(3)))

    @pytest.mark.parametrize("rank", [2, 3])
    def test_against_brute_force(self, rank):
        # exhaustive comparison with explicit orbit membership on a small grid
        grid = list(itertools.product(range(-2, 3), repeat=rank))
        elems = list(enumerate_group(rank))
        for v1 in grid:
            w1 = tuple(Q(c) for c in v1)
            orbit = {act(w, w1) for w in elems}
            for v2 in grid:
                w2 = tuple(Q(c) for c in v2)
                assert orbit_equal(w1, w2) == (w2 in orbit)


class TestDegeneratePoints:
    def test_residue_degrees(self):
        assert knapp_stein_residue_degree(4, 1) == 1
        assert knapp_stein_residue_degree(4, 2) == 0
        assert knapp_stein_residue_degree(6, 2) == 1
        assert knapp_stein_residue_degree(8, 3) == 1

    def test_residue_degree_none_cases(self):
        assert knapp_stein_residue_degree(4, 3) is None
        assert knapp_stein_residue_degree(6, Q(1, 2)) is None

    def test_residue_degree_requires_even_rank(self):
        with pytest.raises(ValueError):
            knapp_stein_residue_degree(5, 1)
        with pytest.raises(ValueError):
            knapp_stein_residue_degree(2, 1)

    def test_ehw_points(self):
        assert ehw_first_reduction_point(4) == Q(2)
        assert ehw_last_unitary_point(4) == Q(3)
        assert ehw_first_reduction_point(6) == Q(3)
        assert ehw_last_unitary_point(6) == Q(5)

    def test_ehw_window(self):
        n = 4
        assert ehw_unitarizable(n, Q(-1))
        assert ehw_unitarizable(n, Q(0))
        assert not ehw_unitarizable(n, Q(1))
        assert ehw_unitarizable(n, Q(2))
        assert not ehw_unitarizable(n, Q(5, 2))
        assert ehw_unitarizable(n, Q(3))
        assert not ehw_unitarizable(n, Q(7, 2))

    def test_ehw_rejects_small_rank(self):
        with pytest.raises(ValueError):
            ehw_unitarizable(3, Q(0))

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_ehw_discrete_points_are_the_only_positive_ones(self, n):
        a = ehw_first_reduction_point(n)
        b = ehw_last_unitary_point(n)
        for num in range(1, 4 * n):
            z = Q(num, 2)
            assert ehw_unitarizable(n, z) == (z == a or z == b)


class TestBorelWeilBott:
    def test_values(self):
        assert borel_weil_bott_ktype(2, 1) == KTypeParam(1, (0, 0))
        assert borel_weil_bott_ktype(3, 2) == KTypeParam(2, (0, 0, 0))
        assert borel_weil_bott_ktype(2, 5) == KTypeParam(5, (4, 4))

    def test_below_threshold_vanishes(self):
        assert borel_weil_bott_ktype(3, 1) is None
        assert borel_weil_bott_ktype(4, 0) is None

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_threshold_case_is_trivial_weight(self, m):
        pi = borel_weil_bott_ktype(m, m - 1)
        assert pi == KTypeParam(m - 1, (0,) * m)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
def test_integer_parameters_stay_ints_with_the_fraction_results(m, lam, nu):
    # an int is exact already, so it is not wrapped in a Fraction
    chi = inf_char(m, lam)
    assert chi == inf_char(m, Q(lam))
    assert all(type(c) is int for c in chi)
    assert verma_inf_char(m, lam) == verma_inf_char(m, Q(lam))
    assert verma_hom_condition(m, lam, nu) == verma_hom_condition(m, Q(lam), Q(nu))
    assert orbit_equal(verma_inf_char(m, lam), verma_inf_char(m, nu)) \
        == orbit_equal(verma_inf_char(m, Q(lam)), verma_inf_char(m, Q(nu)))
    assert orbit_equal(chi, inf_char(m, nu)) == orbit_equal(inf_char(m, Q(lam)), inf_char(m, Q(nu)))
    n = 2 * m  # even and at least 4
    assert knapp_stein_residue_degree(n, lam) == knapp_stein_residue_degree(n, Q(lam))
    assert ehw_unitarizable(n, lam) == ehw_unitarizable(n, Q(lam))
    assert ehw_unitarizable(n + 1, nu) == ehw_unitarizable(n + 1, Q(nu))


@pytest.mark.parametrize("value", [
    lambda: True,
    lambda: 3.0,
    lambda: 2.5,
    lambda: pytest.importorskip("numpy").int64(3),
], ids=["bool", "float", "half", "numpy"])
def test_other_parameters_become_fractions(value):
    lam = value()
    chi = inf_char(4, lam)
    assert all(type(c) is Q for c in chi)
    assert chi == inf_char(4, Q(lam))
