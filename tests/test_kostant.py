"""Lie algebra cohomology constituents via the shifted Weyl action."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieball.kostant import (
    KTypeParam,
    LKTypeParam,
    _shifted_weight,
    cohomology,
    euler_character,
)
from lieball.root_data import as_weight, rho_c
from lieball.weyl import act, enumerate_coset_reps, length


def test_ktype_param_validation():
    KTypeParam(0, (2, 1))
    KTypeParam(3, (2, 1, -1))
    with pytest.raises(ValueError):
        KTypeParam(0, (1,))
    with pytest.raises(ValueError):
        KTypeParam(0, (1, 2))
    with pytest.raises(ValueError):
        KTypeParam(0, (1, 1, 2))
    with pytest.raises(ValueError):
        KTypeParam(0, (0, -1))  # last coordinate exceeds its predecessor in size


def test_ktype_param_allows_negative_last():
    KTypeParam(0, (2, -2))
    KTypeParam(0, (2, 2))


def test_lktype_param_validation():
    LKTypeParam(0, (3, 1, -2))
    with pytest.raises(ValueError):
        LKTypeParam(0, (1, 2))


def test_shifted_weight_matches_direct_formula():
    for m in (2, 3):
        for w in enumerate_coset_reps(m):
            for mu in [(1,) * m, tuple(range(m, 0, -1)), (2,) + (0,) * (m - 1)]:
                shifted = tuple(a + b for a, b in zip(as_weight(mu), rho_c(m), strict=True))
                moved = act(w, shifted)
                direct = tuple(a - b for a, b in zip(moved, rho_c(m), strict=True))
                assert _shifted_weight(m, mu, w) == tuple(int(c) for c in direct)


def test_cohomology_m2_degree_zero():
    out = cohomology(2, KTypeParam(0, (1, 1)), 0)
    assert out == [LKTypeParam(0, (1, 1))]


def test_cohomology_m2_degree_one():
    out = cohomology(2, KTypeParam(0, (1, 1)), 1)
    assert out == [LKTypeParam(0, (-2, -2))]


def test_cohomology_m2_vanishes_above_top_degree():
    assert cohomology(2, KTypeParam(0, (1, 1)), 2) == []
    assert cohomology(2, KTypeParam(0, (1, 1)), 5) == []


def test_cohomology_charge_passes_through():
    out = cohomology(2, KTypeParam(7, (3, 0)), 1)
    assert all(t.charge == 7 for t in out)


def test_euler_character_m2_symmetric_power():
    for l in range(5):
        terms = euler_character(2, KTypeParam(0, (l, 0)))
        assert terms == [
            (LKTypeParam(0, (l, 0)), 1),
            (LKTypeParam(0, (-1, -l - 1)), -1),
        ]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_euler_character_term_count(m):
    terms = euler_character(m, KTypeParam(0, tuple(range(m, 0, -1))))
    assert len(terms) == 2 ** (m - 1)
    signs = [s for _, s in terms]
    expected = [(-1) ** length(w) for w in enumerate_coset_reps(m)]
    assert signs == expected


@pytest.mark.parametrize("m", [2, 3])
def test_cohomology_collects_constituents_by_degree(m):
    pi = KTypeParam(0, tuple(range(m, 0, -1)))
    total = []
    top = m * (m - 1) // 2
    for j in range(top + 1):
        for t in cohomology(m, pi, j):
            total.append((t, (-1) ** j))
    assert total == euler_character(m, pi)


def dominant_mu(m):
    head = st.lists(st.integers(min_value=-4, max_value=4), min_size=m, max_size=m)
    return head.map(lambda xs: tuple(sorted(xs, reverse=True))).flatmap(
        lambda mu: st.sampled_from([1, -1]).map(lambda s: mu[:-1] + (s * mu[-1],))
    ).filter(lambda mu: mu[-2] >= abs(mu[-1]))


@settings(max_examples=120)
@given(st.integers(min_value=2, max_value=4).flatmap(lambda m: st.tuples(st.just(m), dominant_mu(m))))
def test_constituents_are_dominant_for_dominant_input(m_mu):
    m, mu = m_mu
    pi = KTypeParam(0, mu)
    for j in range(m * (m - 1) // 2 + 1):
        for t in cohomology(m, pi, j):
            assert all(a >= b for a, b in itertools.pairwise(t.hw))


@settings(max_examples=120)
@given(st.integers(min_value=2, max_value=4).flatmap(lambda m: st.tuples(st.just(m), dominant_mu(m))))
def test_shifted_weights_are_distinct(m_mu):
    # mu + rho_c is regular for dominant mu, so the orbit map is injective
    m, mu = m_mu
    seen = set()
    for w in enumerate_coset_reps(m):
        hw = _shifted_weight(m, mu, w)
        assert hw not in seen
        seen.add(hw)


def test_cohomology_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        cohomology(3, KTypeParam(0, (1, 1)), 0)


def test_cohomology_rejects_negative_degree():
    with pytest.raises(ValueError):
        cohomology(2, KTypeParam(0, (1, 1)), -1)


def test_shifted_weight_requires_integral_shift(monkeypatch):
    import lieball.kostant as ks

    monkeypatch.setattr(ks, "rho_c", lambda m: (Q(1, 2),) * m)
    with pytest.raises(ValueError):
        ks._shifted_weight(2, (1, 0), enumerate_coset_reps(2)[0])
