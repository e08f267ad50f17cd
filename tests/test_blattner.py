"""Branching multiplicities from the alternating coset sum."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieball.blattner import (
    _target_hw,
    dominant_mu_vectors,
    ktype_table,
    multiplicity,
    unique_scalar_match_check,
)
import lieball.blattner as bl
import lieball.kostant as ks
import lieball.weyl as wl
from lieball.ktype import KTypeParam, is_dominant, rho_c
from lieball.weyl import act, enumerate_coset_reps, inverse
from oracles import forward_multiplicity


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=-20, max_value=20),
       st.integers(min_value=0, max_value=20))
def test_target_is_the_symmetric_power_plus_the_bottom_character(m, lam, l):
    # S^l(u∩p) has highest weight l·e_1; the bottom character is det^λ
    # twisted by the top exterior power of the opposite of u∩k, whose roots
    # are −(e_i + e_j) for i < j
    sym = [l] + [0] * (m - 1)
    bottom = [lam] * m
    for i, j in combinations(range(m), 2):
        bottom[i] -= 1
        bottom[j] -= 1
    assert _target_hw(m, lam, l) == tuple(a + b for a, b in zip(sym, bottom, strict=True))


def test_mu_lambda():
    # with l = 0 the target is the bottom character's weight alone
    assert _target_hw(2, 1, 0) == (0, 0)
    assert _target_hw(3, 2, 0) == (0, 0, 0)
    assert _target_hw(4, 1, 0) == (-2, -2, -2, -2)


def test_s_u_cap_p_component():
    # the symmetric power's weight is what l adds on top of the bottom character
    def sym(m, lam, l):
        return tuple(a - b for a, b in zip(_target_hw(m, lam, l), _target_hw(m, lam, 0), strict=True))

    assert sym(3, 2, 0) == (0, 0, 0)
    assert sym(3, 2, 2) == (2, 0, 0)


def test_multiplicity_m2_examples():
    assert multiplicity(2, 1, KTypeParam(1, (0, 0))) == 1
    assert multiplicity(2, 1, KTypeParam(2, (1, 1))) == 0
    assert multiplicity(2, 1, KTypeParam(2, (1, 0))) == 1
    assert multiplicity(2, 1, KTypeParam(5, (4, 0))) == 1
    assert multiplicity(2, 1, KTypeParam(5, (3, 0))) == 0


def test_multiplicity_below_charge_threshold_is_zero():
    assert multiplicity(2, 1, KTypeParam(0, (0, 0))) == 0
    assert multiplicity(3, 2, KTypeParam(1, (0, 0, 0))) == 0


def test_multiplicity_m3_examples():
    assert multiplicity(3, 2, KTypeParam(2, (0, 0, 0))) == 1
    assert multiplicity(3, 2, KTypeParam(3, (1, 0, 0))) == 1
    assert multiplicity(3, 2, KTypeParam(3, (1, 1, 0))) == 0
    assert multiplicity(3, 2, KTypeParam(3, (1, 1, 1))) == 0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_table_matches_expected_shape(m):
    lam = m - 1
    max_l = 5
    table = ktype_table(m, lam, max_mu0=lam + max_l, max_mu1=max_l)
    expected = {
        KTypeParam(l + m - 1, (l,) + (0,) * (m - 1)): 1 for l in range(max_l + 1)
    }
    assert table.entries == expected


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_table_matches_forward_multiplicity(m):
    # oracle: the forward signed sum over every dominant mu in the window;
    # lambda < m/2 is the Euler-characteristic side
    max_l = 3
    for lam in range(-2, m + 2):
        table = ktype_table(m, lam, lam + max_l, max_l)
        forward = {}
        for mu0 in range(lam, lam + max_l + 1):
            for mu in dominant_mu_vectors(m, max_l):
                mult = forward_multiplicity(m, lam, KTypeParam(mu0, mu))
                if mult:
                    forward[KTypeParam(mu0, mu)] = mult
        assert table.entries == forward


@st.composite
def scalar_ktypes(draw):
    """(m, λ, π) with 2 ≤ m ≤ 6, −3 ≤ λ ≤ m + 2 and π dominant, of charge
    near λ.  Random weights seldom meet the target, so about half the draws
    take μ = w⁻¹(target + ρ_c) − ρ_c for a coset representative w, a weight
    that some term of the sum sends to the target, when one is dominant."""
    m = draw(st.integers(min_value=2, max_value=6))
    lam = draw(st.integers(min_value=-3, max_value=m + 2))
    l = draw(st.integers(min_value=-2, max_value=8))
    rc = rho_c(m)
    target = (l + lam - m + 1,) + (lam - m + 1,) * (m - 1)
    shifted = [a + b for a, b in zip(target, rc)]
    hits = [mu for w in enumerate_coset_reps(m)
            if is_dominant(mu := tuple(a - b for a, b in zip(act(inverse(w), shifted), rc)))]
    if l >= 0 and hits and draw(st.booleans()):
        return m, lam, KTypeParam(lam + l, draw(st.sampled_from(hits)))
    head = sorted(draw(st.lists(st.integers(0, 6), min_size=m - 1, max_size=m - 1)),
                  reverse=True)
    last = draw(st.integers(-head[-1], head[-1]))
    return m, lam, KTypeParam(lam + l, tuple(head) + (last,))


@settings(max_examples=300, deadline=None)
@given(scalar_ktypes())
def test_multiplicity_matches_the_forward_signed_sum(case):
    # lambda < m/2 is the Euler-characteristic side
    m, lam, pi = case
    assert multiplicity(m, lam, pi) == forward_multiplicity(m, lam, pi)


def test_multiplicity_walks_no_coset_representative(monkeypatch):
    grid = [(m, lam, KTypeParam(mu0, mu))
            for m in (2, 3, 4) for lam in range(-3, m + 3)
            for mu0 in range(lam - 1, lam + 4) for mu in dominant_mu_vectors(m, 3)]
    expected = [forward_multiplicity(*case) for case in grid]

    def refuse(*args):
        raise AssertionError("a coset representative walked")

    monkeypatch.setattr(wl, "enumerate_coset_reps", refuse)
    monkeypatch.setattr(wl, "length", refuse)
    monkeypatch.setattr(ks, "_shifted_weight", refuse)
    assert [multiplicity(*case) for case in grid] == expected
    assert any(expected)


def test_table_off_window_scan_is_empty():
    # widen mu0 past the window: no entries appear with mu1 beyond the bound
    table = ktype_table(2, 1, max_mu0=9, max_mu1=3)
    assert all(pi.mu0 - 1 == pi.mu[0] and pi.mu[1] == 0 for pi in table.entries)
    assert all(mult == 1 for mult in table.entries.values())


def test_dominant_mu_vectors_m2():
    vecs = dominant_mu_vectors(2, 1)
    assert vecs == sorted(vecs)
    assert set(vecs) == {(0, 0), (1, -1), (1, 0), (1, 1)}


@pytest.mark.parametrize("m,bound", [(2, 3), (3, 2)])
def test_dominant_mu_vectors_are_dominant(m, bound):
    vecs = dominant_mu_vectors(m, bound)
    assert len(vecs) == len(set(vecs))
    for mu in vecs:
        assert mu[0] <= bound
        assert all(a >= b for a, b in zip(mu, mu[1:]))
        assert mu[-2] >= abs(mu[-1])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_dominant_mu_vectors_are_the_dominant_weights_of_the_box(m):
    # every dominant weight in [-b, b]^m, where μ_1 ≤ b holds already, in
    # sorted order; b = -1 leaves the box empty
    for bound in range(-1, 5):
        box = product(range(-bound, bound + 1), repeat=m)
        dominant = [mu for mu in box
                    if all(a >= b for a, b in zip(mu, mu[1:-1])) and mu[-2] >= abs(mu[-1])]
        assert dominant_mu_vectors(m, bound) == dominant


@pytest.mark.parametrize("m", [2, 3])
def test_unique_scalar_match_small_grid(m):
    assert unique_scalar_match_check(m, 3)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_unique_scalar_match_refuses_a_second_match_in_the_grid(monkeypatch, m):
    # each target (l, 0, ..., 0) with g < l <= 2g straightens to a weight in
    # the grid: l itself lies outside it, but the check must still see them
    g = 3
    real = bl._dominant_preimage

    def stray(m, target):
        l = target[0]
        if g < l <= 2 * g and not any(target[1:]):
            return (l - g - 1,) + (0,) * (m - 1), 1
        return real(m, target)

    monkeypatch.setattr(bl, "_dominant_preimage", stray)
    assert not unique_scalar_match_check(m, g)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_multiplicity_m2_closed_form(l, mu1):
    # for m=2, lambda=1 only the pure symmetric powers survive
    pi = KTypeParam(l + 1, (mu1, 0))
    assert multiplicity(2, 1, pi) == (1 if mu1 == l else 0)
