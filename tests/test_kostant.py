"""Lie algebra cohomology constituents via the shifted Weyl action."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieball.kostant as ks
import lieball.weyl as wl
from lieball.cli import main
from lieball.kostant import (
    LKTypeParam,
    _dominant_preimage,
    _negative_pairs,
    _shifted_weight,
    cohomology,
    euler_character,
    rho_c,
)
from lieball.repdata import KTypeParam, as_weight, is_dominant
from lieball.weyl import act, enumerate_coset_reps, inverse, length
from oracles import negative_pairs


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
    with pytest.raises(ValueError, match="at least two"):
        KTypeParam(0, ())
    with pytest.raises(ValueError, match="integers"):
        KTypeParam(0, (1.0, 0))
    with pytest.raises(ValueError, match="integers"):
        KTypeParam(Fraction(1, 2), (1, 0))


def test_ktype_param_allows_negative_last():
    KTypeParam(0, (2, -2))
    KTypeParam(0, (2, 2))


def test_lktype_param_validation():
    LKTypeParam(0, (3, 1, -2))
    with pytest.raises(ValueError, match="weakly decreasing"):
        LKTypeParam(0, (1, 2))
    with pytest.raises(ValueError, match="integers"):
        LKTypeParam(0, (1, 0.5))


@pytest.mark.parametrize("cls, fields", [
    (KTypeParam, ("mu0", "mu")),
    (LKTypeParam, ("charge", "hw")),
])
def test_param_record_semantics(cls, fields):
    a, b, c = cls(1, (1, 0)), cls(1, (1, 0)), cls(2, (1, 0))
    assert a == b and hash(a) == hash(b) and a != c
    table = {a: "a", c: "c"}
    assert table[b] == "a" and len({a, b, c}) == 2
    assert a != (1, (1, 0))
    assert repr(a) == f"{cls.__name__}({fields[0]}=1, {fields[1]}=(1, 0))"
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_param_classes_with_the_same_fields_are_unequal():
    assert KTypeParam(0, (1, 0)) != LKTypeParam(0, (1, 0))
    assert LKTypeParam(0, (1, 0)) != KTypeParam(0, (1, 0))


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


def walked_preimages(m, target):
    """The oracle for the straightening: μ = w⁻¹(target+ρ_c) − ρ_c over every
    coset representative w, kept when dominant, with the sign (−1)^len(w)."""
    rc = rho_c(m)
    shifted = tuple(a + b for a, b in zip(target, rc))
    out = []
    for winv, sign in signed_inverse_reps(m):
        mu = tuple(a - b for a, b in zip(act(winv, shifted), rc))
        if is_dominant(mu):
            out.append((mu, sign))
    return out


@functools.lru_cache(maxsize=None)
def signed_inverse_reps(m):
    """Each coset representative's inverse with the sign (−1)^len(w)."""
    return [(inverse(w), (-1) ** length(w)) for w in enumerate_coset_reps(m)]


def assert_straightening_walks(m, targets):
    """The straightening equals the walk on every target; returns the
    preimages found, so a caller can check which cases were reached."""
    found = []
    for target in targets:
        walked = walked_preimages(m, target)
        assert len(walked) <= 1
        assert _dominant_preimage(m, target) == (walked[0] if walked else None), target
        found += walked
    return found


@pytest.mark.parametrize("m,box", [(2, 4), (3, 4), (4, 4), (5, 3)])
def test_straightening_matches_walk_on_a_box(m, box):
    targets = itertools.product(range(-box, box + 1), repeat=m)
    signs = {sign for _, sign in assert_straightening_walks(m, targets)}
    assert signs == {1, -1}


@pytest.mark.parametrize("m", [6, 7, 8])
def test_straightening_matches_walk_on_random_targets(m):
    # a random target rarely has a preimage; its sorted copy, whose s is
    # strictly decreasing, reaches the sign and the last-entry flip
    rng = random.Random(m)
    targets = [tuple(rng.randint(-8, 8) for _ in range(m)) for _ in range(2000)]
    assert_straightening_walks(m, targets)
    found = assert_straightening_walks(m, [tuple(sorted(t, reverse=True)) for t in targets])
    assert {sign for _, sign in found} == {1, -1}
    assert any(mu[-1] < 0 for mu, _ in found)


@pytest.mark.parametrize(
    "s,expected",
    [
        # a zero in s with an odd number of negative entries: the flip lands on 0
        ((3, 0, -1), ((1, 0, 0), -1)),
        # odd number of negative entries and no zero: the last entry is
        # negated; two inverted roots
        ((2, 1, -3), ((1, 1, -1), 1)),
        # two negative entries: no flip, one inverted root
        ((3, -1, -2), ((1, 1, 1), -1)),
        # s not strictly decreasing
        ((1, 2, 0), None),
        ((1, 1, 0), None),
        # a repeated |s_i|
        ((2, 0, -2), None),
    ],
)
def test_straightening_explicit_cases(s, expected):
    target = tuple(a - b for a, b in zip(s, rho_c(3)))
    assert _dominant_preimage(3, target) == expected
    assert_straightening_walks(3, [target])


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=-40, max_value=40), max_size=30))
def test_negative_pairs_match_the_double_loop(entries):
    # the two-pointer count on strictly decreasing vectors, zeros and
    # repeated |s_i| included
    s = sorted(entries, reverse=True)
    assert _negative_pairs(s) == negative_pairs(s)


def test_cli_path_walks_no_group_element(monkeypatch):
    def refuse(*args):
        raise AssertionError("a group element walked")

    # kostant imports these from weyl only inside the functions that walk,
    # so patching weyl's names covers both modules
    names = ("enumerate_coset_reps", "act", "length", "inverse")
    assert [name for name in names if hasattr(ks, name)] == []
    for name in names:
        monkeypatch.setattr(wl, name, refuse)
    assert main(["ktypes", "--m", "8"]) == 0
    assert main(["verify", "--m", "6", "--max-l", "10"]) == 0
