"""Acceptance gate: every criterion exact, zero numerical tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s, or
in the captured output of a failing run) and then asserts.
"""

import itertools
import os
import random
import tempfile
import time
from fractions import Fraction as Q

from lieball.blattner import ktype_table, unique_scalar_match_check
from lieball.cli import main
from lieball.harmonic import (
    harmonic_dimension,
    harmonic_dimension_formula,
    laplacian,
    random_homogeneous,
    rotation_generator,
    so_invariance_check,
)
from lieball.repdata import (
    KTypeParam,
    borel_weil_bott_ktype,
    ehw_first_reduction_point,
    ehw_last_unitary_point,
    ehw_unitarizable,
    knapp_stein_residue_degree,
    orbit_equal,
    range_verdict,
    verma_hom_condition,
    verma_inf_char,
    weyl_dim_so2m,
)
from lieball.weyl import act
from oracles import enumerate_group, is_coset_rep, laplacian_power


def _line(n: int, desc: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}")
    return ok


def test_criterion_1_ktype_tables():
    t0 = time.monotonic()
    ok = True
    for m in (2, 3, 4, 5):
        lam = m - 1
        table = ktype_table(m, lam, max_mu0=m + 7, max_mu1=8)
        expected = {
            KTypeParam(l + m - 1, (l,) + (0,) * (m - 1)): 1 for l in range(9)
        }
        ok = ok and table.entries == expected
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    assert _line(
        1,
        f"K-type tables for m=2..5, lambda=m-1, window mu0<=m+7, mu1<=8, "
        f"exact match in {elapsed:.2f}s (limit 60s)",
        ok,
    )


def test_criterion_2_harmonic_triple_equality():
    t0 = time.monotonic()
    ok = True
    for m in (2, 3, 4):
        for l in range(7):
            kernel = harmonic_dimension(2 * m, l)
            closed = harmonic_dimension_formula(2 * m, l)
            rep = weyl_dim_so2m(m, (l,) + (0,) * (m - 1))
            ok = ok and kernel == closed == rep
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    assert _line(
        2,
        f"kernel = closed form = Weyl dimension for m=2,3,4 and l<=6 "
        f"in {elapsed:.2f}s (limit 120s)",
        ok,
    )


def test_criterion_3_verify_subcommand():
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for m in (2, 3, 4):
            out = os.path.join(tmp, f"verify_{m}.txt")
            code = main(["verify", "--m", str(m), "--max-l", "6", "--out", out])
            ok = ok and code == 0
            with open(out, encoding="utf-8") as fh:
                ok = ok and "result: PASS (6/6)" in fh.read()
    assert _line(3, "lieball verify exits 0 for m=2,3,4 with max_l=6", ok)


def test_criterion_4_unique_scalar_match():
    ok = all(unique_scalar_match_check(m, 4) for m in (2, 3))
    assert _line(
        4,
        "only the identity coset and the pure symmetric power hit the "
        "scalar target (exhaustive, bound 4, m=2,3)",
        ok,
    )


def test_criterion_5_coset_count():
    ok = True
    for m in (2, 3, 4, 5):
        count = sum(1 for w in enumerate_group(m) if is_coset_rep(w))
        ok = ok and count == 2 ** (m - 1)
    assert _line(
        5, "full group enumeration yields 2^(m-1) coset representatives, m<=5", ok
    )


def test_criterion_6_ranges():
    ok = True
    for m in (2, 3, 4, 5, 6):
        for lam in range(-1, m + 3):
            verdict = range_verdict(m, lam)
            ok = ok and verdict.weakly_fair == (2 * lam - m >= 0)
            ok = ok and verdict.good == (lam >= m)
        boundary = range_verdict(m, m - 1)
        ok = ok and boundary.weakly_fair and not boundary.good
    assert _line(
        6,
        "weakly fair iff 2*lambda >= m and good iff lambda >= m for m=2..6; "
        "lambda=m-1 sits in the gap",
        ok,
    )


def test_criterion_7_verma_pairs_and_orbits():
    ok = True
    for m in (2, 3, 4, 5):
        for l in range(6):
            ok = ok and verma_hom_condition(m, m - l, m + l) == l
            ok = ok and verma_hom_condition(m, m - l, m + l + 1) is None
            ok = ok and orbit_equal(
                verma_inf_char(m, m - l), verma_inf_char(m, m + l)
            )
    for rank in (2, 3):
        grid = list(itertools.product(range(-2, 3), repeat=rank))
        elems = list(enumerate_group(rank))
        for v1 in grid:
            w1 = tuple(Q(c) for c in v1)
            orbit = {act(w, w1) for w in elems}
            for v2 in grid:
                w2 = tuple(Q(c) for c in v2)
                ok = ok and orbit_equal(w1, w2) == (w2 in orbit)
    assert _line(
        7,
        "Verma pairs (m-l, m+l) accepted with orbit-equal characters for "
        "m<=5, l<=5; orbit test matches brute force in rank 2 and 3",
        ok,
    )


def test_criterion_8_equivariance():
    trials = 70
    ok = all(so_invariance_check(n, trials, seed=n) for n in (4, 6, 8))
    count = 3 * trials
    annihilated = 0
    for n in (4, 6, 8):
        for degree in range(1, 7):
            for seed in (0, 1):
                f = random_homogeneous(n, degree, random.Random(1000 * n + 10 * degree + seed))
                if laplacian_power(f, degree // 2 + 1).is_zero():
                    annihilated += 1
    ok = ok and annihilated == 3 * 6 * 2
    # spot check on a fixed polynomial for the record
    f = random_homogeneous(6, 3, random.Random(42))
    g = rotation_generator(f, 0, 5)
    ok = ok and laplacian(g) == rotation_generator(laplacian(f), 0, 5)
    assert _line(
        8,
        f"Laplacian commutes with all rotation generators on {count} seeded "
        f"polynomials (n=4,6,8) and iterated Laplacians annihilate as forced "
        f"by degree",
        ok,
    )


def test_criterion_9_degenerate_point_values():
    ok = True
    for m in (2, 3, 4, 5):
        n = 2 * m
        ok = ok and knapp_stein_residue_degree(n, m - 1) == 1
        ok = ok and ehw_first_reduction_point(n) == Q(m)
        ok = ok and ehw_last_unitary_point(n) == Q(2 * m - 1)
        ok = ok and ehw_unitarizable(n, Q(0))
        ok = ok and ehw_unitarizable(n, Q(m))
        ok = ok and ehw_unitarizable(n, Q(2 * m - 1))
        ok = ok and not ehw_unitarizable(n, Q(2 * m - 1) + Q(1, 2))
        ok = ok and not ehw_unitarizable(n, Q(1, 2))
        ok = ok and borel_weil_bott_ktype(m, m - 1) == KTypeParam(m - 1, (0,) * m)
    assert _line(
        9,
        "at n=2m, lambda=m-1 the residual operator is the single Laplacian "
        "power and the unitarizability window has A=m, B=2m-1",
        ok,
    )
