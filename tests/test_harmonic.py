"""Polynomial Laplacian kernels and their certification against Weyl dimensions."""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lieball.harmonic as hm
import lieball.polynomial as poly
from lieball.cli import main
from lieball.harmonic import (
    CertificationError,
    harmonic_dimension,
    harmonic_dimension_formula,
    polynomial_space_dimension,
    so_invariance_check,
    sol_ktype_table,
)
from lieball.polynomial import SparsePolynomial, laplacian, random_homogeneous, rotation_generator
from lieball.ktype import KTypeParam
from oracles import (
    Polynomial,
    all_pairs_invariance_check,
    block_columns,
    compositions,
    dense_column_rows,
    dense_shape_kernel_dimension,
    exact_kernel,
    laplacian_columns,
    laplacian_power,
    monomial_exponents,
    multiset_shape_kernel_dimension,
    order_type_shape_kernel_dimension,
    partial,
    weight_blocks,
)


def clear_caches():
    hm._shape_kernel_dimension.cache_clear()


def var(n, i):
    return Polynomial.variable(n, i)


def radial_square(n):
    """The quadric Σ z_i²."""
    return sum((var(n, i) * var(n, i) for i in range(n)), Polynomial(n))


class TestSparsePolynomial:
    def test_zero_and_constant(self):
        z = SparsePolynomial(3)
        assert z.is_zero()
        assert not z.terms
        c = Polynomial(3, {(0, 0, 0): Q(5, 2)})
        assert {sum(e) for e in c.terms} == {0}
        assert (c + z) == c

    def test_drop_zero_terms(self):
        p = SparsePolynomial(2, {(1, 0): 0, (0, 1): 3})
        assert p == 3 * var(2, 1)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(-1, 0): 1})
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(True, 1): 1})

    @pytest.mark.parametrize("coefficient", [0.1, "1/3", Decimal("1"), 1j, True])
    def test_rejects_coefficients_that_are_not_rational(self, coefficient):
        # 0.1 would otherwise become a Fraction with denominator 2^55
        with pytest.raises(ValueError, match="neither an int nor a Fraction"):
            SparsePolynomial(2, {(1, 0): coefficient})

    def test_keeps_coefficients_as_given(self):
        p = SparsePolynomial(2, {(1, 0): Q(5, 2), (0, 1): 3})
        assert [(c, type(c)) for c in p.terms.values()] == [(Q(5, 2), Q), (3, int)]

    def test_stores_fixed_width_integers_as_ints(self):
        # a numpy int64 is a numbers.Integral; kept as given, 2^62 * 40 * 39
        # would wrap around to 0 and the Laplacian would come out zero
        np = pytest.importorskip("numpy")
        p = SparsePolynomial(1, {(40,): np.int64(2**62)})
        assert type(p.terms[(40,)]) is int
        assert laplacian(p).terms == {(38,): 2**62 * 40 * 39}

    def test_arithmetic(self):
        x, y = var(2, 0), var(2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert -(x - y) == y - x
        assert (x - x).is_zero()

    def test_scalar_multiplication(self):
        x = var(2, 0)
        assert Q(1, 2) * x == x * Q(1, 2)
        assert (2 * x - x) == x

    def test_partial(self):
        x, y = var(2, 0), var(2, 1)
        p = x * x * y
        assert partial(p, 0) == 2 * (x * y)
        assert partial(p, 1) == x * x
        assert partial(partial(p, 0), 1) == 2 * x

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(var(2, 0))

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ValueError):
            var(2, 0) + var(3, 0)

    def test_repr_mentions_terms(self):
        p = 2 * var(2, 0) - var(2, 1)
        s = repr(p)
        assert "z1" in s and "z2" in s


def test_monomial_exponents_count_and_order():
    for n, d in [(1, 3), (2, 3), (3, 2), (4, 4), (5, 0)]:
        exps = monomial_exponents(n, d)
        assert len(exps) == comb(n + d - 1, d)
        assert all(sum(e) == d for e in exps)
        assert list(exps) == sorted(exps, reverse=True)
        assert polynomial_space_dimension(n, d) == len(exps)
    assert monomial_exponents(3, -1) == ()


def test_many_variables_do_not_recurse():
    assert len(monomial_exponents(1200, 1)) == 1200
    assert harmonic_dimension(1200, 1) == 1200


def test_laplacian_on_r4():
    r2 = radial_square(4)
    assert laplacian(r2 * r2) == 24 * r2
    assert laplacian_power(r2 * r2, 2) == SparsePolynomial(4, {(0, 0, 0, 0): 192})


def test_laplacian_on_quadratics():
    x, y = var(2, 0), var(2, 1)
    assert laplacian(x * x) == SparsePolynomial(2, {(0, 0): 2})
    assert laplacian(x * y).is_zero()
    assert laplacian(x * x - y * y).is_zero()


def test_laplacian_drops_cancelled_terms():
    # ∂²/∂z_1² and ∂²/∂z_2² both land on the constant, with opposite signs
    f = SparsePolynomial(2, {(2, 0): 1, (0, 2): -1})
    assert laplacian(f).is_zero()
    # z_1 ∂_1 − z_1 ∂_1 cancels term by term
    assert rotation_generator(f, 0, 0).is_zero()


def test_laplacian_power_degree_drop():
    r2 = radial_square(4)
    f = r2 * r2 * r2
    assert laplacian_power(f, 0) == f
    assert {sum(e) for e in laplacian_power(f, 3).terms} == {0}
    assert laplacian_power(f, 4).is_zero()


@pytest.mark.parametrize(
    "n,l,expected",
    [(4, 0, 1), (4, 1, 4), (4, 2, 9), (4, 3, 16), (6, 3, 50), (8, 2, 35)],
)
def test_harmonic_dimension_values(n, l, expected):
    assert harmonic_dimension(n, l) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_harmonic_dimension_matches_formula(n):
    for l in range(6):
        expected = harmonic_dimension_formula(n, l)
        assert len(exact_kernel(laplacian_columns(n, l))) == expected
        if n % 2:
            with pytest.raises(ValueError):
                harmonic_dimension(n, l)
        else:
            assert harmonic_dimension(n, l) == expected


@pytest.mark.parametrize("n,l", [(40, 8), (200, 4)])
def test_harmonic_dimension_at_many_variables(n, l):
    assert harmonic_dimension(n, l) == harmonic_dimension_formula(n, l)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_weight_blocks_partition_the_bases(n):
    for l in range(7):
        blocks = [
            (w, len(block_columns(w, shape)), rows)
            for w, shape, rows in weight_blocks(n, l)
        ]
        assert len({w for w, _, _ in blocks}) == len(blocks)
        assert sum(cols for _, cols, _ in blocks) == polynomial_space_dimension(n, l)
        assert sum(rows for _, _, rows in blocks) == polynomial_space_dimension(n, l - 2)


def uv_exponents(w, b):
    """Exponents of u^(b'+w⁺) v^(b'+w⁻) over (u_1..u_m, v_1..v_m)."""
    return tuple(bj + max(x, 0) for bj, x in zip(b, w)) + tuple(
        bj + max(-x, 0) for bj, x in zip(b, w)
    )


def uv_laplacian(f, m):
    """4 Σ_j ∂_(u_j) ∂_(v_j) f."""
    out = Polynomial(f.nvars)
    for j in range(m):
        out = out + 4 * partial(partial(f, j), m + j)
    return out


@pytest.mark.parametrize("n", [4, 6])
def test_block_columns_are_the_uv_laplacian(n):
    m = n // 2
    for l in range(5):
        for w, shape, rows in weight_blocks(n, l):
            row_labels = list(compositions(m, (l - sum(map(abs, w))) // 2 - 1))
            assert len(row_labels) == rows
            for (label, _), col in zip(shape, block_columns(w, shape)):
                source = uv_exponents(w, label)
                assert sum(source) == l
                image = {uv_exponents(w, row_labels[r]): c for r, c in col.items()}
                assert all(c > 0 for c in col.values())
                assert SparsePolynomial(n, image) == uv_laplacian(
                    SparsePolynomial(n, {source: 1}), m
                )


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_every_block_has_its_shapes_rank(n):
    m = n // 2
    clear_caches()
    try:
        for l in range(7):
            sizes = Counter()
            for w, shape, _ in weight_blocks(n, l):
                s = sum(map(abs, w))
                sizes[s] += 1
                cols = block_columns(w, shape)
                # the elimination oracle, block by block
                assert len(exact_kernel(cols)) == hm._shape_kernel_dimension(m, (l - s) // 2)
                assert all(c > 0 for col in cols for c in col.values())
                # the entries sit where the shape puts them, and so the
                # witnesses' last rows are the shape's
                for (_, entries), col in zip(shape, cols):
                    assert set(col) == {r for r, _ in entries}
            assert sizes == {l - k: hm._weight_count(m, l - k) for k in range(0, l + 1, 2)}
    finally:
        clear_caches()


def multiset(t):
    """The variable indices of the monomial with exponent vector t."""
    return tuple(j for j, x in enumerate(t) for _ in range(x))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_multiset_walk_is_the_dense_walk(m):
    for s in range(9):
        assert multiset_shape_kernel_dimension(m, s) == dense_shape_kernel_dimension(m, s)
        # increasing lexicographic order on index multisets is decreasing
        # lexicographic order on exponent vectors
        rows = combinations_with_replacement(range(m), s - 1) if s else ()
        assert list(rows) == [multiset(r) for r in compositions(m, s - 1)]
        for t in compositions(m, s):
            assert list(hm._column_rows(multiset(t))) == [
                (j, multiset(row)) for j, row in dense_column_rows(t)
            ]


@pytest.mark.parametrize("m", range(2, 9))
def test_order_type_walk_is_the_row_walk(m):
    clear_caches()
    try:
        for s in range(10):
            assert hm._shape_kernel_dimension(m, s) == multiset_shape_kernel_dimension(m, s)
    finally:
        clear_caches()


@pytest.mark.parametrize("m", range(2, 9))
def test_closed_form_is_the_order_type_walk(m):
    clear_caches()
    try:
        for s in range(17):
            assert hm._shape_kernel_dimension(m, s) == order_type_shape_kernel_dimension(m, s)
    finally:
        clear_caches()


@pytest.mark.parametrize("s", range(1, 17))
def test_every_order_type_passes_the_witness_rule(s):
    # The lemma of `harmonic_dimension` on all 2^(s−1) compositions of s: at
    # m = s each one is an order type, and the walk raises on the first that
    # fails.  What passes leaves Pascal's C(m + s − 2, s) kernel vectors.
    assert order_type_shape_kernel_dimension(s, s) == comb(2 * s - 2, s)


def drop_entries(monkeypatch, broken):
    """Patch the support rule so that the columns of each shape whose k
    satisfies `broken` have no entries."""
    column_rows = hm._column_rows
    monkeypatch.setattr(
        hm, "_column_rows", lambda t: () if broken(2 * len(t)) else column_rows(t)
    )


def drop_a_column(monkeypatch, broken):
    """Patch the column count so that each shape whose k satisfies `broken`
    loses a column."""
    dimension = hm.polynomial_space_dimension
    monkeypatch.setattr(
        hm, "polynomial_space_dimension", lambda m, s: dimension(m, s) - broken(2 * s)
    )


def test_uncertified_rank_is_refused(monkeypatch, capsys):
    drop_entries(monkeypatch, lambda k: True)
    clear_caches()
    try:
        with pytest.raises(CertificationError):
            hm.harmonic_dimension(4, 2)
        assert main(["harmonic", "--m", "2", "--max-l", "2"]) == 3
        assert "k=2" in capsys.readouterr().err
    finally:
        clear_caches()


@pytest.mark.parametrize(
    "broken,fault,message",
    [
        # The shape of weight 0 (k = 2) loses its entries, so its one row is
        # not the last row of its witness.
        ((0, 0), lambda mp, broken: drop_entries(mp, broken),
         r"row \(0, 0\) is not the last row of its witness column \(1, 0\) in the k=2 "
         r"shape for n=4;"),
        # The shape of the top weight (k = 0) loses u_1^2, its only column.
        ((2, 0), lambda mp, broken: drop_a_column(mp, broken),
         r"block of weight w=\(2, 0\) has 0 kernel vectors, not u_1\^2 alone, for n=4, l=2"),
        # The same faults, with the number of weights that share the shape.
        ((0, 0), lambda mp, broken: drop_entries(mp, broken),
         r"w=\(0, 0\) for n=4, l=2, 1 of 1 weights of the k=2 shape$"),
        ((2, 0), lambda mp, broken: drop_a_column(mp, broken),
         r"w=\(2, 0\) has 0 kernel vectors.* for n=4, l=2, 1 of 8 weights of the k=0 shape$"),
    ],
)
def test_broken_block_is_refused_by_weight(monkeypatch, capsys, broken, fault, message):
    k = 2 - sum(broken)
    fault(monkeypatch, lambda j: j == k)
    clear_caches()
    try:
        with pytest.raises(CertificationError, match=message):
            hm.harmonic_dimension(4, 2)
        assert main(["harmonic", "--m", "2", "--max-l", "2"]) == 3
        # the CLI stops at l = k, the first degree with this shape, whose
        # dominant weight there is 0
        err = capsys.readouterr().err
        assert "block of weight w=(0, 0)" in err and f"k={k} shape" in err
    finally:
        clear_caches()


def test_failed_witness_names_its_row_and_column(monkeypatch):
    # The support rule loses index 0 from columns with two or more distinct
    # indices.  The k=6 shape's witness with one run, t = (0, 0, 0), still
    # passes; the one with two, t = (0, 0, 1), fails, since its last row is
    # then (0, 0) rather than r = (0, 1).
    column_rows = hm._column_rows
    monkeypatch.setattr(
        hm, "_column_rows",
        lambda t: [(j, row) for j, row in column_rows(t) if j or len(set(t)) == 1],
    )
    clear_caches()
    try:
        with pytest.raises(
            CertificationError,
            match=r"^row \(1, 1, 0, 0\) is not the last row of its witness column "
                  r"\(2, 1, 0, 0\) in the k=6 shape for n=8$",
        ):
            hm._shape_kernel_dimension(4, 3)
    finally:
        clear_caches()


@pytest.mark.parametrize("n,l", [(4, 2), (4, 3), (6, 2)])
def test_laplacian_columns_are_the_laplacian(n, l):
    # the full-matrix oracle against `laplacian`, column by column
    source, target = monomial_exponents(n, l), monomial_exponents(n, l - 2)
    for exps, col in zip(source, laplacian_columns(n, l)):
        image = SparsePolynomial(n, {target[r]: c for r, c in col.items()})
        assert image == laplacian(SparsePolynomial(n, {exps: 1}))


def test_radial_shift_identity():
    # laplacian(r^{2j} h) = 2j(n + 2k + 2j - 2) r^{2(j-1)} h for degree-k harmonic h
    n = 4
    r2 = radial_square(n)
    for k, h in [(1, var(n, 0)), (2, var(n, 0) * var(n, 1))]:
        assert laplacian(h).is_zero()
        power = Polynomial(n, {(0,) * n: 1})  # r^{2(j-1)}
        for j in (1, 2, 3):
            lhs = laplacian(power * r2 * h)
            rhs = (2 * j * (n + 2 * k + 2 * j - 2)) * (power * h)
            assert lhs == rhs
            power = power * r2


def product_form(f, a, b):
    """The generator as z_a·∂_b f − z_b·∂_a f, built with polynomial products:
    the slow reference for the term-by-term `rotation_generator`."""
    return var(f.nvars, a) * partial(f, b) - var(f.nvars, b) * partial(f, a)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2 ** 30),
)
def test_rotation_generator_matches_product_form(n, d, seed):
    f = random_homogeneous(n, d, random.Random(seed))
    for a in range(n):
        for b in range(n):
            assert rotation_generator(f, a, b) == product_form(f, a, b)


def test_rotation_generator_kills_radius():
    for n in (4, 6):
        r2 = radial_square(n)
        for a in range(n):
            for b in range(a + 1, n):
                assert rotation_generator(r2, a, b).is_zero()


def test_random_homogeneous_properties():
    rng = random.Random(11)
    for n, d in [(4, 1), (4, 3), (6, 2), (8, 4)]:
        f = random_homogeneous(n, d, rng)
        assert not f.is_zero()
        assert {sum(e) for e in f.terms} == {d}


def test_random_homogeneous_stays_on_integers():
    # so the equivariance check of `verify` never builds a Fraction
    rng = random.Random(7)
    for n, d in [(4, 1), (4, 3), (6, 2), (8, 4)]:
        f = random_homogeneous(n, d, rng)
        for g in (f, laplacian(f), rotation_generator(f, 0, n - 1)):
            assert all(type(c) is int and c for c in g.terms.values())


def test_random_homogeneous_is_seed_deterministic():
    a = random_homogeneous(4, 3, random.Random(5))
    b = random_homogeneous(4, 3, random.Random(5))
    assert a == b


def test_so_invariance_check_passes():
    assert so_invariance_check(4, 6, seed=0)
    assert so_invariance_check(6, 3, seed=1)


def test_so_invariance_check_flags_broken_generator(monkeypatch):
    def broken(f, a, b):
        xa, xb = var(f.nvars, a), var(f.nvars, b)
        return xa * partial(f, b) + xb * partial(f, a)

    monkeypatch.setattr(poly, "rotation_generator", broken)
    assert not so_invariance_check(4, 6, seed=0)


def second_order_fault(f, a, b):
    """The generator plus z_b²∂_a + z_a²∂_b.  Like the generator it is 0 on
    an f that involves neither z_a nor z_b, but it fails to commute with Δ on
    every pair that meets the support of f."""
    xa, xb = var(f.nvars, a), var(f.nvars, b)
    return product_form(f, a, b) + xb * xb * partial(f, a) + xa * xa * partial(f, b)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2 ** 64),
    st.booleans(),
)
# With n = 3 and one trial, seed 2 draws an f in the variable of index 0
# alone and seed 15 one in index 2 alone, so under the fault only the pairs
# (0, b), or only the pairs (a, 2), fail: each half of the skip is needed.
@example(3, 1, 2, True)
@example(3, 1, 15, True)
def test_support_restricted_check_matches_all_pairs(n, trials, seed, faulty):
    with pytest.MonkeyPatch.context() as mp:
        if faulty:
            mp.setattr(poly, "rotation_generator", second_order_fault)
        assert so_invariance_check(n, trials, seed=seed) \
            == all_pairs_invariance_check(n, trials, seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2 ** 30),
)
def test_equivariance_property(n, d, seed):
    f = random_homogeneous(n, d, random.Random(seed))
    for a in range(n):
        for b in range(a + 1, n):
            g = rotation_generator(f, a, b)
            assert laplacian(g) == rotation_generator(laplacian(f), a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2 ** 30),
)
def test_laplacian_power_annihilates(n, d, seed):
    f = random_homogeneous(n, d, random.Random(seed))
    assert laplacian_power(f, d // 2 + 1).is_zero()


def test_sol_ktype_table_m2():
    table = sol_ktype_table(2, 4)
    expected = {KTypeParam(l + 1, (l, 0)): 1 for l in range(5)}
    assert table.entries == expected
    assert table.m == 2 and table.lam == 1
    assert table.max_mu0 == 5 and table.max_mu1 == 4


def test_sol_ktype_table_m3():
    table = sol_ktype_table(3, 3)
    expected = {KTypeParam(l + 2, (l, 0, 0)): 1 for l in range(4)}
    assert table.entries == expected


def test_sol_ktype_table_certifies(monkeypatch):
    monkeypatch.setattr(hm, "weyl_dim_so2m", lambda m, mu: 999)
    with pytest.raises(CertificationError):
        hm.sol_ktype_table(2, 1)
