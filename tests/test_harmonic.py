"""Polynomial Laplacian kernels and their certification against Weyl dimensions."""

import inspect
import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lieball.harmonic as hm
import lieball.polynomial as poly
import oracles
from lieball.harmonic import (
    CertificationError,
    harmonic_dimension,
    so_invariance_check,
    sol_ktype_table,
)
from lieball.polynomial import laplacian, random_homogeneous, rotation_generator
from lieball.ktype import KTypeParam, weyl_dim_so2m
from oracles import (
    Polynomial,
    all_pairs_invariance_check,
    block_columns,
    column_rows,
    compositions,
    dense_shape_kernel_dimension,
    exact_kernel,
    laplacian_columns,
    laplacian_power,
    monomial_exponents,
    multiset_column_rows,
    multiset_shape_kernel_dimension,
    order_type_shape_kernel_dimension,
    partial,
    weight_blocks,
)


def var(n, i):
    return Polynomial.variable(n, i)


def radial_square(n):
    """The quadric Σ z_i²."""
    return sum((var(n, i) * var(n, i) for i in range(n)), Polynomial(n))


class TestOraclePolynomial:
    """The ring of `oracles.Polynomial`, the reference whose `terms` are the
    term dicts of `lieball.polynomial`."""

    def test_zero_and_constant(self):
        z = Polynomial(3)
        assert z.terms == {}
        c = Polynomial(3, {(0, 0, 0): Q(5, 2)})
        assert {sum(e) for e in c.terms} == {0}
        assert (c + z) == c

    def test_drop_zero_terms(self):
        p = Polynomial(2, {(1, 0): 0, (0, 1): 3})
        assert p == 3 * var(2, 1)

    def test_keeps_coefficients_as_given(self):
        p = Polynomial(2, {(1, 0): Q(5, 2), (0, 1): 3})
        assert [(c, type(c)) for c in p.terms.values()] == [(Q(5, 2), Q), (3, int)]

    def test_arithmetic(self):
        x, y = var(2, 0), var(2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert -(x - y) == y - x
        assert x - x == Polynomial(2)

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
    assert monomial_exponents(3, -1) == ()


def test_many_variables_do_not_recurse():
    assert len(monomial_exponents(1200, 1)) == 1200
    assert harmonic_dimension(1200, 1) == 1200


def test_laplacian_on_r4():
    r2 = radial_square(4)
    assert laplacian((r2 * r2).terms) == (24 * r2).terms
    assert laplacian_power((r2 * r2).terms, 2) == {(0, 0, 0, 0): 192}


def test_laplacian_on_quadratics():
    x, y = var(2, 0), var(2, 1)
    assert laplacian((x * x).terms) == {(0, 0): 2}
    assert laplacian((x * y).terms) == {}
    assert laplacian((x * x - y * y).terms) == {}


def test_laplacian_drops_cancelled_terms():
    # ∂²/∂z_1² and ∂²/∂z_2² both land on the constant, with opposite signs
    f = {(2, 0): 1, (0, 2): -1}
    assert laplacian(f) == {}
    # z_1 ∂_1 − z_1 ∂_1 cancels term by term
    assert rotation_generator(f, 0, 0) == {}


@st.composite
def term_dicts(draw):
    """A variable count n ≤ 8 and a term dict in n variables of degree at
    most 6, its terms of mixed degrees and its coefficients nonzero ints."""
    n = draw(st.integers(min_value=1, max_value=8))
    monomials = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=6).map(
        lambda indices: tuple(indices.count(i) for i in range(n)))
    coefficients = st.integers(min_value=-2 ** 70, max_value=2 ** 70).filter(bool)
    return n, draw(st.dictionaries(monomials, coefficients, max_size=8))


@settings(max_examples=100, deadline=None)
@given(term_dicts())
@example((2, {(2, 0): 1, (0, 2): -1}))
def test_laplacian_is_the_sum_of_second_partials(case):
    n, f = case
    p = Polynomial(n, f)
    expected = sum((partial(partial(p, i), i) for i in range(n)), Polynomial(n))
    assert laplacian(f) == expected.terms


def test_laplacian_power_degree_drop():
    r2 = radial_square(4)
    f = (r2 * r2 * r2).terms
    assert laplacian_power(f, 0) == f
    assert {sum(e) for e in laplacian_power(f, 3)} == {0}
    assert laplacian_power(f, 4) == {}


@pytest.mark.parametrize(
    "n,l,expected",
    [(4, 0, 1), (4, 1, 4), (4, 2, 9), (4, 3, 16), (6, 3, 50), (8, 2, 35)],
)
def test_harmonic_dimension_values(n, l, expected):
    assert harmonic_dimension(n, l) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_harmonic_dimension_matches_formula(n):
    # the Fischer proof holds for every n, odd n included
    for l in range(6):
        assert harmonic_dimension(n, l) == len(exact_kernel(laplacian_columns(n, l)))


@pytest.mark.parametrize("n,l", [(0, 0), (0, 3), (4, -1)])
def test_harmonic_dimension_refuses_no_variables_and_negative_degree(n, l):
    with pytest.raises(ValueError):
        harmonic_dimension(n, l)


def forward_difference(values, order):
    """The order-th forward difference of a sequence."""
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
def test_kernel_and_weyl_dimensions_agree_at_every_degree(m):
    # both sides are polynomials in l of degree 2m − 2: their (2m − 1)-th
    # differences vanish, so agreement at the 2m − 1 degrees l = 0..2m − 2
    # fixes them equal at every l
    kernel = [harmonic_dimension(2 * m, l) for l in range(4 * m + 1)]
    weyl = [weyl_dim_so2m(m, (l,) + (0,) * (m - 1)) for l in range(4 * m + 1)]
    assert forward_difference(kernel, 2 * m - 1) == [0] * (2 * m + 2)
    assert forward_difference(weyl, 2 * m - 1) == [0] * (2 * m + 2)
    assert kernel[: 2 * m - 1] == weyl[: 2 * m - 1]


def fischer(f, g):
    """The Fischer product Σ_α α!·f_α·g_α of two term dicts."""
    return sum(c * g.get(e, 0) * prod(map(factorial, e)) for e, c in f.items())


def times_q(g):
    """q·g on a term dict, for q = Σ z_i²."""
    out = {}
    for e, c in g.items():
        for i, x in enumerate(e):
            e2 = e[:i] + (x + 2,) + e[i + 1 :]
            out[e2] = out.get(e2, 0) + c
    return out


def fischer_adjoint_failures(n):
    """The seeded draws f in Pol^l and g in Pol^(l−2), twenty for each
    l = 2..6, on which ⟨Δf, g⟩ ≠ ⟨f, q·g⟩ under `polynomial.laplacian`."""
    rng = random.Random(n)
    draws = [(random_homogeneous(n, l, rng), random_homogeneous(n, l - 2, rng))
             for l in range(2, 7) for _ in range(20)]
    return [(f, g) for f, g in draws if fischer(poly.laplacian(f), g) != fischer(f, times_q(g))]


@pytest.mark.parametrize("n", range(1, 9))
def test_laplacian_is_the_fischer_adjoint_of_q(n):
    # the premise of `harmonic_dimension`: Δ is onto because it is the
    # adjoint of the injective multiplication by q
    assert fischer_adjoint_failures(n) == []


def test_fischer_adjoint_refuses_a_first_order_laplacian(monkeypatch):
    # `laplacian` with its coefficient c·a(a − 1) patched to c·a
    source = inspect.getsource(poly.laplacian)
    assert source.count("c * a * (a - 1)") == 1
    namespace = dict(vars(poly))
    exec(source.replace("c * a * (a - 1)", "c * a"), namespace)
    monkeypatch.setattr(poly, "laplacian", namespace["laplacian"])
    assert all(fischer_adjoint_failures(n) for n in range(1, 9))


@pytest.mark.parametrize("n,l", [(40, 8), (200, 4)])
def test_harmonic_dimension_at_many_variables(n, l):
    m = n // 2
    assert harmonic_dimension(n, l) == weyl_dim_so2m(m, (l,) + (0,) * (m - 1))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_weight_blocks_partition_the_bases(n):
    for l in range(7):
        blocks = [
            (w, len(block_columns(w, shape)), rows)
            for w, shape, rows in weight_blocks(n, l)
        ]
        assert len({w for w, _, _ in blocks}) == len(blocks)
        assert sum(cols for _, cols, _ in blocks) == comb(n + l - 1, l)
        assert sum(rows for _, _, rows in blocks) == (comb(n + l - 3, l - 2) if l >= 2 else 0)


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
                assert Polynomial(n, image) == uv_laplacian(Polynomial(n, {source: 1}), m)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_every_block_has_its_shapes_rank(n):
    m = n // 2
    for l in range(7):
        for w, shape, _ in weight_blocks(n, l):
            s = sum(map(abs, w))
            cols = block_columns(w, shape)
            # the elimination oracle, block by block
            assert len(exact_kernel(cols)) == order_type_shape_kernel_dimension(m, (l - s) // 2)
            assert all(c > 0 for col in cols for c in col.values())
            # the entries sit where the shape puts them, and so the
            # witnesses' last rows are the shape's
            for (_, entries), col in zip(shape, cols):
                assert set(col) == {r for r, _ in entries}


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
        # the exponent-vector rule is the multiset rule, monomial by monomial
        for t in compositions(m, s):
            assert list(multiset_column_rows(multiset(t))) == [
                (j, multiset(row)) for j, row in column_rows(t)
            ]


@pytest.mark.parametrize("m", range(2, 9))
def test_order_type_walk_is_the_row_walk(m):
    for s in range(10):
        assert order_type_shape_kernel_dimension(m, s) == multiset_shape_kernel_dimension(m, s)


@pytest.mark.parametrize("m", range(2, 9))
def test_closed_form_is_the_order_type_walk(m):
    for s in range(17):
        # Pascal's C(m + s − 2, s) = C(m + s − 1, s) − C(m + s − 2, s − 1)
        assert comb(m + s - 2, s) == order_type_shape_kernel_dimension(m, s)


@pytest.mark.parametrize("s", range(1, 17))
def test_every_order_type_passes_the_witness_rule(s):
    # The witness lemma on all 2^(s−1) compositions of s: at
    # m = s each one is an order type, and the walk raises on the first that
    # fails.  What passes leaves Pascal's C(m + s − 2, s) kernel vectors.
    assert order_type_shape_kernel_dimension(s, s) == comb(2 * s - 2, s)


def test_failed_witness_names_its_row_and_column(monkeypatch):
    # The support rule loses the entries at exponents above 1 from columns
    # with two or more nonzero exponents.  In the k=6 shape the witness with
    # one, (3,), still passes, and so does (1, 2), which keeps its entry at
    # index 0; (2, 1) fails, since its last row is then (2, 0) rather than
    # r = (1, 1).  The message pads both to the m = 4 exponents.
    monkeypatch.setattr(
        oracles, "column_rows",
        lambda t: [(j, row) for j, row in column_rows(t) if t[j] == 1 or sum(map(bool, t)) == 1],
    )
    with pytest.raises(
        CertificationError,
        match=r"^row \(1, 1, 0, 0\) is not the last row of its witness column "
              r"\(2, 1, 0, 0\) in the k=6 shape for n=8$",
    ):
        order_type_shape_kernel_dimension(4, 3)


@pytest.mark.parametrize("n,l", [(4, 2), (4, 3), (6, 2)])
def test_laplacian_columns_are_the_laplacian(n, l):
    # the full-matrix oracle against `laplacian`, column by column
    source, target = monomial_exponents(n, l), monomial_exponents(n, l - 2)
    for exps, col in zip(source, laplacian_columns(n, l)):
        image = {target[r]: c for r, c in col.items()}
        assert image == laplacian({exps: 1})


def test_radial_shift_identity():
    # laplacian(r^{2j} h) = 2j(n + 2k + 2j - 2) r^{2(j-1)} h for degree-k harmonic h
    n = 4
    r2 = radial_square(n)
    for k, h in [(1, var(n, 0)), (2, var(n, 0) * var(n, 1))]:
        assert laplacian(h.terms) == {}
        power = Polynomial(n, {(0,) * n: 1})  # r^{2(j-1)}
        for j in (1, 2, 3):
            lhs = laplacian((power * r2 * h).terms)
            rhs = (2 * j * (n + 2 * k + 2 * j - 2)) * (power * h)
            assert lhs == rhs.terms
            power = power * r2


def product_form(f, a, b):
    """The generator as z_a·∂_b f − z_b·∂_a f on a `Polynomial` f, built with
    polynomial products: the slow reference for the term-by-term
    `rotation_generator`."""
    return var(f.nvars, a) * partial(f, b) - var(f.nvars, b) * partial(f, a)


def on_term_dicts(generator):
    """`generator`, written on `Polynomial`s, as a function on term dicts like
    `rotation_generator`.  The empty dict, which does not carry its variable
    count, goes to the empty dict, as under every linear generator."""
    return lambda f, a, b: generator(Polynomial(len(next(iter(f))), f), a, b).terms if f else {}


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
            assert rotation_generator(f, a, b) == product_form(Polynomial(n, f), a, b).terms


def test_rotation_generator_kills_radius():
    for n in (4, 6):
        r2 = radial_square(n)
        for a in range(n):
            for b in range(a + 1, n):
                assert rotation_generator(r2.terms, a, b) == {}


def test_random_homogeneous_properties():
    rng = random.Random(11)
    for n, d in [(4, 1), (4, 3), (6, 2), (8, 4)]:
        f = random_homogeneous(n, d, rng)
        assert f
        assert {sum(e) for e in f} == {d}


def test_random_homogeneous_stays_on_integers():
    # so the equivariance check of `verify` never builds a Fraction
    rng = random.Random(7)
    for n, d in [(4, 1), (4, 3), (6, 2), (8, 4)]:
        f = random_homogeneous(n, d, rng)
        for g in (f, laplacian(f), rotation_generator(f, 0, n - 1)):
            assert all(type(c) is int and c for c in g.values())


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

    monkeypatch.setattr(poly, "rotation_generator", on_term_dicts(broken))
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
            mp.setattr(poly, "rotation_generator", on_term_dicts(second_order_fault))
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
    assert laplacian_power(f, d // 2 + 1) == {}


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
