"""Polynomial Laplacian kernels and their certification against Weyl dimensions."""

import random
from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieball.harmonic as hm
from lieball.cli import main
from lieball.harmonic import (
    CertificationError,
    SparsePolynomial,
    harmonic_dimension,
    harmonic_dimension_formula,
    laplacian,
    laplacian_power,
    monomial_exponents,
    polynomial_space_dimension,
    random_homogeneous,
    rotation_generator,
    so_invariance_check,
    sol_ktype_table,
)
from lieball.kostant import KTypeParam
from lieball.linalg import exact_kernel


def var(n, i):
    return SparsePolynomial.variable(n, i)


def radial_square(n):
    """The quadric Σ z_i²."""
    return sum((var(n, i) * var(n, i) for i in range(n)), SparsePolynomial.zero(n))


class TestSparsePolynomial:
    def test_zero_and_constant(self):
        z = SparsePolynomial.zero(3)
        assert z.is_zero()
        assert z.degree() == -1
        c = SparsePolynomial.constant(3, Q(5, 2))
        assert c.degree() == 0
        assert (c + z) == c

    def test_drop_zero_terms(self):
        p = SparsePolynomial(2, {(1, 0): 0, (0, 1): 3})
        assert p == 3 * var(2, 1)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(-1, 0): 1})

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
        assert p.partial(0) == 2 * (x * y)
        assert p.partial(1) == x * x
        assert p.partial(0).partial(1) == 2 * x

    def test_homogeneity(self):
        x, y = var(2, 0), var(2, 1)
        assert (x * y + y * y).is_homogeneous()
        assert not (x + y * y).is_homogeneous()
        assert SparsePolynomial.zero(2).is_homogeneous()

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
    assert laplacian_power(r2 * r2, 2) == SparsePolynomial.constant(4, 192)


def test_laplacian_on_quadratics():
    x, y = var(2, 0), var(2, 1)
    assert laplacian(x * x) == SparsePolynomial.constant(2, 2)
    assert laplacian(x * y).is_zero()
    assert laplacian(x * x - y * y).is_zero()


def test_laplacian_power_degree_drop():
    r2 = radial_square(4)
    f = r2 * r2 * r2
    assert laplacian_power(f, 0) == f
    assert laplacian_power(f, 3).degree() == 0
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
        assert harmonic_dimension(n, l) == harmonic_dimension_formula(n, l)
        assert harmonic_dimension(n, l) == len(exact_kernel(hm._laplacian_columns(n, l)))


@pytest.mark.parametrize("n,l", [(40, 8), (200, 4)])
def test_harmonic_dimension_at_many_variables(n, l):
    assert harmonic_dimension(n, l) == harmonic_dimension_formula(n, l)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_weight_blocks_partition_the_bases(n):
    for l in range(7):
        blocks = [
            (w, len(hm._block_columns(w, shape)), rows)
            for w, shape, rows in hm._weight_blocks(n, l)
        ]
        assert len({w for w, _, _ in blocks}) == len(blocks)
        assert sum(cols for _, cols, _ in blocks) == polynomial_space_dimension(n, l)
        assert sum(rows for _, _, rows in blocks) == polynomial_space_dimension(n, l - 2)


def uv_exponents(w, label):
    """Exponents of u^(b'+w⁺) v^(b'+w⁻) z_n^c over (u_1..u_m, v_1..v_m, z_n)."""
    m = len(w)
    b = label[:m]
    return (
        tuple(bj + max(x, 0) for bj, x in zip(b, w))
        + tuple(bj + max(-x, 0) for bj, x in zip(b, w))
        + label[m:]
    )


def uv_laplacian(f, m):
    """4 Σ_j ∂_(u_j) ∂_(v_j) f, plus ∂²f/∂z_n² when there is a z_n."""
    out = SparsePolynomial.zero(f.nvars)
    for j in range(m):
        out = out + 4 * f.partial(j).partial(m + j)
    if f.nvars > 2 * m:
        out = out + f.partial(2 * m).partial(2 * m)
    return out


@pytest.mark.parametrize("n", [4, 5, 6])
def test_block_columns_are_the_uv_laplacian(n):
    m, odd = divmod(n, 2)
    for l in range(5):
        for w, shape, rows in hm._weight_blocks(n, l):
            row_labels = hm._block_labels(m, odd, l - sum(map(abs, w)) - 2)
            assert len(row_labels) == rows
            for (label, _, _), col in zip(shape, hm._block_columns(w, shape)):
                source = uv_exponents(w, label)
                assert sum(source) == l
                image = {uv_exponents(w, row_labels[r]): c for r, c in col.items()}
                assert all(c > 0 for c in col.values())
                assert SparsePolynomial(n, image) == uv_laplacian(
                    SparsePolynomial.monomial(n, source), m
                )


def block_map(n, l, w, shape):
    """The block of weight w as {source monomial: {target monomial: entry}},
    over the exponents of (u_1..u_m, v_1..v_m, z_n)."""
    m, odd = divmod(n, 2)
    row_labels = hm._block_labels(m, odd, l - sum(map(abs, w)) - 2)
    return {
        uv_exponents(w, label): {uv_exponents(w, row_labels[r]): c for r, c in col.items()}
        for (label, _, _), col in zip(shape, hm._block_columns(w, shape))
    }


def to_dominant(w, exps):
    """A (u, v, z_n) exponent tuple of weight w, mapped by the swaps u_j <-> v_j
    for w_j < 0 and then by the pair permutation that sorts |w| decreasingly."""
    m = len(w)
    a, b = list(exps[:m]), list(exps[m : 2 * m])
    for j in range(m):
        if w[j] < 0:
            a[j], b[j] = b[j], a[j]
    order = sorted(range(m), key=lambda j: -abs(w[j]))
    return tuple(a[j] for j in order) + tuple(b[j] for j in order) + exps[2 * m :]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_every_block_is_its_dominant_block_relabelled(n):
    for l in range(7):
        stream = list(hm._dominant_blocks(n, l))
        dominant = {w: (size, shape, rows) for w, size, shape, rows in stream}
        assert len(dominant) == len(stream)
        for w in dominant:
            assert list(w) == sorted(w, reverse=True) and min(w) >= 0
        weights = 0
        for w, shape, rows in hm._weight_blocks(n, l):
            weights += 1
            rep = tuple(sorted(map(abs, w), reverse=True))
            _, rep_shape, rep_rows = dominant[rep]
            assert rows == rep_rows
            image = {
                to_dominant(w, source): {to_dominant(w, t): c for t, c in col.items()}
                for source, col in block_map(n, l, w, shape).items()
            }
            assert image == block_map(n, l, rep, rep_shape)
        assert sum(size for size, _, _ in dominant.values()) == weights
        assert sum(
            size * len(shape) for size, shape, _ in dominant.values()
        ) == polynomial_space_dimension(n, l)
        assert sum(
            size * rows for size, _, rows in dominant.values()
        ) == polynomial_space_dimension(n, l - 2)


def test_cli_path_walks_dominant_weights_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("every torus weight walked")

    monkeypatch.setattr(hm, "_weight_blocks", refuse)
    hm.harmonic_dimension.cache_clear()
    try:
        assert main(["harmonic", "--m", "3", "--max-l", "5"]) == 0
        assert main(["verify", "--m", "2", "--max-l", "3"]) == 0
    finally:
        hm.harmonic_dimension.cache_clear()


def test_cli_path_builds_no_full_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("full Laplacian matrix built")

    monkeypatch.setattr(hm, "monomial_exponents", refuse)
    monkeypatch.setattr(hm, "_laplacian_columns", refuse)
    hm.harmonic_dimension.cache_clear()
    try:
        assert main(["harmonic", "--m", "3", "--max-l", "5"]) == 0
    finally:
        hm.harmonic_dimension.cache_clear()


def test_uncertified_rank_is_refused(monkeypatch):
    columns = hm._block_columns
    monkeypatch.setattr(hm, "_block_columns", lambda w, shape: [{} for _ in columns(w, shape)])
    hm.harmonic_dimension.cache_clear()
    try:
        with pytest.raises(CertificationError):
            hm.harmonic_dimension(4, 2)
        assert main(["harmonic", "--m", "2", "--max-l", "2"]) == 3
    finally:
        hm.harmonic_dimension.cache_clear()


@pytest.mark.parametrize(
    "broken,fault,message",
    [
        # The weight-0 block loses its entries, so it leads in no row.
        ((0, 0), lambda cols: [{} for _ in cols],
         r"lead in 0 of 1 rows of the block of weight w=\(0, 0\) for n=4, l=2"),
        # The top-weight block loses u_1^2, its only column.
        ((2, 0), lambda cols: cols[1:],
         r"block of weight w=\(2, 0\) has 0 kernel vectors.* for n=4, l=2"),
        # The same faults, with the orbit size of the dominant weight.
        ((0, 0), lambda cols: [{} for _ in cols],
         r"w=\(0, 0\) for n=4, l=2, orbit size 1$"),
        ((2, 0), lambda cols: cols[1:],
         r"w=\(2, 0\) has 0 kernel vectors.* for n=4, l=2, orbit size 4$"),
    ],
)
def test_broken_block_is_refused_by_weight(monkeypatch, capsys, broken, fault, message):
    columns = hm._block_columns

    def faulty(w, shape):
        cols = columns(w, shape)
        return fault(cols) if w == broken else cols

    monkeypatch.setattr(hm, "_block_columns", faulty)
    hm.harmonic_dimension.cache_clear()
    try:
        with pytest.raises(CertificationError, match=message):
            hm.harmonic_dimension(4, 2)
        assert main(["harmonic", "--m", "2", "--max-l", "2"]) == 3
        assert "w=" + str(broken) in capsys.readouterr().err
    finally:
        hm.harmonic_dimension.cache_clear()


@pytest.mark.parametrize("n,l", [(4, 2), (4, 3), (6, 2)])
def test_laplacian_columns_are_the_laplacian(n, l):
    # the full-matrix oracle against `laplacian`, column by column
    source, target = monomial_exponents(n, l), monomial_exponents(n, l - 2)
    for exps, col in zip(source, hm._laplacian_columns(n, l)):
        image = SparsePolynomial(n, {target[r]: c for r, c in col.items()})
        assert image == laplacian(SparsePolynomial.monomial(n, exps))


def test_radial_shift_identity():
    # laplacian(r^{2j} h) = 2j(n + 2k + 2j - 2) r^{2(j-1)} h for degree-k harmonic h
    n = 4
    r2 = radial_square(n)
    for k, h in [(1, var(n, 0)), (2, var(n, 0) * var(n, 1))]:
        assert laplacian(h).is_zero()
        power = SparsePolynomial.constant(n, 1)  # r^{2(j-1)}
        for j in (1, 2, 3):
            lhs = laplacian(power * r2 * h)
            rhs = (2 * j * (n + 2 * k + 2 * j - 2)) * (power * h)
            assert lhs == rhs
            power = power * r2


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
        assert f.is_homogeneous() and f.degree() == d


def test_random_homogeneous_is_seed_deterministic():
    a = random_homogeneous(4, 3, random.Random(5))
    b = random_homogeneous(4, 3, random.Random(5))
    assert a == b


def test_so_invariance_check_passes():
    assert so_invariance_check(4, 6, seed=0)
    assert so_invariance_check(6, 3, seed=1)


def test_so_invariance_check_flags_broken_generator():
    def broken(f, a, b):
        xa, xb = var(f.nvars, a), var(f.nvars, b)
        return xa * f.partial(b) + xb * f.partial(a)

    assert not so_invariance_check(4, 6, seed=0, generator=broken)


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
