"""Exact sparse polynomials in n variables, and the operators of the sampled
equivariance check: the Laplacian Δ = Σ ∂²/∂z_i², the rotation generators
z_a ∂_b − z_b ∂_a, and random homogeneous inputs.

`harmonic.so_invariance_check` imports this module when it runs, so the
harmonic certificate never compiles it.  It imports no `lieball` module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    import random
    from numbers import Rational

__all__ = [
    "SparsePolynomial",
    "laplacian",
    "rotation_generator",
    "random_homogeneous",
]

Exponents = Tuple[int, ...]


class SparsePolynomial:
    """A polynomial in nvars variables with exact rational coefficients.

    Terms map exponent tuples of ints to nonzero ints or Fractions: an
    integral coefficient (a numpy integer, say) is stored as an int, so it
    cannot overflow, and any other `numbers.Rational` as given.  A bool, as
    exponent or coefficient, or any other coefficient raises ValueError.
    It has no ring operations: `laplacian` and
    `rotation_generator` work on the terms directly, exactly.  `numbers` is
    imported by the constructor, so code that builds its polynomials through
    `_trusted` never loads it.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponents, object] | None = None):
        from numbers import Integral, Rational

        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: Dict[Exponents, Rational] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            if isinstance(c, bool) or not isinstance(c, Rational):
                raise ValueError(f"coefficient {c!r} is neither an int nor a Fraction")
            if c:
                clean[tuple(exps)] = int(c) if isinstance(c, Integral) else c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Exponents, Rational]) -> "SparsePolynomial":
        """Terms built in this module, unchecked; only the zero coefficients
        that cancellation leaves are dropped."""
        p = object.__new__(cls)
        p.nvars, p.terms = nvars, {e: c for e, c in terms.items() if c}
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "SparsePolynomial(0)"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[exps]
            mono = "*".join(
                f"z{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(exps)
                if a
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "SparsePolynomial(" + " + ".join(bits) + ")"


def laplacian(f: SparsePolynomial) -> SparsePolynomial:
    """Σ_i ∂²f/∂z_i², exactly."""
    out: Dict[Exponents, Rational] = {}
    for exps, c in f.terms.items():
        for i, a in enumerate(exps):
            if a >= 2:
                e2 = exps[:i] + (a - 2,) + exps[i + 1 :]
                out[e2] = out.get(e2, 0) + c * a * (a - 1)
    return SparsePolynomial._trusted(f.nvars, out)


def rotation_generator(f: SparsePolynomial, a: int, b: int) -> SparsePolynomial:
    """The infinitesimal rotation (z_a ∂_b − z_b ∂_a) applied to f, term by
    term: z_a ∂_b sends z^e to e_b z^(e − δ_b + δ_a), and z_b ∂_a sends it to
    e_a z^(e − δ_a + δ_b).  For a = b the two cancel to 0."""
    out: Dict[Exponents, Rational] = {}
    for src, dst, sign in ((b, a, 1), (a, b, -1)):
        for exps, c in f.terms.items():
            e = exps[src]
            if e:
                moved = list(exps)
                moved[src] -= 1
                moved[dst] += 1
                key = tuple(moved)
                out[key] = out.get(key, 0) + sign * e * c
    return SparsePolynomial._trusted(f.nvars, out)


def random_homogeneous(n: int, degree: int, rng: random.Random) -> SparsePolynomial:
    """A random homogeneous polynomial with up to six terms and small
    nonzero integer coefficients."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    nterms = rng.randint(1, 6)
    terms: Dict[Exponents, int] = {}
    for _ in range(nterms):
        counts = [0] * n
        for _ in range(degree):
            counts[rng.randrange(n)] += 1
        exps = tuple(counts)
        terms[exps] = terms.get(exps, 0) + rng.choice([x for x in range(-9, 10) if x != 0])
    return SparsePolynomial._trusted(n, terms)
