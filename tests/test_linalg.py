import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from algch.scalars import Scalar, SimplexPolynomial, ZERO
from algch.linalg import Matrix

from helpers import dense_matmul, rand_scalar


def sparse_matrix(nrows, ncols, rng, entry, density):
    return [
        [entry() if rng.random() < density else None for _ in range(ncols)]
        for _ in range(nrows)
    ]


def scalar_matrix(nrows, ncols, rng, density):
    rows = sparse_matrix(
        nrows, ncols, rng, lambda: rand_scalar(rng, real=rng.random() < 0.5), density
    )
    return Matrix([[v or ZERO for v in row] for row in rows], ncols=ncols)


def poly_matrix(nrows, ncols, p, rng, density):
    zero = SimplexPolynomial(p)

    def entry():
        f = SimplexPolynomial.constant(p, rand_scalar(rng, real=True))
        for i in range(1, p + 1):
            f = f + SimplexPolynomial.variable(i, p) * rand_scalar(rng)
        return f

    rows = sparse_matrix(nrows, ncols, rng, entry, density)
    return Matrix([[v or zero for v in row] for row in rows], zero, ncols=ncols)


class TestMatmulAgainstDense:
    """Matrix.__mul__ skips zero factors; the oracle sums every term."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 4), st.integers(1, 4), st.integers(0, 4),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2**32),
    )
    def test_scalar_entries(self, n, m, k, density, seed):
        rng = random.Random(seed)
        a = scalar_matrix(n, m, rng, density)
        b = scalar_matrix(m, k, rng, density)
        assert a * b == dense_matmul(a, b)
        assert (a * b).shape == (n, k)

    def test_polynomial_entries(self):
        rng = random.Random(3)
        for p in (0, 1, 2):
            for density in (0.0, 0.4, 1.0):
                a = poly_matrix(3, 3, p, rng, density)
                b = poly_matrix(3, 2, p, rng, density)
                got = a * b
                assert got == dense_matmul(a, b)
                assert all(v.p == p for row in got.rows for v in row)

    def test_cancellation_leaves_zero(self):
        a = Matrix([[Scalar(1), Scalar(1)]])
        b = Matrix([[Scalar(Fraction(1, 2))], [Scalar(Fraction(-1, 2))]])
        assert (a * b).is_zero()
