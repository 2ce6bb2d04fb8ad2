import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algch.scalars import Scalar, ZERO
from algch.linalg import ClearedMatrix, Matrix, inverse

from helpers import SimplexPolynomial, dense_matmul, rand_matrix, rand_scalar


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


class TestTraceMul:
    """ClearedMatrix.trace_mul sums a_ij b_ji without forming the product."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 4), st.integers(0, 4),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2**32),
    )
    def test_scalar_entries(self, n, m, density, seed):
        rng = random.Random(seed)
        a = scalar_matrix(n, m, rng, density)
        b = scalar_matrix(m, n, rng, density)
        want = dense_matmul(a, b).trace()
        got = ClearedMatrix.from_matrix(a).trace_mul(ClearedMatrix.from_matrix(b))
        assert got == (want.re, want.im)

    def test_cancellation_gives_zero(self):
        a = ClearedMatrix.from_matrix(Matrix([[Scalar(1), Scalar(1)]]))
        b = ClearedMatrix.from_matrix(Matrix([[Scalar(Fraction(1, 2))], [Scalar(Fraction(-1, 2))]]))
        assert a.trace_mul(b) == (0, 0)


def dense_block_diag(m0, m1):
    """[[m0, 0], [0, m1]] written entry by entry."""
    nrows, ncols = m0.nrows + m1.nrows, m0.ncols + m1.ncols
    rows = [[m0.zero] * ncols for _ in range(nrows)]
    for i in range(m0.nrows):
        for j in range(m0.ncols):
            rows[i][j] = m0[i, j]
    for i in range(m1.nrows):
        for j in range(m1.ncols):
            rows[m0.nrows + i][m0.ncols + j] = m1[i, j]
    return Matrix(rows, m0.zero, ncols=ncols)


class TestBlockDiag:
    """Matrix.block_diag against the entrywise placement, with blocks of
    0 rows (the anchor of a Lie algebra is 0 x r) or 0 columns."""

    @pytest.mark.parametrize("shape0", [(0, 0), (0, 2), (2, 0), (1, 1), (2, 3)])
    @pytest.mark.parametrize("shape1", [(0, 0), (0, 3), (3, 0), (2, 2), (1, 2)])
    def test_scalar_entries(self, shape0, shape1):
        rng = random.Random(str((shape0, shape1)))
        m0 = scalar_matrix(*shape0, rng, 0.7)
        m1 = scalar_matrix(*shape1, rng, 0.7)
        got = Matrix.block_diag(m0, m1)
        assert got == dense_block_diag(m0, m1)
        assert got.shape == (shape0[0] + shape1[0], shape0[1] + shape1[1])

    def test_polynomial_entries(self):
        rng = random.Random(5)
        for p in (0, 1, 2):
            zero = SimplexPolynomial(p)
            for shape0, shape1 in (((2, 2), (1, 1)), ((0, 2), (2, 1)), ((2, 0), (1, 3))):
                m0 = poly_matrix(*shape0, p, rng, 0.6)
                m1 = poly_matrix(*shape1, p, rng, 0.6)
                got = Matrix.block_diag(m0, m1)
                assert got == dense_block_diag(m0, m1)
                assert got.zero == zero
                assert all(v.p == p for row in got.rows for v in row)


def gaussian_matrix(nrows, ncols, rng, density, real):
    rows = sparse_matrix(nrows, ncols, rng, lambda: rand_scalar(rng, real=real), density)
    return Matrix([[v or ZERO for v in row] for row in rows], ncols=ncols)


class TestClearedMatrix:
    """ClearedMatrix against Matrix of Scalar on the same entries, on
    real, Gaussian and mixed operands and empty shapes."""

    @settings(max_examples=80)
    @given(
        st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.booleans(), st.booleans(),
        st.integers(0, 2**32),
    )
    def test_matches_scalar_matrix(self, n, m, k, density, real_a, real_b, seed):
        rng = random.Random(seed)
        a = gaussian_matrix(n, m, rng, density, real_a)
        b = gaussian_matrix(m, k, rng, density, real_b)
        a2 = gaussian_matrix(n, m, rng, density, real_b)
        ca, cb, ca2 = (ClearedMatrix.from_matrix(x) for x in (a, b, a2))
        assert ca.to_matrix() == a
        assert (ca * cb).to_matrix() == a * b
        assert (ca + ca2).to_matrix() == a + a2
        assert (ca - ca2).to_matrix() == a - a2
        assert (-ca).to_matrix() == -a
        assert ca.conj_transpose().to_matrix() == a.conj_transpose()
        c = rand_scalar(rng, real=real_b)
        assert ca.scale(c).to_matrix() == a.scale(c)
        assert ca.is_zero() == a.is_zero()
        assert (ca - ca).is_zero()
        bt = gaussian_matrix(m, n, rng, density, real_b)
        want = dense_matmul(bt, a).trace()
        assert ClearedMatrix.from_matrix(bt).trace_mul(ca) == (want.re, want.im)
        if n == m:
            want = a.trace()
            assert ca.trace() == (want.re, want.im)

    def test_real_data_has_no_imaginary_rows(self):
        a = Matrix([[Scalar(Fraction(1, 2)), Scalar(0, 1)], [Scalar(2), Scalar(0)]])
        b = Matrix([[Scalar(0, 1), Scalar(0)], [Scalar(0), Scalar(1)]])
        ca, cb = ClearedMatrix.from_matrix(a), ClearedMatrix.from_matrix(b)
        assert ca.im is not None
        assert (ca - ca).im is None
        # i * i = -1: the product of two Gaussian matrices can be real
        assert (cb * cb).im is None
        assert (cb * cb).to_matrix() == b * b

    def test_product_is_reduced(self):
        a = ClearedMatrix.from_matrix(Matrix([[Scalar(Fraction(1, 2)), Scalar(Fraction(3, 4))]]))
        b = ClearedMatrix.from_matrix(Matrix([[Scalar(2)], [Scalar(Fraction(4, 3))]]))
        assert (a.den, b.den) == (4, 3)
        got = a * b
        assert (got.re, got.im, got.den) == ([[2]], None, 1)

    @settings(max_examples=60)
    @given(st.integers(0, 5), st.sampled_from([0.3, 0.7, 1.0]), st.booleans(), st.integers(0, 2**32))
    def test_inverse_matches_scalar_inverse(self, n, density, real, seed):
        # sparse matrices need row exchanges; singular ones must raise
        rng = random.Random(seed)
        a = gaussian_matrix(n, n, rng, density, real)
        ca = ClearedMatrix.from_matrix(a)
        try:
            want = inverse(a)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                ca.inverse()
            return
        got = ca.inverse()
        assert got.to_matrix() == want
        assert got.den > 0

    def test_inverse_of_gaussian_metric(self):
        rng = random.Random(7)
        for n in (1, 3, 5):
            m = rand_matrix(n, n, rng)
            h = m.conj_transpose() * m + Matrix.identity(n)
            assert ClearedMatrix.from_matrix(h).inverse().to_matrix() == inverse(h)
