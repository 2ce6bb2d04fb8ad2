import copy
import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from algch.scalars import Scalar, ZERO, ONE, I
from algch.linalg import Matrix, _rank, det, inverse, nullspace, positive_definite, rank, solve

from helpers import (
    RingMatrix,
    column_stack,
    dense_matmul,
    leading_minors_positive,
    rand_matrix,
    rand_pd_matrix,
    rand_scalar,
    reference_det,
    reference_inverse,
    reference_nullspace,
    reference_rank,
    reference_solve,
    ring_matrix,
)


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


class TestMatmulAgainstDense:
    """Matrix.__mul__ multiplies integer rows; the oracle sums every
    Scalar term."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 4), st.integers(1, 4), st.integers(0, 4),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2**32),
    )
    def test_scalar_entries(self, n, m, k, density, seed):
        rng = random.Random(seed)
        a = scalar_matrix(n, m, rng, density)
        b = scalar_matrix(m, k, rng, density)
        assert ring_matrix(a * b) == dense_matmul(ring_matrix(a), ring_matrix(b))
        assert (a * b).shape == (n, k)

    def test_cancellation_leaves_zero(self):
        a = Matrix([[Scalar(1), Scalar(1)]])
        b = Matrix([[Scalar(Fraction(1, 2))], [Scalar(Fraction(-1, 2))]])
        assert (a * b).is_zero()


class TestTraceMul:
    """Matrix.trace_mul sums a_ij b_ji without forming the product."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 4), st.integers(0, 4),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2**32),
    )
    def test_scalar_entries(self, n, m, density, seed):
        rng = random.Random(seed)
        a = scalar_matrix(n, m, rng, density)
        b = scalar_matrix(m, n, rng, density)
        want = dense_matmul(ring_matrix(a), ring_matrix(b)).trace()
        assert a.trace_mul(b) == (want.re, want.im)

    def test_cancellation_gives_zero(self):
        a = Matrix([[Scalar(1), Scalar(1)]])
        b = Matrix([[Scalar(Fraction(1, 2))], [Scalar(Fraction(-1, 2))]])
        assert a.trace_mul(b) == (0, 0)


def dense_block_diag(m0, m1):
    """[[m0, 0], [0, m1]] written entry by entry."""
    nrows, ncols = m0.nrows + m1.nrows, m0.ncols + m1.ncols
    rows = [[ZERO] * ncols for _ in range(nrows)]
    for i in range(m0.nrows):
        for j in range(m0.ncols):
            rows[i][j] = m0[i, j]
    for i in range(m1.nrows):
        for j in range(m1.ncols):
            rows[m0.nrows + i][m0.ncols + j] = m1[i, j]
    return RingMatrix(rows, ncols=ncols)


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
        assert ring_matrix(got) == dense_block_diag(m0, m1)
        assert got.shape == (shape0[0] + shape1[0], shape0[1] + shape1[1])


def gaussian_matrix(nrows, ncols, rng, density, real):
    rows = sparse_matrix(nrows, ncols, rng, lambda: rand_scalar(rng, real=real), density)
    return Matrix([[v or ZERO for v in row] for row in rows], ncols=ncols)


class TestClearedMatrix:
    """The cleared-denominator integer form of Matrix against the
    RingMatrix oracle on the same Scalar entries, on real, Gaussian and
    mixed operands and empty shapes."""

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
        ra, rb, ra2 = (ring_matrix(x) for x in (a, b, a2))
        assert Matrix(ra.rows, ncols=m) == a
        assert ring_matrix(a * b) == ra * rb
        assert ring_matrix(a + a2) == ra + ra2
        assert ring_matrix(a - a2) == ra - ra2
        assert ring_matrix(-a) == -ra
        assert ring_matrix(a.conj_transpose()) == ra.conj_transpose()
        c = rand_scalar(rng, real=real_b)
        assert ring_matrix(a.scale(c)) == ra.scale(c)
        assert a.is_zero() == ra.is_zero()
        assert (a - a).is_zero()
        bt = gaussian_matrix(m, n, rng, density, real_b)
        want = (ring_matrix(bt) * ra).trace()
        assert bt.trace_mul(a) == (want.re, want.im)
        if n == m:
            assert a.trace() == ra.trace()

    def test_real_data_has_no_imaginary_rows(self):
        a = Matrix([[Scalar(Fraction(1, 2)), Scalar(0, 1)], [Scalar(2), Scalar(0)]])
        b = Matrix([[Scalar(0, 1), Scalar(0)], [Scalar(0), Scalar(1)]])
        assert a.im is not None
        assert (a - a).im is None
        # i * i = -1: the product of two Gaussian matrices can be real
        assert (b * b).im is None
        assert ring_matrix(b * b) == ring_matrix(b) * ring_matrix(b)

    def test_product_is_reduced(self):
        a = Matrix([[Scalar(Fraction(1, 2)), Scalar(Fraction(3, 4))]])
        b = Matrix([[Scalar(2)], [Scalar(Fraction(4, 3))]])
        assert (a.den, b.den) == (4, 3)
        got = a * b
        assert (got.re, got.im, got.den) == ([[2]], None, 1)

    @settings(max_examples=60)
    @given(st.integers(0, 5), st.sampled_from([0.3, 0.7, 1.0]), st.booleans(), st.integers(0, 2**32))
    def test_inverse_matches_scalar_inverse(self, n, density, real, seed):
        # sparse matrices need row exchanges; singular ones must raise;
        # Gaussian ones are not Hermitian, so their pivots are complex in general
        rng = random.Random(seed)
        a = gaussian_matrix(n, n, rng, density, real)
        # a metric shaped like g-bar, block_diag(g_V, g_A): the rows of
        # one block have f = 0 at every step of the other
        gbar = Matrix.block_diag(rand_pd_matrix(rng.randint(0, 2), rng, real=True), rand_pd_matrix(n, rng, real))
        before = snapshot(a, gbar)
        assert ring_matrix(inverse(gbar)) == reference_inverse(gbar)
        try:
            want = reference_inverse(a)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                inverse(a)
            assert snapshot(a, gbar) == before
            return
        got = inverse(a)
        assert ring_matrix(got) == want
        assert got.den > 0
        assert snapshot(a, gbar) == before

    def test_inverse_of_gaussian_metric(self):
        rng = random.Random(7)
        for n in (1, 3, 5):
            m = rand_matrix(n, n, rng)
            h = m.conj_transpose() * m + Matrix.identity(n)
            assert ring_matrix(inverse(h)) == reference_inverse(h)

    @pytest.mark.parametrize("rows", [
        [],
        [[3]],
        [[Fraction(-2, 7)]],
        [[Scalar(1, 2)]],
        [[Scalar(0, Fraction(1, 3))]],
        # zero leading entries take row exchanges, one or two
        [[0, 2], [3, 1]],
        [[0, 1, 2], [3, 0, 1], [1, 2, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 0, 2, 1], [0, 3, 0, 0], [1, 0, 0, 5], [4, 0, 1, 0]],
        [[0, I], [Scalar(1, 1), 2]],
        [[0, 0, Scalar(2, -1)], [I, 1, 0], [Scalar(1, 1), 0, 3]],
        # negative pivots, pivots that scale later rows, and den != 1
        [[-2, 1], [1, -3]],
        [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]],
        [[Scalar(0, Fraction(1, 2)), Fraction(1, 3)], [1, Fraction(2, 5)]],
        [[Scalar(2, 1), Scalar(0, 3), 1], [Scalar(1, -1), 2, I], [0, Scalar(1, 2), 5]],
        # singular: real, Gaussian, a zero column, a zero 1 x 1
        [[1, 2], [2, 4]],
        [[1, I], [I, -1]],
        [[0, 1], [0, 2]],
        [[Scalar(1, 1), 2, 0], [I, Scalar(1, -1), 1], [I, Scalar(3, 1), I]],
        [[0]],
        # block_diag(g_V, g_A), shaped like g-bar: a real g_V and a Gaussian
        # Hermitian g_A over 2, whose pivots are its leading minors
        [
            [2, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 3, Scalar(1, 1), 0],
            [0, 0, Scalar(1, -1), 2, Scalar(0, Fraction(1, 2))],
            [0, 0, 0, Scalar(0, Fraction(-1, 2)), 1],
        ],
        # rows with f = 0 at steps where the pivot differs from the last
        # (2 after 1, then 6 after 2): they are still scaled by p / q
        [[2, 0, 1], [0, 3, 1], [1, 1, 5]],
        # not Hermitian: the pivots 1 + i and then -3 + i are complex, so
        # the rows divide by a complex previous pivot
        [[Scalar(1, 1), 2, 0], [1, I, 3], [2, 1, Scalar(1, -2)]],
        # the leading 3 x 3 block is singular: a zero pivot at the third
        # step takes the one row exchange
        [[2, 1, 0, 0], [1, 3, 0, I], [3, 4, 0, 1], [0, 1, 5, 0]],
        # negative last pivots (the determinant of the integer rows),
        # real and Gaussian
        [[1, 2], [3, 4]],
        [[-1, I], [-I, 2]],
    ])
    def test_inverse_cases(self, rows):
        m = Matrix(rows, ncols=len(rows))
        before = snapshot(m)
        try:
            want = reference_inverse(m)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                inverse(m)
            assert snapshot(m) == before
            return
        got = inverse(m)
        assert snapshot(m) == before
        assert ring_matrix(got) == want
        # the reduced form, so equal values give equal integer rows
        assert got.den > 0 and gcd(got.den, *chain.from_iterable(got.re), *chain.from_iterable(got.im or ())) == 1

    @settings(max_examples=60)
    @given(st.integers(0, 4), st.integers(0, 4), st.booleans(), st.integers(0, 2**32))
    def test_unreduced_sum_equals_reduced_product(self, n, m, real, seed):
        # a sum keeps the lcm of the denominators; a product divides out
        # the gcd, so the same value can be held over two denominators
        rng = random.Random(seed)
        a = gaussian_matrix(n, m, rng, 0.7, real)
        half = Matrix.identity(m).scale(Fraction(1, 2))
        total = a.scale(Fraction(1, 6)) + a.scale(Fraction(1, 3))
        product = a * half
        assert total == product
        assert ring_matrix(total) == ring_matrix(product)
        assert hash(total) == hash(product)

    @settings(max_examples=60)
    @given(st.integers(0, 4), st.integers(0, 4), st.booleans(), st.integers(0, 2**32))
    def test_equal_matrices_hash_equal(self, n, m, real, seed):
        rng = random.Random(seed)
        a = gaussian_matrix(n, m, rng, 0.6, real)
        b = gaussian_matrix(n, m, rng, 0.6, real)
        # a + b - b is a over the square of a's denominator, or larger
        c = a + b - b
        assert c == a and a == c
        assert hash(c) == hash(a)
        assert {a: 1}[c] == 1
        if not (a - b).is_zero():
            assert a != b


def rand_ranked(nrows, ncols, inner, rng, real, density):
    """A random matrix of rank at most inner: a product of random
    nrows x inner and inner x ncols factors, formed by the oracle."""
    left = ring_matrix(gaussian_matrix(nrows, inner, rng, density, real))
    right = ring_matrix(gaussian_matrix(inner, ncols, rng, density, real))
    return Matrix(dense_matmul(left, right).rows, ncols=ncols)


elimination_args = (
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
    st.booleans(), st.sampled_from([0.3, 0.7, 1.0]), st.integers(0, 2**32),
)


class TestElimination:
    """rank, solve, nullspace, inverse and det, all from the one
    fraction-free elimination, against the Scalar row reduction, on
    real and Gaussian data: rectangular, rank-deficient and singular
    matrices and 0 x k and k x 0 shapes."""

    @settings(max_examples=150, deadline=None)
    @given(*elimination_args)
    def test_rank_and_nullspace(self, n, m, inner, real, density, seed):
        a = rand_ranked(n, m, inner, random.Random(seed), real, density)
        assert rank(a) == reference_rank(a)
        basis = nullspace(a)
        assert basis == reference_nullspace(a)
        assert len(basis) == m - rank(a)
        for v in basis:
            assert (a * Matrix([[x] for x in v], ncols=1)).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(*elimination_args, st.booleans())
    def test_solve(self, n, m, inner, real, density, seed, consistent):
        rng = random.Random(seed)
        a = rand_ranked(n, m, inner, rng, real, density)
        if consistent:
            # b in the column space of a
            x0 = gaussian_matrix(m, 1, rng, density, real)
            b = [v for (v,) in (a * x0).rows]
        else:
            b = [rand_scalar(rng, real=real) for _ in range(n)]
        got = solve(a, b)
        assert got == reference_solve(a, b)
        if consistent:
            assert got is not None
        if got is not None:
            assert [v for (v,) in (a * Matrix([[x] for x in got], ncols=1)).rows] == b

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.booleans(), st.sampled_from([0.3, 0.7, 1.0]), st.integers(0, 2**32))
    def test_det_and_inverse(self, n, inner, real, density, seed):
        a = rand_ranked(n, n, inner, random.Random(seed), real, density)
        assert det(a) == reference_det(a)
        try:
            want = reference_inverse(a)
        except ZeroDivisionError:
            assert det(a).is_zero()
            with pytest.raises(ZeroDivisionError):
                inverse(a)
            return
        assert ring_matrix(inverse(a)) == want

    def test_det_needs_the_phase(self):
        # |det|^2 would not tell these apart
        assert det(Matrix([[I, ZERO], [ZERO, ONE]])) == I
        assert det(Matrix([[ZERO, I], [ONE, ZERO]])) == -I
        assert det(Matrix([[Scalar(1, 1), Scalar(2)], [Scalar(0, 1), Scalar(1, -1)]])) == Scalar(2, -2)

    def test_empty_shapes(self):
        for n in range(4):
            tall, wide = Matrix.zeros(n, 0), Matrix.zeros(0, n)
            assert rank(tall) == rank(wide) == 0
            assert nullspace(tall) == []
            assert nullspace(wide) == reference_nullspace(wide)
            assert solve(wide, []) == (ZERO,) * n
            assert solve(tall, [ZERO] * n) == ()
            if n:
                assert solve(tall, [ONE] + [ZERO] * (n - 1)) is None
        assert det(Matrix([], ncols=0)) == ONE
        assert inverse(Matrix([], ncols=0)).shape == (0, 0)
        assert positive_definite(Matrix([], ncols=0))


def zero_structured(nrows, ncols, rng, real):
    """A random matrix whose rows and columns are each zero with
    probability 0.35."""
    zero_rows = {i for i in range(nrows) if rng.random() < 0.35}
    zero_cols = {j for j in range(ncols) if rng.random() < 0.35}
    return Matrix(
        [
            [ZERO if i in zero_rows or j in zero_cols else rand_scalar(rng, real) for j in range(ncols)]
            for i in range(nrows)
        ],
        ncols=ncols,
    )


def padded(k, x):
    """block_diag(0_k, x), the shape of a pullback's blocks."""
    return Matrix.block_diag(Matrix.zeros(k, k), x)


def snapshot(*ms):
    return copy.deepcopy([(m.re, m.im, m.den) for m in ms])


class TestZeroStructure:
    """The product skips zero rows of its left factor and zero columns of
    its right factor, and the elimination works on the integer rows in
    place; whole zero rows and columns, block_diag(0_k, X) and 0 x n /
    n x 0 shapes must give the oracles' answers on real and Gaussian
    data, and no kernel may write to its operands' rows (a product
    shares one zero row among all its zero rows)."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 2),
        st.booleans(), st.booleans(), st.integers(0, 2**32),
    )
    def test_product_and_trace(self, n, m, k, pad, real_a, real_b, seed):
        rng = random.Random(seed)
        a = padded(pad, zero_structured(n, m, rng, real_a))
        b = padded(pad, zero_structured(m, k, rng, real_b))
        bt = padded(pad, zero_structured(m, n, rng, real_b))
        before = snapshot(a, b, bt)
        ab = a * b
        assert ring_matrix(ab) == ring_matrix(a) * ring_matrix(b)
        assert ab.shape == (n + pad, k + pad)
        want = (ring_matrix(a) * ring_matrix(bt)).trace()
        assert a.trace_mul(bt) == (want.re, want.im)
        assert snapshot(a, b, bt) == before
        # the product's shared zero rows feed further kernels unchanged
        after = snapshot(ab)
        ab2 = ab * ab.conj_transpose()
        assert ring_matrix(ab2) == ring_matrix(ab) * ring_matrix(ab).conj_transpose()
        assert rank(ab) == reference_rank(ab)
        assert nullspace(ab) == reference_nullspace(ab)
        assert snapshot(ab) == after

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 2),
        st.booleans(), st.booleans(), st.integers(0, 2**32),
    )
    def test_elimination(self, n, m, k, pad, real, consistent, seed):
        rng = random.Random(seed)
        a = padded(pad, zero_structured(n, m, rng, real) * zero_structured(m, k, rng, real))
        if consistent:
            x0 = zero_structured(a.ncols, 1, rng, real)
            b = [v for (v,) in (a * x0).rows]
        else:
            b = [rand_scalar(rng, real=real) for _ in range(a.nrows)]
        before = snapshot(a)
        assert rank(a) == reference_rank(a)
        assert nullspace(a) == reference_nullspace(a)
        assert solve(a, b) == reference_solve(a, b)
        square = padded(pad, zero_structured(n, n, rng, real))
        assert det(square) == reference_det(square)
        try:
            want = reference_inverse(square)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                inverse(square)
        else:
            assert ring_matrix(inverse(square)) == want
        assert snapshot(a) == before

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2), st.booleans(), st.integers(0, 2**32))
    def test_positive_definite(self, n, m, pad, real, seed):
        rng = random.Random(seed)
        c = zero_structured(m, n, rng, real)
        gram = c.conj_transpose() * c
        candidates = [
            gram,
            gram + Matrix.identity(n),
            padded(pad, gram + Matrix.identity(n)),
            Matrix.block_diag(rand_pd_matrix(pad, rng, real), gram + Matrix.identity(n)),
            Matrix.block_diag(gram + Matrix.identity(n), padded(pad, rand_pd_matrix(m, rng, real))),
        ]
        for h in candidates:
            before = snapshot(h)
            assert positive_definite(h) == leading_minors_positive(h)
            assert snapshot(h) == before
        assert positive_definite(candidates[1])
        assert positive_definite(candidates[3])
        assert positive_definite(candidates[2]) == (pad == 0)

    def test_shared_zero_rows(self):
        a = Matrix([[ZERO, ZERO], [ONE, 2], [ZERO, ZERO]])
        b = Matrix([[ONE, ZERO], [I, ZERO]])
        ab = a * b
        assert ab.re[0] is ab.re[2] and ab.im[0] is ab.im[2]
        before = snapshot(ab)
        assert rank(ab) == 1
        assert det(Matrix.block_diag(ab, Matrix.zeros(0, 1))) == ZERO
        assert inverse(ab * ab.conj_transpose() + Matrix.identity(3)).shape == (3, 3)
        assert snapshot(ab) == before


class TestSparseRank:
    """_rank, the sparse echelon insertion behind rank and betti_numbers,
    on integer columns keyed as betti_numbers keys them and through rank
    on rows, against the Scalar row reduction: real and Gaussian data,
    zero rows and columns, 0 x k and k x 0 shapes."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 4), st.integers(0, 2),
        st.booleans(), st.sampled_from([0.3, 0.7, 1.0]), st.integers(0, 2**32),
    )
    def test_matches_reference(self, n, m, inner, pad, real, density, seed):
        a = padded(pad, rand_ranked(n, m, inner, random.Random(seed), real, density))
        want = reference_rank(a)
        im = a.im or [[0] * a.ncols for _ in a.re]
        columns = [
            {2 * i + part: x for i in range(a.nrows) for part, x in enumerate((a.re[i][j], im[i][j])) if x}
            for j in range(a.ncols)
        ]
        assert _rank(columns, a.im is None) == want
        assert rank(a) == rank(a.conj_transpose()) == want


class TestScalingOperands:
    """A matrix is built from and scales by Scalar, int or Fraction
    values; anything else, a string in particular, is a TypeError and is
    never parsed."""

    def test_scalars_scale(self):
        m = Matrix.identity(2)
        half = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        for c in (Fraction(1, 2), Scalar(Fraction(1, 2))):
            assert m * c == c * m == m.scale(c) == half
        assert 3 * m == m * 3 == m + m + m
        assert I * m == m.scale(I) == Matrix([[I, ZERO], [ZERO, I]])

    @pytest.mark.parametrize("c", ["1/2", 0.5, None, [1]])
    def test_other_operands_raise(self, c):
        m = Matrix.identity(2)
        with pytest.raises(TypeError):
            m * c
        with pytest.raises(TypeError):
            c * m
        with pytest.raises(TypeError):
            m.scale(c)
        assert m.__mul__(c) is NotImplemented
        assert m.__rmul__(c) is NotImplemented

    @pytest.mark.parametrize("x", ["1/2", 0.5])
    def test_constructor_refuses_inexact_entries(self, x):
        with pytest.raises(TypeError, match="expected a Scalar, int or Fraction"):
            Matrix([[x, 0], [0, 3]])


class TestColumnStack:
    """helpers.column_stack(mats, j, nrows) reads column j of each matrix
    from its integer rows; it equals the matrix built entry by entry
    from Scalars, representation included."""

    @settings(max_examples=80)
    @given(st.integers(0, 4), st.integers(1, 4), st.booleans(), st.integers(0, 2**32))
    def test_matches_scalar_construction(self, n, r, real, seed):
        rng = random.Random(seed)
        mats = [
            gaussian_matrix(r, r, rng, 0.6, real or rng.random() < 0.5).scale(
                Fraction(1, rng.randint(1, 6))
            )
            for _ in range(n)
        ]
        for j in range(r):
            got = column_stack(mats, j, r)
            want = Matrix([[g[k, j] for g in mats] for k in range(r)], ncols=n)
            assert got == want
            assert (got.re, got.im, got.den, got.ncols) == (want.re, want.im, want.den, want.ncols)


class TestShapes:
    """Shape errors raise ValueError (under python -O too) instead of
    truncating."""

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="row 2 has 1 entries, not 2"):
            Matrix([[ONE, ONE], [ONE]])
        with pytest.raises(ValueError, match="needs an explicit ncols"):
            Matrix([])

    def test_sum_and_difference(self):
        a, b = Matrix([[ONE, ONE, ONE]]), Matrix([[ONE]])
        with pytest.raises(ValueError, match="cannot add a 1 x 3 and a 1 x 1 matrix"):
            a + b
        with pytest.raises(ValueError, match="cannot add"):
            a - b

    def test_product(self):
        a, b = Matrix.zeros(2, 3), Matrix.zeros(2, 2)
        with pytest.raises(ValueError, match="cannot multiply a 2 x 3 by a 2 x 2 matrix"):
            a * b
        with pytest.raises(ValueError, match="cannot multiply"):
            a.trace_mul(b)

    @pytest.mark.parametrize("fn", [Matrix.trace, inverse, det, positive_definite])
    def test_square_only(self, fn):
        with pytest.raises(ValueError, match="needs a square matrix, got 2 x 3"):
            fn(Matrix.zeros(2, 3))

    def test_right_hand_side_length(self):
        with pytest.raises(ValueError, match="a 2 x 3 system needs 2 right-hand sides, got 3"):
            solve(Matrix.zeros(2, 3), [ZERO] * 3)
