"""Small exact matrices.

Matrices are immutable tuples-of-tuples over any ring whose elements
support +, -, * and .conj() (Scalar here; the tests also use
polynomials).  The field-only routines (rref, rank, solve, inverse,
det) assume Scalar entries, i.e. work over Q(i).  ClearedMatrix is the
integer form of a Q(i) matrix that the transgression computes with.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .scalars import Scalar, ZERO, ONE


class Matrix:
    __slots__ = ("rows", "nrows", "ncols", "zero")

    def __init__(self, rows, zero=ZERO, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            assert all(len(r) == self.ncols for r in rows)
        else:
            assert ncols is not None, "empty matrix needs explicit ncols"
            self.ncols = ncols
        self.zero = zero

    @staticmethod
    def zeros(nrows: int, ncols: int, zero=ZERO) -> "Matrix":
        return Matrix([[zero] * ncols for _ in range(nrows)], zero, ncols=ncols)

    @staticmethod
    def identity(n: int, one=ONE, zero=ZERO) -> "Matrix":
        return Matrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            zero,
            ncols=n,
        )

    @staticmethod
    def block_diag(m0: "Matrix", m1: "Matrix") -> "Matrix":
        """[[m0, 0], [0, m1]]; either block may have no rows or columns."""
        right = (m0.zero,) * m1.ncols
        left = (m0.zero,) * m0.ncols
        return Matrix(
            [row + right for row in m0.rows] + [left + row for row in m1.rows],
            m0.zero,
            ncols=m0.ncols + m1.ncols,
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        assert self.shape == other.shape
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            self.zero,
            ncols=self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix(
            [[-a for a in r] for r in self.rows], self.zero, ncols=self.ncols
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            assert self.ncols == other.nrows, "shape mismatch"
            # only products of two nonzero entries can contribute
            right = [
                [(j, b) for j, b in enumerate(row) if not b.is_zero()]
                for row in other.rows
            ]
            out = []
            for lrow in self.rows:
                row = [None] * other.ncols
                for k, a in enumerate(lrow):
                    if a.is_zero():
                        continue
                    for j, b in right[k]:
                        acc = row[j]
                        row[j] = a * b if acc is None else acc + a * b
                out.append([self.zero if v is None else v for v in row])
            return Matrix(out, self.zero, ncols=other.ncols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        return Matrix(
            [[a * c for a in r] for r in self.rows], self.zero, ncols=self.ncols
        )

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(
            [
                [self.rows[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)
            ],
            self.zero,
            ncols=self.nrows,
        )

    def conj(self) -> "Matrix":
        return Matrix(
            [[a.conj() for a in r] for r in self.rows], self.zero, ncols=self.ncols
        )

    def conj_transpose(self) -> "Matrix":
        return self.transpose().conj()

    def trace(self):
        assert self.nrows == self.ncols
        acc = self.zero
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def column(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b
            for r1, r2 in zip(self.rows, other.rows)
            for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return "Matrix([" + ", ".join(str(list(r)) for r in self.rows) + "])"


class ClearedMatrix:
    """A Q(i) matrix as integer rows over one positive common denominator.

    Entry (k, l) is (re[k][l] + i * im[k][l]) / den.  im is None when
    every imaginary part is zero, so real data does real integer
    arithmetic only.  As in FLINT's fmpq_mat_mul_cleared, a product
    multiplies integer rows and denominators and then divides out one
    gcd over all its entries; sums bring both operands to the lcm of the
    denominators.  The form is not canonical (a sum is not reduced), so
    compare values through their entries over den.  Rows are lists that
    are never mutated.
    """

    __slots__ = ("re", "im", "den", "ncols")

    def __init__(self, re: list, im, den: int, ncols: int):
        self.re = re
        self.im = im if im is not None and any(map(any, im)) else None
        self.den = den
        self.ncols = ncols

    @staticmethod
    def from_matrix(m: Matrix) -> "ClearedMatrix":
        entries = [x for row in m.rows for x in row]
        complex_ = any(x.im for x in entries)
        den = lcm(*(x.re.denominator for x in entries))
        if complex_:
            den = lcm(den, *(x.im.denominator for x in entries))
        re = [[x.re.numerator * (den // x.re.denominator) for x in row] for row in m.rows]
        if not complex_:
            return ClearedMatrix(re, None, den, m.ncols)
        im = [[x.im.numerator * (den // x.im.denominator) for x in row] for row in m.rows]
        return ClearedMatrix(re, im, den, m.ncols)

    def to_matrix(self) -> Matrix:
        den, ncols = self.den, self.ncols
        if self.im is None:
            rows = [[Scalar(Fraction(x, den)) for x in row] for row in self.re]
        else:
            rows = [
                [Scalar(Fraction(x, den), Fraction(y, den)) for x, y in zip(r1, r2)]
                for r1, r2 in zip(self.re, self.im)
            ]
        return Matrix(rows, ncols=ncols)

    def conj_transpose(self) -> "ClearedMatrix":
        re = [list(col) for col in zip(*self.re)] or [[] for _ in range(self.ncols)]
        im = None if self.im is None else [[-x for x in col] for col in zip(*self.im)]
        return ClearedMatrix(re, im, self.den, len(self.re))

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def __neg__(self):
        im = None if self.im is None else _lin(self.im, -1)
        return ClearedMatrix(_lin(self.re, -1), im, self.den, self.ncols)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        if self.den == other.den:
            den, f1, f2 = self.den, 1, sign
        else:
            den = lcm(self.den, other.den)
            f1, f2 = den // self.den, sign * (den // other.den)
        re = _lin(self.re, f1, other.re, f2)
        if other.im is None:
            im = self.im if f1 == 1 or self.im is None else _lin(self.im, f1)
        elif self.im is None:
            im = _lin(other.im, f2)
        else:
            im = _lin(self.im, f1, other.im, f2)
        return ClearedMatrix(re, im, den, self.ncols)

    def scale(self, c: Scalar) -> "ClearedMatrix":
        den = lcm(c.re.denominator, c.im.denominator)
        u = c.re.numerator * (den // c.re.denominator)
        v = c.im.numerator * (den // c.im.denominator)
        if self.im is None:
            re = _lin(self.re, u)
            im = None if not v else _lin(self.re, v)
        else:
            re = _lin(self.re, u, self.im, -v)
            im = _lin(self.im, u, self.re, v)
        return ClearedMatrix(re, im, self.den * den, self.ncols)

    def __mul__(self, other: "ClearedMatrix") -> "ClearedMatrix":
        """The matrix product, reduced by the gcd of entries and den."""
        n = other.ncols
        a, b = self.im, other.im
        re = _matmul(self.re, other.re, n)
        if a is None and b is None:
            im = None
        elif a is None:
            im = _matmul(self.re, b, n)
        elif b is None:
            im = _matmul(a, other.re, n)
        else:
            re = _lin(re, 1, _matmul(a, b, n), -1)
            im = _lin(_matmul(self.re, b, n), 1, _matmul(a, other.re, n), 1)
        return _reduced(re, im, self.den * other.den, n)

    def inverse(self) -> "ClearedMatrix":
        """The inverse of a square matrix; ZeroDivisionError if singular.

        A Gaussian N = A + iB is inverted through the real matrix
        [[A, -B], [B, A]], whose inverse has the same block form.
        """
        n = len(self.re)
        if self.im is None:
            adj, det = _fraction_free_inverse(self.re)
            re, im = adj, None
        else:
            top = [r + [-x for x in i] for r, i in zip(self.re, self.im)]
            bottom = [i + r for r, i in zip(self.re, self.im)]
            adj, det = _fraction_free_inverse(top + bottom)
            re = [row[:n] for row in adj[:n]]
            im = [row[:n] for row in adj[n:]]
        # self^-1 = den * N^-1 = den * adj / det
        f = self.den if det > 0 else -self.den
        re = _lin(re, f)
        im = None if im is None else _lin(im, f)
        return _reduced(re, im, abs(det), n)

    def trace(self) -> tuple:
        """(re, im) of the trace, exact rationals (im is the int 0 on
        real data)."""
        re = sum(row[k] for k, row in enumerate(self.re))
        im = 0 if self.im is None else sum(row[k] for k, row in enumerate(self.im))
        return Fraction(re, self.den), Fraction(im, self.den) if im else 0

    def trace_mul(self, other: "ClearedMatrix") -> tuple:
        """(re, im) of tr(self * other), the sum of a_kl b_lk, without
        the product."""
        a, b = self.im, other.im
        re = _trace_mul(self.re, other.re)
        if a is None and b is None:
            im = 0
        elif a is None:
            im = _trace_mul(self.re, b)
        elif b is None:
            im = _trace_mul(a, other.re)
        else:
            re -= _trace_mul(a, b)
            im = _trace_mul(self.re, b) + _trace_mul(a, other.re)
        den = self.den * other.den
        return Fraction(re, den), Fraction(im, den) if im else 0


def _reduced(re: list, im, den: int, ncols: int) -> ClearedMatrix:
    """The ClearedMatrix re + i im over den, divided by the gcd of its
    entries and den."""
    g = den
    for row in re:
        if g == 1:
            break
        g = gcd(g, *row)
    if im is not None:
        for row in im:
            if g == 1:
                break
            g = gcd(g, *row)
    if g > 1:
        re = [[x // g for x in row] for row in re]
        if im is not None:
            im = [[x // g for x in row] for row in im]
        den //= g
    return ClearedMatrix(re, im, den, ncols)


def _fraction_free_inverse(rows: list) -> tuple:
    """(X, d) with rows^-1 = X / d for a square integer matrix.

    Fraction-free Gauss-Jordan (Bareiss) on [rows | I]: every entry
    stays an integer (a minor of the row-permuted matrix), so each
    division by the previous pivot is exact, and the left block ends as
    d * I with d the last pivot, +-det.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        pivot_row = m[k]
        p = pivot_row[k]
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return [row[n:] for row in m], prev


def _lin(x: list, f: int, y: list = None, g: int = 0) -> list:
    """f * x + g * y for integer rows of one shape."""
    if not g:
        return [[f * s for s in row] for row in x]
    return [[f * s + g * t for s, t in zip(r1, r2)] for r1, r2 in zip(x, y)]


def _matmul(x: list, y: list, ncols: int) -> list:
    if not y:
        return [[0] * ncols for _ in x]
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _trace_mul(x: list, y: list) -> int:
    return sum(sum(map(mul, row, col)) for row, col in zip(x, zip(*y)))


def _rref(rows):
    """Row-reduce a list of Scalar lists in place; return pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        pr = None
        for i in range(row, nrows):
            if not rows[i][col].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[row], rows[pr] = rows[pr], rows[row]
        inv = ONE / rows[row][col]
        rows[row] = [a * inv for a in rows[row]]
        for i in range(nrows):
            if i != row and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return pivots


def rank(m: Matrix) -> int:
    if m.nrows == 0 or m.ncols == 0:
        return 0
    rows = [list(r) for r in m.rows]
    return len(_rref(rows))


def solve(m: Matrix, b) -> tuple | None:
    """One exact solution x of m x = b, or None if inconsistent.

    b is a sequence of Scalars of length m.nrows.
    """
    b = list(b)
    assert len(b) == m.nrows
    if m.ncols == 0:
        return () if all(x.is_zero() for x in b) else None
    if m.nrows == 0:
        return (ZERO,) * m.ncols
    rows = [list(r) + [bi] for r, bi in zip(m.rows, b)]
    pivots = _rref(rows)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for i, col in enumerate(pivots):
        x[col] = rows[i][m.ncols]
    return tuple(x)


def nullspace(m: Matrix) -> list[tuple]:
    """A basis of ker(m) as tuples of Scalars."""
    if m.ncols == 0:
        return []
    if m.nrows == 0:
        return [
            tuple(ONE if i == j else ZERO for j in range(m.ncols))
            for i in range(m.ncols)
        ]
    rows = [list(r) for r in m.rows]
    pivots = _rref(rows)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m.ncols
        v[f] = ONE
        for i, col in enumerate(pivots):
            v[col] = -rows[i][f]
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    assert m.nrows == m.ncols
    n = m.nrows
    if n == 0:
        return Matrix([], ncols=0)
    aug = [
        list(r) + [ONE if i == j else ZERO for j in range(n)]
        for i, r in enumerate(m.rows)
    ]
    pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return Matrix([row[n:] for row in aug], ncols=n)


def det(m: Matrix) -> Scalar:
    assert m.nrows == m.ncols
    n = m.nrows
    if n == 0:
        return ONE
    rows = [list(r) for r in m.rows]
    d = ONE
    for col in range(n):
        pr = None
        for i in range(col, n):
            if not rows[i][col].is_zero():
                pr = i
                break
        if pr is None:
            return ZERO
        if pr != col:
            rows[col], rows[pr] = rows[pr], rows[col]
            d = -d
        d = d * rows[col][col]
        inv = ONE / rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] * inv
            if not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return d
