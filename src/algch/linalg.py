"""Small exact matrices.

Matrices are immutable tuples-of-tuples over any ring whose elements
support +, -, * and .conj() (Scalar or SimplexPolynomial here).  The
field-only routines (rref, rank, solve, inverse, det) assume Scalar
entries, i.e. work over Q(i).
"""

from __future__ import annotations

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

    def trace_mul(self, other: "Matrix"):
        """tr(self * other) as the sum of a_ij b_ji, without the product."""
        assert self.nrows == other.ncols and self.ncols == other.nrows
        acc = None
        right = other.rows
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if a.is_zero():
                    continue
                b = right[j][i]
                if b.is_zero():
                    continue
                acc = a * b if acc is None else acc + a * b
        return self.zero if acc is None else acc

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
