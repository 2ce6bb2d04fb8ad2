"""Exact matrices over the Gaussian rationals Q(i).

A Matrix keeps its entries as integer rows over one positive common
denominator: entry (k, l) is (re[k][l] + i * im[k][l]) / den, and im is
None when every imaginary part is zero, so real data does real integer
arithmetic only.  As in FLINT's fmpq_mat_mul_cleared, a product
multiplies integer rows and denominators and then divides out one gcd
over all its entries; sums bring both operands to the lcm of the
denominators and are not reduced, so == compares values by
cross-multiplying and hash uses the reduced form.  m[i, j] and m.rows
give Scalars.  Rows are lists that are never mutated.

One fraction-free elimination, _eliminate, serves rank, solve,
nullspace, inverse, det and positive_definite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .scalars import Scalar, ZERO, ONE


class Matrix:
    __slots__ = ("re", "im", "den", "ncols")

    def __init__(self, rows, ncols=None):
        """rows of Scalar, int or Fraction entries; ncols is needed only
        when there are no rows."""
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("a matrix without rows needs an explicit ncols")
            ncols = len(rows[0])
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError(f"row {i + 1} has {len(row)} entries, not {ncols}")
            for j, x in enumerate(row):
                entries[i, j] = Scalar.coerce(x)
        self.re, self.im, self.den = _cleared(entries, len(rows), ncols)
        self.ncols = ncols

    @staticmethod
    def from_entries(entries: dict, nrows: int, ncols: int) -> "Matrix":
        """The matrix with Scalar entries {(i, j): value}, zero elsewhere."""
        return _matrix(*_cleared(entries, nrows, ncols), ncols)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return _matrix([[0] * ncols for _ in range(nrows)], None, 1, ncols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix([[int(i == j) for j in range(n)] for i in range(n)], None, 1, n)

    @staticmethod
    def block_diag(m0: "Matrix", m1: "Matrix") -> "Matrix":
        """[[m0, 0], [0, m1]]; either block may have no rows or columns."""
        den = lcm(m0.den, m1.den)
        f0, f1 = den // m0.den, den // m1.den
        right, left = [0] * m1.ncols, [0] * m0.ncols

        def place(x0, x1):
            return [[f0 * v for v in r] + right for r in x0] + [
                left + [f1 * v for v in r] for r in x1
            ]

        im = None
        if m0.im is not None or m1.im is not None:
            im = place(_imag(m0), _imag(m1))
        return _matrix(place(m0.re, m1.re), im, den, m0.ncols + m1.ncols)

    @property
    def nrows(self) -> int:
        return len(self.re)

    @property
    def shape(self):
        return (len(self.re), self.ncols)

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of tuples of Scalars."""
        return tuple(
            tuple(self[i, j] for j in range(self.ncols)) for i in range(len(self.re))
        )

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        im = 0 if self.im is None else Fraction(self.im[i][j], self.den)
        return Scalar(Fraction(self.re[i][j], self.den), im)

    def conj_transpose(self) -> "Matrix":
        re = [list(col) for col in zip(*self.re)] or [[] for _ in range(self.ncols)]
        im = None if self.im is None else [[-x for x in col] for col in zip(*self.im)]
        return _matrix(re, im, self.den, len(self.re))

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def __neg__(self):
        im = None if self.im is None else _lin(self.im, -1)
        return _matrix(_lin(self.re, -1), im, self.den, self.ncols)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        if self.shape != other.shape:
            raise ValueError(f"cannot add a {_dims(self)} and a {_dims(other)} matrix")
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
        return _matrix(re, im, den, self.ncols)

    def scale(self, c) -> "Matrix":
        c = Scalar.coerce(c)
        den = lcm(c.re.denominator, c.im.denominator)
        u = c.re.numerator * (den // c.re.denominator)
        v = c.im.numerator * (den // c.im.denominator)
        if self.im is None:
            re = _lin(self.re, u)
            im = None if not v else _lin(self.re, v)
        else:
            re = _lin(self.re, u, self.im, -v)
            im = _lin(self.im, u, self.re, v)
        return _matrix(re, im, self.den * den, self.ncols)

    __rmul__ = scale

    def __mul__(self, other) -> "Matrix":
        """The matrix product, reduced by the gcd of entries and den; a
        Scalar, int or Fraction scales."""
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != len(other.re):
            raise ValueError(f"cannot multiply a {_dims(self)} by a {_dims(other)} matrix")
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

    def trace(self) -> Scalar:
        _square(self, "a trace")
        re = sum(row[k] for k, row in enumerate(self.re))
        im = 0 if self.im is None else sum(row[k] for k, row in enumerate(self.im))
        return Scalar(Fraction(re, self.den), Fraction(im, self.den))

    def trace_mul(self, other: "Matrix") -> tuple:
        """tr(self * other), the sum of a_kl b_lk, without the product, as
        exact (re, im) rationals (im is the int 0 on real data)."""
        if (self.ncols, len(self.re)) != other.shape:
            raise ValueError(f"cannot multiply a {_dims(self)} by a {_dims(other)} matrix")
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

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape or (self.im is None) != (other.im is None):
            return False
        f, g = (1, 1) if self.den == other.den else (other.den, self.den)

        def same(x, y):
            return all(f * s == g * t for r1, r2 in zip(x, y) for s, t in zip(r1, r2))

        return same(self.re, other.re) and (self.im is None or same(self.im, other.im))

    def __hash__(self):
        m = _reduced(self.re, self.im, self.den, self.ncols)
        im = None if m.im is None else tuple(map(tuple, m.im))
        return hash((self.shape, m.den, tuple(map(tuple, m.re)), im))

    def __repr__(self):
        return "Matrix([" + ", ".join(str(list(r)) for r in self.rows) + "])"


_new = object.__new__


def _matrix(re: list, im, den: int, ncols: int) -> Matrix:
    """The Matrix (re + i im) / den, built without clearing; im is
    dropped when it is all zero."""
    m = _new(Matrix)
    m.re = re
    m.im = im if im is not None and any(map(any, im)) else None
    m.den = den
    m.ncols = ncols
    return m


def _cleared(entries: dict, nrows: int, ncols: int) -> tuple:
    """(re, im, den) of the Scalar entries {(i, j): value} over the lcm
    of their denominators, which leaves them in lowest terms."""
    values = entries.values()
    den = lcm(*(x.re.denominator for x in values), *(x.im.denominator for x in values))
    re = [[0] * ncols for _ in range(nrows)]
    im = [[0] * ncols for _ in range(nrows)] if any(x.im for x in values) else None
    for (i, j), x in entries.items():
        re[i][j] = x.re.numerator * (den // x.re.denominator)
        if im is not None:
            im[i][j] = x.im.numerator * (den // x.im.denominator)
    return re, im, den


def _reduced(re: list, im, den: int, ncols: int) -> Matrix:
    """The Matrix re + i im over den, divided by the gcd of its entries
    and den."""
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
    return _matrix(re, im, den, ncols)


def _imag(m: Matrix) -> list:
    return m.im if m.im is not None else [[0] * m.ncols for _ in m.re]


def _dims(m: Matrix) -> str:
    return f"{len(m.re)} x {m.ncols}"


def _square(m: Matrix, what: str):
    if len(m.re) != m.ncols:
        raise ValueError(f"{what} needs a square matrix, got {_dims(m)}")


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


# ---------------------------------------------------------------------------
# Elimination


class _GaussInt:
    """A Gaussian integer: the entries _eliminate works with when a
    matrix has imaginary parts.  It has int's attribute names (real,
    imag, conjugate), so code reading an entry works on both."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real = real
        self.imag = imag

    def __mul__(self, other):
        if other.__class__ is int:
            return _GaussInt(self.real * other, self.imag * other)
        return _GaussInt(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __sub__(self, other):
        return _GaussInt(self.real - other.real, self.imag - other.imag)

    def __floordiv__(self, g: int):
        return _GaussInt(self.real // g, self.imag // g)

    def __bool__(self):
        return bool(self.real or self.imag)

    def conjugate(self):
        return _GaussInt(self.real, -self.imag)


def _entries(m: Matrix) -> list:
    """The rows of den * m as elimination entries: ints, or Gaussian
    integers when m has imaginary parts."""
    if m.im is None:
        return list(m.re)
    return [[_GaussInt(x, y) for x, y in zip(r, i)] for r, i in zip(m.re, m.im)]


def _content(row: list) -> int:
    """The gcd of the integer parts of a row."""
    if row[0].__class__ is int:
        return gcd(*row)
    return gcd(*(x.real for x in row), *(x.imag for x in row))


def _eliminate(rows: list) -> tuple:
    """Fraction-free Gauss-Jordan elimination of rows, in place.

    A pivot p in row k turns every other row with f = row[c] != 0 into
    (a * row - f * s * rows[k]) / g, where s is sign(p) for an int and
    conj(p) for a Gaussian integer, a = p * s > 0, and g > 0 is the gcd
    of the result.  Every row therefore stays a positive multiple of the
    row that rational Gauss-Jordan elimination (no normalisation) would
    hold, and rows with f = 0 are left alone.  In particular pivot row k
    ends with a positive multiple of the k-th rational pivot in its
    pivot column; without row exchanges, that pivot is the ratio of the
    k-th to the (k-1)-th leading principal minor.

    Returns (pivots, exchanges, scale): the pivot columns in order, the
    number of row exchanges, and the product of a / g over all row
    combinations.  For a square matrix of full rank, det = (-1) **
    exchanges * (product of the final diagonal) / scale.
    """
    pivots = []
    exchanges = 0
    a_prod = g_prod = 1
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        pr = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != k:
            rows[k], rows[pr] = rows[pr], rows[k]
            exchanges += 1
        pivot_row = rows[k]
        p = pivot_row[c]
        if p.__class__ is int:
            a, s = (p, 1) if p > 0 else (-p, -1)
        else:
            s = p.conjugate()
            a = (p * s).real
        for i, row in enumerate(rows):
            f = row[c]
            if i == k or not f:
                continue
            b = f * s
            new = [a * x - b * y for x, y in zip(row, pivot_row)]
            g = _content(new)
            if g > 1:
                new = [x // g for x in new]
                g_prod *= g
            rows[i] = new
            a_prod *= a
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots, exchanges, Fraction(a_prod, g_prod)


def _quotient(x, d) -> Scalar:
    """x / d for ints or Gaussian integers x and d != 0."""
    s = d.conjugate()
    n = (d * s).real
    q = x * s
    return Scalar(Fraction(q.real, n), Fraction(q.imag, n))


def _beside(m: Matrix, rhs: Matrix) -> Matrix:
    """[m | rhs] over the lcm of the two denominators."""
    den = lcm(m.den, rhs.den)
    f, g = den // m.den, den // rhs.den

    def join(x, y):
        return [[f * v for v in r] + [g * v for v in s] for r, s in zip(x, y)]

    im = None
    if m.im is not None or rhs.im is not None:
        im = join(_imag(m), _imag(rhs))
    return _matrix(join(m.re, rhs.re), im, den, m.ncols + rhs.ncols)


def rank(m: Matrix) -> int:
    return len(_eliminate(_entries(m))[0])


def solve(m: Matrix, b) -> tuple | None:
    """One exact solution x of m x = b, or None if inconsistent.

    b is a sequence of m.nrows Scalars; x is a tuple of Scalars.
    """
    b = list(b)
    if len(b) != m.nrows:
        raise ValueError(f"a {_dims(m)} system needs {m.nrows} right-hand sides, got {len(b)}")
    n = m.ncols
    rows = _entries(_beside(m, Matrix([[x] for x in b], ncols=1)))
    pivots, _, _ = _eliminate(rows)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = _quotient(row[n], row[c])
    return tuple(x)


def nullspace(m: Matrix) -> list[tuple]:
    """A basis of ker(m) as tuples of Scalars, one per free column."""
    rows = _entries(m)
    pivots, _, _ = _eliminate(rows)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        v = [ZERO] * m.ncols
        v[f] = ONE
        for row, c in zip(rows, pivots):
            v[c] = -_quotient(row[f], row[c])
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    """The inverse of a square matrix; ZeroDivisionError if singular."""
    _square(m, "an inverse")
    n = m.ncols
    rows = _entries(_beside(m, Matrix.identity(n)))
    pivots, _, _ = _eliminate(rows)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    # row k of m^-1 is the right half of row k over its diagonal entry d,
    # that is times conj(d) over the positive integer d * conj(d)
    conj = [row[k].conjugate() for k, row in enumerate(rows)]
    norms = [(row[k] * s).real for k, (row, s) in enumerate(zip(rows, conj))]
    den = lcm(*norms)
    out = [[x * (s * (den // nk)) for x in row[n:]] for row, s, nk in zip(rows, conj, norms)]
    re = [[x.real for x in r] for r in out]
    im = [[x.imag for x in r] for r in out]
    return _reduced(re, im, den, n)


def det(m: Matrix) -> Scalar:
    _square(m, "a determinant")
    n = m.ncols
    rows = _entries(m)
    pivots, exchanges, scale = _eliminate(rows)
    if len(pivots) < n:
        return ZERO
    d = 1
    for k, row in enumerate(rows):
        d = row[k] * d
    if exchanges % 2:
        scale = -scale
    return Scalar(d.real, d.imag) / (scale * m.den**n)


def positive_definite(h: Matrix) -> bool:
    """Whether the Hermitian matrix h is positive-definite.

    Sylvester's criterion: every leading principal minor is positive.
    These minors are positive exactly when an elimination without row
    exchanges finds a pivot in every column and every pivot, a positive
    multiple of the ratio of two consecutive minors, is positive.
    """
    _square(h, "a definiteness test")
    rows = _entries(h)
    pivots, exchanges, _ = _eliminate(rows)
    return (
        not exchanges
        and len(pivots) == h.ncols
        and all(not row[k].imag and row[k].real > 0 for k, row in enumerate(rows))
    )
