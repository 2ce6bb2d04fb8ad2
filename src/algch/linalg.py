"""Exact matrices over the Gaussian rationals Q(i).

A Matrix keeps its entries as integer rows over one positive common
denominator: entry (k, l) is (re[k][l] + i * im[k][l]) / den, and im is
None when every imaginary part is zero, so real data does real integer
arithmetic only.  As in FLINT's fmpq_mat_mul_cleared, a product
multiplies integer rows and denominators and then divides out one gcd
over all its entries; it skips the zero rows of its left factor and the
zero columns of its right factor, so block_diag(0_k, X) and sparse ad
matrices cost only their nonzero rows and columns.  Sums bring both
operands to the lcm of the denominators and are not reduced, so ==
compares values by cross-multiplying and hash uses the reduced form.
m[i, j] and m.rows give Scalars.  Rows are lists that are never
mutated; a product's zero rows may be one shared list.

One dense fraction-free Gauss-Jordan elimination, _eliminate, serves
solve, nullspace and det.  It works on the same integer rows, the real
parts alone for real data and the pairs (re, im) otherwise, and rank
runs the sparse _rank that betti_numbers runs.  inverse and
positive_definite take Bareiss passes instead, which divide exactly by
the previous pivot and take no gcd: inverse one Gauss-Jordan pass that
builds new rows of [m | den I], positive_definite the forward pass over
the upper triangle alone, as it needs only the leading minors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .scalars import Scalar, ZERO, ONE


class Matrix:
    __slots__ = ("re", "im", "den", "ncols")

    def __init__(self, rows, ncols=None):
        """rows of Scalar, int or Fraction entries (TypeError for any
        other); ncols is needed only when there are no rows."""
        rows = [[Scalar.exact(x) for x in r] for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("a matrix without rows needs an explicit ncols")
            ncols = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError(f"row {i + 1} has {len(row)} entries, not {ncols}")
        self.re, self.im, self.den = _cleared(
            [[(x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator) for x in row] for row in rows]
        )
        self.ncols = ncols

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
        """c * self for a Scalar, int or Fraction c."""
        c = Scalar.exact(c)
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

    def __rmul__(self, c):
        return self.scale(c) if isinstance(c, _SCALARS) else NotImplemented

    def __mul__(self, other) -> "Matrix":
        """The matrix product, reduced by the gcd of entries and den; a
        Scalar, int or Fraction scales."""
        if not isinstance(other, Matrix):
            return self.__rmul__(other)
        if self.ncols != len(other.re):
            raise ValueError(f"cannot multiply a {_dims(self)} by a {_dims(other)} matrix")
        re, im = _cmatmul((self.re, self.im), (other.re, other.im), other.ncols)
        return _reduced(re, im, self.den * other.den, other.ncols)

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
_SCALARS = (Scalar, int, Fraction)


def _matrix(re: list, im, den: int, ncols: int) -> Matrix:
    """The Matrix (re + i im) / den, built without clearing; im is
    dropped when it is all zero."""
    m = _new(Matrix)
    m.re = re
    m.im = im if im is not None and any(map(any, im)) else None
    m.den = den
    m.ncols = ncols
    return m


def _cleared(rows: list) -> tuple:
    """(re, im, den) for rows of entries (x, u, y, v) = x/u + i y/v in lowest
    terms: integer rows over the lcm of the denominators, which leaves the
    entries in lowest terms; im is None when every y is 0."""
    den = lcm(*{d for row in rows for _, u, _, v in row for d in (u, v)})
    re = [[x * (den // u) for x, u, _, _ in row] for row in rows]
    im = None
    if any(y for row in rows for _, _, y, _ in row):
        im = [[y * (den // v) for _, _, y, v in row] for row in rows]
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
    """x * y for integer rows: each zero row of x gives the one shared
    zero row, and only the nonzero columns of y are dotted."""
    zero = [0] * ncols
    cols = list(zip(*y))
    nz = [j for j, col in enumerate(cols) if any(col)]
    if len(nz) == ncols:
        return [[sum(map(mul, row, col)) for col in cols] if any(row) else zero for row in x]
    out = [zero] * len(x)
    if nz:
        for i, row in enumerate(x):
            if any(row):
                out[i] = new = zero.copy()
                for j in nz:
                    new[j] = sum(map(mul, row, cols[j]))
    return out


def _trace_mul(x: list, y: list) -> int:
    return sum(sum(map(mul, row, col)) for row, col in zip(x, zip(*y)))


def _cmatmul(x: tuple, y: tuple, ncols: int) -> tuple:
    """x * y for Gaussian integer rows x = (re, im) and y = (re, im), an
    im None when it is zero; the product's im is None on real data."""
    (a, b), (c, d) = x, y
    re = _matmul(a, c, ncols)
    if b is None:
        return re, None if d is None else _matmul(a, d, ncols)
    if d is None:
        return re, _matmul(b, c, ncols)
    return _lin(re, 1, _matmul(b, d, ncols), -1), _lin(_matmul(a, d, ncols), 1, _matmul(b, c, ncols), 1)



# ---------------------------------------------------------------------------
# Elimination


def _rows(m: Matrix) -> tuple:
    """New outer lists of m's integer rows (re, im), for _eliminate to
    reorder and replace; the rows themselves are never written to."""
    return list(m.re), None if m.im is None else list(m.im)


def _eliminate(re: list, im) -> tuple:
    """Fraction-free Gauss-Jordan elimination of the integer rows re + i
    im (im is None for real data), in place.

    A pivot p in row k turns every other row with f = row[c] != 0 into
    (a * row - f * s * rows[k]) / g, where s is sign(p) for real data
    and conj(p) otherwise, a = p * s > 0, and g > 0 is the gcd of the
    real and imaginary parts of the result.  Every row therefore stays
    a positive multiple of the row that rational Gauss-Jordan
    elimination (no normalisation) would hold, and rows with f = 0 are
    left alone.  In particular pivot row k ends with a positive
    multiple of the k-th rational pivot in its pivot column; without
    row exchanges, that pivot is the ratio of the k-th to the (k-1)-th
    leading principal minor.

    Returns (pivots, exchanges, scale): the pivot columns in order, the
    number of row exchanges, and the product of a / g over all row
    combinations.  For a square matrix of full rank, det = (-1) **
    exchanges * (product of the final diagonal) / scale.
    """
    pivots = []
    exchanges = 0
    a_prod = g_prod = 1
    for c in range(len(re[0]) if re else 0):
        k = len(pivots)
        if im is None:
            pr = next((i for i in range(k, len(re)) if re[i][c]), None)
        else:
            pr = next((i for i in range(k, len(re)) if re[i][c] or im[i][c]), None)
        if pr is None:
            continue
        if pr != k:
            re[k], re[pr] = re[pr], re[k]
            if im is not None:
                im[k], im[pr] = im[pr], im[k]
            exchanges += 1
        pivot_re = re[k]
        if im is None:
            p = pivot_re[c]
            a, s = (p, 1) if p > 0 else (-p, -1)
            for i, row in enumerate(re):
                f = row[c]
                if i == k or not f:
                    continue
                b = f * s
                new = [a * x - b * y for x, y in zip(row, pivot_re)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                    g_prod *= g
                re[i] = new
                a_prod *= a
        else:
            pivot_im = im[k]
            u, v = pivot_re[c], pivot_im[c]
            a = u * u + v * v
            for i, (row_re, row_im) in enumerate(zip(re, im)):
                fr, fi = row_re[c], row_im[c]
                if i == k or not (fr or fi):
                    continue
                # b = f * conj(p); the new row is a * row - b * pivot_row
                br, bi = fr * u + fi * v, fi * u - fr * v
                new_re = [a * x - br * y + bi * z for x, y, z in zip(row_re, pivot_re, pivot_im)]
                new_im = [a * x - br * z - bi * y for x, y, z in zip(row_im, pivot_re, pivot_im)]
                g = gcd(*new_re, *new_im)
                if g > 1:
                    new_re = [x // g for x in new_re]
                    new_im = [x // g for x in new_im]
                    g_prod *= g
                re[i], im[i] = new_re, new_im
                a_prod *= a
        pivots.append(c)
        if len(pivots) == len(re):
            break
    return pivots, exchanges, Fraction(a_prod, g_prod)


def _quotient(re: list, im, k: int, j: int, c: int) -> Scalar:
    """Entry (k, j) over entry (k, c) != 0 of eliminated rows."""
    if im is None:
        return Scalar(Fraction(re[k][j], re[k][c]))
    x, y, d, e = re[k][j], im[k][j], re[k][c], im[k][c]
    n = d * d + e * e
    return Scalar(Fraction(x * d + y * e, n), Fraction(y * d - x * e, n))


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


def _rank(vectors, real: bool) -> int:
    """Rank over Q(i) of integer vectors {2 * index + part: value != 0}, part 1
    imaginary (real: no odd key), by fraction-free echelon insertion.  Gaussian data
    is ranked over Q with i * v beside each v: Q-dimension is 2 * Q(i)-dimension."""
    if not real:
        vectors = (w for v in vectors for w in ({k ^ 1: -x if k & 1 else x for k, x in v.items()}, v))
    pivots = {}
    for v in vectors:
        while v and min(v) in pivots:
            # v <- (a * v - f * p) / g cancels the lead and divides out the content
            p = pivots[lead := min(v)]
            a, f = p[lead], v[lead]
            v = {k: x for k in v.keys() | p.keys() if (x := a * v.get(k, 0) - f * p.get(k, 0))}
            g = gcd(*v.values())
            if g > 1:
                v = {k: x // g for k, x in v.items()}
        if v:
            pivots[min(v)] = v
    return len(pivots) if real else len(pivots) // 2


def rank(m: Matrix) -> int:
    rows = [{2 * j: x for j, x in enumerate(row) if x} for row in m.re]
    for row, im in zip(rows, m.im or ()):
        row.update((2 * j + 1, x) for j, x in enumerate(im) if x)
    return _rank(rows, m.im is None)


def solve(m: Matrix, b) -> tuple | None:
    """One exact solution x of m x = b, or None if inconsistent.

    b is a sequence of m.nrows Scalars; x is a tuple of Scalars.
    """
    b = list(b)
    if len(b) != m.nrows:
        raise ValueError(f"a {_dims(m)} system needs {m.nrows} right-hand sides, got {len(b)}")
    n = m.ncols
    re, im = _rows(_beside(m, Matrix([[x] for x in b], ncols=1)))
    pivots, _, _ = _eliminate(re, im)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for k, c in enumerate(pivots):
        x[c] = _quotient(re, im, k, n, c)
    return tuple(x)


def nullspace(m: Matrix) -> list[tuple]:
    """A basis of ker(m) as tuples of Scalars, one per free column."""
    re, im = _rows(m)
    pivots, _, _ = _eliminate(re, im)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        v = [ZERO] * m.ncols
        v[f] = ONE
        for k, c in enumerate(pivots):
            v[c] = -_quotient(re, im, k, f, c)
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    """The inverse of a square matrix; ZeroDivisionError if singular.

    One fraction-free Gauss-Jordan pass of Bareiss (Math. Comp. 22, 1968)
    over the integer rows [m.re | m.den I], with a row exchange only at a
    zero pivot.  Step k, with pivot p and previous pivot q, turns every
    other row into (p * row - f * pivot_row) / q, f its entry in column
    k, also when f = 0: each row is then the k-th leading minor (of the
    exchanged rows) times the row that rational elimination holds, so
    the division is exact and takes no gcd.  Column k is zero off the
    pivot row from then on and is dropped.  The last pivot c leaves
    [c I | c m^-1].  A Gaussian q divides as x conj(q) / |q|^2, with
    conj(q) folded into p and f; on a Hermitian block without exchanges
    the pivots are its leading minors, which are real.
    """
    _square(m, "an inverse")
    n = m.ncols
    re = [[*row, *(m.den if j == i else 0 for j in range(n))] for i, row in enumerate(m.re)]
    im = None if m.im is None else [[*row] + [0] * n for row in m.im]
    q, t = 1, 0
    for k in range(n):
        pr = next((i for i in range(k, n) if re[i][0] or im and im[i][0]), None)
        if pr is None:
            raise ZeroDivisionError("matrix is singular")
        for x in (re,) if im is None else (re, im):
            x[k], x[pr] = x[pr], x[k]
        u, *y = re[k]
        if im is None:
            re = [
                y if i == k else [(u * a - row[0] * b) // q for a, b in zip(row[1:], y)]
                for i, row in enumerate(re)
            ]
            q = u
            continue
        v, *z = im[k]
        pivot, e = (u, v), q
        if t:
            u, v, e = u * q + v * t, v * q - u * t, q * q + t * t
        for i in range(n):
            if i == k:
                re[i], im[i] = y, z
                continue
            (fr, *xr), (fi, *xi) = re[i], im[i]
            if t:
                fr, fi = fr * q + fi * t, fi * q - fr * t
            if v:
                re[i] = [(u * a - v * w - fr * b + fi * c) // e for a, w, b, c in zip(xr, xi, y, z)]
                im[i] = [(u * w + v * a - fr * c - fi * b) // e for a, w, b, c in zip(xr, xi, y, z)]
            else:
                re[i] = [(u * a - fr * b + fi * c) // e for a, b, c in zip(xr, y, z)]
                im[i] = [(u * w - fr * c - fi * b) // e for w, b, c in zip(xi, y, z)]
        q, t = pivot
    if t:  # the right half times conj(c) over |c|^2
        re, im = (
            [[a * q + w * t for a, w in zip(x, xi)] for x, xi in zip(re, im)],
            [[w * q - a * t for a, w in zip(x, xi)] for x, xi in zip(re, im)],
        )
        q = q * q + t * t
    elif q < 0:
        re, im = _lin(re, -1), im and _lin(im, -1)
    return _reduced(re, im, abs(q), n)


def det(m: Matrix) -> Scalar:
    _square(m, "a determinant")
    n = m.ncols
    re, im = _rows(m)
    pivots, exchanges, scale = _eliminate(re, im)
    if len(pivots) < n:
        return ZERO
    d, e = 1, 0
    for k in range(n):
        u, v = re[k][k], 0 if im is None else im[k][k]
        d, e = d * u - e * v, d * v + e * u
    if exchanges % 2:
        scale = -scale
    return Scalar(d, e) / (scale * m.den**n)


def positive_definite(h: Matrix) -> bool:
    """Whether the Hermitian matrix h is positive-definite.

    Sylvester's criterion: every leading principal minor is positive.
    Bareiss' fraction-free pass (Math. Comp. 22, 1968) finds them as its
    pivots, with no row exchange or gcd: after step k, entry (i, j), i, j
    > k, is the minor of h's integer rows on rows 0..k, i and columns
    0..k, j, so the division by the previous pivot is exact and entry
    (k, k) is the (k + 1)-th leading minor.  Entry (j, i) is conj(entry
    (i, j)) for Hermitian h, so only the upper triangle is updated.
    """
    _square(h, "a definiteness test")
    n, prev = h.ncols, 1
    re, im = [list(row) for row in h.re], h.im and [list(row) for row in h.im]
    for k in range(n):
        p, rk = re[k][k], re[k]
        if p <= 0 or im is not None and im[k][k]:
            return False
        for i in range(k + 1, n):
            ri, f = re[i], rk[i]
            if im is None:
                for j in range(i, n):
                    ri[j] = (p * ri[j] - f * rk[j]) // prev
                continue
            # entry (i, k) is conj(entry (k, i)) = f + i g
            ii, ik, g = im[i], im[k], -im[k][i]
            for j in range(i, n):
                ri[j] = (p * ri[j] - f * rk[j] + g * ik[j]) // prev
                ii[j] = (p * ii[j] - f * ik[j] - g * rk[j]) // prev
        prev = p
    return True
