"""Constant-coefficient Lie algebroids over tori and their CE complex.

An algebroid is given by a constant anchor matrix and constant structure
constants in the canonical frame e_1, ..., e_r; a Lie algebra is the
base-dimension-0 case.  All cohomology is computed on the constant
(translation-invariant) subcomplex, which is finite-dimensional and
closed under the differential, so everything is exact linear algebra
over Q(i).  The structure constants are stored once, as integers over
one common denominator (ConstantAlgebroid.ints); the axiom checks, the
CE differential and the Betti numbers read that table directly, and
ConstantAlgebroid.bracket gives its entries as Scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, lcm

from .scalars import Scalar, ZERO, I
from .linalg import Matrix, _rank, _solve


def merge_sign(a, b):
    """Sign of the shuffle merging two sorted disjoint tuples, or 0 on overlap."""
    inversions = 0
    for x in a:
        for y in b:
            if x == y:
                return 0
            if x > y:
                inversions += 1
    return -1 if inversions % 2 else 1


class ConstantAlgebroid:
    """Base dimension n, rank r, anchor rho (n x r), structure constants
    [e_i, e_j] = sum_k c_ij^k e_k given as {(i, j): {k: c_ij^k}} (0-based).

    Zeros are dropped.  A pair given in one orientation only gets its
    partner c_ji^k = -c_ij^k; a pair given in both is stored as given, for
    validate_algebroid to check.  The one table of structure constants is
    ints: ints[i][j] is the tuple of the (k, re, im) with c_ij^k =
    (re + i * im) / den != 0 in increasing k, over one den for all, the
    lcm of the denominators of the parts.  The table is thus determined by
    the values, and == compares it directly.
    """

    __slots__ = ("n", "r", "anchor", "den", "ints")

    def __init__(self, n: int, r: int, anchor: Matrix, brackets: dict):
        if anchor.shape != (n, r):
            raise ValueError(f"anchor must be {n} x {r}, got {anchor.nrows} x {anchor.ncols}")
        cells = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"bracket pair ({i}, {j}) out of range 0..{r - 1}")
            row = []
            for k, v in sorted(coeffs.items()):
                if not 0 <= k < r:
                    raise ValueError(f"bracket ({i}, {j}): index {k} out of range 0..{r - 1}")
                v = Scalar.exact(v)
                if v.re or v.im:
                    row.append((k, v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator))
            cells[i, j] = row
        self.n = n
        self.r = r
        self.anchor = anchor
        self.den, self.ints = _table(r, cells)

    def bracket(self, i: int, j: int) -> list:
        """[e_i, e_j] as the (k, c_ij^k) with c_ij^k != 0, in increasing k."""
        den = self.den
        return [(k, Scalar(Fraction(x, den), Fraction(y, den))) for k, x, y in self.ints[i][j]]

    def __eq__(self, other):
        if not isinstance(other, ConstantAlgebroid):
            return NotImplemented
        return (
            self.n == other.n
            and self.r == other.r
            and self.anchor == other.anchor
            and self.den == other.den
            and self.ints == other.ints
        )

    def __repr__(self):
        return f"ConstantAlgebroid(n={self.n}, r={self.r})"


def _table(r: int, cells: dict) -> tuple:
    """(den, ints) of ConstantAlgebroid from cells {(i, j): [(k, x, u, y, v)]}, the
    nonzero c_ij^k = x/u + i y/v in lowest terms in increasing k; a pair given
    without its partner (j, i) gets the partner's cell negated."""
    den = lcm(*[d for row in cells.values() for _, _, u, _, v in row for d in (u, v)])
    table = [[()] * r for _ in range(r)]
    for (i, j), row in cells.items():
        table[i][j] = cell = tuple([(k, x * (den // u), y * (den // v)) for k, x, u, y, v in row])
        if (j, i) not in cells:
            table[j][i] = tuple([(k, -x, -y) for k, x, y in cell])
    return den, tuple(map(tuple, table))


def _algebroid(n: int, r: int, anchor: Matrix, den: int, ints: tuple) -> ConstantAlgebroid:
    """The ConstantAlgebroid with the table (den, ints), taken as built by _table."""
    a = object.__new__(ConstantAlgebroid)
    a.n, a.r, a.anchor, a.den, a.ints = n, r, anchor, den, ints
    return a


def _padded(a: ConstantAlgebroid, lead: int, trail: int, f: int = 1) -> list:
    """The rows of a's table in a frame with lead sections before a's and
    trail after them: every index raised by lead, every value times f."""
    pre, post = ((),) * lead, ((),) * trail
    return [
        pre + tuple([tuple([(k + lead, f * x, f * y) for k, x, y in cell]) for cell in row]) + post
        for row in a.ints
    ]


class AlgebroidForm:
    """Totally antisymmetric scalar k-form on the frame.

    comps maps strictly increasing index tuples of length k to values.
    The constructor takes the keys as given (every producer builds them
    sorted) and drops zero values.
    """

    __slots__ = ("r", "degree", "comps")

    def __init__(self, r: int, degree: int, comps=None):
        self.r = r
        self.degree = degree
        self.comps = {k: v for k, v in (comps or {}).items() if not v.is_zero()}

    def get(self, idx):
        """The component at the sorted index tuple idx."""
        return self.comps.get(idx, ZERO)

    def map_values(self, fn):
        return AlgebroidForm(
            self.r, self.degree, {k: fn(v) for k, v in self.comps.items()}
        )

    def __add__(self, other):
        if (self.r, self.degree) != (other.r, other.degree):
            raise ValueError(
                f"cannot add a degree-{self.degree} form on rank {self.r} and a "
                f"degree-{other.degree} form on rank {other.r}"
            )
        comps = dict(self.comps)
        for k, v in other.comps.items():
            comps[k] = comps[k] + v if k in comps else v
        return AlgebroidForm(self.r, self.degree, comps)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.map_values(lambda v: -v)

    def scale(self, c):
        return self.map_values(lambda v: v * c)

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, AlgebroidForm):
            return NotImplemented
        return (
            self.r == other.r
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __repr__(self):
        return f"AlgebroidForm(deg={self.degree}, {self.comps})"


def _real_brackets(a: ConstantAlgebroid) -> bool:
    """Whether every structure constant of a is real."""
    return not any(im for row in a.ints for cell in row for _, _, im in cell)


def _traces(a: ConstantAlgebroid) -> list:
    """(re, im) of tr ad e_i = sum_j c_ij^j for i = 0..r-1, over a.den."""
    terms = [[(x, y) for j, cell in enumerate(row) for k, x, y in cell if k == j] for row in a.ints]
    return [(sum(x for x, _ in t), sum(y for _, y in t)) for t in terms]


def validate_algebroid(a: ConstantAlgebroid) -> list[str]:
    """Empty list means the Lie algebroid axioms hold on the nose.

    Violations are listed per axiom, each in increasing index order.
    Every loop walks the nonzero cells of the table only.
    """
    violations = []
    r = a.r
    nz = a.ints
    for i in range(r):
        for j in range(r):
            # the cells are sorted by k with zeros dropped, so one
            # comparison decides the pair; only a failing pair is split
            if (nz[i][j] or nz[j][i]) and nz[i][j] != tuple([(k, -x, -y) for k, x, y in nz[j][i]]):
                got, want = {k: (x, y) for k, x, y in nz[i][j]}, {k: (-x, -y) for k, x, y in nz[j][i]}
                for k in sorted(k for k in got.keys() | want.keys() if got.get(k, (0, 0)) != want.get(k, (0, 0))):
                    violations.append(f"antisymmetry broken at (i,j,k)=({i+1},{j+1},{k+1})")
    # the Jacobiator at (i, j, k, l) is sum_m c_ij^m c_mk^l * den ** 2 summed over the
    # rotations of (i, j, k), so it is the same at every rotation: one Gaussian
    # integer sum per rotation class, kept at its least rotation
    live = [[(k, cell) for k, cell in enumerate(row) if cell] for row in nz]
    jacobi = {}
    for i, row in enumerate(live):
        for j, cell in row:
            for m, ur, ui in cell:
                for k, inner in live[m]:
                    least = min((i, j, k), (j, k, i), (k, i, j))
                    for l, vr, vi in inner:
                        key = least + (l,)
                        x, y = jacobi.get(key, (0, 0))
                        jacobi[key] = (x + ur * vr - ui * vi, y + ur * vi + ui * vr)
    broken = set()
    for (i, j, k, l), sums in jacobi.items():
        if sums != (0, 0):
            broken.update(((i, j, k, l), (j, k, i, l), (k, i, j, l)))
    for i, j, k, l in sorted(broken):
        violations.append(f"Jacobi broken at (i,j,k,l)=({i+1},{j+1},{k+1},{l+1})")
    # constant coordinate fields commute, so the anchor must kill brackets
    if a.n:
        anchor_im = a.anchor.im or [[0] * r for _ in range(a.n)]
        for i, row in enumerate(live):
            for j, cell in row:
                for m, (xr, xi) in enumerate(zip(a.anchor.re, anchor_im)):
                    acc_re = sum(ur * xr[k] - ui * xi[k] for k, ur, ui in cell)
                    acc_im = sum(ur * xi[k] + ui * xr[k] for k, ur, ui in cell)
                    if acc_re or acc_im:
                        violations.append(
                            f"anchor compatibility broken at (i,j)=({i+1},{j+1}), coordinate {m+1}"
                        )
    return violations


def _leibniz(a: ConstantAlgebroid) -> list:
    """Per m, the terms of d e^m = -sum_{i<j} c_ij^m e^i ^ e^j: (bitmask of {i, j},
    bitmask of the indices between i and j, nonzero (part, value) of -c_ij^m * den)."""
    table = [[] for _ in range(a.r)]
    for i, row in enumerate(a.ints):
        for j in range(i + 1, a.r):
            for m, re, im in row[j]:
                parts = tuple((p, -x) for p, x in enumerate((re, im)) if x)
                table[m].append(((1 << i) | (1 << j), (1 << j) - (2 << i), parts))
    return table


def _column(table: list, idx) -> dict:
    """d(e^I) = sum_s (-1)^s e^{I_0} ^ ... ^ d e^{I_s} ^ ... for sorted I, as its nonzero
    {2 * J + part: value * den}, J a bitmask; e^i ^ e^j moves to the front without a
    sign and sorts into the rest R of I with sign (-1) ** #(R between i and j)."""
    mask = sum(map((1).__lshift__, idx))
    d = {}
    for s, m in enumerate(idx):
        rest = mask ^ (1 << m)
        for pair, between, parts in table[m]:
            if not rest & pair:
                key = (rest | pair) << 1
                odd = ((rest & between).bit_count() + s) & 1
                for part, x in parts:
                    d[key | part] = d.get(key | part, 0) + (-x if odd else x)
    return {key: x for key, x in d.items() if x}


def ce_differential(a: ConstantAlgebroid, omega: AlgebroidForm) -> AlgebroidForm:
    """Chevalley-Eilenberg differential on the constant subcomplex,
    sum_I omega_I d(e^I).

    For scalar-valued constant forms the covariant terms vanish (the
    anchor differentiates constants to zero) and only the bracket sum
    survives.
    """
    table = _leibniz(a)
    sums = {}
    for idx, w in omega.comps.items():
        for key, x in _column(table, idx).items():
            term, key = w * I * x if key & 1 else w * x, key >> 1
            sums[key] = sums[key] + term if key in sums else term
    comps = {tuple(i for i in range(a.r) if key >> i & 1): v / a.den for key, v in sums.items()}
    return AlgebroidForm(a.r, omega.degree + 1, comps)


def betti_numbers(a: ConstantAlgebroid) -> list[int]:
    """b_k = dim H^k of the constant complex for k = 0..r, block by block.

    The frame splits into the connected blocks of the bracket table:
    i, j and k are joined whenever c_ij^k != 0, so each block spans an
    ideal and two blocks bracket to zero.  The constant complex is then
    the tensor product of the blocks' complexes, and its Betti vector is
    the convolution of theirs: H*(g_1 + g_2) = H*(g_1) (x) H*(g_2)
    (Kunneth; Hochschild and Serre, Trans. AMS 74, 1953).  The anchor
    never enters: it differentiates constants to zero, so the constant
    complex is that of the bracket alone, for any n.  A block of one
    index gives [1, 1]; a larger one is ranked by _ranked_betti on its
    own table, re-indexed, over the same den.
    """
    betti = [1]
    for block in _blocks(a):
        if len(block) == 1:
            b = [1, 1]
        else:
            pos = {x: p for p, x in enumerate(block)}
            table = tuple([
                tuple([tuple([(pos[k], x, y) for k, x, y in row[j]]) if row[j] else () for j in block])
                for row in map(a.ints.__getitem__, block)
            ])
            b = _ranked_betti(_algebroid(0, len(block), Matrix.zeros(0, len(block)), a.den, table))
        out = [0] * (len(betti) + len(b) - 1)
        for p, x in enumerate(betti):
            for q, y in enumerate(b):
                out[p + q] += x * y
        betti = out
    return betti


def _blocks(a: ConstantAlgebroid) -> list:
    """The connected blocks of a's bracket table, each a sorted index list,
    in increasing first index: one pass over the nonzero cells joins the
    blocks of i, j and k for every c_ij^k != 0."""
    blocks = [{i} for i in range(a.r)]
    for i, row in enumerate(a.ints):
        for j, cell in enumerate(row):
            for k, _, _ in cell:
                if not blocks[i] is blocks[j] is blocks[k]:
                    joined = blocks[i] | blocks[j] | blocks[k]
                    for x in joined:
                        blocks[x] = joined
    return [sorted(b) for b in {min(b): b for b in blocks}.values()]


def _ranked_betti(a: ConstantAlgebroid) -> list[int]:
    """b_k = C(r, k) - rank d_k - rank d_(k-1) for k = 0..r on the whole
    complex of a, ranking the sparse integer columns of a d_k at most once.

    Two identities spare ranks; both hold for Gaussian brackets (the
    trace is the complex trace, the pairing is bilinear):
    - d e^(all but i) = +-tr(ad e_i) vol with tr ad e_i = sum_j c_ij^j,
      so rank d_(r-1) is 0 if every trace is zero (a unimodular bracket)
      and 1 otherwise;
    - on a unimodular bracket d(alpha ^ beta) = 0 for every (r-1)-form
      alpha ^ beta, so under the wedge pairing Lambda^k x Lambda^(r-k) ->
      Lambda^r the map d_(r-1-k) is +-the transpose of d_k (Koszul 1950):
      rank d_k = rank d_(r-1-k), and only the d_k with k < (r+1)//2 are
      ranked.
    """
    r = a.r
    table = _leibniz(a)
    real = _real_brackets(a)
    unimodular = not any(x or y for x, y in _traces(a))
    ranks = [
        _rank(map(partial(_column, table), combinations(range(r), k)), real)
        for k in range((r + 1) // 2 if unimodular else r - 1)
    ]
    # rank d_k = rank d_(r-1-k), or rank d_(r-1) = 1; then d_r = 0
    ranks += (ranks[: r // 2][::-1] if unimodular else [1]) + [0]
    return [comb(r, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(r + 1)]


def coboundary_witness(a: ConstantAlgebroid, omega: AlgebroidForm):
    """A constant scalar form eta with d eta = omega, or None if omega is
    not exact in the constant subcomplex (a form that is not closed has no
    primitive).  linalg._solve on the sparse columns of d_(k-1), as
    betti_numbers ranks them, gives the one eta that is zero on each basis
    form whose d is a combination of the d before it in combinations
    order: the primitive that Gauss-Jordan elimination of the dense
    matrix of d_(k-1) gives too."""
    k = omega.degree
    if omega.is_zero():
        return AlgebroidForm(a.r, max(k - 1, 0))
    if k == 0:
        return None  # nonzero constants are never exact
    table = _leibniz(a)
    dom = list(combinations(range(a.r), k - 1))
    b = [(sum(map((1).__lshift__, idx)), x) for idx, x in omega.comps.items()]
    x = _solve([_column(table, idx) for idx in dom], b, 2 << a.r, _real_brackets(a), a.den)
    if x is None:
        return None
    return AlgebroidForm(a.r, k - 1, dict(zip(dom, x)))


def direct_product(a: ConstantAlgebroid, b: ConstantAlgebroid) -> ConstantAlgebroid:
    """Block product: base T^{n_a+n_b}, brackets vanish across factors.

    The product of valid factors is valid, so it is not checked again;
    documents from outside are checked when they are parsed.
    """
    den = lcm(a.den, b.den)
    table = _padded(a, 0, b.r, den // a.den) + _padded(b, a.r, 0, den // b.den)
    anchor = Matrix.block_diag(a.anchor, b.anchor)
    return _algebroid(a.n + b.n, a.r + b.r, anchor, den, tuple(table))
