"""Constant-coefficient Lie algebroids over tori and their CE complex.

An algebroid is given by a constant anchor matrix and constant structure
constants in the canonical frame e_1, ..., e_r; a Lie algebra is the
base-dimension-0 case.  All cohomology is computed on the constant
(translation-invariant) subcomplex, which is finite-dimensional and
closed under the differential, so everything is exact linear algebra
over Q(i).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .scalars import Scalar, ZERO
from .linalg import Matrix, rank, solve


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
    validate_algebroid to check.  brackets[i][j] is the tuple of the
    (k, c_ij^k) with c_ij^k != 0 in increasing k.
    """

    __slots__ = ("n", "r", "anchor", "brackets")

    def __init__(self, n: int, r: int, anchor: Matrix, brackets: dict):
        if anchor.shape != (n, r):
            raise ValueError(f"anchor must be {n} x {r}, got {anchor.nrows} x {anchor.ncols}")
        table = [[()] * r for _ in range(r)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"bracket pair ({i}, {j}) out of range 0..{r - 1}")
            row = []
            for k, v in sorted(coeffs.items()):
                if not 0 <= k < r:
                    raise ValueError(f"bracket ({i}, {j}): index {k} out of range 0..{r - 1}")
                v = Scalar.exact(v)
                if not v.is_zero():
                    row.append((k, v))
            table[i][j] = tuple(row)
            if (j, i) not in brackets:
                table[j][i] = tuple((k, -v) for k, v in row)
        self.n = n
        self.r = r
        self.anchor = anchor
        self.brackets = tuple(map(tuple, table))

    def __eq__(self, other):
        if not isinstance(other, ConstantAlgebroid):
            return NotImplemented
        return (
            self.n == other.n
            and self.r == other.r
            and self.anchor == other.anchor
            and self.brackets == other.brackets
        )

    def __repr__(self):
        return f"ConstantAlgebroid(n={self.n}, r={self.r})"


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

    def conj(self):
        return self.map_values(lambda v: v.conj())

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


def validate_algebroid(a: ConstantAlgebroid) -> list[str]:
    """Empty list means the Lie algebroid axioms hold on the nose.

    Violations are listed per axiom, each in increasing index order.
    """
    violations = []
    r = a.r
    nz = a.brackets
    anchor = a.anchor.rows
    for i in range(r):
        for j in range(r):
            if nz[i][j] or nz[j][i]:
                got, want = dict(nz[i][j]), {k: -v for k, v in nz[j][i]}
                for k in sorted(got.keys() | want.keys()):
                    if got.get(k, ZERO) != want.get(k, ZERO):
                        violations.append(f"antisymmetry broken at (i,j,k)=({i+1},{j+1},{k+1})")
    # t[(i, j, k, l)] = sum_m c_ij^m c_mk^l, summed over nonzero factors
    # only; the Jacobiator at (i, j, k, l) is t at its three cyclic
    # rotations of (i, j, k)
    t = {}
    for i in range(r):
        for j in range(r):
            for m, cm in nz[i][j]:
                for k in range(r):
                    for l, cl in nz[m][k]:
                        key = (i, j, k, l)
                        term = cm * cl
                        t[key] = t[key] + term if key in t else term
    keys = set()
    for i, j, k, l in t:
        keys.update(((i, j, k, l), (k, i, j, l), (j, k, i, l)))
    for i, j, k, l in sorted(keys):
        acc = ZERO
        for key in ((i, j, k, l), (j, k, i, l), (k, i, j, l)):
            if key in t:
                acc = acc + t[key]
        if not acc.is_zero():
            violations.append(
                f"Jacobi broken at (i,j,k,l)=({i+1},{j+1},{k+1},{l+1})"
            )
    # constant coordinate fields commute, so the anchor must kill brackets
    for i in range(r):
        for j in range(r):
            for m in range(a.n):
                acc = ZERO
                for k, ck in nz[i][j]:
                    acc = acc + ck * anchor[m][k]
                if not acc.is_zero():
                    violations.append(
                        f"anchor compatibility broken at (i,j), coordinate {m+1}"
                    )
    return violations


def _leibniz(a: ConstantAlgebroid, monomials):
    """d(e^I) for each sorted index tuple I, as {sorted key: coefficient}.

    The generators give d e^m = -sum_{i<j} c_ij^m e^i ^ e^j, and d is a
    derivation: d(e^I) = sum_s (-1)^s e^{I_0} ^ ... ^ d e^{I_s} ^ ... .
    The 2-form e^i ^ e^j moves to the front without a sign, and
    merge_sign((i, j), I minus I_s) sorts it in.  Coefficients that
    cancel are kept as zeros.
    """
    table = [[] for _ in range(a.r)]
    for i in range(a.r):
        for j in range(i + 1, a.r):
            for m, c in a.brackets[i][j]:
                table[m].append(((i, j), -c))
    for idx in monomials:
        d = {}
        for s, m in enumerate(idx):
            rest = idx[:s] + idx[s + 1:]
            parity = -1 if s % 2 else 1
            for pair, c in table[m]:
                sign = merge_sign(pair, rest)
                if sign == 0:
                    continue
                v = c if sign == parity else -c
                key = tuple(sorted(pair + rest))
                d[key] = d[key] + v if key in d else v
        yield d


def ce_differential(a: ConstantAlgebroid, omega: AlgebroidForm) -> AlgebroidForm:
    """Chevalley-Eilenberg differential on the constant subcomplex,
    sum_I omega_I d(e^I).

    For scalar-valued constant forms the covariant terms vanish (the
    anchor differentiates constants to zero) and only the bracket sum
    survives.
    """
    comps = {}
    for w, d in zip(omega.comps.values(), _leibniz(a, omega.comps)):
        for key, v in d.items():
            term = w * v
            comps[key] = comps[key] + term if key in comps else term
    return AlgebroidForm(a.r, omega.degree + 1, comps)


def _diff_matrix(a: ConstantAlgebroid, k: int) -> Matrix:
    """Matrix of d from degree k to degree k+1 on scalar constant forms:
    column j is d of the j-th basis k-form, in combinations order."""
    dom = list(combinations(range(a.r), k))
    cod_pos = {idx: i for i, idx in enumerate(combinations(range(a.r), k + 1))}
    entries = {}
    for j, d in enumerate(_leibniz(a, dom)):
        for key, v in d.items():
            entries[cod_pos[key], j] = v
    return Matrix.from_entries(entries, len(cod_pos), len(dom))


def betti_numbers(a: ConstantAlgebroid) -> list[int]:
    """b_k = C(r, k) - rank d_k - rank d_(k-1) for k = 0..r, ranking
    each d_k once."""
    ranks = [rank(_diff_matrix(a, k)) for k in range(a.r)] + [0]
    return [comb(a.r, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(a.r + 1)]


def coboundary_witness(a: ConstantAlgebroid, omega: AlgebroidForm):
    """A constant form eta with d eta = omega, or None if omega is not
    exact in the constant subcomplex.  omega must be closed and
    scalar-valued."""
    if not ce_differential(a, omega).is_zero():
        raise ValueError("input form is not closed")
    return _solve_coboundary(a, omega)


def _solve_coboundary(a: ConstantAlgebroid, omega: AlgebroidForm):
    """coboundary_witness for a form the caller has already found
    closed: the linear solve without computing d omega again."""
    k = omega.degree
    if omega.is_zero():
        return AlgebroidForm(a.r, max(k - 1, 0))
    if k == 0:
        return None  # nonzero constants are never exact
    target = [omega.get(idx) for idx in combinations(range(a.r), k)]
    x = solve(_diff_matrix(a, k - 1), target)
    if x is None:
        return None
    return AlgebroidForm(a.r, k - 1, dict(zip(combinations(range(a.r), k - 1), x)))


def shifted_brackets(a: ConstantAlgebroid, off: int) -> dict:
    """a's structure constants with every index raised by off, as
    constructor input giving both orientations of every nonzero pair."""
    c = a.brackets
    return {
        (i + off, j + off): {k + off: v for k, v in c[i][j]}
        for i in range(a.r)
        for j in range(a.r)
        if c[i][j] or c[j][i]
    }


def direct_product(a: ConstantAlgebroid, b: ConstantAlgebroid) -> ConstantAlgebroid:
    """Block product: base T^{n_a+n_b}, brackets vanish across factors.

    The product of valid factors is valid, so it is not checked again;
    documents from outside are checked when they are parsed.
    """
    brackets = shifted_brackets(a, 0) | shifted_brackets(b, a.r)
    return ConstantAlgebroid(a.n + b.n, a.r + b.r, Matrix.block_diag(a.anchor, b.anchor), brackets)
