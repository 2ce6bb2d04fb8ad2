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

from .scalars import Scalar, ZERO, ONE
from .linalg import Matrix, rank, solve


def _sort_sign(indices):
    """Sort an index tuple; return (sorted tuple, sign) or (None, 0) on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None, 0
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


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
    """Base dimension n, rank r, anchor rho (n x r), brackets c[i][j][k].

    brackets is the dense r x r x r tensor.  nonzero_brackets[i][j]
    lists the (k, c[i][j][k]) with c[i][j][k] != 0 in increasing k; the
    checks and differentials walk it instead of testing all r entries.
    Both are tuples, so neither can drift from the other.
    """

    __slots__ = ("n", "r", "anchor", "brackets", "nonzero_brackets")

    def __init__(self, n: int, r: int, anchor: Matrix, brackets):
        assert anchor.shape == (n, r), "anchor must be n x r"
        c = tuple(
            tuple(
                tuple(Scalar.coerce(brackets[i][j][k]) for k in range(r))
                for j in range(r)
            )
            for i in range(r)
        )
        self.n = n
        self.r = r
        self.anchor = anchor
        self.brackets = c
        self.nonzero_brackets = tuple(
            tuple(
                tuple((k, v) for k, v in enumerate(coeffs) if not v.is_zero())
                for coeffs in plane
            )
            for plane in c
        )

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
    """Totally antisymmetric scalar k-form on the frame."""

    __slots__ = ("r", "degree", "comps")

    def __init__(self, r: int, degree: int, comps=None):
        self.r = r
        self.degree = degree
        clean = {}
        if comps:
            for idx, v in comps.items():
                srt, sign = _sort_sign(idx)
                if sign == 0 or v.is_zero():
                    continue
                assert len(idx) == degree and all(0 <= i < r for i in idx)
                v = v if sign == 1 else -v
                if srt in clean:
                    v = clean[srt] + v
                if v.is_zero():
                    clean.pop(srt, None)
                else:
                    clean[srt] = v
        self.comps = clean

    def get(self, idx):
        srt, sign = _sort_sign(idx)
        if sign == 0 or srt not in self.comps:
            return ZERO
        v = self.comps[srt]
        return v if sign == 1 else -v

    def map_values(self, fn):
        return AlgebroidForm(
            self.r, self.degree, {k: fn(v) for k, v in self.comps.items()}
        )

    def __add__(self, other):
        assert (self.r, self.degree) == (other.r, other.degree)
        comps = dict(self.comps)
        out = AlgebroidForm(self.r, self.degree)
        for k, v in other.comps.items():
            comps[k] = comps[k] + v if k in comps else v
        out.comps = {k: v for k, v in comps.items() if not v.is_zero()}
        return out

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


def basis_form(r: int, idx, value=ONE) -> AlgebroidForm:
    """The monomial form e^{i_1} ^ ... ^ e^{i_k} scaled by value."""
    return AlgebroidForm(r, len(idx), {tuple(idx): value})


def validate_algebroid(a: ConstantAlgebroid) -> list[str]:
    """Empty list means the Lie algebroid axioms hold on the nose.

    Violations are listed per axiom, each in increasing index order.
    """
    violations = []
    r = a.r
    c = a.brackets
    nz = a.nonzero_brackets
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if c[i][j][k] != -c[j][i][k]:
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
                    acc = acc + ck * a.anchor[m, k]
                if not acc.is_zero():
                    violations.append(
                        f"anchor compatibility broken at (i,j), coordinate {m+1}"
                    )
    return violations


def ce_differential(a: ConstantAlgebroid, omega: AlgebroidForm) -> AlgebroidForm:
    """Chevalley-Eilenberg differential on the constant subcomplex.

    For scalar-valued constant forms the covariant terms vanish (the
    anchor differentiates constants to zero) and only the bracket sum
    survives.
    """
    r, k = a.r, omega.degree
    out = AlgebroidForm(r, k + 1)
    if k + 1 > r:
        return out
    comps = {}
    for idx in combinations(range(r), k + 1):
        acc = ZERO
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
                for m, coeff in a.nonzero_brackets[idx[s]][idx[t]]:
                    v = omega.get((m,) + rest)
                    if v.is_zero():
                        continue
                    term = v * coeff
                    acc = acc + (-term if (s + t) % 2 else term)
        if not acc.is_zero():
            comps[idx] = acc
    out.comps = comps
    return out


def _diff_matrix(a: ConstantAlgebroid, k: int) -> Matrix:
    """Matrix of d from degree k to degree k+1 on scalar constant forms."""
    dom = list(combinations(range(a.r), k))
    cod = list(combinations(range(a.r), k + 1))
    cod_pos = {idx: i for i, idx in enumerate(cod)}
    cols = []
    for idx in dom:
        d = ce_differential(a, basis_form(a.r, idx))
        col = [ZERO] * len(cod)
        for cidx, v in d.comps.items():
            col[cod_pos[cidx]] = v
        cols.append(col)
    return Matrix(
        [[cols[j][i] for j in range(len(dom))] for i in range(len(cod))],
        ncols=len(dom),
    )


def betti_number(a: ConstantAlgebroid, k: int) -> int:
    if not 0 <= k <= a.r:
        raise ValueError(f"degree {k} out of range 0..{a.r}")
    from math import comb

    dim_k = comb(a.r, k)
    rank_dk = rank(_diff_matrix(a, k)) if k < a.r else 0
    rank_dkm1 = rank(_diff_matrix(a, k - 1)) if k > 0 else 0
    return dim_k - rank_dk - rank_dkm1


def coboundary_witness(a: ConstantAlgebroid, omega: AlgebroidForm):
    """A constant form eta with d eta = omega, or None if omega is not
    exact in the constant subcomplex.  omega must be closed and
    scalar-valued."""
    k = omega.degree
    if k <= a.r and not ce_differential(a, omega).is_zero():
        raise ValueError("input form is not closed")
    if omega.is_zero():
        return AlgebroidForm(a.r, max(k - 1, 0))
    if k == 0:
        return None  # nonzero constants are never exact
    cod = list(combinations(range(a.r), k))
    target = [omega.get(idx) for idx in cod]
    m = _diff_matrix(a, k - 1)
    x = solve(m, target)
    if x is None:
        return None
    dom = list(combinations(range(a.r), k - 1))
    comps = {idx: x[i] for i, idx in enumerate(dom) if not x[i].is_zero()}
    return AlgebroidForm(a.r, k - 1, comps)


def direct_product(a: ConstantAlgebroid, b: ConstantAlgebroid) -> ConstantAlgebroid:
    """Block product: base T^{n_a+n_b}, brackets vanish across factors.

    The product of valid factors is valid, so it is not checked again;
    documents from outside are checked when they are parsed.
    """
    r = a.r + b.r
    c = [[[ZERO] * r for _ in range(r)] for _ in range(r)]
    for off, f in ((0, a), (a.r, b)):
        for i in range(f.r):
            for j in range(f.r):
                for k, v in f.nonzero_brackets[i][j]:
                    c[off + i][off + j][off + k] = v
    return ConstantAlgebroid(a.n + b.n, r, Matrix.block_diag(a.anchor, b.anchor), c)
