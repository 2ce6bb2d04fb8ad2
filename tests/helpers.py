"""Seeded generators and the corpus shared across the test modules."""

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm
from operator import add
from typing import NamedTuple

from algch.scalars import Scalar, ZERO, ONE, I
from algch.linalg import Matrix, _imag, _matrix, _reduced, nullspace, solve
from algch.algebroid import (
    AlgebroidForm,
    ConstantAlgebroid,
    _column,
    _leibniz,
    coboundary_witness,
    direct_product,
    merge_sign,
)
from algch.connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    HermitianMetric,
    h_dual,
)
from algch import fileio
from algch.charclasses import ClassReport, adjoint_bundle, adjoint_setup
from algch.pullback import _random_pd, pullback_algebroid, pullback_form
from algch.linalg import _bareiss
from algch.transgression import (
    AffineForm,
    _check_family,
    _combined,
    _entries,
    _pair_chain,
    _simplex_cochains,
)
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family, lie_algebra


def scalar_from_json(v) -> Scalar:
    """One JSON scalar entry as a Scalar, read by the document parser's reader."""
    x, u, y, w = fileio._entry(v)
    return Scalar(Fraction(x, u), Fraction(y, w))


def adjoint_connection(a: ConstantAlgebroid, bundle: GradedBundle) -> Connection:
    """The adjoint connection: ad_{e_i} from dense_ad on the even block
    and zero on the odd block, since constant fields commute."""
    zero = Matrix.zeros(a.n, a.n)
    return Connection(a, bundle, [GradedEndo(dense_ad(a, i), zero) for i in range(a.r)])


def tm_theta(a: ConstantAlgebroid, tm_conn) -> list[Matrix]:
    """theta_i = -T_i for each frame index i, where the r x n matrix T_i
    holds column i of each tm_conn matrix: T_i[k, m] = Gamma_m[k, i]."""
    return [
        Matrix([[-tm_conn[m][k, i] for m in range(a.n)] for k in range(a.r)], ncols=a.n)
        for i in range(a.r)
    ]


def commutes_with_boundary(c: Connection) -> bool:
    """Whether every frame matrix commutes with the boundary:
    d01 * ee = oo * d01.  Holds for a connection that comes from a
    representation on the graded bundle; the h-dual of one need not."""
    d01 = c.bundle.d01
    return all(d01 * om.ee == om.oo * d01 for om in c.omega)


def rand_rational(rng: random.Random, span=3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def rand_scalar(rng, real=False) -> Scalar:
    return Scalar(rand_rational(rng), 0 if real else rand_rational(rng, 2))


def rand_matrix(nrows, ncols, rng, real=False) -> Matrix:
    return Matrix(
        [[rand_scalar(rng, real) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


def rand_pd_matrix(n, rng, real=False) -> Matrix:
    m = rand_matrix(n, n, rng, real)
    return m.conj_transpose() * m + Matrix.identity(n)


def rand_bundle(rng, re=2, ro=2, real=False) -> GradedBundle:
    """Random graded bundle: zero boundary one time in three, a random
    one otherwise, real when real is set.  The draw is three-way, and
    both nonzero outcomes draw the same matrix, so that the seeded tests
    keep their random streams."""
    if rng.randrange(3) == 0 or re == 0 or ro == 0:
        return GradedBundle(re, ro)
    return GradedBundle(re, ro, d01=rand_matrix(ro, re, rng, real))


def boundary_commutant(b: GradedBundle) -> list[GradedEndo]:
    """Basis of parity-preserving endomorphisms commuting with the boundary."""
    re, ro = b.rank_even, b.rank_odd
    nunk = re * re + ro * ro
    rows = []
    for i in range(ro):  # d01*ee - oo*d01 = 0
        for j in range(re):
            row = [ZERO] * nunk
            for k in range(re):
                row[k * re + j] = row[k * re + j] + b.d01[i, k]
            for k in range(ro):
                row[re * re + i * ro + k] = row[re * re + i * ro + k] - b.d01[k, j]
            rows.append(row)
    if rows:
        vecs = nullspace(Matrix(rows, ncols=nunk))
    else:
        vecs = [
            tuple(ONE if i == j else ZERO for j in range(nunk))
            for i in range(nunk)
        ]
    out = []
    for v in vecs:
        ee = Matrix([[v[i * re + j] for j in range(re)] for i in range(re)], ncols=re)
        oo = Matrix(
            [[v[re * re + i * ro + j] for j in range(ro)] for i in range(ro)],
            ncols=ro,
        )
        out.append(Endo(ee, oo))
    return out


def rand_connection(a: ConstantAlgebroid, b: GradedBundle, rng, basis=None, real=False) -> Connection:
    if basis is None:
        basis = boundary_commutant(b)
    omega = []
    for _ in range(a.r):
        om = Endo.zeros(b.rank_even, b.rank_odd)
        for e in basis:
            om = om + e.scale(rand_scalar(rng, real))
        omega.append(om)
    c = Connection(a, b, omega)
    assert commutes_with_boundary(c)
    return c


def rand_metric(b: GradedBundle, rng, real=False) -> HermitianMetric:
    return HermitianMetric(
        b,
        rand_pd_matrix(b.rank_even, rng, real),
        rand_pd_matrix(b.rank_odd, rng, real),
    )


def rand_tm_conn(a: ConstantAlgebroid, rng, real=True) -> list[Matrix]:
    return [rand_matrix(a.r, a.r, rng, real) for _ in range(a.n)]


def rand_q_family(rng, trace_zero=False):
    a, b, c = rand_rational(rng), rand_rational(rng), rand_rational(rng)
    d = -a if trace_zero else rand_rational(rng)
    return q_family(a, b, c, d)


def sl3_semidirect(action) -> ConstantAlgebroid:
    """sl3(R) semidirect V in the basis E_12, E_13, E_21, E_23, E_31, E_32,
    H_1 = E_11 - E_22, H_2 = E_22 - E_33, then a basis of V: the matrix
    commutator on sl3, [X, v] = action(X) v and [v, w] = 0, checked by
    lie_algebra.  action maps a 3 x 3 integer matrix to its integer
    matrix on V, linearly; the identity gives library.sl3_r3."""
    units = [(i, j) for i in range(3) for j in range(3) if i != j]
    mats = [[[int((p, q) == u) for q in range(3)] for p in range(3)] for u in units]
    mats += [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]]]
    brackets = {}
    for n, x in enumerate(mats):
        for p, y in enumerate(mats[n + 1:], n + 1):
            m = [[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
            coords = {u: m[i][j] for u, (i, j) in enumerate(units)}
            # a H_1 + b H_2 has diagonal (a, b - a, -b)
            coords[6], coords[7] = m[0][0], m[0][0] + m[1][1]
            brackets[n, p] = coords
        v = action(x)
        for l in range(len(v)):
            brackets[n, 8 + l] = {8 + k: v[k][l] for k in range(len(v))}
    return lie_algebra(8 + len(action(mats[0])), brackets)


def dual_action(x) -> list:
    """The action -X^T of X on R^3*."""
    return [[-x[j][i] for j in range(3)] for i in range(3)]


def sum_action(x) -> list:
    """The action of X on R^3 (+) R^3*, block-diagonal."""
    y = dual_action(x)
    return [row + [0] * 3 for row in x] + [[0] * 3 + row for row in y]


def sym2_action(x) -> list:
    """The action of X on Sym^2 R^3 in the basis v_i v_j, i <= j:
    X (v_i v_j) = (X v_i) v_j + v_i (X v_j)."""
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    m = [[0] * 6 for _ in range(6)]
    for col, (i, j) in enumerate(pairs):
        for k in range(3):
            m[pairs.index(tuple(sorted((k, j))))][col] += x[k][i]
            m[pairs.index(tuple(sorted((i, k))))][col] += x[k][j]
    return m


def isl2() -> ConstantAlgebroid:
    """sl2 with every bracket scaled by i: [h,e] = 2i e, [h,f] = -2i f, [e,f] = i h."""
    return lie_algebra(3, {(0, 1): {1: 2 * I}, (0, 2): {2: -2 * I}, (1, 2): {0: I}})


def imaginary_trace() -> ConstantAlgebroid:
    """[e_1, e_2] = i e_2: tr ad e_1 = i, with a zero real part."""
    return lie_algebra(2, {(0, 1): {1: I}})


def small_corpus() -> dict[str, ConstantAlgebroid]:
    """The named desk-scale corpus used throughout the acceptance suite."""
    return {
        "abelian2": abelian(2),
        "heisenberg": heisenberg(),
        "so3": so3(),
        "q_trace2": q_family(1, 0, 0, 1),
        "q_trace0": q_family(1, 2, 3, -1),
        "tt1": tangent_torus(1),
        "tt2": tangent_torus(2),
        "tt1_x_so3": direct_product(tangent_torus(1), so3()),
    }


def corpus_products():
    """(name, algebroid) for the corpus and its products of rank up to 6."""
    corpus = small_corpus()
    cases = list(corpus.items())
    names = sorted(corpus)
    for i, x in enumerate(names):
        for y in names[i:]:
            if corpus[x].r + corpus[y].r <= 6:
                cases.append((f"{x} x {y}", direct_product(corpus[x], corpus[y])))
    return cases


def rand_algebroid(rng, max_rank=3) -> ConstantAlgebroid:
    """Random valid algebroid drawn from exactly solvable families."""
    choice = rng.randrange(5)
    if choice == 0:
        return abelian(rng.randint(1, max_rank))
    if choice == 1:
        return so3()
    if choice == 2:
        return heisenberg()
    if choice == 3:
        return rand_q_family(rng, trace_zero=rng.random() < 0.5)
    return tangent_torus(rng.randint(1, min(2, max_rank)))


# ---------------------------------------------------------------------------
# Constructions only the tests use: the connection-level identities they
# check (equivalence, metric averages, direct sums, pullbacks), the trace
# character of a Lie algebra, the supertrace, matrix columns and identity
# endomorphisms and metrics.


def dense_brackets(a: ConstantAlgebroid) -> list:
    """The r x r x r tensor c[i][j][k] of a's integer bracket table over
    a.den, as nested lists of Scalars that a test may change."""
    c = [[[ZERO] * a.r for _ in range(a.r)] for _ in range(a.r)]
    for i, rows in enumerate(a.ints):
        for j, row in enumerate(rows):
            for k, x, y in row:
                c[i][j][k] = Scalar(Fraction(x, a.den), Fraction(y, a.den))
    return c


def dense_ad(a: ConstantAlgebroid, i: int) -> Matrix:
    """ad_{e_i} from dense_brackets: entry (k, j) is c_ij^k."""
    c = dense_brackets(a)
    return Matrix([[c[i][j][k] for j in range(a.r)] for k in range(a.r)], ncols=a.r)


def from_dense(n: int, r: int, anchor: Matrix, c) -> ConstantAlgebroid:
    """The algebroid with the dense tensor c, every pair given in both
    orientations so that the constructor stores c exactly."""
    table = {(i, j): dict(enumerate(c[i][j])) for i in range(r) for j in range(r)}
    return ConstantAlgebroid(n, r, anchor, table)


def column(m, j: int) -> tuple:
    """Column j of a Matrix or RingMatrix."""
    return tuple(m[i, j] for i in range(m.nrows))


def column_stack(mats: list, j: int, nrows: int) -> Matrix:
    """The nrows x len(mats) matrix whose column m is column j of
    mats[m], taken from their integer rows over one denominator."""
    den = lcm(*(g.den for g in mats))

    def stack(parts):
        return [[f * x[k][j] for f, x in parts] for k in range(nrows)]

    im = None
    if any(g.im is not None for g in mats):
        im = stack([(den // g.den, _imag(g)) for g in mats])
    return _reduced(stack([(den // g.den, g.re) for g in mats]), im, den, len(mats))


class Endo(GradedEndo):
    """A GradedEndo with the graded algebra that only the tests use:
    sums, negation, products, scaling and commutators, block by block,
    on Matrix or RingMatrix blocks.  Operands may be any GradedEndo."""

    __slots__ = ()

    @staticmethod
    def of(t: GradedEndo) -> "Endo":
        return Endo(t.ee, t.oo)

    @staticmethod
    def zeros(re: int, ro: int) -> "Endo":
        return Endo(Matrix.zeros(re, re), Matrix.zeros(ro, ro))

    def __add__(self, other):
        return Endo(self.ee + other.ee, self.oo + other.oo)

    def __sub__(self, other):
        return Endo(self.ee - other.ee, self.oo - other.oo)

    def __neg__(self):
        return Endo(-self.ee, -self.oo)

    def __mul__(self, other):
        """The composition with a GradedEndo; any other operand scales."""
        if isinstance(other, GradedEndo):
            return Endo(self.ee * other.ee, self.oo * other.oo)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, GradedEndo):
            return Endo(other.ee * self.ee, other.oo * self.oo)
        return self.scale(other)

    def scale(self, c) -> "Endo":
        return Endo(self.ee.scale(c), self.oo.scale(c))

    def commutator(self, other: GradedEndo) -> "Endo":
        return self * other - other * self


def boundary_commutator(theta, b: GradedBundle) -> GradedEndo:
    """The graded commutator [theta, d] = theta d + d theta of an odd map
    theta from the odd part into the even part with the boundary d01:
    theta d01 on the even part and d01 theta on the odd part."""
    return GradedEndo(theta * b.d01, b.d01 * theta)


def conj(x):
    """The complex conjugate of a Scalar, or of a helper polynomial or
    matrix (their .conj())."""
    return Scalar(x.re, -x.im) if isinstance(x, Scalar) else x.conj()


def form_conj(f: AlgebroidForm) -> AlgebroidForm:
    """The complex conjugate of a scalar form."""
    return AlgebroidForm(f.r, f.degree, {k: conj(v) for k, v in f.comps.items()})


def identity_endo(re: int, ro: int) -> Endo:
    return Endo(Matrix.identity(re), Matrix.identity(ro))


def identity_metric(bundle: GradedBundle) -> HermitianMetric:
    return HermitianMetric(
        bundle, Matrix.identity(bundle.rank_even), Matrix.identity(bundle.rank_odd)
    )


def adjoint_metric(a: ConstantAlgebroid, g_a: Matrix, g_m: Matrix) -> HermitianMetric:
    """The metric with blocks g_a and g_m on the adjoint bundle of a."""
    return HermitianMetric(adjoint_bundle(a.anchor), g_a, g_m)


def supertrace(t: GradedEndo):
    """tr(even block) - tr(odd block), for Matrix or RingMatrix blocks."""
    return t.ee.trace() - t.oo.trace()


def zero_connection(algebroid: ConstantAlgebroid, bundle: GradedBundle) -> Connection:
    z = Endo.zeros(bundle.rank_even, bundle.rank_odd)
    return Connection(algebroid, bundle, [z] * algebroid.r)


def metric_average(c: Connection, h: HermitianMetric) -> Connection:
    """The h-metric connection (c + c^h) / 2."""
    dual = h_dual(c, h)
    half = Scalar(1) / Scalar(2)
    omega = [
        (Endo.of(om) + dm).scale(half) for om, dm in zip(c.omega, dual.omega)
    ]
    return Connection(c.algebroid, c.bundle, omega)


def equivalence_witness(c0: Connection, c1: Connection):
    """Solve nabla^1 - nabla^0 = [theta, boundary] for theta.

    Returns a list of odd maps theta (one even x odd Matrix per frame
    index) or None when the connections are not equivalent.  On success
    the supertraces of all curvature powers agree, which callers may
    assert.
    """
    if c0.algebroid != c1.algebroid or c0.bundle != c1.bundle:
        raise ValueError("connections live on different data")
    b = c0.bundle
    re, ro = b.rank_even, b.rank_odd
    n_unknowns = re * ro  # theta[i, k] at i * ro + k
    thetas = []
    for om0, om1 in zip(c0.omega, c1.omega):
        delta = Endo.of(om1) - om0
        rows = []
        rhs = []
        for i in range(re):
            for j in range(re):
                row = [ZERO] * n_unknowns
                # (theta * d01)[i,j] = sum_k theta[i,k] d01[k,j]
                for k in range(ro):
                    row[i * ro + k] = row[i * ro + k] + b.d01[k, j]
                rows.append(row)
                rhs.append(delta.ee[i, j])
        for i in range(ro):
            for j in range(ro):
                row = [ZERO] * n_unknowns
                # (d01 * theta)[i,j] = sum_k d01[i,k] theta[k,j]
                for k in range(re):
                    row[k * ro + j] = row[k * ro + j] + b.d01[i, k]
                rows.append(row)
                rhs.append(delta.oo[i, j])
        x = solve(Matrix(rows, ncols=n_unknowns), rhs)
        if x is None:
            return None
        thetas.append(Matrix([[x[i * ro + k] for k in range(ro)] for i in range(re)], ncols=ro))
    return thetas


def direct_sum_bundles(b0: GradedBundle, b1: GradedBundle) -> GradedBundle:
    return GradedBundle(
        b0.rank_even + b1.rank_even,
        b0.rank_odd + b1.rank_odd,
        Matrix.block_diag(b0.d01, b1.d01),
    )


def direct_sum_connections(c0: Connection, c1: Connection) -> Connection:
    assert c0.algebroid == c1.algebroid
    omega = [
        Endo(Matrix.block_diag(o0.ee, o1.ee), Matrix.block_diag(o0.oo, o1.oo))
        for o0, o1 in zip(c0.omega, c1.omega)
    ]
    return Connection(c0.algebroid, direct_sum_bundles(c0.bundle, c1.bundle), omega)


def pullback_connection(a: ConstantAlgebroid, k: int, c: Connection, pb: ConstantAlgebroid = None) -> Connection:
    """Pullback to p^!(A) acting on the pulled-back (same) bundle:
    vertical sections act by zero, horizontal lifts as in c."""
    assert c.algebroid == a
    if pb is None:
        pb = pullback_algebroid(a, k)
    z = Endo.zeros(c.bundle.rank_even, c.bundle.rank_odd)
    return Connection(pb, c.bundle, [z] * k + list(c.omega))


def trace_character(a: ConstantAlgebroid) -> AlgebroidForm:
    """The 1-form e_i |-> Tr(ad_{e_i})."""
    c = dense_brackets(a)
    comps = {(i,): sum((c[i][j][j] for j in range(a.r)), ZERO) for i in range(a.r)}
    return AlgebroidForm(a.r, 1, comps)


# ---------------------------------------------------------------------------
# Reference implementations kept as test oracles.  They are the plain
# dense formulas the fast paths in algch replaced, and the differential
# tests check that both give identical answers.


class PairScalar:
    """Gaussian rational as a plain pair of Fractions, with the textbook
    formulas and no shortcut for real values."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(x) -> "PairScalar":
        if isinstance(x, PairScalar):
            return x
        return PairScalar(x)

    def __add__(self, other):
        other = PairScalar.coerce(other)
        return PairScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = PairScalar.coerce(other)
        return PairScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return PairScalar.coerce(other) - self

    def __neg__(self):
        return PairScalar(-self.re, -self.im)

    def __mul__(self, other):
        other = PairScalar.coerce(other)
        return PairScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = PairScalar.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero")
        return PairScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return PairScalar.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return PairScalar(1) / self ** (-n)
        out = PairScalar(1)
        for _ in range(n):
            out = out * self
        return out


class RingMatrix:
    """Immutable tuple-of-tuples matrix over any ring whose elements
    support +, -, * and conj(): Scalar, or SimplexPolynomial with
    zero = SimplexPolynomial(p).  The matrix type algch had before its
    entries were cleared to integers, kept as the ring-entry oracle.
    """

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
    def zeros(nrows: int, ncols: int, zero=ZERO) -> "RingMatrix":
        return RingMatrix([[zero] * ncols for _ in range(nrows)], zero, ncols=ncols)

    @staticmethod
    def identity(n: int, one=ONE, zero=ZERO) -> "RingMatrix":
        return RingMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            zero,
            ncols=n,
        )

    @staticmethod
    def block_diag(m0: "RingMatrix", m1: "RingMatrix") -> "RingMatrix":
        """[[m0, 0], [0, m1]]; either block may have no rows or columns."""
        right = (m0.zero,) * m1.ncols
        left = (m0.zero,) * m0.ncols
        return RingMatrix(
            [row + right for row in m0.rows] + [left + row for row in m1.rows],
            m0.zero,
            ncols=m0.ncols + m1.ncols,
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        assert self.shape == other.shape
        return RingMatrix(
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
        return RingMatrix(
            [[-a for a in r] for r in self.rows], self.zero, ncols=self.ncols
        )

    def __mul__(self, other):
        if isinstance(other, RingMatrix):
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
            return RingMatrix(out, self.zero, ncols=other.ncols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "RingMatrix":
        return RingMatrix(
            [[a * c for a in r] for r in self.rows], self.zero, ncols=self.ncols
        )

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self) -> "RingMatrix":
        return RingMatrix(
            [
                [self.rows[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)
            ],
            self.zero,
            ncols=self.nrows,
        )

    def conj(self) -> "RingMatrix":
        return RingMatrix(
            [[conj(a) for a in r] for r in self.rows], self.zero, ncols=self.ncols
        )

    def conj_transpose(self) -> "RingMatrix":
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
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b
            for r1, r2 in zip(self.rows, other.rows)
            for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return "RingMatrix([" + ", ".join(str(list(r)) for r in self.rows) + "])"


def ring_matrix(m: Matrix) -> RingMatrix:
    """The RingMatrix of Scalars with the entries of m."""
    return RingMatrix(m.rows, ncols=m.ncols)


# The Scalar row reduction algch used before its one fraction-free
# elimination; rank, solve, nullspace, inverse and det are references
# for the integer routines.


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


def reference_rank(m) -> int:
    if m.nrows == 0 or m.ncols == 0:
        return 0
    rows = [list(r) for r in m.rows]
    return len(_rref(rows))


def reference_solve(m, b) -> tuple | None:
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


def reference_nullspace(m) -> list[tuple]:
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


def reference_inverse(m) -> "RingMatrix":
    assert m.nrows == m.ncols
    n = m.nrows
    if n == 0:
        return RingMatrix([], ncols=0)
    aug = [
        list(r) + [ONE if i == j else ZERO for j in range(n)]
        for i, r in enumerate(m.rows)
    ]
    pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return RingMatrix([row[n:] for row in aug], ncols=n)


def reference_h_dual(c: Connection, h: HermitianMetric) -> list:
    """The frames of h_dual(c, h) as [even, odd] RingMatrix pairs,
    -H^-1 Omega^* H per block with H^-1 from reference_inverse."""
    out = []
    for om in c.omega:
        blocks = []
        for m, hb in ((om.ee, h.h_even), (om.oo, h.h_odd)):
            hr = ring_matrix(hb)
            blocks.append(-(reference_inverse(hr) * ring_matrix(m).conj_transpose() * hr))
        out.append(blocks)
    return out


def reference_det(m) -> Scalar:
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


def _domain_matrix(rows: list, ncols: int):
    """Scalar rows as a sparse sympy DomainMatrix over QQ, or over QQ_I if
    any entry is not real."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    real = all(x.im == 0 for row in rows for x in row)

    def entry(x):
        re = QQ(x.re.numerator, x.re.denominator)
        return re if real else QQ_I(re, QQ(x.im.numerator, x.im.denominator))

    dod = {i: {j: entry(x) for j, x in enumerate(row) if not x.is_zero()} for i, row in enumerate(rows)}
    return DomainMatrix.from_dod({i: row for i, row in dod.items() if row}, (len(rows), ncols), QQ if real else QQ_I)


def _scalar(x) -> Scalar:
    """A sympy QQ or QQ_I element as a Scalar."""
    parts = (x.x, x.y) if hasattr(x, "y") else (x, 0)
    return Scalar(*(Fraction(int(p.numerator), int(p.denominator)) if p else Fraction(0) for p in parts))


def sympy_solve(m, b) -> tuple | None:
    """reference_solve's answer, read off sympy's sparse rref of [m | b]:
    x is zero off the pivot columns.  For systems too large for _rref."""
    b = list(b)
    rref, pivots = _domain_matrix([list(r) + [x] for r, x in zip(m.rows, b)], m.ncols + 1).rref()
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    rows = rref.to_sdm()
    for i, col in enumerate(pivots):
        x[col] = _scalar(rows[i][m.ncols]) if m.ncols in rows.get(i, {}) else ZERO
    return tuple(x)


def sympy_left_kernel(m) -> list[tuple]:
    """A basis of the y with y m = 0, as tuples of Scalars, from sympy."""
    columns = [[m[i, j] for i in range(m.nrows)] for j in range(m.ncols)]
    basis = _domain_matrix(columns, m.nrows).nullspace().to_list()
    return [tuple(_scalar(x) for x in y) for y in basis]


def leading_minors_positive(h: Matrix) -> bool:
    """Sylvester's criterion minor by minor: every leading principal
    minor of h is real and positive."""
    for k in range(1, h.nrows + 1):
        minor = reference_det(RingMatrix([row[:k] for row in h.rows[:k]], ncols=k))
        if minor.im != 0 or not minor.re > 0:
            return False
    return True


def dense_validate_algebroid(a: ConstantAlgebroid) -> list[str]:
    """Axiom check over every index tuple: O(r^5) for Jacobi."""
    violations = []
    r = a.r
    c = dense_brackets(a)
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if c[i][j][k] != -c[j][i][k]:
                    violations.append(f"antisymmetry broken at (i,j,k)=({i+1},{j+1},{k+1})")
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    acc = ZERO
                    for m in range(r):
                        acc = (
                            acc
                            + c[i][j][m] * c[m][k][l]
                            + c[j][k][m] * c[m][i][l]
                            + c[k][i][m] * c[m][j][l]
                        )
                    if not acc.is_zero():
                        violations.append(
                            f"Jacobi broken at (i,j,k,l)=({i+1},{j+1},{k+1},{l+1})"
                        )
    for i in range(r):
        for j in range(r):
            for m in range(a.n):
                acc = ZERO
                for k in range(r):
                    acc = acc + c[i][j][k] * a.anchor[m, k]
                if not acc.is_zero():
                    violations.append(
                        f"anchor compatibility broken at (i,j)=({i+1},{j+1}), coordinate {m+1}"
                    )
    return violations


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


def form_value(omega: AlgebroidForm, idx):
    """omega at any index tuple: zero on a repeat, and the sign of the
    sorting permutation times the sorted component otherwise."""
    srt, sign = _sort_sign(idx)
    if sign == 0:
        return ZERO
    v = omega.get(srt)
    return v if sign == 1 else -v


def basis_form(r: int, idx, value=ONE) -> AlgebroidForm:
    """The monomial form e^{i_1} ^ ... ^ e^{i_k} scaled by value; idx is
    sorted."""
    return AlgebroidForm(r, len(idx), {tuple(idx): value})


def dense_ce_differential(a: ConstantAlgebroid, omega: AlgebroidForm) -> AlgebroidForm:
    """CE differential of a scalar form, reading all r bracket
    coefficients of every pair: (d omega)(e_I) is the sum over s < t of
    (-1)^(s+t) omega([e_{I_s}, e_{I_t}], e_{I minus I_s, I_t}).  Terms
    where omega vanishes are skipped, zero brackets are not."""
    r, k = a.r, omega.degree
    c = dense_brackets(a)
    comps = {}
    for idx in combinations(range(r), k + 1):
        acc = ZERO
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
                for m in range(r):
                    v = form_value(omega, (m,) + rest)
                    if v.is_zero():
                        continue
                    term = v * c[idx[s]][idx[t]][m]
                    acc = acc + (-term if (s + t) % 2 else term)
        comps[idx] = acc
    return AlgebroidForm(r, k + 1, comps)


def diff_matrix(a: ConstantAlgebroid, k: int) -> Matrix:
    """The dense matrix of d from degree k to degree k+1 on scalar constant
    forms: column j is d of the j-th basis k-form in combinations order,
    from the sparse columns that betti_numbers ranks and
    coboundary_witness solves on."""
    table = _leibniz(a)
    dom = list(combinations(range(a.r), k))
    cod_pos = {sum(map((1).__lshift__, c)): i for i, c in enumerate(combinations(range(a.r), k + 1))}
    re, im = [[0] * len(dom) for _ in cod_pos], [[0] * len(dom) for _ in cod_pos]
    for j, idx in enumerate(dom):
        for key, x in _column(table, idx).items():
            (im if key & 1 else re)[cod_pos[key >> 1]][j] = x
    return _matrix(re, im, a.den, len(dom))


def dense_ce_transpose(a: ConstantAlgebroid, y: dict, k: int) -> dict:
    """The functional beta -> y . d beta on k-forms, for y {sorted (k+1)-index:
    Scalar}, from dense_ce_differential's formula read the other way:
    (d e^I)(e_J) sums (-1)^(s+t) c_(J_s J_t)^m e^I((m,) + rest) over s < t
    and m, so each (J, s, t, m) adds to the one I that sorts (m,) + rest.
    Returns {I: value} without zeros."""
    c = dense_brackets(a)
    out = {}
    for idx, w in y.items():
        for s, t in combinations(range(k + 1), 2):
            rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
            for m in range(a.r):
                srt, sign = _sort_sign((m,) + rest)
                if sign and not c[idx[s]][idx[t]][m].is_zero():
                    term = w * c[idx[s]][idx[t]][m] * (sign * (-1) ** (s + t))
                    out[srt] = out[srt] + term if srt in out else term
    return {i: v for i, v in out.items() if not v.is_zero()}


def reference_betti_number(a: ConstantAlgebroid, k: int) -> int:
    """b_k = C(r, k) - rank d_k - rank d_(k-1), with each column of d
    taken from dense_ce_differential of a basis form."""

    def d_rank(j):
        if not 0 <= j < a.r:
            return 0
        cod = list(combinations(range(a.r), j + 1))
        cols = [dense_ce_differential(a, basis_form(a.r, idx)) for idx in combinations(range(a.r), j)]
        return reference_rank(RingMatrix([[col.get(c) for col in cols] for c in cod], ncols=len(cols)))

    return comb(a.r, k) - d_rank(k) - d_rank(k - 1)


def twisted_ce_differential(a: ConstantAlgebroid, omega: AlgebroidForm, theta: AlgebroidForm) -> AlgebroidForm:
    """d_theta omega = d omega + theta ^ omega: the CE differential with
    values in the one-dimensional module on which e_i acts by theta_i,
    built by its own loop over the bracket tensor,
    (d_theta omega)(e_I) = sum_s (-1)^s theta_(I_s) omega(e_(I minus I_s))
    + sum_(s<t) (-1)^(s+t) omega([e_(I_s), e_(I_t)], e_(I minus I_s, I_t))."""
    r, k = a.r, omega.degree
    c = dense_brackets(a)
    comps = {}
    for idx in combinations(range(r), k + 1):
        acc = ZERO
        for s in range(k + 1):
            term = theta.get((idx[s],)) * omega.get(idx[:s] + idx[s + 1:])
            acc = acc + (-term if s % 2 else term)
            for t in range(s + 1, k + 1):
                rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
                for m, coeff in enumerate(c[idx[s]][idx[t]]):
                    if not coeff.is_zero():
                        term = coeff * form_value(omega, (m,) + rest)
                        acc = acc + (-term if (s + t) % 2 else term)
        comps[idx] = acc
    return AlgebroidForm(r, k + 1, comps)


def twisted_betti_numbers(a: ConstantAlgebroid, theta: AlgebroidForm) -> list[int]:
    """[b_0, ..., b_r] of the constant complex under d_theta
    (twisted_ce_differential), each rank by reference_rank."""

    def d_rank(j):
        if j == a.r:
            return 0
        cod = list(combinations(range(a.r), j + 1))
        cols = [twisted_ce_differential(a, basis_form(a.r, idx), theta) for idx in combinations(range(a.r), j)]
        return reference_rank(RingMatrix([[col.get(c) for col in cols] for c in cod], ncols=len(cols)))

    ranks = [d_rank(j) for j in range(a.r + 1)]
    return [comb(a.r, k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(a.r + 1)]


def dense_matmul(a: "RingMatrix", b: "RingMatrix") -> "RingMatrix":
    """Row-by-column product summing all ncols terms of every entry."""
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = a.zero
            for k in range(a.ncols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return RingMatrix(rows, a.zero, ncols=b.ncols)


def curvature(c: Connection) -> dict:
    """R(e_i, e_j) = [Omega_i, Omega_j] - sum_k c_ij^k Omega_k of one
    connection, as {(i, j): GradedEndo} with i < j and zero values left
    out.  The formula of the single-connection curvature, independent of
    the affine-family curvature in algch.transgression."""
    a = c.algebroid
    omega = [Endo.of(om) for om in c.omega]
    bracket = dense_brackets(a)
    comps = {}
    for i, j in combinations(range(a.r), 2):
        val = omega[i].commutator(omega[j])
        for k, coeff in enumerate(bracket[i][j]):
            if not coeff.is_zero():
                val = val - omega[k].scale(coeff)
        if not val.is_zero():
            comps[(i, j)] = val
    return comps


def covariant_differential(c: Connection, omega: dict, k: int) -> dict:
    """d^nabla of an endomorphism-valued k-form {sorted indices: value}:
    the commutator with the connection matrices plus the bracket sum."""
    a = c.algebroid
    bracket = dense_brackets(a)

    def value(idx):
        srt, sign = _sort_sign(idx)
        v = omega.get(srt) if sign else None
        return v if v is None or sign == 1 else -v

    out = {}
    for idx in combinations(range(a.r), k + 1):
        acc = Endo.zeros(c.bundle.rank_even, c.bundle.rank_odd)
        for s in range(k + 1):
            v = value(idx[:s] + idx[s + 1:])
            if v is not None:
                om = Endo.of(c.omega[idx[s]])
                term = om * v - v * om
                acc = acc + (term if s % 2 == 0 else -term)
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
                for m, coeff in enumerate(bracket[idx[s]][idx[t]]):
                    v = value((m,) + rest)
                    if v is not None and not coeff.is_zero():
                        term = v.scale(coeff)
                        acc = acc + (-term if (s + t) % 2 else term)
        if not acc.is_zero():
            out[idx] = acc
    return out


def wedge_endo_forms(f: dict, g: dict) -> dict:
    """Wedge of endomorphism-valued forms {sorted indices: value}; values
    multiply (matrix composition)."""
    out = {}
    for i1, v1 in f.items():
        for i2, v2 in g.items():
            sign = merge_sign(i1, i2)
            if sign == 0:
                continue
            merged = tuple(sorted(i1 + i2))
            term = (v1 * v2).scale(Scalar(sign))
            out[merged] = out[merged] + term if merged in out else term
    return {k: v for k, v in out.items() if not v.is_zero()}


def chern_character(c: Connection, max_q: int) -> list[AlgebroidForm]:
    """Entries i^q/q! * cs^q(c) for q = 0..max_q; each is d-closed."""
    return [
        form.scale(I ** q * Fraction(1, factorial(q)))
        for q, form in enumerate(cs_family([c], max_q))
    ]


def cs_family(conns, max_q: int) -> list[AlgebroidForm]:
    """The transgression cochains of degree 2q - p of p + 1 connections,
    as a list indexed by q = 0..max_q: a pair by the chain on
    theta ^ F_t (_pair_chain), any other family by the affine family
    over the simplex (_simplex_cochains).  At p = 0 the q = 0 entry is
    the superdimension rank_even - rank_odd; every other entry that
    does not reach degree 2q - p (q = 0, or 2q < p) is the zero 0-form.
    cs_cochains(c, h, max_q) is the package's pair (c, h_dual(c, h))."""
    a, bundle = _check_family(conns)
    p = len(conns) - 1
    out = [AlgebroidForm(a.r, 0) for _ in range(max_q + 1)]
    if p == 0:
        out[0] = AlgebroidForm(a.r, 0, {(): Scalar(bundle.rank_even - bundle.rank_odd)})
    if max_q < 1 or 2 * max_q < p:
        return out
    if p == 1:
        return _pair_chain(conns, max_q)
    for q, form in _simplex_cochains(conns, max_q).items():
        out[q] = form
    return out


def secondary_cochains(c: Connection, max_q: int) -> list[AlgebroidForm]:
    """(-1)^q conj CS(c) - CS(c) for q = 0..max_q, CS(c) = cs^q(z, c) the
    Chern-Simons form of the connection c, z the zero connection, by the
    chain on the pair (z, c) at every max_q, each q folded with its
    conjugate.  It reads c's frames, tm_conn included, and is the oracle
    of intrinsic_cochains, which reads the algebroid alone."""
    z = [GradedEndo(Matrix.zeros(*om.ee.shape), Matrix.zeros(*om.oo.shape)) for om in c.omega]
    out = _pair_chain([Connection(c.algebroid, c.bundle, z), c], max_q)
    for q in range(1, max_q + 1):
        folded = form_conj(out[q])
        out[q] = (folded if q % 2 == 0 else -folded) - out[q]
    return out


def secondary_class(c: Connection, max_q: int) -> list[ClassReport]:
    """Reports for i^(q+1) secondary_cochains(c, max_q)[q], q = 1..max_q,
    with witnesses: the classes of i^(q+1) cs^q(c, c^h) under any metric
    h when the structure constants are real, str(R^q) = 0 as a form and
    every representative is real and closed (unchecked; theorems for a
    basic connection)."""
    forms = secondary_cochains(c, max_q)
    reports = []
    for q in range(1, max_q + 1):
        rep = forms[q].scale(I ** (q + 1))
        reports.append(ClassReport(q, rep, coboundary_witness(c.algebroid, rep)))
    return reports


def count_calls(monkeypatch, fn) -> list:
    """Replace fn by a recording wrapper in every loaded algch module
    that holds it, whatever the name; the returned list gets the
    arguments of each call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name == "algch" or name.startswith("algch."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def supertrace_curvature_power(c: Connection, q: int) -> AlgebroidForm:
    """supertrace(R^q) from the single-connection curvature oracle: the
    independent check of the p = 0 transgression cochain."""
    r_form = curvature(c)
    acc = r_form
    for _ in range(q - 1):
        acc = wedge_endo_forms(acc, r_form)
    return AlgebroidForm(c.algebroid.r, 2 * q, {k: supertrace(v) for k, v in acc.items()})


# ---------------------------------------------------------------------------
# The transgression the way it was computed before the integer core:
# matrices with polynomial entries, one SimplexPolynomial product per
# pair of entries, and the integral taken per traced component.


class SimplexPolynomial:
    """Polynomial in t_1, ..., t_p on the standard p-simplex.

    t_0 is always eliminated through t_0 = 1 - t_1 - ... - t_p, so the
    term map keyed by length-p exponent tuples is a canonical form: two
    polynomials agree on the simplex iff their term maps are equal.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                assert len(exps) == p and all(e >= 0 for e in exps)
                coeff = Scalar.exact(coeff)
                if not coeff.is_zero():
                    clean[exps] = clean.get(exps, ZERO) + coeff
                    if clean[exps].is_zero():
                        del clean[exps]
        self.terms = clean

    @staticmethod
    def constant(p: int, c) -> "SimplexPolynomial":
        c = Scalar.exact(c)
        if c.is_zero():
            return SimplexPolynomial(p)
        return SimplexPolynomial(p, {(0,) * p: c})

    @staticmethod
    def variable(i: int, p: int) -> "SimplexPolynomial":
        """The coordinate t_i; t_0 comes back as 1 - t_1 - ... - t_p."""
        if not 0 <= i <= p:
            raise ValueError(f"t_{i} is not a coordinate on the {p}-simplex")
        if i == 0:
            terms = {(0,) * p: ONE}
            for m in range(p):
                e = [0] * p
                e[m] = 1
                terms[tuple(e)] = -ONE
            return SimplexPolynomial(p, terms)
        e = [0] * p
        e[i - 1] = 1
        return SimplexPolynomial(p, {tuple(e): ONE})

    @staticmethod
    def _from_terms(p: int, terms: dict) -> "SimplexPolynomial":
        """Wrap a term map that is already canonical: right-length
        exponent tuples and nonzero Scalar coefficients."""
        out = object.__new__(SimplexPolynomial)
        out.p = p
        out.terms = terms
        return out

    def __add__(self, other):
        assert self.p == other.p
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = terms[e] + c
                if s.is_zero():
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return SimplexPolynomial._from_terms(self.p, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SimplexPolynomial._from_terms(
            self.p, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.exact(other)
            if c.is_zero():
                return SimplexPolynomial(self.p)
            return SimplexPolynomial._from_terms(
                self.p, {e: v * c for e, v in self.terms.items()}
            )
        assert self.p == other.p
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = c1 * c2
                terms[e] = terms[e] + v if e in terms else v
        return SimplexPolynomial._from_terms(
            self.p, {e: c for e, c in terms.items() if not c.is_zero()}
        )

    __rmul__ = __mul__

    def conj(self) -> "SimplexPolynomial":
        return SimplexPolynomial._from_terms(
            self.p, {e: conj(c) for e, c in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = SimplexPolynomial.constant(self.p, other)
        if not isinstance(other, SimplexPolynomial):
            return NotImplemented
        return self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"t{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"({c})" + ("*" + mono if mono else ""))
        return " + ".join(bits)


def simplex_integrate(f: SimplexPolynomial, p: int) -> Scalar:
    """Integrate f over the standard p-simplex, exactly.

    The simplex is oriented by the chart (t_1, ..., t_p).  Since t_0 is
    already eliminated, each monomial t_1^a1 ... t_p^ap contributes the
    Dirichlet value a1! ... ap! / (a1 + ... + ap + p)!.
    """
    if f.p != p:
        raise ValueError(f"polynomial lives on a {f.p}-simplex, not {p}")
    total = ZERO
    for exps, coeff in f.terms.items():
        num = 1
        for a in exps:
            num *= factorial(a)
        total = total + coeff * Fraction(num, factorial(sum(exps) + p))
    return total


def constant_poly_matrix(m: Matrix, p: int) -> "RingMatrix":
    """m with each entry embedded as a constant polynomial on Delta^p."""
    zero = SimplexPolynomial(p)
    return RingMatrix(
        [[SimplexPolynomial.constant(p, a) for a in row] for row in m.rows],
        zero,
        ncols=m.ncols,
    )


def constant_poly_endo(ge: GradedEndo, p: int) -> Endo:
    return Endo(constant_poly_matrix(ge.ee, p), constant_poly_matrix(ge.oo, p))


def poly_endo_value(v: dict, p: int) -> Endo:
    """A polynomial value {exponent: (even, odd)} of the transgression as
    an Endo with SimplexPolynomial entries."""

    out = None
    for e, pair in v.items():
        term = constant_poly_endo(GradedEndo(*pair), p).scale(SimplexPolynomial(p, {e: ONE}))
        out = term if out is None else out + term
    return out


def reference_affine_curvature(conns) -> AffineForm:
    """Curvature of the affine family, with polynomial matrix entries:
    R(e_i, e_j) = [A_i, A_j] - sum_k c_ij^k A_k for the frame matrices
    A_i = Omega^0_i + sum_m t_m (Omega^m_i - Omega^0_i), and the mixed
    leg -(Omega^m_i - Omega^0_i) on (e_i, d/dt_m)."""
    a, _ = _check_family(conns)
    p = len(conns) - 1
    base = [constant_poly_endo(om, p) for om in conns[0].omega]
    diffs = [
        [constant_poly_endo(Endo.of(cm.omega[i]) - conns[0].omega[i], p) for i in range(a.r)]
        for cm in conns[1:]
    ]
    aff = []
    for i in range(a.r):
        om = base[i]
        for m in range(p):
            t = SimplexPolynomial.variable(m + 1, p)
            om = om + diffs[m][i] * t
        aff.append(om)
    bracket = dense_brackets(a)
    comps = {}
    for i in range(a.r):
        for j in range(i + 1, a.r):
            val = aff[i].commutator(aff[j])
            for k, coeff in enumerate(bracket[i][j]):
                if not coeff.is_zero():
                    val = val - aff[k].scale(coeff)
            comps[((i, j), ())] = val
        for m in range(p):
            comps[((i,), (m,))] = -diffs[m][i]
    comps = {k: v for k, v in comps.items() if not v.is_zero()}
    return AffineForm(a.r, p, 2, comps)


def reference_fibre_integrate(omega: AffineForm, p: int) -> AlgebroidForm:
    """Integrate the dt_1 ^ ... ^ dt_p component, with SimplexPolynomial
    values, over the simplex."""
    top = tuple(range(p))
    comps = {
        i_idx: simplex_integrate(v, p)
        for (i_idx, j_idx), v in omega.comps.items()
        if j_idx == top
    }
    return AlgebroidForm(omega.r, omega.degree - p, comps)


def reference_cs_cochain(conns, q: int) -> AlgebroidForm:
    """The transgression cochain for one q, the way it was computed
    before the one-pass transgression: the q-th power of a freshly
    built affine curvature with polynomial matrix entries, the
    supertrace of every component, then the fibre integral."""
    a, bundle = _check_family(conns)
    p = len(conns) - 1
    if 2 * q < p:
        return AlgebroidForm(a.r, 0)
    r_aff = reference_affine_curvature(conns)
    one, zero = SimplexPolynomial.constant(p, 1), SimplexPolynomial(p)
    ident = Endo(
        RingMatrix.identity(bundle.rank_even, one, zero),
        RingMatrix.identity(bundle.rank_odd, one, zero),
    )
    rq = r_aff.power(q, ident)
    traced = AffineForm(a.r, p, 2 * q, {k: supertrace(v) for k, v in rq.comps.items()})
    result = reference_fibre_integrate(traced, p)
    if p > 0 and ((p + 1) // 2) % 2 == 1:
        result = -result
    return result


class Recipe(NamedTuple):
    algebroid: ConstantAlgebroid  # p^!(A)
    tm_conn: list  # nabla-bar: one (k+r) matrix per coordinate (y, x) of T^{k+n}
    metric: HermitianMetric  # g-bar on Ad(p^!(A))
    basic: Connection  # basic connection of p^!(A)
    base: Connection  # basic connection of A


def submersion_recipe(a: ConstantAlgebroid, k: int, tm_conn, g: HermitianMetric) -> Recipe:
    """The data morita_check builds on the pullback along T^{k+n} -> T^n:
    p^!(A) = TT^k x A; nabla-bar, zero along the k fibre directions and
    block_diag(0_k, Gamma_m) along the base's; g-bar, block_diag(I_k, g)
    on each parity; the basic connections of nabla-bar and of tm_conn."""
    tm_conn = list(tm_conn)
    pb = pullback_algebroid(a, k)
    vertical, one = Matrix.zeros(k, k), Matrix.identity(k)
    nabla_bar = [Matrix.zeros(pb.r, pb.r)] * k + [Matrix.block_diag(vertical, m) for m in tm_conn]
    basic = adjoint_setup(pb, nabla_bar)
    gbar = HermitianMetric(basic.bundle, Matrix.block_diag(one, g.h_even), Matrix.block_diag(one, g.h_odd))
    return Recipe(pb, nabla_bar, gbar, basic, adjoint_setup(a, tm_conn))


class SplittingFailure(Exception):
    """A basic connection on TT^k x A does not split as zero beside the
    base's.  Raised explicitly, so the check also runs under python -O."""


def check_basic_splitting(k: int, base: Connection, basic: Connection):
    """Raise SplittingFailure unless basic, a basic connection on
    TT^k x A, is zero on the k vertical frames and block_diag(0_k, the
    frame's block of base) on each parity of every horizontal frame:
    the identity on which morita_check's equal verdicts rest."""
    if len(basic.omega) != k + len(base.omega):
        raise SplittingFailure(f"{len(basic.omega)} frames, not {k} + {len(base.omega)}")
    for i in range(k):
        if not basic.omega[i].is_zero():
            raise SplittingFailure(f"vertical section v_{i + 1} does not act by zero")
    vertical = Matrix.zeros(k, k)
    for i, bom in enumerate(base.omega):
        om = basic.omega[k + i]
        for parity, m, b in (("even", om.ee, bom.ee), ("odd", om.oo, bom.oo)):
            if m != Matrix.block_diag(vertical, b):
                raise SplittingFailure(f"{parity} block of hor(e_{i + 1}) does not split")


def reference_morita_verdicts(a, k, tm_conn, g, max_q, seed):
    """(per_q, cohomologous) of morita_check, with every cochain computed
    on its own by reference_cs_cochain, every setup and dual rebuilt
    where it is used, and the perturbed metric drawn as morita_check
    draws it."""
    base = adjoint_setup(a, tm_conn)
    recipe = submersion_recipe(a, k, tm_conn, g)
    basic, pb = recipe.basic, recipe.algebroid
    rng = random.Random(seed)
    alt_metric = HermitianMetric(basic.bundle, _random_pd(pb.r, rng), _random_pd(pb.n, rng))
    per_q, cohomologous = {}, {}
    for q in range(1, max_q + 1):
        base_cs = reference_cs_cochain([base, h_dual(base, g)], q)
        lhs = reference_cs_cochain([basic, h_dual(basic, recipe.metric)], q)
        rhs = pullback_form(a, k, base_cs)
        per_q[q] = {"equal": lhs == rhs, "both_zero": lhs.is_zero() and rhs.is_zero()}
        phase = I ** (q + 1)
        rep = reference_cs_cochain([basic, h_dual(basic, alt_metric)], q)
        diff = rep.scale(phase) - pullback_form(a, k, base_cs.scale(phase))
        cohomologous[q] = coboundary_witness(pb, diff) is not None
    return per_q, cohomologous


def whole_metric_transgression(f0: list, d0: int, h) -> tuple:
    """(den, T) as transgression._metric_transgression gives it, with the
    Bareiss pass run on the whole of each metric block H: the rows
    [H | d E_B] for the frames' nonzero columns B, d H's denominator.
    The oracle of the pass on the indices that B reaches."""
    live = [i for i, x in enumerate(f0) if x is not None]
    parts = []
    for b, hb in enumerate((h.h_even, h.h_odd)):
        if hb.im is None and all(f0[i][b][1] is None for i in live):
            continue
        nz = {i: _entries(*f0[i][b]) for i in live}
        cols = sorted({c for es in nz.values() for _, c, _, _ in es})
        if not cols:
            continue
        n, pad = hb.ncols, [0] * len(cols)
        rows = [[*x, *(hb.den if k == c else 0 for c in cols)] for k, x in enumerate(hb.re)]
        xr, xi, (q, _), _ = _bareiss(rows, hb.im and [[*x, *pad] for x in hb.im])
        g = {c: ([x[k] for x in xr], [-x[k] for x in xi or [pad] * n]) for k, c in enumerate(cols)}
        hcols = [(x, [-t for t in y]) for x, y in zip(hb.re, hb.im or [[0] * n] * n)]
        u = {i: _combined((a, g[c], x, y) for a, c, x, y in nz[i]) for i in live[:-1]}
        z = {j: _combined((c, hcols[d], x, y) for d, c, x, y in nz[j]) for j in live[1:]}
        sign = 2 if b else -2
        parts.append((q * hb.den, {
            (i, j): sign * sum(
                ui[c] * zr[a] - ur[c] * zi[a] for a, (ur, ui) in u[i].items() for c, (zr, zi) in z[j].items()
            )
            for i, j in combinations(live, 2)
        }))
    den, acc, out = lcm(*(d for d, _ in parts)), {}, {}
    for d, sums in parts:
        for ij, y in sums.items():
            acc[ij] = acc.get(ij, 0) + den // d * y
    for (i, j), y in acc.items():
        if y:
            out[i, j], out[j, i] = (0, y), (0, -y)
    return den * d0 * d0, out


def block_metric(n: int, rng, real=False) -> Matrix:
    """A positive-definite Hermitian n x n block, block diagonal under a
    random permutation of the indices.  A block is dense (rand_pd_matrix)
    or a path, whose ends are joined only through the indices between
    them: 7 on the diagonal and entries of modulus below 3 between
    neighbours, so diagonally dominant.  Over a random denominator."""
    order = rng.sample(range(n), n)
    h = [[ZERO] * n for _ in range(n)]
    while order:
        size = rng.randint(1, len(order))
        block, order = order[:size], order[size:]
        if rng.random() < 0.3:
            m = rand_pd_matrix(size, rng, real)
            for p, x in enumerate(block):
                for q, y in enumerate(block):
                    h[x][y] = m[p, q]
            continue
        for x in block:
            h[x][x] = Scalar(7)
        for x, y in zip(block, block[1:]):
            w = Scalar(rng.choice((-2, -1, 1, 2)), 0 if real else rng.randint(-2, 2))
            h[x][y], h[y][x] = w, conj(w)
    return Matrix(h, ncols=n).scale(Fraction(1, rng.randint(1, 3)))
