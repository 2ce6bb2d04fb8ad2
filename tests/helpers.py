"""Seeded generators and the corpus shared across the test modules."""

import random
from fractions import Fraction
from itertools import combinations

from algch.scalars import Scalar, ZERO, ONE
from algch.linalg import Matrix, nullspace
from algch.algebroid import AlgebroidForm, ConstantAlgebroid, direct_product
from algch.connections import GradedBundle, GradedEndo, Connection, HermitianMetric
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family


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


def rand_bundle(rng, re=2, ro=2) -> GradedBundle:
    """Random graded bundle; the boundary is one-sided so that it
    squares to zero by shape."""
    kind = rng.randrange(3)
    if kind == 0 or re == 0 or ro == 0:
        return GradedBundle(re, ro)
    if kind == 1:
        return GradedBundle(re, ro, d01=rand_matrix(ro, re, rng))
    return GradedBundle(re, ro, d10=rand_matrix(re, ro, rng))


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
    for i in range(re):  # ee*d10 - d10*oo = 0
        for j in range(ro):
            row = [ZERO] * nunk
            for k in range(re):
                row[i * re + k] = row[i * re + k] + b.d10[k, j]
            for k in range(ro):
                row[re * re + k * ro + j] = row[re * re + k * ro + j] - b.d10[i, k]
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
        out.append(GradedEndo(ee, oo))
    return out


def rand_connection(a: ConstantAlgebroid, b: GradedBundle, rng, basis=None, real=False) -> Connection:
    if basis is None:
        basis = boundary_commutant(b)
    omega = []
    for _ in range(a.r):
        om = GradedEndo.zeros(b.rank_even, b.rank_odd)
        for e in basis:
            om = om + e.scale(rand_scalar(rng, real))
        omega.append(om)
    c = Connection(a, b, omega)
    assert c.commutes_with_boundary()
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


def dense_validate_algebroid(a: ConstantAlgebroid) -> list[str]:
    """Axiom check over every index tuple: O(r^5) for Jacobi."""
    violations = []
    r = a.r
    c = a.brackets
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
                        f"anchor compatibility broken at (i,j), coordinate {m+1}"
                    )
    return violations


def dense_ce_differential(a: ConstantAlgebroid, omega: AlgebroidForm) -> AlgebroidForm:
    """CE differential of a scalar form, reading all r bracket
    coefficients of every pair."""
    r, k = a.r, omega.degree
    comps = {}
    for idx in combinations(range(r), k + 1):
        acc = ZERO
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
                for m in range(r):
                    term = omega.get((m,) + rest) * a.brackets[idx[s]][idx[t]][m]
                    acc = acc + (-term if (s + t) % 2 else term)
        comps[idx] = acc
    return AlgebroidForm(r, k + 1, comps)


def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
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
    return Matrix(rows, a.zero, ncols=b.ncols)
