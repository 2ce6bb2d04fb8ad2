"""Graded bundles with odd boundary and constant-coefficient connections.

A connection is stored through its action on the constant frame: one
parity-preserving endomorphism per algebroid frame section.  The
Leibniz rule is vacuous on constant data, and the dual connection
simplifies to Omega |-> -Omega^T (the Lie-derivative term vanishes).
"""

from __future__ import annotations

from .scalars import Scalar, ZERO, ONE
from .linalg import Matrix, inverse, det, solve
from .algebroid import ConstantAlgebroid, AlgebroidForm
from itertools import combinations


class GradedBundle:
    """Even/odd ranks plus the odd boundary, with boundary^2 = 0.

    d01 maps the even part into the odd part (shape odd x even);
    d10 maps the odd part into the even part (shape even x odd).
    """

    __slots__ = ("rank_even", "rank_odd", "d01", "d10")

    def __init__(self, rank_even: int, rank_odd: int, d01: Matrix = None, d10: Matrix = None):
        if d01 is None:
            d01 = Matrix.zeros(rank_odd, rank_even)
        if d10 is None:
            d10 = Matrix.zeros(rank_even, rank_odd)
        assert d01.shape == (rank_odd, rank_even)
        assert d10.shape == (rank_even, rank_odd)
        if not (d10 * d01).is_zero() or not (d01 * d10).is_zero():
            raise ValueError("boundary does not square to zero")
        self.rank_even = rank_even
        self.rank_odd = rank_odd
        self.d01 = d01
        self.d10 = d10

    def __eq__(self, other):
        if not isinstance(other, GradedBundle):
            return NotImplemented
        return (
            self.rank_even == other.rank_even
            and self.rank_odd == other.rank_odd
            and self.d01 == other.d01
            and self.d10 == other.d10
        )

    def __repr__(self):
        return f"GradedBundle({self.rank_even}|{self.rank_odd})"


class GradedEndo:
    """Parity-preserving endomorphism: block-diagonal (ee, oo)."""

    __slots__ = ("ee", "oo")

    def __init__(self, ee: Matrix, oo: Matrix):
        assert ee.nrows == ee.ncols and oo.nrows == oo.ncols
        self.ee = ee
        self.oo = oo

    @staticmethod
    def zeros(re: int, ro: int, zero=ZERO) -> "GradedEndo":
        return GradedEndo(Matrix.zeros(re, re, zero), Matrix.zeros(ro, ro, zero))

    @staticmethod
    def identity(re: int, ro: int, one=ONE, zero=ZERO) -> "GradedEndo":
        return GradedEndo(Matrix.identity(re, one, zero), Matrix.identity(ro, one, zero))

    def __add__(self, other):
        return GradedEndo(self.ee + other.ee, self.oo + other.oo)

    def __sub__(self, other):
        return GradedEndo(self.ee - other.ee, self.oo - other.oo)

    def __neg__(self):
        return GradedEndo(-self.ee, -self.oo)

    def __mul__(self, other):
        if isinstance(other, GradedEndo):
            return GradedEndo(self.ee * other.ee, self.oo * other.oo)
        return GradedEndo(self.ee.scale(other), self.oo.scale(other))

    def __rmul__(self, other):
        return self * other

    def scale(self, c):
        return GradedEndo(self.ee.scale(c), self.oo.scale(c))

    def commutator(self, other: "GradedEndo") -> "GradedEndo":
        return self * other - other * self

    def conj(self) -> "GradedEndo":
        return GradedEndo(self.ee.conj(), self.oo.conj())

    def is_zero(self) -> bool:
        return self.ee.is_zero() and self.oo.is_zero()

    def __eq__(self, other):
        if not isinstance(other, GradedEndo):
            return NotImplemented
        return self.ee == other.ee and self.oo == other.oo

    def __repr__(self):
        return f"GradedEndo(ee={self.ee}, oo={self.oo})"


class OddMap:
    """Parity-reversing endomorphism: blocks eo (odd -> even), oe (even -> odd)."""

    __slots__ = ("eo", "oe")

    def __init__(self, eo: Matrix, oe: Matrix):
        self.eo = eo
        self.oe = oe

    def anticommutator_with_boundary(self, bundle: GradedBundle) -> GradedEndo:
        """The graded commutator [theta, boundary] = theta d + d theta."""
        ee = self.eo * bundle.d01 + bundle.d10 * self.oe
        oo = self.oe * bundle.d10 + bundle.d01 * self.eo
        return GradedEndo(ee, oo)

    def is_zero(self) -> bool:
        return self.eo.is_zero() and self.oe.is_zero()

    def __eq__(self, other):
        if not isinstance(other, OddMap):
            return NotImplemented
        return self.eo == other.eo and self.oe == other.oe

    def __repr__(self):
        return f"OddMap(eo={self.eo}, oe={self.oe})"


def supertrace(t: GradedEndo) -> Scalar:
    return t.ee.trace() - t.oo.trace()


def form_supertrace(omega: AlgebroidForm) -> AlgebroidForm:
    """Entrywise supertrace of an endomorphism-valued form."""
    return omega.map_values(supertrace, zero=ZERO)


class HermitianMetric:
    """Block-diagonal positive-definite Hermitian metric on a graded bundle."""

    __slots__ = ("bundle", "h_even", "h_odd")

    def __init__(self, bundle: GradedBundle, h_even: Matrix, h_odd: Matrix):
        assert h_even.shape == (bundle.rank_even, bundle.rank_even)
        assert h_odd.shape == (bundle.rank_odd, bundle.rank_odd)
        for h in (h_even, h_odd):
            if h != h.conj_transpose():
                raise ValueError("metric block is not Hermitian")
            _check_positive_definite(h)
        self.bundle = bundle
        self.h_even = h_even
        self.h_odd = h_odd

    @staticmethod
    def identity(bundle: GradedBundle) -> "HermitianMetric":
        return HermitianMetric(
            bundle,
            Matrix.identity(bundle.rank_even),
            Matrix.identity(bundle.rank_odd),
        )

    def __repr__(self):
        return f"HermitianMetric({self.bundle})"


def _check_positive_definite(h: Matrix):
    # exact Sylvester criterion: all leading principal minors positive
    for k in range(1, h.nrows + 1):
        minor = det(Matrix([row[:k] for row in h.rows[:k]], ncols=k))
        if not minor.is_real() or not minor.re > 0:
            raise ValueError("metric block is not positive-definite")


class Connection:
    """Action of nabla_{e_i} on constant sections: one GradedEndo per i."""

    __slots__ = ("algebroid", "bundle", "omega")

    def __init__(self, algebroid: ConstantAlgebroid, bundle: GradedBundle, omega):
        omega = list(omega)
        assert len(omega) == algebroid.r
        for om in omega:
            assert om.ee.shape == (bundle.rank_even, bundle.rank_even)
            assert om.oo.shape == (bundle.rank_odd, bundle.rank_odd)
        self.algebroid = algebroid
        self.bundle = bundle
        self.omega = omega

    def commutes_with_boundary(self) -> bool:
        """Whether every frame matrix commutes with the odd boundary.

        Holds for any connection coming from a representation on the
        graded bundle; the h-dual of such a connection need not satisfy
        it unless the boundary is self-adjoint for h.
        """
        b = self.bundle
        for om in self.omega:
            if (b.d01 * om.ee) != (om.oo * b.d01):
                return False
            if (b.d10 * om.oo) != (om.ee * b.d10):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return (
            self.algebroid == other.algebroid
            and self.bundle == other.bundle
            and self.omega == other.omega
        )

    def __repr__(self):
        return f"Connection(r={self.algebroid.r}, {self.bundle})"


def zero_connection(algebroid: ConstantAlgebroid, bundle: GradedBundle) -> Connection:
    z = GradedEndo.zeros(bundle.rank_even, bundle.rank_odd)
    return Connection(algebroid, bundle, [z] * algebroid.r)


def curvature(c: Connection) -> AlgebroidForm:
    """R(e_i, e_j) = [Omega_i, Omega_j] - sum_k c_ijk Omega_k."""
    a = c.algebroid
    zero = GradedEndo.zeros(c.bundle.rank_even, c.bundle.rank_odd)
    comps = {}
    for i, j in combinations(range(a.r), 2):
        val = c.omega[i].commutator(c.omega[j])
        for k, coeff in a.nonzero_brackets[i][j]:
            val = val - c.omega[k].scale(coeff)
        if not val.is_zero():
            comps[(i, j)] = val
    return AlgebroidForm(a.r, 2, comps, zero=zero)


def h_dual(c: Connection, h: HermitianMetric) -> Connection:
    """Metric dual: Omega |-> -H^{-1} conj(Omega)^T H blockwise.

    The result acts on the same graded bundle but need not commute with
    the boundary; the cs machinery never uses the boundary, so this is
    harmless downstream.
    """
    if h.bundle != c.bundle:
        raise ValueError("connection and metric live on different bundles")
    he_inv = inverse(h.h_even)
    ho_inv = inverse(h.h_odd)
    omega = [
        GradedEndo(
            -(he_inv * om.ee.conj_transpose() * h.h_even),
            -(ho_inv * om.oo.conj_transpose() * h.h_odd),
        )
        for om in c.omega
    ]
    return Connection(c.algebroid, c.bundle, omega)


def metric_average(c: Connection, h: HermitianMetric) -> Connection:
    """The h-metric connection (c + c^h) / 2."""
    dual = h_dual(c, h)
    half = Scalar(1) / Scalar(2)
    omega = [
        (om + dm).scale(half) for om, dm in zip(c.omega, dual.omega)
    ]
    return Connection(c.algebroid, c.bundle, omega)


def equivalence_witness(c0: Connection, c1: Connection):
    """Solve nabla^1 - nabla^0 = [theta, boundary] for theta.

    Returns a list of OddMaps (one per frame index) or None when the
    connections are not equivalent.  On success the supertraces of all
    curvature powers agree, which callers may assert.
    """
    if c0.algebroid != c1.algebroid or c0.bundle != c1.bundle:
        raise ValueError("connections live on different data")
    b = c0.bundle
    re, ro = b.rank_even, b.rank_odd
    n_unknowns = 2 * re * ro
    thetas = []
    for om0, om1 in zip(c0.omega, c1.omega):
        delta = om1 - om0
        # unknowns: eo entries (re*ro), then oe entries (ro*re)
        rows = []
        rhs = []
        for i in range(re):
            for j in range(re):
                row = [ZERO] * n_unknowns
                # (eo * d01)[i,j] = sum_k eo[i,k] d01[k,j]
                for k in range(ro):
                    row[i * ro + k] = row[i * ro + k] + b.d01[k, j]
                # (d10 * oe)[i,j] = sum_k d10[i,k] oe[k,j]
                for k in range(ro):
                    row[re * ro + k * re + j] = row[re * ro + k * re + j] + b.d10[i, k]
                rows.append(row)
                rhs.append(delta.ee[i, j])
        for i in range(ro):
            for j in range(ro):
                row = [ZERO] * n_unknowns
                # (oe * d10)[i,j] = sum_k oe[i,k] d10[k,j]
                for k in range(re):
                    row[re * ro + i * re + k] = row[re * ro + i * re + k] + b.d10[k, j]
                # (d01 * eo)[i,j] = sum_k d01[i,k] eo[k,j]
                for k in range(re):
                    row[k * ro + j] = row[k * ro + j] + b.d01[i, k]
                rows.append(row)
                rhs.append(delta.oo[i, j])
        x = solve(Matrix(rows, ncols=n_unknowns), rhs)
        if x is None:
            return None
        eo = Matrix([[x[i * ro + k] for k in range(ro)] for i in range(re)], ncols=ro)
        oe = Matrix(
            [[x[re * ro + k * re + j] for j in range(re)] for k in range(ro)],
            ncols=re,
        )
        thetas.append(OddMap(eo, oe))
    return thetas


def direct_sum_bundles(b0: GradedBundle, b1: GradedBundle) -> GradedBundle:
    def block_diag(m0: Matrix, m1: Matrix) -> Matrix:
        nr, nc = m0.nrows + m1.nrows, m0.ncols + m1.ncols
        rows = [[ZERO] * nc for _ in range(nr)]
        for i in range(m0.nrows):
            for j in range(m0.ncols):
                rows[i][j] = m0[i, j]
        for i in range(m1.nrows):
            for j in range(m1.ncols):
                rows[m0.nrows + i][m0.ncols + j] = m1[i, j]
        return Matrix(rows, ncols=nc)

    return GradedBundle(
        b0.rank_even + b1.rank_even,
        b0.rank_odd + b1.rank_odd,
        block_diag(b0.d01, b1.d01),
        block_diag(b0.d10, b1.d10),
    )


def direct_sum_connections(c0: Connection, c1: Connection) -> Connection:
    assert c0.algebroid == c1.algebroid
    bundle = direct_sum_bundles(c0.bundle, c1.bundle)

    def block_diag(m0: Matrix, m1: Matrix) -> Matrix:
        n = m0.nrows + m1.nrows
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(m0.nrows):
            for j in range(m0.ncols):
                rows[i][j] = m0[i, j]
        for i in range(m1.nrows):
            for j in range(m1.ncols):
                rows[m0.nrows + i][m0.ncols + j] = m1[i, j]
        return Matrix(rows, ncols=n)

    omega = [
        GradedEndo(block_diag(o0.ee, o1.ee), block_diag(o0.oo, o1.oo))
        for o0, o1 in zip(c0.omega, c1.omega)
    ]
    return Connection(c0.algebroid, bundle, omega)
