"""Graded bundles with odd boundary and constant-coefficient connections.

A connection is stored through its action on the constant frame: one
parity-preserving endomorphism per algebroid frame section.  The
Leibniz rule is vacuous on constant data, and the dual connection
simplifies to Omega |-> -Omega^T (the Lie-derivative term vanishes).
"""

from __future__ import annotations

from .scalars import Scalar, ZERO, ONE
from .linalg import Matrix, inverse
from .algebroid import ConstantAlgebroid


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


def supertrace_product(t1: GradedEndo, t2: GradedEndo):
    """supertrace(t1 * t2) in O(n^2), without forming the product."""
    return t1.ee.trace_mul(t2.ee) - t1.oo.trace_mul(t2.oo)


class HermitianMetric:
    """Block-diagonal positive-definite Hermitian metric on a graded bundle."""

    __slots__ = ("bundle", "h_even", "h_odd")

    def __init__(self, bundle: GradedBundle, h_even: Matrix, h_odd: Matrix):
        assert h_even.shape == (bundle.rank_even, bundle.rank_even)
        assert h_odd.shape == (bundle.rank_odd, bundle.rank_odd)
        check_metric_block(h_even)
        check_metric_block(h_odd)
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


def check_metric_block(h: Matrix):
    """ValueError unless h is Hermitian and positive-definite.

    Sylvester's criterion, all leading principal minors positive, in one
    elimination without row exchanges: the k-th pivot is the ratio of
    the k-th and (k-1)-th leading minors, so the minors are all positive
    exactly when the pivots are.
    """
    if h != h.conj_transpose():
        raise ValueError("metric block is not Hermitian")
    rows = [list(r) for r in h.rows]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if not pivot.is_real() or not pivot.re > 0:
            raise ValueError("metric block is not positive-definite")
        for row in rows[k + 1:]:
            f = row[k] / pivot
            if not f.is_zero():
                for j in range(k + 1, len(row)):
                    row[j] = row[j] - f * pivot_row[j]


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
