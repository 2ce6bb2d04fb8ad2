"""Graded bundles with odd boundary and constant-coefficient connections.

A graded bundle is a two-term complex E_0 -> E_1, such as the adjoint
representation up to homotopy A -> TM with the anchor as its boundary,
so the boundary is one matrix.  A connection is stored through its
action on the constant frame: one parity-preserving endomorphism per
algebroid frame section.  The Leibniz rule is vacuous on constant
data, and the dual connection simplifies to Omega |-> -Omega^T (the
Lie-derivative term vanishes).
"""

from __future__ import annotations

from .linalg import Matrix, inverse, positive_definite
from .algebroid import ConstantAlgebroid


class GradedBundle:
    """Even and odd ranks plus the boundary d01 from the even part into
    the odd part (shape odd x even, zero when not given).

    The complex has two terms, so d01 is its one differential and
    squares to zero by degree.
    """

    __slots__ = ("rank_even", "rank_odd", "d01")

    def __init__(self, rank_even: int, rank_odd: int, d01: Matrix = None):
        if d01 is None:
            d01 = Matrix.zeros(rank_odd, rank_even)
        if d01.shape != (rank_odd, rank_even):
            raise ValueError(
                f"the boundary must be {rank_odd} x {rank_even}, got {d01.nrows} x {d01.ncols}"
            )
        self.rank_even = rank_even
        self.rank_odd = rank_odd
        self.d01 = d01

    def __eq__(self, other):
        if not isinstance(other, GradedBundle):
            return NotImplemented
        return (
            self.rank_even == other.rank_even
            and self.rank_odd == other.rank_odd
            and self.d01 == other.d01
        )

    def __repr__(self):
        return f"GradedBundle({self.rank_even}|{self.rank_odd})"


class GradedEndo:
    """Parity-preserving endomorphism: block-diagonal (ee, oo)."""

    __slots__ = ("ee", "oo")

    def __init__(self, ee: Matrix, oo: Matrix):
        if ee.nrows != ee.ncols or oo.nrows != oo.ncols:
            raise ValueError(
                f"graded endomorphism blocks must be square, got {ee.nrows} x {ee.ncols} "
                f"and {oo.nrows} x {oo.ncols}"
            )
        self.ee = ee
        self.oo = oo

    def is_zero(self) -> bool:
        return self.ee.is_zero() and self.oo.is_zero()

    def __eq__(self, other):
        if not isinstance(other, GradedEndo):
            return NotImplemented
        return self.ee == other.ee and self.oo == other.oo

    def __repr__(self):
        return f"GradedEndo(ee={self.ee}, oo={self.oo})"


class HermitianMetric:
    """Block-diagonal positive-definite Hermitian metric on a graded bundle.

    Blocks of the right shape are taken as given: parsing decides their
    definiteness, and check_metric_block is the check for other blocks."""

    __slots__ = ("bundle", "h_even", "h_odd")

    def __init__(self, bundle: GradedBundle, h_even: Matrix, h_odd: Matrix):
        for name, h, n in (("even", h_even, bundle.rank_even), ("odd", h_odd, bundle.rank_odd)):
            if h.shape != (n, n):
                raise ValueError(f"{name} metric block must be {n} x {n}, got {h.nrows} x {h.ncols}")
        self.bundle = bundle
        self.h_even = h_even
        self.h_odd = h_odd

    def __repr__(self):
        return f"HermitianMetric({self.bundle})"


def check_metric_block(h: Matrix):
    """ValueError unless h is Hermitian and positive-definite; Hermitian
    is decided on the integer rows over h's one denominator."""
    re, im, n = h.re, h.im, h.ncols
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    if len(re) != n or any(re[i][j] != re[j][i] or im and im[i][j] != -im[j][i] for i, j in pairs):
        raise ValueError("metric block is not Hermitian")
    if not positive_definite(h):
        raise ValueError("metric block is not positive-definite")


class Connection:
    """Action of nabla_{e_i} on constant sections: one GradedEndo per i."""

    __slots__ = ("algebroid", "bundle", "omega")

    def __init__(self, algebroid: ConstantAlgebroid, bundle: GradedBundle, omega):
        omega = list(omega)
        if len(omega) != algebroid.r:
            raise ValueError(f"a connection needs {algebroid.r} frame matrices, got {len(omega)}")
        shape = ((bundle.rank_even,) * 2, (bundle.rank_odd,) * 2)
        for i, om in enumerate(omega):
            if (om.ee.shape, om.oo.shape) != shape:
                raise ValueError(
                    f"frame matrix {i + 1} has blocks {om.ee.nrows} x {om.ee.ncols} and "
                    f"{om.oo.nrows} x {om.oo.ncols}, not {bundle.rank_even} x "
                    f"{bundle.rank_even} and {bundle.rank_odd} x {bundle.rank_odd}"
                )
        self.algebroid = algebroid
        self.bundle = bundle
        self.omega = omega

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
    harmless downstream.  A zero block is its own dual and takes no
    products, and a parity whose blocks are all zero takes no inverse.
    """
    if h.bundle != c.bundle:
        raise ValueError("connection and metric live on different bundles")
    live = [any(not getattr(om, b).is_zero() for om in c.omega) for b in ("ee", "oo")]
    factors = [(-inverse(hb) if x else None, hb) for x, hb in zip(live, (h.h_even, h.h_odd))]

    def dual(m, neg_inv, hb):
        return m if m.is_zero() else neg_inv * m.conj_transpose() * hb

    return Connection(c.algebroid, c.bundle, [
        GradedEndo(dual(om.ee, *factors[0]), dual(om.oo, *factors[1]))
        for om in c.omega
    ])
