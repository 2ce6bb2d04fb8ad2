"""Secondary and intrinsic characteristic classes.

The intrinsic classes of an algebroid are the secondary classes of its
basic connection on the adjoint bundle A (+) TM, with the anchor as the
odd boundary.  The degree-1 class is the modular class; for a Lie
algebra it is proportional to the trace character x |-> Tr(ad_x).
Their domain is a real algebroid, decided once, by adjoint_setup.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .scalars import Scalar, ONE, I
from .linalg import Matrix, _matrix
from .algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    coboundary_witness,
    _real_brackets,
)
from .connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    HermitianMetric,
)
from .transgression import cs_cochains

# Ratio between the degree-1 intrinsic representative and the trace
# character.  Determined once by running the p=1, q=1 transgression
# symbolically (see the regression test); frozen here, not hand-derived.
KAPPA = Scalar(2)


class ClassReport(NamedTuple):
    q: int
    representative: AlgebroidForm
    witness: Optional[AlgebroidForm]  # d witness = representative, if any

    @property
    def is_zero_class(self) -> bool:
        return self.witness is not None


def default_max_q(a: ConstantAlgebroid) -> int:
    return -(-(a.r + a.n + 1) // 2)


class DomainError(ValueError):
    """An algebroid whose anchor or structure constants are not real: it
    is outside the intrinsic classes' domain, and adjoint_setup refuses it."""


class IdentityFailure(Exception):
    """An identity that decides a verdict did not hold.

    identity names it ("basic splitting", of a pullback's basic
    connection); the message says where.  Raised explicitly, so the
    check also runs under python -O.
    """

    def __init__(self, identity: str, detail: str):
        super().__init__(f"{identity}: {detail}")
        self.identity = identity


def secondary_class(c: Connection, h: HermitianMetric, max_q: int) -> list[ClassReport]:
    """Reports for i^(q+1) cs^q(c, c^h), q = 1..max_q, with witnesses.

    Assumes, unchecked, that str(R^q) = 0 as a form for q >= 1 and that
    every representative is real and closed: theorems for the basic
    connection of a real algebroid, whose curvature R = -[d01, K_bas]
    commutes with d01 (Crainic 2003; Arias Abad and Crainic 2012).
    """
    reports = []
    forms = cs_cochains(c, h, max_q)
    for q in range(1, max_q + 1):
        rep = forms[q].scale(I ** (q + 1))
        reports.append(ClassReport(q, rep, coboundary_witness(c.algebroid, rep)))
    return reports


def adjoint_bundle(anchor: Matrix) -> GradedBundle:
    """A (even) and TM (odd) with the anchor (n x r) as the boundary."""
    return GradedBundle(anchor.ncols, anchor.nrows, d01=anchor)


def _ad(a: ConstantAlgebroid, i: int) -> Matrix:
    """ad_{e_i} of a real algebroid: column j holds the coefficients of
    [e_i, e_j], read as integers over a.den."""
    re = [[0] * a.r for _ in range(a.r)]
    for j, cell in enumerate(a.ints[i]):
        for k, x, _ in cell:
            re[k][j] = x
    return _matrix(re, None, a.den, a.r)


def adjoint_setup(a: ConstantAlgebroid, tm_conn) -> Connection:
    """The basic connection on the adjoint bundle of a valid algebroid.

    tm_conn is a list of n matrices Gamma_m (r x r): the action of
    covariant differentiation along the m-th coordinate field on the
    frame of A.  The basic connection acts by

        even:  b |-> nabla_{rho(b)} e_i + [e_i, b]
        odd:   u |-> rho(nabla_u e_i)

    With the r x n matrix T_i[k, m] = Gamma_m[k, i], the even block is
    ad_{e_i} + T_i rho and the odd block rho T_i.  It differs from the
    adjoint connection (ad_{e_i}, 0) by the graded commutator of the
    anchor with theta_i = -T_i, so the two are equivalent, and it
    commutes with the anchor because rho ad_{e_i} = 0, the anchor axiom
    that parsing decides.

    The intrinsic classes' domain is decided here, once: an algebroid
    whose anchor or structure constants are not real gets DomainError.
    On a real one, what secondary_class assumes holds as a theorem.
    """
    if a.anchor.im is not None or not _real_brackets(a):
        raise DomainError("the intrinsic classes need a real anchor and real structure constants")
    tm_conn = list(tm_conn)
    if len(tm_conn) != a.n:
        raise ValueError(f"tm_conn needs {a.n} matrices, got {len(tm_conn)}")
    for m, g in enumerate(tm_conn):
        if g.shape != (a.r, a.r):
            raise ValueError(f"tm_conn[{m}] must be {a.r} x {a.r}, got {g.nrows} x {g.ncols}")
    rho = a.anchor
    omega = []
    for i in range(a.r):
        t = Matrix.column_stack(tm_conn, i, a.r)
        omega.append(GradedEndo(_ad(a, i) + t * rho, rho * t))
    return Connection(a, adjoint_bundle(rho), omega)


def intrinsic_char(a: ConstantAlgebroid, tm_conn, g: HermitianMetric, max_q=None) -> list[ClassReport]:
    """Secondary classes of the basic connection: the intrinsic classes.
    DomainError if a is not real (adjoint_setup)."""
    if max_q is None:
        max_q = default_max_q(a)
    return secondary_class(adjoint_setup(a, tm_conn), g, max_q)


class ModularResult(NamedTuple):
    report: ClassReport
    normalized: AlgebroidForm  # for a Lie algebra, the trace character


def modular_class(a: ConstantAlgebroid, tm_conn, g: HermitianMetric) -> ModularResult:
    """The q=1 intrinsic report, and its representative rescaled so that
    for a Lie algebra it equals the trace character on the nose."""
    report = intrinsic_char(a, tm_conn, g, max_q=1)[0]
    return ModularResult(report, report.representative.scale(ONE / KAPPA))

