"""Primary, secondary and intrinsic characteristic classes.

The intrinsic classes of an algebroid are the secondary classes of its
basic connection on the adjoint bundle A (+) TM, with the anchor as the
odd boundary.  The degree-1 class is the modular class; for a Lie
algebra it is proportional to the trace character x |-> Tr(ad_x).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .scalars import Scalar, ONE, I
from .linalg import Matrix, _matrix
from .algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    ce_differential,
    coboundary_witness,
    _solve_coboundary,
)
from .connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    HermitianMetric,
    h_dual,
)
from .transgression import cs_cochains

from fractions import Fraction
from math import factorial

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


def chern_character(c: Connection, max_q: int) -> list[AlgebroidForm]:
    """Entries i^q/q! * cs^q(c) for q = 0..max_q; each is d-closed."""
    return [
        form.scale(I ** q * Fraction(1, factorial(q)))
        for q, form in enumerate(cs_cochains([c], max_q))
    ]


class PrimaryObstruction(ValueError):
    """A q >= 1 Chern character entry does not vanish as a class."""


class IdentityFailure(Exception):
    """An identity that decides a verdict did not hold.

    identity names it (for example "reality" or "basic splitting"); the
    message says where.  Raised explicitly, so the check also runs
    under python -O.
    """

    def __init__(self, identity: str, detail: str):
        super().__init__(f"{identity}: {detail}")
        self.identity = identity


def secondary_class(c: Connection, h: HermitianMetric, max_q: int) -> list[ClassReport]:
    """Reports for i^{q+1} cs^q(c, c^h), q = 1..max_q.

    Requires the primary classes to vanish; representatives are real,
    d-closed odd-degree forms.
    """
    a = c.algebroid
    for q, entry in enumerate(chern_character(c, max_q)):
        if q == 0:
            continue
        if not entry.is_zero() and coboundary_witness(a, entry) is None:
            raise PrimaryObstruction(f"Chern character entry q={q} is a nonzero class")
    reports = []
    forms = cs_cochains([c, h_dual(c, h)], max_q)
    for q in range(1, max_q + 1):
        rep = forms[q].scale(I ** (q + 1))
        if not all(v.is_real() for v in rep.comps.values()):
            raise IdentityFailure(
                "reality", f"secondary representative q={q} has an imaginary part"
            )
        if not ce_differential(a, rep).is_zero():
            raise IdentityFailure(
                "closedness", f"secondary representative q={q} is not closed"
            )
        reports.append(ClassReport(q, rep, _solve_coboundary(a, rep)))
    return reports


def adjoint_bundle(anchor: Matrix) -> GradedBundle:
    """A (even) and TM (odd) with the anchor (n x r) as the boundary."""
    return GradedBundle(anchor.ncols, anchor.nrows, d01=anchor)


def _ad(a: ConstantAlgebroid, i: int) -> Matrix:
    """ad_{e_i}: column j holds the coefficients of [e_i, e_j], read as
    integers over a.den."""
    re, im = [[0] * a.r for _ in range(a.r)], [[0] * a.r for _ in range(a.r)]
    for j, cell in enumerate(a.ints[i]):
        for k, x, y in cell:
            re[k][j], im[k][j] = x, y
    return _matrix(re, im, a.den, a.r)


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
    """
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
    """Secondary classes of the basic connection: the intrinsic classes."""
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

