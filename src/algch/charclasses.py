"""Primary, secondary and intrinsic characteristic classes.

The intrinsic classes of an algebroid are the secondary classes of its
basic connection on the adjoint bundle A (+) TM, with the anchor as the
odd boundary.  The degree-1 class is the modular class; for a Lie
algebra it is proportional to the trace character x |-> Tr(ad_x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .scalars import Scalar, ONE, I
from .linalg import Matrix
from .algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    ce_differential,
    coboundary_witness,
)
from .connections import (
    GradedBundle,
    GradedEndo,
    OddMap,
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


@dataclass
class ClassReport:
    q: int
    representative: AlgebroidForm
    is_zero_class: bool
    witness: Optional[AlgebroidForm]


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
    for q, rep in enumerate(secondary_representatives(c, h_dual(c, h), max_q)):
        if q == 0:
            continue
        if not all(v.is_real() for v in rep.comps.values()):
            raise IdentityFailure(
                "reality", f"secondary representative q={q} has an imaginary part"
            )
        if not ce_differential(a, rep).is_zero():
            raise IdentityFailure(
                "closedness", f"secondary representative q={q} is not closed"
            )
        witness = coboundary_witness(a, rep)
        reports.append(ClassReport(q, rep, witness is not None, witness))
    return reports


def secondary_representatives(c: Connection, dual: Connection, max_q: int) -> list[AlgebroidForm]:
    """i^{q+1} cs^q(c, dual) for q = 0..max_q, where dual is the metric
    dual of c: the representatives of the secondary classes."""
    return [
        form.scale(I ** (q + 1)) for q, form in enumerate(cs_cochains([c, dual], max_q))
    ]


class AdjointSetup(NamedTuple):
    bundle: GradedBundle  # A even, TM odd, boundary = anchor
    basic: Connection
    theta: list[OddMap]
    adjoint: Connection


def adjoint_bundle(anchor: Matrix) -> GradedBundle:
    """A (even) and TM (odd) with the anchor (n x r) as the boundary."""
    return GradedBundle(anchor.ncols, anchor.nrows, d01=anchor)


def adjoint_connection(a: ConstantAlgebroid, bundle: GradedBundle) -> Connection:
    """Even block ad_{e_i}; odd block zero (constant fields commute)."""
    omega = []
    for i in range(a.r):
        ad = Matrix(
            [[a.brackets[i][j][k] for j in range(a.r)] for k in range(a.r)],
            ncols=a.r,
        )
        omega.append(GradedEndo(ad, Matrix.zeros(a.n, a.n)))
    return Connection(a, bundle, omega)


def adjoint_setup(a: ConstantAlgebroid, tm_conn) -> AdjointSetup:
    """Adjoint bundle, basic connection and the equivalence witness.

    tm_conn is a list of n matrices Gamma_m (r x r): the action of
    covariant differentiation along the m-th coordinate field on the
    frame of A.  The basic connection acts by

        even:  b |-> nabla_{rho(b)} e_i + [e_i, b]
        odd:   u |-> rho(nabla_u e_i)

    and differs from the adjoint action by the graded commutator of the
    boundary with theta_i = (u |-> -nabla_u e_i, 0).  With the r x n
    matrix T_i[k, m] = Gamma_m[k, i] and C_i = ad_{e_i}, the even block
    is C_i + T_i rho, the odd block rho T_i, and theta_i = (-T_i, 0).
    """
    tm_conn = list(tm_conn)
    assert len(tm_conn) == a.n
    for g in tm_conn:
        assert g.shape == (a.r, a.r), "tm connection coefficient must be r x r"
    bundle = adjoint_bundle(a.anchor)
    rho = a.anchor

    omega = []
    thetas = []
    for i in range(a.r):
        t = Matrix([[g[k, i] for g in tm_conn] for k in range(a.r)], ncols=a.n)
        c = Matrix([[a.brackets[i][j][k] for j in range(a.r)] for k in range(a.r)], ncols=a.r)
        omega.append(GradedEndo(c + t * rho, rho * t))
        thetas.append(OddMap(-t, Matrix.zeros(a.n, a.r)))

    basic = Connection(a, bundle, omega)
    if not basic.commutes_with_boundary():
        raise IdentityFailure(
            "boundary commutation", "the basic connection does not commute with the anchor"
        )
    ad = adjoint_connection(a, bundle)
    for i in range(a.r):
        delta = ad.omega[i] - basic.omega[i]
        if delta != thetas[i].anticommutator_with_boundary(bundle):
            raise IdentityFailure(
                "adjoint equivalence",
                f"basic and adjoint connections differ from the stated theta at e_{i + 1}",
            )
    return AdjointSetup(bundle, basic, thetas, ad)


def intrinsic_char(a: ConstantAlgebroid, tm_conn, g: HermitianMetric, max_q=None) -> list[ClassReport]:
    """Secondary classes of the basic connection: the intrinsic classes."""
    if max_q is None:
        max_q = default_max_q(a)
    setup = adjoint_setup(a, tm_conn)
    if g.bundle != setup.bundle:
        raise ValueError("metric does not live on the adjoint bundle")
    return secondary_class(setup.basic, g, max_q)


class ModularResult(NamedTuple):
    report: ClassReport
    normalized: AlgebroidForm  # for a Lie algebra, the trace character


def modular_class(a: ConstantAlgebroid, tm_conn, g: HermitianMetric) -> ModularResult:
    """The q=1 intrinsic report, and its representative rescaled so that
    for a Lie algebra it equals the trace character on the nose."""
    report = intrinsic_char(a, tm_conn, g, max_q=1)[0]
    return ModularResult(report, report.representative.scale(ONE / KAPPA))

