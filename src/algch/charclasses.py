"""Primary, secondary and intrinsic characteristic classes.

The intrinsic classes of an algebroid are the secondary classes of its
basic connection on the adjoint bundle A (+) TM, with the anchor as the
odd boundary.  The degree-1 class is the modular class; for a Lie
algebra it is proportional to the trace character x |-> Tr(ad_x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .scalars import Scalar, ZERO, ONE, I
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


@dataclass(frozen=True)
class AdjointData:
    """Adjoint bundle of an algebroid: A even, TM odd, boundary = anchor."""

    algebroid: ConstantAlgebroid
    bundle: GradedBundle


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
    dual = h_dual(c, h)
    reports = []
    for q, form in enumerate(cs_cochains([c, dual], max_q)):
        if q == 0:
            continue
        rep = form.scale(I ** (q + 1))
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


class AdjointSetup(NamedTuple):
    data: AdjointData
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
    boundary with theta_i = (u |-> -nabla_u e_i, 0).
    """
    tm_conn = list(tm_conn)
    assert len(tm_conn) == a.n
    for g in tm_conn:
        assert g.shape == (a.r, a.r), "tm connection coefficient must be r x r"
    bundle = adjoint_bundle(a.anchor)

    omega = []
    thetas = []
    for i in range(a.r):
        ee_cols = []
        for j in range(a.r):
            col = [a.brackets[i][j][k] for k in range(a.r)]
            for m in range(a.n):
                rho_jm = a.anchor[m, j]
                if not rho_jm.is_zero():
                    for k in range(a.r):
                        col[k] = col[k] + rho_jm * tm_conn[m][k, i]
            ee_cols.append(col)
        ee = Matrix(
            [[ee_cols[j][k] for j in range(a.r)] for k in range(a.r)], ncols=a.r
        )
        oo_cols = []
        for m in range(a.n):
            nabla_m_ei = tm_conn[m].column(i)
            col = [ZERO] * a.n
            for mm in range(a.n):
                for k in range(a.r):
                    col[mm] = col[mm] + a.anchor[mm, k] * nabla_m_ei[k]
            oo_cols.append(col)
        oo = Matrix(
            [[oo_cols[m][mm] for m in range(a.n)] for mm in range(a.n)], ncols=a.n
        )
        omega.append(GradedEndo(ee, oo))

        eo = Matrix(
            [[-tm_conn[m][k, i] for m in range(a.n)] for k in range(a.r)],
            ncols=a.n,
        )
        thetas.append(OddMap(eo, Matrix.zeros(a.n, a.r)))

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
    return AdjointSetup(AdjointData(a, bundle), basic, thetas, ad)


def intrinsic_char(a: ConstantAlgebroid, tm_conn, g: HermitianMetric, max_q=None) -> list[ClassReport]:
    """Secondary classes of the basic connection: the intrinsic classes."""
    if max_q is None:
        max_q = default_max_q(a)
    setup = adjoint_setup(a, tm_conn)
    if g.bundle != setup.data.bundle:
        raise ValueError("metric does not live on the adjoint bundle")
    return secondary_class(setup.basic, g, max_q)


class ModularResult(NamedTuple):
    report: ClassReport
    normalized: Optional[AlgebroidForm]


def modular_class(a: ConstantAlgebroid, tm_conn, g: HermitianMetric, normalize: bool = False) -> ModularResult:
    """The q=1 intrinsic report; optionally rescaled so that for a Lie
    algebra it equals the trace character on the nose."""
    report = intrinsic_char(a, tm_conn, g, max_q=1)[0]
    normalized = report.representative.scale(ONE / KAPPA) if normalize else None
    return ModularResult(report, normalized)


def trace_character(a: ConstantAlgebroid) -> AlgebroidForm:
    """The 1-form e_i |-> Tr(ad_{e_i})."""
    comps = {}
    for i in range(a.r):
        tr = ZERO
        for j in range(a.r):
            tr = tr + a.brackets[i][j][j]
        if not tr.is_zero():
            comps[(i,)] = tr
    return AlgebroidForm(a.r, 1, comps)
