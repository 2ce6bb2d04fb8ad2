"""Intrinsic characteristic classes and the basic connection.

The intrinsic classes of an algebroid are the secondary classes of its
basic connection on the adjoint bundle A (+) TM, with the anchor as the
odd boundary.  The degree-1 class is the modular class; for a Lie
algebra it is proportional to the trace character x |-> Tr(ad_x).
Their domain is a real algebroid, decided by _check_domain.  They are
taken from the algebroid alone (intrinsic_cochains), with no tm_conn or
metric, as is cs on a real pair up to max_q = 2 (basic_cochains);
adjoint_setup builds the basic connection for the rest of cs and morita-check.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Optional

from .scalars import Scalar, ONE, I
from .linalg import Matrix, _cmatmul, _imag, _lin, _reduced
from .algebroid import ConstantAlgebroid, AlgebroidForm, coboundary_witness
from .connections import GradedBundle, GradedEndo, Connection
from .transgression import DomainError, _ad, _check_domain, cs_cochains, intrinsic_cochains

# Ratio between the degree-1 intrinsic representative and the trace
# character: the q = 1 class form is -2 c_1 tr ad_i with c_1 = 1
# (intrinsic_cochains), and i^2 = -1 turns it into 2 tr ad_i.
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


def adjoint_bundle(anchor: Matrix) -> GradedBundle:
    """A (even) and TM (odd) with the anchor (n x r) as the boundary."""
    return GradedBundle(anchor.ncols, anchor.nrows, d01=anchor)


def adjoint_setup(a: ConstantAlgebroid, tm_conn) -> Connection:
    """The basic connection on the adjoint bundle of a valid algebroid.

    tm_conn is a list of n matrices Gamma_m (r x r): the action of
    covariant differentiation along the m-th coordinate field on the
    frame of A.  The basic connection acts by

        even:  b |-> nabla_{rho(b)} e_i + [e_i, b]
        odd:   u |-> rho(nabla_u e_i)

    With the r x n matrix T_i[k, m] = Gamma_m[k, i], the even block is
    ad_{e_i} + T_i rho and the odd block rho T_i; a frame whose T_i is
    zero (every frame under a zero tm_conn or at n = 0, and a pullback's
    vertical sections) is (ad_{e_i}, 0) and takes no product.  It
    differs from the adjoint connection (ad_{e_i}, 0) by the graded
    commutator of the anchor with theta_i = -T_i, so the two are
    equivalent, and it commutes with the anchor because rho ad_{e_i} = 0,
    the anchor axiom that parsing decides.

    basic_cochains and morita-check transgress it against its metric
    dual.  A non-real algebroid gets DomainError (_check_domain), as
    from intrinsic_char.
    """
    _check_domain(a)
    tm_conn = list(tm_conn)
    if len(tm_conn) != a.n:
        raise ValueError(f"tm_conn needs {a.n} matrices, got {len(tm_conn)}")
    for m, g in enumerate(tm_conn):
        if g.shape != (a.r, a.r):
            raise ValueError(f"tm_conn[{m}] must be {a.r} x {a.r}, got {g.nrows} x {g.ncols}")
    rho, zero = a.anchor, Matrix.zeros(a.n, a.n)
    # T_i over gamma, the tm_conn denominators' lcm; T_i rho and rho T_i over gamma * pi
    gamma = lcm(*(g.den for g in tm_conn))
    gp = gamma * rho.den
    parts = [[(gamma // g.den, g.re) for g in tm_conn], None]
    if any(g.im is not None for g in tm_conn):
        parts[1] = [(gamma // g.den, _imag(g)) for g in tm_conn]
    live = {i for g in tm_conn for x in (g.re, g.im or ()) for row in x for i, v in enumerate(row) if v}
    omega = []
    for i in range(a.r):
        if i not in live:  # T_i = 0: no product
            omega.append(GradedEndo(_ad(a, i), zero))
            continue
        t = [None if x is None else [[f * y[k][i] for f, y in x] for k in range(a.r)] for x in parts]
        ad = _ad(a, i)
        t_rho_re, t_rho_im = _cmatmul(t, (rho.re, None), a.r)
        even_im = None if t_rho_im is None else _lin(t_rho_im, ad.den)
        even = _reduced(_lin(ad.re, gp, t_rho_re, ad.den), even_im, ad.den * gp, a.r)
        omega.append(GradedEndo(even, _reduced(*_cmatmul((rho.re, None), t, a.n), gp, a.n)))
    return Connection(a, adjoint_bundle(rho), omega)


def basic_cochains(a: ConstantAlgebroid, tm_conn, h, max_q: int) -> list[AlgebroidForm]:
    """cs_cochains(adjoint_setup(a, tm_conn), h, max_q), the cochains of cs.

    Up to max_q = 2 they are intrinsic_cochains(a, max_q) plus dT at q = 2
    (cs_cochains); T is 0 when tm_conn and h are real, so such a pair
    builds no connection, unlike a Gaussian or misshapen one or max_q >= 3."""
    tm_conn = list(tm_conn)
    real = all(g.im is None and g.shape == (a.r, a.r) for g in tm_conn) and h.h_even.im is h.h_odd.im is None
    if max_q <= 2 and real and len(tm_conn) == a.n and h.bundle == adjoint_bundle(a.anchor):
        return intrinsic_cochains(a, max_q)
    return cs_cochains(adjoint_setup(a, tm_conn), h, max_q)


def intrinsic_char(a: ConstantAlgebroid, max_q=None) -> list[ClassReport]:
    """Reports for i^(q+1) intrinsic_cochains(a)[q], q = 1..max_q, each
    with its witness if it is exact: the classes of i^(q+1) cs^q(c, c^h)
    for the basic connection c of any tm_conn and any metric h
    (Crainic 2003).  DomainError if a is not real."""
    if max_q is None:
        max_q = default_max_q(a)
    reps = [form.scale(I ** (q + 1)) for q, form in enumerate(intrinsic_cochains(a, max_q))]
    return [ClassReport(q, rep, coboundary_witness(a, rep)) for q, rep in enumerate(reps) if q]


class ModularResult(NamedTuple):
    report: ClassReport
    normalized: AlgebroidForm  # for a Lie algebra, the trace character


def modular_class(a: ConstantAlgebroid) -> ModularResult:
    """The q=1 intrinsic report, and its representative rescaled so that
    for a Lie algebra it equals the trace character on the nose."""
    report = intrinsic_char(a, max_q=1)[0]
    return ModularResult(report, report.representative.scale(ONE / KAPPA))

