"""Pullback along torus coordinate projections and the Morita check.

The submersion T^{k+n} -> T^n drops the first k coordinates, and A
pulls back to the product TT^k x A.  With the coordinate horizontal
complement the Ehresmann curvature vanishes and the flat product metric
has zero Riemannian connection on constant frames, so morita_check's
data on the pullback is block bookkeeping: vertical directions act by
zero and horizontal lifts carry the base data verbatim, after k zeros.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import Matrix
from .algebroid import ConstantAlgebroid, AlgebroidForm, coboundary_witness, direct_product
from .connections import HermitianMetric
from .charclasses import adjoint_setup
from .transgression import cs_cochains


def pullback_algebroid(a: ConstantAlgebroid, k: int) -> ConstantAlgebroid:
    """TT^k x A over T^{k+n}, frame (v_1..v_k, hor(e_1)..hor(e_r)):
    v_j |-> d/dy_j and hor(e_i) |-> h(rho e_i).

    Vertical sections bracket to zero with everything; horizontal lifts
    reproduce the base brackets since the coordinate Ehresmann
    connection is flat.  Valid by construction when a is valid, so it
    is not checked again.
    """
    return direct_product(ConstantAlgebroid(k, k, Matrix.identity(k), {}), a)


def pullback_form(a: ConstantAlgebroid, k: int, omega: AlgebroidForm) -> AlgebroidForm:
    """Precompose with the frame projection v_j |-> 0, hor(e_i) |-> e_i."""
    if omega.r != a.r:
        raise ValueError(f"the form lives on rank {omega.r}, not on the base rank {a.r}")
    comps = {
        tuple(k + i for i in idx): v for idx, v in omega.comps.items()
    }
    return AlgebroidForm(k + a.r, omega.degree, comps)


class MoritaReport(NamedTuple):
    per_q: dict  # q -> {"equal": bool, "both_zero": bool}
    cohomologous: dict  # q -> bool (perturbed metric); empty without one

    @property
    def passed(self) -> bool:
        return all(v["equal"] for v in self.per_q.values()) and all(self.cohomologous.values())


def morita_check(
    a: ConstantAlgebroid,
    k: int,
    tm_conn,
    g: HermitianMetric,
    g_v: Matrix,
    max_q: int = 2,
    alt_metric: HermitianMetric = None,
) -> MoritaReport:
    """Verify cs(bar-basic, its g-bar dual) = pullback of the base cs.

    g_v is the k x k metric on the fibre directions.  The basic
    connection of nabla-bar is zero on the vertical frames and
    block_diag(0_k, the base's) on the horizontal ones, by construction
    of adjoint_setup, so equality of representatives is bit-exact.
    When alt_metric (an independent metric on Ad(p^!(A))) is given, also
    check that the intrinsic representatives it produces differ from
    the pulled-back ones by exact forms.  The cochains cs^q are
    compared directly: the phase i^(q+1) of the representatives changes
    neither equality, vanishing nor exactness.  At max_q <= 2 the
    perturbed verdict can be read off the route of cs_cochains,
    intrinsic_cochains plus dT: cs^1 reads no metric, and the two cs^2
    differ by d(T_alt - T_bar), T taken from alt_metric or g-bar; it
    has teeth only from max_q 3.
    """
    if g_v.shape != (k, k):
        raise ValueError(f"g_v must be {k} x {k}, got {g_v.nrows} x {g_v.ncols}")
    tm_conn = list(tm_conn)  # read twice: by adjoint_setup and for nabla-bar
    base = adjoint_setup(a, tm_conn)
    pb = pullback_algebroid(a, k)
    vertical = Matrix.zeros(k, k)
    # nabla-bar: zero along the fibre directions, then the base's on horizontal lifts
    basic = adjoint_setup(pb, [Matrix.zeros(pb.r, pb.r)] * k + [Matrix.block_diag(vertical, m) for m in tm_conn])
    # g-bar on p^!(A) and on T(T^{k+n}): the vertical (y) block first
    gbar = HermitianMetric(basic.bundle, Matrix.block_diag(g_v, g.h_even), Matrix.block_diag(g_v, g.h_odd))
    base_cs = cs_cochains(base, g, max_q)
    bar_cs = cs_cochains(basic, gbar, max_q)

    per_q, cohomologous = {}, {}
    for q in range(1, max_q + 1):
        lhs = bar_cs[q]
        rhs = pullback_form(a, k, base_cs[q])
        per_q[q] = {"equal": lhs == rhs, "both_zero": lhs.is_zero() and rhs.is_zero()}

    if alt_metric is not None:
        alt_cs = cs_cochains(basic, alt_metric, max_q)
        for q in range(1, max_q + 1):
            diff = alt_cs[q] - pullback_form(a, k, base_cs[q])
            cohomologous[q] = coboundary_witness(pb, diff) is not None
    return MoritaReport(per_q, cohomologous)
