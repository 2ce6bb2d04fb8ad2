"""Pullback along torus coordinate projections and the Morita check.

The submersion T^{k+n} -> T^n drops the first k coordinates, and A
pulls back to the product TT^k x A.  With the coordinate horizontal
complement the Ehresmann curvature vanishes, the flat product metric
has zero Riemannian connection on constant frames, and the recipe
collapses to block bookkeeping: vertical directions act by zero and
horizontal lifts carry the base data verbatim, after k zeros.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import Matrix, _lin
from .algebroid import ConstantAlgebroid, AlgebroidForm, coboundary_witness, direct_product
from .connections import Connection, HermitianMetric
from .charclasses import adjoint_setup, IdentityFailure
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


class RecipeResult(NamedTuple):
    algebroid: ConstantAlgebroid  # p^!(A)
    tm_conn: list  # nabla-bar: one (k+r) matrix per coordinate (y, x) of T^{k+n}
    metric: HermitianMetric  # g-bar on Ad(p^!(A))
    basic: Connection  # basic connection of p^!(A)
    base: Connection  # basic connection of A


def submersion_recipe(a: ConstantAlgebroid, k: int, tm_conn, g: HermitianMetric, g_v: Matrix) -> RecipeResult:
    """Connection and metric on the pullback realizing exact naturality.

    On constant data the recipe reduces to: nabla-bar acts by the base
    coefficients on horizontal lifts along horizontal directions and by
    zero everywhere else; the metric is block-diagonal (g_V, pullbacks).
    The basic connection of nabla-bar then splits as the (zero) vertical
    subconnection plus the pullback of the base basic connection, a
    block identity checked below (IdentityFailure if it does not hold).

    g is the metric on the adjoint bundle of a, g_v the k x k metric on
    the fibre directions.
    """
    if g_v.shape != (k, k):
        raise ValueError(f"g_v must be {k} x {k}, got {g_v.nrows} x {g_v.ncols}")
    tm_conn = list(tm_conn)  # read twice: by adjoint_setup and for nabla-bar
    base = adjoint_setup(a, tm_conn)
    pb = pullback_algebroid(a, k)
    vertical = Matrix.zeros(k, k)
    # vertical coordinate directions acting by zero, then horizontal ones
    nabla_bar = [Matrix.zeros(pb.r, pb.r)] * k + [Matrix.block_diag(vertical, m) for m in tm_conn]

    basic = adjoint_setup(pb, nabla_bar)
    g_even = Matrix.block_diag(g_v, g.h_even)  # on p^!(A): vertical block first
    g_odd = Matrix.block_diag(g_v, g.h_odd)  # on T(T^{k+n}): y block first
    gbar = HermitianMetric(basic.bundle, g_even, g_odd)

    _check_basic_splitting(k, base, basic)
    return RecipeResult(pb, nabla_bar, gbar, basic, base)


def _check_basic_splitting(k, base, basic):
    """nabla-bar^bas = vertical (+) pullback(nabla^bas).  The g-bar dual
    then splits against the base dual by exact block algebra, g-bar
    being block_diag(g_V, g) on each parity, so it is not checked."""
    for i in range(k):  # vertical frame sections act by zero
        if not basic.omega[i].is_zero():
            raise IdentityFailure(
                "basic splitting", f"vertical section v_{i + 1} does not act by zero"
            )
    for i in range(base.algebroid.r):
        om, bom = basic.omega[k + i], base.omega[i]
        for parity, m, b in (("even", om.ee, bom.ee), ("odd", om.oo, bom.oo)):
            if not _places(m, b, k):
                raise IdentityFailure(
                    "basic splitting", f"{parity} block of hor(e_{i + 1}) does not split"
                )


def _places(m: Matrix, b: Matrix, k: int) -> bool:
    """Whether m = block_diag(0_k, b), on the integer rows with the
    denominators cross-multiplied (im is None exactly when it is zero)."""
    f, g = b.den, m.den
    if m.ncols != b.ncols + k or (m.im is None) != (b.im is None):
        return False
    zero, left = [0] * m.ncols, [0] * k
    for x, y in ((m.re, b.re), (m.im, b.im)):
        if x is None:
            continue
        want = [zero] * k + [left + row for row in y]
        if x != want if f == g else _lin(x, f) != _lin(want, g):
            return False
    return True


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

    Equality of representatives is bit-exact by construction of the
    recipe.  When alt_metric (an independent metric on Ad(p^!(A))) is
    given, also check that the intrinsic representatives it produces
    differ from the pulled-back ones by exact forms.  The cochains cs^q
    are compared directly: the phase i^(q+1) of the representatives
    changes neither equality, vanishing nor exactness.  At max_q <= 2
    the perturbed verdict can be read off the route of cs_cochains,
    intrinsic_cochains plus dT: cs^1 reads no metric, and the two cs^2
    differ by d(T_alt - T_bar), T taken from alt_metric or g-bar; it
    has teeth only from max_q 3.
    """
    recipe = submersion_recipe(a, k, tm_conn, g, g_v)
    basic = recipe.basic
    base_cs = cs_cochains(recipe.base, g, max_q)
    bar_cs = cs_cochains(basic, recipe.metric, max_q)

    per_q, cohomologous = {}, {}
    for q in range(1, max_q + 1):
        lhs = bar_cs[q]
        rhs = pullback_form(a, k, base_cs[q])
        per_q[q] = {"equal": lhs == rhs, "both_zero": lhs.is_zero() and rhs.is_zero()}

    if alt_metric is not None:
        alt_cs = cs_cochains(basic, alt_metric, max_q)
        for q in range(1, max_q + 1):
            diff = alt_cs[q] - pullback_form(a, k, base_cs[q])
            cohomologous[q] = coboundary_witness(recipe.algebroid, diff) is not None
    return MoritaReport(per_q, cohomologous)
