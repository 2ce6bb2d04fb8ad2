"""Pullback along torus coordinate projections and the Morita check.

The submersion T^{n+k} -> T^n drops the last k coordinates.  With the
coordinate horizontal complement the Ehresmann curvature vanishes, the
flat product metric has zero Riemannian connection on constant frames,
and the whole connection-and-metric recipe collapses to block
bookkeeping: vertical directions act by zero and horizontal lifts carry
the base data verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .scalars import ZERO, ONE, I
from .linalg import Matrix
from .algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    validate_algebroid,
    coboundary_witness,
)
from .connections import Connection, GradedEndo, HermitianMetric, h_dual
from .transgression import cs_cochains
from .charclasses import adjoint_setup, AdjointSetup, IdentityFailure


@dataclass(frozen=True)
class SubmersionSpec:
    """k new fibre coordinates with a vertical metric (default identity)."""

    k: int
    g_v: Matrix = None

    def __post_init__(self):
        if self.g_v is None:
            object.__setattr__(self, "g_v", Matrix.identity(self.k))
        assert self.g_v.shape == (self.k, self.k)


def pullback_anchor(a: ConstantAlgebroid, s: SubmersionSpec) -> Matrix:
    """Anchor of p^!(A): (n+k) x (k+r), frame (v_1..v_k, hor(e_1)..hor(e_r))."""
    k, n, r = s.k, a.n, a.r
    rows = [[ZERO] * (k + r) for _ in range(n + k)]
    for j in range(k):
        rows[n + j][j] = ONE  # v_j |-> d/dy_j
    for i in range(r):
        for m in range(n):
            rows[m][k + i] = a.anchor[m, i]  # hor(e_i) |-> h(rho e_i)
    return Matrix(rows, ncols=k + r)


def pullback_algebroid(a: ConstantAlgebroid, s: SubmersionSpec) -> ConstantAlgebroid:
    """Frame (v_1..v_k, hor(e_1)..hor(e_r)) over T^{n+k}.

    Vertical sections bracket to zero with everything; horizontal lifts
    reproduce the base brackets since the coordinate Ehresmann
    connection is flat.
    """
    k, r = s.k, a.r
    r2 = k + r
    c = [[[ZERO] * r2 for _ in range(r2)] for _ in range(r2)]
    for i in range(r):
        for j in range(r):
            for m in range(r):
                c[k + i][k + j][k + m] = a.brackets[i][j][m]
    out = ConstantAlgebroid(a.n + k, r2, pullback_anchor(a, s), c)
    bad = validate_algebroid(out)
    assert not bad, bad
    return out


def pullback_form(a: ConstantAlgebroid, s: SubmersionSpec, omega: AlgebroidForm) -> AlgebroidForm:
    """Precompose with the frame projection v_j |-> 0, hor(e_i) |-> e_i."""
    assert omega.r == a.r
    comps = {
        tuple(s.k + i for i in idx): v for idx, v in omega.comps.items()
    }
    return AlgebroidForm(s.k + a.r, omega.degree, comps, zero=omega.zero)


def pullback_connection(a: ConstantAlgebroid, s: SubmersionSpec, c: Connection, pb: ConstantAlgebroid = None) -> Connection:
    """Pullback to p^!(A) acting on the pulled-back (same) bundle."""
    assert c.algebroid == a
    if pb is None:
        pb = pullback_algebroid(a, s)
    z = GradedEndo.zeros(c.bundle.rank_even, c.bundle.rank_odd)
    omega = [z] * s.k + list(c.omega)
    return Connection(pb, c.bundle, omega)


def pullback_data(a: ConstantAlgebroid, s: SubmersionSpec, obj):
    if isinstance(obj, AlgebroidForm):
        return pullback_form(a, s, obj)
    if isinstance(obj, Connection):
        return pullback_connection(a, s, obj)
    raise TypeError(f"cannot pull back {type(obj).__name__}")


def _block_diag(m0: Matrix, m1: Matrix) -> Matrix:
    nr, nc = m0.nrows + m1.nrows, m0.ncols + m1.ncols
    rows = [[ZERO] * nc for _ in range(nr)]
    for i in range(m0.nrows):
        for j in range(m0.ncols):
            rows[i][j] = m0[i, j]
    for i in range(m1.nrows):
        for j in range(m1.ncols):
            rows[m0.nrows + i][m0.ncols + j] = m1[i, j]
    return Matrix(rows, ncols=nc)


class RecipeResult(NamedTuple):
    algebroid: ConstantAlgebroid  # p^!(A)
    tm_conn: list  # nabla-bar: one (k+r) matrix per coordinate of T^{n+k}
    metric: HermitianMetric  # g-bar on Ad(p^!(A))
    setup: AdjointSetup  # adjoint data and basic connection of p^!(A)
    dual: Connection  # g-bar dual of the basic connection
    base: AdjointSetup  # adjoint data and basic connection of A
    base_dual: Connection  # (g_a, g_m) dual of the base basic connection


def submersion_recipe(a: ConstantAlgebroid, s: SubmersionSpec, tm_conn, g_a: Matrix, g_m: Matrix) -> RecipeResult:
    """Connection and metric on the pullback realizing exact naturality.

    On constant data the recipe reduces to: nabla-bar acts by the base
    coefficients on horizontal lifts along horizontal directions and by
    zero everywhere else; the metric is block-diagonal (g_V, pullbacks).
    The basic connection of nabla-bar then splits as the (zero) vertical
    subconnection plus the pullback of the base basic connection, a
    block identity checked below (IdentityFailure if it does not hold).
    """
    k, n, r = s.k, a.n, a.r
    base = adjoint_setup(a, tm_conn)
    base_dual = h_dual(base.basic, HermitianMetric(base.data.bundle, g_a, g_m))
    pb = pullback_algebroid(a, s)
    nabla_bar = []
    for m in range(n):  # horizontal coordinate directions
        g = Matrix.zeros(k + r, k + r)
        rows = [list(row) for row in g.rows]
        for i in range(r):
            for j in range(r):
                rows[k + i][k + j] = tm_conn[m][i, j]
        nabla_bar.append(Matrix(rows, ncols=k + r))
    for _ in range(k):  # vertical directions act by zero
        nabla_bar.append(Matrix.zeros(k + r, k + r))

    setup = adjoint_setup(pb, nabla_bar)
    g_even = _block_diag(s.g_v, g_a)  # on p^!(A): vertical block first
    g_odd = _block_diag(g_m, s.g_v)  # on T(T^{n+k}): x block first
    gbar = HermitianMetric(setup.data.bundle, g_even, g_odd)
    dual = h_dual(setup.basic, gbar)

    _check_basic_splitting(s, base, base_dual, setup, dual)
    return RecipeResult(pb, nabla_bar, gbar, setup, dual, base, base_dual)


def _check_basic_splitting(s, base, base_dual, setup, dual):
    """nabla-bar^bas = vertical (+) pullback(nabla^bas), and the same
    splitting for the g-bar dual against the base dual."""
    k = s.k
    vertical = Matrix.zeros(k, k)
    pairs = [(setup.basic, base.basic), (dual, base_dual)]
    for i in range(k):  # vertical frame sections act by zero
        for conn, _ in pairs:
            if not conn.omega[i].is_zero():
                raise IdentityFailure(
                    "basic splitting", f"vertical section v_{i + 1} does not act by zero"
                )
    for i in range(base.data.algebroid.r):
        for conn, base_conn in pairs:
            om, bom = conn.omega[k + i], base_conn.omega[i]
            if om.ee != _block_diag(vertical, bom.ee):
                raise IdentityFailure(
                    "basic splitting", f"even block of hor(e_{i + 1}) does not split"
                )
            if om.oo != _block_diag(bom.oo, vertical):
                raise IdentityFailure(
                    "basic splitting", f"odd block of hor(e_{i + 1}) does not split"
                )


@dataclass
class MoritaReport:
    k: int
    max_q: int
    per_q: dict  # q -> {"equal": bool, "both_zero": bool}
    cohomologous: dict = field(default_factory=dict)  # q -> bool (perturbed metrics)
    passed: bool = True


def morita_check(
    a: ConstantAlgebroid,
    s: SubmersionSpec,
    tm_conn,
    g_a: Matrix,
    g_m: Matrix,
    max_q: int = 2,
    alt_metric: HermitianMetric = None,
) -> MoritaReport:
    """Verify cs(bar-basic, its g-bar dual) = pullback of the base cs.

    Equality of representatives is bit-exact by construction of the
    recipe.  When alt_metric (an independent metric on Ad(p^!(A))) is
    given, also check that the intrinsic representatives it produces
    differ from the pulled-back ones by exact forms.
    """
    recipe = submersion_recipe(a, s, tm_conn, g_a, g_m)
    basic = recipe.setup.basic
    base_cs = cs_cochains([recipe.base.basic, recipe.base_dual], max_q)
    bar_cs = cs_cochains([basic, recipe.dual], max_q)

    report = MoritaReport(k=s.k, max_q=max_q, per_q={})
    for q in range(1, max_q + 1):
        lhs = bar_cs[q]
        rhs = pullback_form(a, s, base_cs[q])
        equal = lhs == rhs
        report.per_q[q] = {"equal": equal, "both_zero": lhs.is_zero() and rhs.is_zero()}
        if not equal:
            report.passed = False

    if alt_metric is not None:
        alt_cs = cs_cochains([basic, h_dual(basic, alt_metric)], max_q)
        for q in range(1, max_q + 1):
            # the intrinsic representatives i^(q+1) cs^q for both metrics
            phase = I ** (q + 1)
            pulled = pullback_form(a, s, base_cs[q].scale(phase))
            diff = alt_cs[q].scale(phase) - pulled
            witness = coboundary_witness(recipe.algebroid, diff)
            report.cohomologous[q] = witness is not None
            if witness is None:
                report.passed = False
    return report
