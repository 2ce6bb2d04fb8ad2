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

from .linalg import Matrix
from .algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    coboundary_witness,
    direct_product,
)
from .connections import Connection, HermitianMetric, h_dual
from .charclasses import (
    adjoint_setup,
    AdjointSetup,
    IdentityFailure,
    secondary_representatives,
)
from .library import abelian


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
    """Anchor of p^!(A): (n+k) x (k+r), frame (v_1..v_k, hor(e_1)..hor(e_r)).

    v_j |-> d/dy_j and hor(e_i) |-> h(rho e_i): the anchor of TT^k x A
    with the k fibre rows moved below the n base rows.
    """
    rows = Matrix.block_diag(Matrix.identity(s.k), a.anchor).rows
    return Matrix(rows[s.k:] + rows[:s.k], ncols=s.k + a.r)


def pullback_algebroid(a: ConstantAlgebroid, s: SubmersionSpec) -> ConstantAlgebroid:
    """Frame (v_1..v_k, hor(e_1)..hor(e_r)) over T^{n+k}.

    Vertical sections bracket to zero with everything; horizontal lifts
    reproduce the base brackets since the coordinate Ehresmann
    connection is flat.  Valid by construction when a is valid, so it
    is not checked again.
    """
    brackets = direct_product(abelian(s.k), a).brackets
    return ConstantAlgebroid(a.n + s.k, s.k + a.r, pullback_anchor(a, s), brackets)


def pullback_form(a: ConstantAlgebroid, s: SubmersionSpec, omega: AlgebroidForm) -> AlgebroidForm:
    """Precompose with the frame projection v_j |-> 0, hor(e_i) |-> e_i."""
    assert omega.r == a.r
    comps = {
        tuple(s.k + i for i in idx): v for idx, v in omega.comps.items()
    }
    return AlgebroidForm(s.k + a.r, omega.degree, comps)


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
    base = adjoint_setup(a, tm_conn)
    base_dual = h_dual(base.basic, HermitianMetric(base.bundle, g_a, g_m))
    pb = pullback_algebroid(a, s)
    vertical = Matrix.zeros(s.k, s.k)
    # horizontal coordinate directions, then vertical ones acting by zero
    nabla_bar = [Matrix.block_diag(vertical, g) for g in tm_conn]
    nabla_bar += [Matrix.zeros(pb.r, pb.r)] * s.k

    setup = adjoint_setup(pb, nabla_bar)
    g_even = Matrix.block_diag(s.g_v, g_a)  # on p^!(A): vertical block first
    g_odd = Matrix.block_diag(g_m, s.g_v)  # on T(T^{n+k}): x block first
    gbar = HermitianMetric(setup.bundle, g_even, g_odd)
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
    for i in range(base.basic.algebroid.r):
        for conn, base_conn in pairs:
            om, bom = conn.omega[k + i], base_conn.omega[i]
            if om.ee != Matrix.block_diag(vertical, bom.ee):
                raise IdentityFailure(
                    "basic splitting", f"even block of hor(e_{i + 1}) does not split"
                )
            if om.oo != Matrix.block_diag(bom.oo, vertical):
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
    # the intrinsic representatives i^(q+1) cs^q; the phase changes
    # neither equality nor vanishing
    base_reps = secondary_representatives(recipe.base.basic, recipe.base_dual, max_q)
    bar_reps = secondary_representatives(basic, recipe.dual, max_q)

    report = MoritaReport(k=s.k, max_q=max_q, per_q={})
    for q in range(1, max_q + 1):
        lhs = bar_reps[q]
        rhs = pullback_form(a, s, base_reps[q])
        equal = lhs == rhs
        report.per_q[q] = {"equal": equal, "both_zero": lhs.is_zero() and rhs.is_zero()}
        if not equal:
            report.passed = False

    if alt_metric is not None:
        alt_reps = secondary_representatives(basic, h_dual(basic, alt_metric), max_q)
        for q in range(1, max_q + 1):
            diff = alt_reps[q] - pullback_form(a, s, base_reps[q])
            witness = coboundary_witness(recipe.algebroid, diff)
            report.cohomologous[q] = witness is not None
            if witness is None:
                report.passed = False
    return report
