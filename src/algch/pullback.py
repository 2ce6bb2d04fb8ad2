"""Pullback along torus coordinate projections and the Morita check.

The submersion T^{k+n} -> T^n drops the first k coordinates, and A
pulls back to the product TT^k x A.  With the coordinate horizontal
complement the Ehresmann curvature vanishes and the flat product metric
has zero Riemannian connection on constant frames, so morita_check's
data on the pullback is block bookkeeping: vertical directions act by
zero and horizontal lifts carry the base data verbatim, after k zeros.
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple

from .linalg import Matrix, _matrix
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


def _random_pd(n: int, rng: random.Random) -> Matrix:
    """m^H m + 1 for an n x n matrix m of Gaussian integers, their real
    and imaginary parts drawn in -2..2 in turn per entry, row by row.
    Entry (i, j) is conj(column i) . column j; it is taken on the upper
    triangle and mirrored, as m^H m is Hermitian."""
    parts = rng.choices(range(-2, 3), k=2 * n * n)
    a = [parts[2 * j::2 * n] for j in range(n)]  # column j of Re m
    b = [parts[2 * j + 1::2 * n] for j in range(n)]
    re, im = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            re[i][j] = re[j][i] = sum(map(mul, a[i], a[j])) + sum(map(mul, b[i], b[j])) + (i == j)
            im[i][j] = sum(map(mul, a[i], b[j])) - sum(map(mul, b[i], a[j]))
            im[j][i] = -im[i][j]
    return _matrix(re, im, 1, n)


class MoritaReport(NamedTuple):
    per_q: dict  # q -> {"equal": bool, "both_zero": bool}
    cohomologous: dict  # q -> bool, under the perturbed metric

    @property
    def passed(self) -> bool:
        return all(v["equal"] for v in self.per_q.values()) and all(self.cohomologous.values())


def morita_check(
    a: ConstantAlgebroid, k: int, tm_conn, g: HermitianMetric, max_q: int = 2, seed: int = 0
) -> MoritaReport:
    """Verify cs(bar-basic, its g-bar dual) = pullback of the base cs.

    g-bar is block_diag(I_k, g) on each parity.  The basic connection of
    nabla-bar is zero on the vertical frames and block_diag(0_k, the
    base's) on the horizontal ones, by construction of adjoint_setup,
    so equality of representatives is bit-exact; the vertical block of
    g-bar reaches no cochain.  Also check that the intrinsic
    representatives of a perturbed metric on Ad(p^!(A)), drawn from
    random.Random(seed), differ from the pulled-back ones by exact
    forms.  The cochains cs^q are compared directly: the phase i^(q+1)
    of the representatives changes neither equality, vanishing nor
    exactness.  At max_q <= 2 the perturbed verdict can be read off the
    route of cs_cochains, intrinsic_cochains plus dT: cs^1 reads no
    metric, and the two cs^2 differ by d(T_alt - T_bar), T taken from
    the perturbed metric or g-bar; it has teeth only from max_q 3.
    """
    tm_conn = list(tm_conn)  # read twice: by adjoint_setup and for nabla-bar
    base = adjoint_setup(a, tm_conn)
    pb = pullback_algebroid(a, k)
    vertical, one = Matrix.zeros(k, k), Matrix.identity(k)
    # nabla-bar: zero along the fibre directions, then the base's on horizontal lifts
    basic = adjoint_setup(pb, [Matrix.zeros(pb.r, pb.r)] * k + [Matrix.block_diag(vertical, m) for m in tm_conn])
    # g-bar on p^!(A) and on T(T^{k+n}): the vertical (y) block first
    gbar = HermitianMetric(basic.bundle, Matrix.block_diag(one, g.h_even), Matrix.block_diag(one, g.h_odd))
    rng = random.Random(seed)
    alt = HermitianMetric(basic.bundle, _random_pd(pb.r, rng), _random_pd(pb.n, rng))
    base_cs = cs_cochains(base, g, max_q)
    bar_cs = cs_cochains(basic, gbar, max_q)
    alt_cs = cs_cochains(basic, alt, max_q)

    per_q, cohomologous = {}, {}
    for q in range(1, max_q + 1):
        lhs = bar_cs[q]
        rhs = pullback_form(a, k, base_cs[q])
        per_q[q] = {"equal": lhs == rhs, "both_zero": lhs.is_zero() and rhs.is_zero()}
        cohomologous[q] = coboundary_witness(pb, alt_cs[q] - rhs) is not None
    return MoritaReport(per_q, cohomologous)
