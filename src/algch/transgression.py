"""Transgression cochains.

The affine family sum_i t_i nabla_i over M x Delta^p has a curvature
with simplex-polynomial coefficients and an extra dt-leg; fibre
integration of supertraces of its powers produces the cs cochains.

Bigraded convention: a component keyed by (I, J) is the value of the
form on (e_{i_1}, ..., e_{i_k}, d/dt_{j_1+1}, ..., d/dt_{j_s+1}),
algebroid arguments first, indices strictly increasing.  Every
generator (frame covector or dt) is odd, so moving a dt past an
algebroid 1-form costs a sign.  t_0 is eliminated before anything is
differentiated or integrated, hence dt_0 never appears.
"""

from __future__ import annotations

from operator import mul

from .scalars import Scalar, SimplexPolynomial, simplex_integrate
from .linalg import Matrix
from .algebroid import ConstantAlgebroid, AlgebroidForm, merge_sign
from .connections import GradedEndo, supertrace, supertrace_product


def _poly_matrix(m: Matrix, p: int) -> Matrix:
    zero = SimplexPolynomial(p)
    return Matrix(
        [[SimplexPolynomial.constant(p, a) for a in row] for row in m.rows],
        zero,
        ncols=m.ncols,
    )


def _poly_endo(ge: GradedEndo, p: int) -> GradedEndo:
    return GradedEndo(_poly_matrix(ge.ee, p), _poly_matrix(ge.oo, p))


class AffineForm:
    """Form on the algebroid frame and the simplex directions.

    comps maps (I, J) pairs of strictly increasing index tuples to
    values (polynomial-entried GradedEndos, or SimplexPolynomials after
    a supertrace).  Components of different bidegree may coexist as
    long as the total degree |I| + |J| is constant.  The constructor
    takes the keys as given (callers build them sorted) and drops zero
    values.
    """

    __slots__ = ("r", "p", "degree", "comps")

    def __init__(self, r: int, p: int, degree: int, comps=None):
        self.r = r
        self.p = p
        self.degree = degree
        self.comps = {k: v for k, v in (comps or {}).items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.comps

    def wedge(self, other: "AffineForm") -> "AffineForm":
        """Bigraded wedge; values multiply (matrix composition)."""
        assert (self.r, self.p) == (other.r, other.p)
        comps = _combine(_products(self.comps, other.comps, 0), mul)
        return AffineForm(self.r, self.p, self.degree + other.degree, comps)

    def power(self, q: int, identity) -> "AffineForm":
        if q == 0:
            return AffineForm(self.r, self.p, 0, {((), ()): identity})
        out = self
        for _ in range(q - 1):
            out = out.wedge(self)
        return out

    def __repr__(self):
        return f"AffineForm(deg={self.degree}, p={self.p}, keys={list(self.comps)})"


def _products(left: dict, right: dict, lo: int) -> list:
    """(key, sign, v1, v2) for every pair of components of left and right
    whose wedge does not vanish and has simplex degree at least lo."""
    out = []
    for (i1, j1), v1 in left.items():
        for (i2, j2), v2 in right.items():
            if len(j1) + len(j2) < lo:
                continue
            si = merge_sign(i1, i2)
            if si == 0:
                continue
            sj = merge_sign(j1, j2)
            if sj == 0:
                continue
            sign = si * sj * (-1 if (len(j1) * len(i2)) % 2 else 1)
            key = (tuple(sorted(i1 + i2)), tuple(sorted(j1 + j2)))
            out.append((key, sign, v1, v2))
    return out


def _combine(products: list, value) -> dict:
    """Sum sign * value(v1, v2) per key; zero sums are dropped."""
    comps = {}
    for key, sign, v1, v2 in products:
        term = value(v1, v2)
        if sign == -1:
            term = -term
        comps[key] = comps[key] + term if key in comps else term
    return {k: v for k, v in comps.items() if not v.is_zero()}


def _check_family(conns) -> tuple[ConstantAlgebroid, GradedEndo]:
    assert conns, "empty connection list"
    a = conns[0].algebroid
    b = conns[0].bundle
    for c in conns[1:]:
        if c.algebroid != a or c.bundle != b:
            raise ValueError("connections are not mutually compatible")
    return a, b


def _affine_curvature(conns) -> AffineForm:
    """Curvature of the affine family, any p >= 0; at p = 0, of the one
    connection: R(e_i, e_j) = [Omega_i, Omega_j] - sum_k c_ij^k Omega_k."""
    a, _ = _check_family(conns)
    p = len(conns) - 1
    base = [_poly_endo(om, p) for om in conns[0].omega]
    diffs = [
        [_poly_endo(cm.omega[i] - conns[0].omega[i], p) for i in range(a.r)]
        for cm in conns[1:]
    ]
    aff = []
    for i in range(a.r):
        om = base[i]
        for m in range(p):
            t = SimplexPolynomial.variable(m + 1, p)
            om = om + diffs[m][i] * t
        aff.append(om)
    comps = {}
    for i in range(a.r):
        for j in range(i + 1, a.r):
            val = aff[i].commutator(aff[j])
            for k, coeff in a.nonzero_brackets[i][j]:
                val = val - aff[k].scale(coeff)
            comps[((i, j), ())] = val
        # d/dt_m of the affine family gives the mixed leg; the value on
        # (e_i, d/dt_m) is minus the value on (d/dt_m, e_i)
        for m in range(p):
            comps[((i,), (m,))] = -diffs[m][i]
    return AffineForm(a.r, p, 2, comps)


def fibre_integrate(omega: AffineForm, p: int) -> AlgebroidForm:
    """Integrate the dt_1 ^ ... ^ dt_p component over the simplex.

    Components of lower simplex degree map to zero.  Values must be
    SimplexPolynomials (apply a supertrace first for endomorphism
    values).
    """
    assert omega.p == p
    top = tuple(range(p))
    comps = {}
    for (i_idx, j_idx), v in omega.comps.items():
        if j_idx != top:
            continue
        val = simplex_integrate(v, p)
        if not val.is_zero():
            comps[i_idx] = val
    return AlgebroidForm(omega.r, omega.degree - p, comps)


def cs_cochains(conns, max_q: int) -> list[AlgebroidForm]:
    """The transgression cochains of degree 2q - p for p+1 connections,
    as a list indexed by q = 0..max_q.

    p = 0 gives the supertraces of the curvature powers; for p > 0 the
    prefactor is (-1)^floor((p+1)/2) on the oriented (t_1, ..., t_p)
    chart.  A q with 2q < p gives the zero 0-form: the q-th curvature
    power has no simplex-degree-p component to integrate.

    One pass: the curvature is built once and R^q = R^{q-1} ^ R.  Every
    factor of R has simplex degree 0 or 1, so a component of R^k below
    simplex degree p - (max_q - k) cannot reach degree p and is dropped.
    The last factor of each power is never formed: the supertrace of
    v1 * v2 is taken directly, and only for pairs landing in degree p.
    """
    a, bundle = _check_family(conns)
    p = len(conns) - 1
    out = [AlgebroidForm(a.r, 0) for _ in range(max_q + 1)]
    if p == 0:
        out[0] = AlgebroidForm(
            a.r, 0, {(): Scalar(bundle.rank_even - bundle.rank_odd)}
        )
    if max_q < 1 or 2 * max_q < p:
        return out
    curv = _affine_curvature(conns).comps
    # traced[q]: the supertraced simplex-degree-p components of R^q
    traced = {
        1: {
            k: w
            for k, v in curv.items()
            if len(k[1]) == p and not (w := supertrace(v)).is_zero()
        }
    }
    power = {k: v for k, v in curv.items() if len(k[1]) >= p - (max_q - 1)}
    for q in range(2, max_q + 1):
        traced[q] = _combine(_products(power, curv, p), supertrace_product)
        if q < max_q:
            power = _combine(_products(power, curv, p - (max_q - q)), mul)
    flip = p > 0 and ((p + 1) // 2) % 2 == 1
    for q, top in traced.items():
        if 2 * q < p:
            continue
        integral = fibre_integrate(AffineForm(a.r, p, 2 * q, top), p)
        out[q] = -integral if flip else integral
    return out


def cs_cochain(conns, q: int) -> AlgebroidForm:
    """The transgression cochain of degree 2q - p; see cs_cochains."""
    return cs_cochains(conns, q)[q]
