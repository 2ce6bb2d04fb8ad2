"""Transgression cochains.

The affine family sum_i t_i nabla_i over M x Delta^p has a curvature
that is polynomial in the simplex coordinates, plus an extra dt-leg;
fibre integration of supertraces of its powers produces the cs cochains.
A pair (p = 1), the case of every secondary class, takes the
Chern-Simons formula cs^q = q int_0^1 str(theta ^ F_t^(q-1)) dt instead,
on frame 2-forms alone; cs_cochains states the identity it computes.

Bigraded convention: a component keyed by (I, J) is the value of the
form on (e_{i_1}, ..., e_{i_k}, d/dt_{j_1+1}, ..., d/dt_{j_s+1}),
algebroid arguments first, indices strictly increasing.  Every
generator (frame covector or dt) is odd, so moving a dt past an
algebroid 1-form costs a sign.  t_0 is eliminated before anything is
differentiated or integrated, hence dt_0 never appears.

Values: a component of the curvature or of one of its powers is a
polynomial in t_1, ..., t_p with graded-endomorphism coefficients,
{exponent tuple: (even block, odd block)} with Matrix blocks, so
at p = 1 the curvature is R0 + t R1 + t^2 R2.  Its supertrace is
{exponent tuple: (re, im)} with exact rational parts.  Zero monomials
are left out of both.  The fibre integral weights each monomial once,
and Scalars are built only for the resulting AlgebroidForm.  The pair
path keys its values the same way, by the exponent (m,) of u = 2t - 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import add

from .scalars import Scalar
from .algebroid import ConstantAlgebroid, AlgebroidForm, merge_sign
from .connections import GradedBundle


class AffineForm:
    """Form on the algebroid frame and the simplex directions.

    comps maps (I, J) pairs of strictly increasing index tuples to
    values: polynomial values as above, or their supertraces.
    Components of different bidegree may coexist as long as the total
    degree |I| + |J| is constant.  The constructor takes the components
    as given: callers build the keys sorted and leave zero values out.
    wedge and power work on any values with +, unary -, * and is_zero.
    """

    __slots__ = ("r", "p", "degree", "comps")

    def __init__(self, r: int, p: int, degree: int, comps=None):
        self.r = r
        self.p = p
        self.degree = degree
        self.comps = dict(comps or {})

    def is_zero(self) -> bool:
        return not self.comps

    def wedge(self, other: "AffineForm") -> "AffineForm":
        """Bigraded wedge; values multiply (matrix composition)."""
        if (self.r, self.p) != (other.r, other.p):
            raise ValueError("forms live on different algebroids or simplices")
        comps = {}
        for key, sign, v1, v2 in _products(self.comps, other.comps, 0):
            term = v1 * v2 if sign == 1 else -(v1 * v2)
            comps[key] = comps[key] + term if key in comps else term
        comps = {k: v for k, v in comps.items() if not v.is_zero()}
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


def _poly_products(terms) -> dict:
    """The polynomial sum of sign * v1 * v2 over (sign, v1, v2) in terms;
    zero coefficients are left out."""
    out = {}
    for sign, v1, v2 in terms:
        for e1, (a1, b1) in v1.items():
            for e2, (a2, b2) in v2.items():
                e = tuple(map(add, e1, e2))
                x, y = a1 * a2, b1 * b2
                if e in out:
                    x0, y0 = out[e]
                    out[e] = (x0 + x, y0 + y) if sign == 1 else (x0 - x, y0 - y)
                else:
                    out[e] = (x, y) if sign == 1 else (-x, -y)
    return {e: v for e, v in out.items() if not _is_zero(v)}


def _is_zero(pair) -> bool:
    return pair[0].is_zero() and pair[1].is_zero()


def _wedge_values(products: list) -> dict:
    """Sum sign * v1 * v2 per key; zero sums are left out."""
    grouped = {}
    for key, sign, v1, v2 in products:
        grouped.setdefault(key, []).append((sign, v1, v2))
    return {k: v for k, terms in grouped.items() if (v := _poly_products(terms))}


def _traced_values(products: list) -> dict:
    """Sum sign * supertrace(v1 * v2) per key; zero sums are left out.

    str(v1 * v2) = str(v2 * v1) block by block, so the two orders of one
    pair of values under one key are traced once, weighted by the sum of
    their signs, and not at all when that sum is 0.
    """
    pairs = {}
    for key, sign, v1, v2 in products:
        if id(v2) < id(v1):
            v1, v2 = v2, v1
        pairs.setdefault((key, id(v1), id(v2)), [0, v1, v2])[0] += sign
    out = {}
    for (key, _, _), (weight, v1, v2) in pairs.items():
        if not weight:
            continue
        acc = out.setdefault(key, {})
        for e, (re, im) in supertrace_product(v1, v2).items():
            if weight != 1:
                re, im = weight * re, weight * im
            if e in acc:
                r0, i0 = acc[e]
                acc[e] = (r0 + re, i0 + im)
            else:
                acc[e] = (re, im)
    out = {k: {e: t for e, t in acc.items() if t[0] or t[1]} for k, acc in out.items()}
    return {k: acc for k, acc in out.items() if acc}


def supertrace_terms(v: dict) -> dict:
    """The supertrace of each coefficient of the polynomial v."""
    out = {}
    for e, (ee, oo) in v.items():
        s = ee.trace() - oo.trace()
        if not s.is_zero():
            out[e] = (s.re, s.im)
    return out


def supertrace_product(v1: dict, v2: dict) -> dict:
    """supertrace_terms(v1 * v2) without forming the product: O(n^2)
    per block and pair of monomials."""
    out = {}
    for e1, (ee1, oo1) in v1.items():
        for e2, (ee2, oo2) in v2.items():
            e = tuple(map(add, e1, e2))
            r1, i1 = ee1.trace_mul(ee2)
            r2, i2 = oo1.trace_mul(oo2)
            if e in out:
                r0, i0 = out[e]
                out[e] = (r0 + r1 - r2, i0 + i1 - i2)
            else:
                out[e] = (r1 - r2, i1 - i2)
    return {e: t for e, t in out.items() if t[0] or t[1]}


def _check_family(conns) -> tuple[ConstantAlgebroid, GradedBundle]:
    if not conns:
        raise ValueError("a transgression needs at least one connection")
    a = conns[0].algebroid
    b = conns[0].bundle
    for c in conns[1:]:
        if c.algebroid != a or c.bundle != b:
            raise ValueError("connections are not mutually compatible")
    return a, b


def _curvature_values(a: ConstantAlgebroid, parts, lin, scale=1) -> dict:
    """The 2-form sum_x [x_i, x_j] - scale * sum_k c_ij^k lin_k, x over
    parts, for frame polynomials x and lin ({exponent: (ee, oo)} per
    frame index), keyed ((i, j), ()); zero values are left out."""
    comps = {}
    for i in range(a.r):
        for j in range(i + 1, a.r):
            val = _poly_products(
                [t for x in parts for t in ((1, x[i], x[j]), (-1, x[j], x[i]))]
            )
            for k, coeff in a.bracket(i, j):
                if scale != 1:
                    coeff = coeff * scale
                for e, (x, y) in lin[k].items():
                    x, y = x.scale(coeff), y.scale(coeff)
                    val[e] = (val[e][0] - x, val[e][1] - y) if e in val else (-x, -y)
            val = {e: v for e, v in val.items() if not _is_zero(v)}
            if val:
                comps[((i, j), ())] = val
    return comps


def _affine_curvature(conns) -> AffineForm:
    """Curvature of the affine family, any p >= 0; at p = 0, of the one
    connection: R(e_i, e_j) = [Omega_i, Omega_j] - sum_k c_ij^k Omega_k."""
    a, _ = _check_family(conns)
    p = len(conns) - 1
    base = [(om.ee, om.oo) for om in conns[0].omega]
    const = (0,) * p
    aff = [{} if _is_zero(b) else {const: b} for b in base]
    mixed = {}
    for m, cm in enumerate(conns[1:]):
        e = tuple(int(k == m) for k in range(p))
        for i, om in enumerate(cm.omega):
            diff = (om.ee - base[i][0], om.oo - base[i][1])
            if _is_zero(diff):
                continue
            aff[i][e] = diff
            # d/dt_m of the affine family gives the mixed leg; the value
            # on (e_i, d/dt_m) is minus the value on (d/dt_m, e_i)
            mixed[((i,), (m,))] = {const: (-diff[0], -diff[1])}
    comps = _curvature_values(a, [aff], aff)
    comps.update(mixed)
    return AffineForm(a.r, p, 2, comps)


def _dirichlet(e: tuple, p: int) -> Fraction:
    """The integral of t_1^a1 ... t_p^ap over the p-simplex in the chart
    (t_1, ..., t_p): a1! ... ap! / (a1 + ... + ap + p)!."""
    return Fraction(prod(map(factorial, e)), factorial(sum(e) + p))


def fibre_integrate(omega: AffineForm, p: int) -> AlgebroidForm:
    """Integrate the dt_1 ^ ... ^ dt_p component over the simplex.

    Components of lower simplex degree map to zero.  Values are
    supertraced polynomials {exponent tuple: (re, im)}.
    """
    if omega.p != p:
        raise ValueError(f"the form lives over a {omega.p}-simplex, not a {p}-simplex")
    top = tuple(range(p))
    comps = {}
    for (i_idx, j_idx), v in omega.comps.items():
        if j_idx != top:
            continue
        re = im = 0
        for e, (x, y) in v.items():
            w = _dirichlet(e, p)
            re += w * x
            im += w * y
        if re or im:
            comps[i_idx] = Scalar(re, im)
    return AlgebroidForm(omega.r, omega.degree - p, comps)


def cs_cochains(conns, max_q: int) -> list[AlgebroidForm]:
    """The transgression cochains of degree 2q - p for p+1 connections,
    as a list indexed by q = 0..max_q.

    p = 0 gives the supertraces of the curvature powers; for p > 0 the
    prefactor is (-1)^floor((p+1)/2) on the oriented (t_1, ..., t_p)
    chart.  A q with 2q < p gives the zero 0-form: the q-th curvature
    power has no simplex-degree-p component to integrate.

    A pair (p = 1) takes the Chern-Simons formula on 2-forms.  With
    theta = c_1 - c_0 and N = c_0 + c_1, the connection c_0 + t theta at
    t = (1 + u)/2 has frame matrices (N_i + u theta_i)/2, so its
    curvature is F_t = (X + u Y + u^2 C)/4 with

        X = [N_i, N_j] - 2 sum_k c_ij^k N_k,
        Y = [N_i, theta_j] + [theta_i, N_j] - 2 sum_k c_ij^k theta_k,
        C = [theta_i, theta_j].

    Then dt = du/2 over u in [-1, 1], where u^m integrates to 2/(m + 1)
    for even m and to 0 for odd m, so

        cs^q = q 4^(1-q) sum_(m even) str(theta ^ [u^m](X + u Y + u^2 C)^(q-1)) / (m + 1),

    [u^m] taking the coefficient of u^m.  The odd powers drop, so Y is
    built only when max_q >= 3: at q = 2 it enters str(theta ^ F) at u^1
    alone, and only from q = 3 on does Y ^ Y reach an even power.  A
    frame pair then costs 4 matrix products (8 with Y), against 8 for
    the affine curvature, and no form has a dt-leg.
    N is used and not the midpoint M = N/2: each factor 1/2 would cost
    a scaled matrix per frame index and a doubled denominator per
    product, where 4^(1-q) is one rational per component at the end.
    A theta_i or N_i that is zero, such as a pullback's vertical
    section, takes no products at all.

    Every other p takes the affine family over the simplex, in
    _simplex_cochains, which at p = 1 is the pair path's oracle.
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
    cochains = _pair_cochains if p == 1 else _simplex_cochains
    for q, form in cochains(conns, max_q).items():
        out[q] = form
    return out


def _simplex_cochains(conns, max_q: int) -> dict:
    """{q: cs^q} for every q = 1..max_q with 2q >= p, by the affine
    family over M x Delta^p.

    One pass: the curvature is built once and R^q = R^{q-1} ^ R.  Every
    factor of R has simplex degree 0 or 1, so a component of R^k below
    simplex degree p - (max_q - k) cannot reach degree p and is dropped.
    The last factor of each power is never formed: the supertrace of
    v1 * v2 is taken directly, and only for pairs landing in degree p.
    """
    a = conns[0].algebroid
    p = len(conns) - 1
    curv = _affine_curvature(conns).comps
    # traced[q]: the supertraced simplex-degree-p components of R^q
    traced = {
        1: {
            k: w
            for k, v in curv.items()
            if len(k[1]) == p and (w := supertrace_terms(v))
        }
    }
    power = {k: v for k, v in curv.items() if len(k[1]) >= p - (max_q - 1)}
    for q in range(2, max_q + 1):
        traced[q] = _traced_values(_products(power, curv, p))
        if q < max_q:
            power = _wedge_values(_products(power, curv, p - (max_q - q)))
    flip = p > 0 and ((p + 1) // 2) % 2 == 1
    out = {}
    for q, top in traced.items():
        if 2 * q < p:
            continue
        integral = fibre_integrate(AffineForm(a.r, p, 2 * q, top), p)
        out[q] = -integral if flip else integral
    return out


def _pair_cochains(conns, max_q: int) -> dict:
    """{q: cs^q} of a pair for q = 1..max_q, by the Chern-Simons
    identity in cs_cochains."""
    a = conns[0].algebroid
    n, theta, form = [], [], {}
    for i, (o0, o1) in enumerate(zip(conns[0].omega, conns[1].omega)):
        s = (o0.ee + o1.ee, o0.oo + o1.oo)
        d = (o1.ee - o0.ee, o1.oo - o0.oo)
        n.append({} if _is_zero(s) else {(0,): s})
        theta.append({} if _is_zero(d) else {(1,): d})
        if theta[i]:
            form[((i,), ())] = {(0,): d}
    if max_q >= 3:
        both = [{**x, **y} for x, y in zip(n, theta)]
        curv = _curvature_values(a, [both], both, 2)
    else:
        curv = _curvature_values(a, [n, theta], n, 2)
    # form runs through theta ^ F^(q-1); traced[q] is its supertrace, a
    # polynomial in u per component
    traced = {1: {k: w for k, v in form.items() if (w := supertrace_terms(v))}}
    for q in range(2, max_q + 1):
        products = _products(form, curv, 0)
        traced[q] = _traced_values(products)
        if q < max_q:
            form = _wedge_values(products)
    out = {}
    for q, top in traced.items():
        comps = {}
        for (i_idx, _), v in top.items():
            re = im = 0
            for (m,), (x, y) in v.items():
                if m % 2 == 0:
                    w = Fraction(q, 4 ** (q - 1) * (m + 1))
                    re += w * x
                    im += w * y
            comps[i_idx] = Scalar(re, im)
        out[q] = AlgebroidForm(a.r, 2 * q - 1, comps)
    return out
