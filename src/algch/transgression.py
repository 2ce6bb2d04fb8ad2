"""Transgression cochains.

The affine family sum_i t_i nabla_i over M x Delta^p has a curvature
that is polynomial in the simplex coordinates, plus an extra dt-leg;
fibre integration of supertraces of its powers produces the cs cochains.
Every secondary class is the cochain of a connection c and its metric
dual, which cs_cochains(c, h, max_q) takes without a dt-leg: up to
q = 2 as a difference of Chern-Simons forms, from traces of c's frame
matrices and of their products and from the metric inverse, and from
q = 3 on by the Chern-Simons formula
cs^q = q int_0^1 str(theta ^ F_t^(q-1)) dt on frame 2-forms.
cs_cochains states both identities.

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
chain keys its values the same way, by the exponent (m,) of u = 2t - 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import factorial, lcm, prod
from operator import add, mul

from .scalars import Scalar
from .linalg import _cmatmul, _lin, inverse
from .algebroid import ConstantAlgebroid, AlgebroidForm, merge_sign
from .connections import Connection, GradedBundle, HermitianMetric, h_dual


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


def _curvature_values(a: ConstantAlgebroid, x, scale=1) -> dict:
    """The 2-form [x_i, x_j] - scale * sum_k c_ij^k x_k for the frame
    polynomial x ({exponent: (ee, oo)} per frame index), keyed
    ((i, j), ()); zero values are left out."""
    comps = {}
    for i in range(a.r):
        for j in range(i + 1, a.r):
            val = _poly_products([(1, x[i], x[j]), (-1, x[j], x[i])])
            for k, coeff in a.bracket(i, j):
                if scale != 1:
                    coeff = coeff * scale
                for e, (y, z) in x[k].items():
                    y, z = y.scale(coeff), z.scale(coeff)
                    val[e] = (val[e][0] - y, val[e][1] - z) if e in val else (-y, -z)
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
    comps = _curvature_values(a, aff)
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


def cs_cochains(c: Connection, h: HermitianMetric, max_q: int) -> list[AlgebroidForm]:
    """The Chern-Simons cochains cs^q(c, c^h) of the connection c and its
    metric dual c^h = h_dual(c, h), as a list indexed by q = 0..max_q,
    with cs^0 the zero 0-form.

    The route depends on max_q alone.  Up to max_q = 2 it takes the
    difference of Chern-Simons forms (Chern and Simons, Ann. Math. 99,
    1974) from c's frames and h: with c_0 = c and c_1 = c^h, frames
    -H^-1 c_0,i^* H, cs^1 = str(c_1,i) - str(c_0,i), and CS3 for
    (z, c_0, c_1), z the zero connection, gives

        cs^2(c_0, c_1) = CS(c_1) - CS(c_0) + dT,
        CS(A) = cs^2(z, A),  T = cs^2(z, c_0, c_1).

    With dA_jk = -sum_l c_jk^l A_l and P_jk = A_j A_k, on components,

        CS(A)_ijk = str(A_i dA_jk) - str(A_j dA_ik) + str(A_k dA_ij)
                    + 2 [str(A_i P_jk) - str(A_j P_ik)]        (i < j < k),
        T_ij = str(c_0,i c_1,j) - str(c_0,j c_1,i).

    The last term is 2/3 of the six orders of str(A_i A_j A_k), which
    cyclicity leaves at two.  Supertraces are similarity-invariant, so
    str(c_1,i) = -conj str(c_0,i), str(c_1,i c_1,l) = conj str(c_0,i c_0,l)
    and str(c_1,i c_1,j c_1,k) = -conj str(c_0,k c_0,j c_0,i), which
    cyclicity turns into -conj str(c_0,j c_0,i c_0,k): the triple term of
    CS(c_1) is the conjugate of that of CS(c_0).  Hence
    cs^1 = -2 Re str(c_0,i), and CS(c_1) - CS(c_0) is the formula for
    CS on -2i times the imaginary parts of c_0's traces, zero on a real
    c_0: one product P_jk per frame pair j < k, on c_0's nonzero rows.
    The cross traces are Hermitian, so T_ij = 2i Im str(c_0,i c_1,j), and
    with G = H^-1 blockwise str(c_0,i c_1,j) = -str(c_0,i G c_0,j^* H)
    takes c_0 and the metric inverse; T is zero when c_0 and h are real,
    c_1 being real then.  c_1's frames are never built.  Traces run on
    integer rows over one denominator, and each component becomes a
    rational once, at the end.

    From max_q = 3 on it takes the chain on F_t, in _pair_chain, on
    the frames of h_dual(c, h), built once there.  The Chern-Simons
    formula cs^q = q int_0^1 str(theta ^ F_t^(q-1)) dt holds for any
    pair, with theta = c_1 - c_0 and F_t the curvature of c_0 + t theta.
    With N = c_0 + c_1, the connection at t = (1 + u)/2 has frame
    matrices (N_i + u theta_i)/2, so F_t = (X + u Y + u^2 C)/4 with

        X = [N_i, N_j] - 2 sum_k c_ij^k N_k,
        Y = [N_i, theta_j] + [theta_i, N_j] - 2 sum_k c_ij^k theta_k,
        C = [theta_i, theta_j].

    Then dt = du/2 over u in [-1, 1], where u^m integrates to 2/(m + 1)
    for even m and to 0 for odd m, so

        cs^q = q 4^(1-q) sum_(m even) str(theta ^ [u^m](X + u Y + u^2 C)^(q-1)) / (m + 1),

    [u^m] taking the coefficient of u^m.  A frame pair costs 8 matrix
    products, as in the affine curvature, but no form has a dt-leg.
    N is used and not the midpoint M = N/2: each factor 1/2 would cost
    a scaled matrix per frame index and a doubled denominator per
    product, where 4^(1-q) is one rational per component at the end.
    A theta_i or N_i that is zero, such as a pullback's vertical
    section, takes no products at all.

    The affine family over the simplex, _simplex_cochains, is the
    oracle of both routes.
    """
    if h.bundle != c.bundle:
        raise ValueError("connection and metric live on different bundles")
    a = c.algebroid
    out = [AlgebroidForm(a.r, 0) for _ in range(max_q + 1)]
    if max_q >= 3:
        for q, form in _pair_chain([c, h_dual(c, h)], max_q).items():
            out[q] = form
        return out
    if max_q < 1:
        return out
    d0, f0 = _integer_frames(c)
    out[1] = AlgebroidForm(a.r, 1, {
        (i,): Scalar(Fraction(-2 * _supertrace(x)[0], d0)) for i, x in enumerate(f0)
    })
    if max_q == 2:
        # conj(z) - z = -2i Im z for the gram and triple terms; a real
        # c_0 has none, and a real c_0 under a real metric has a real
        # dual, so no T either
        linear, cubic, real = [], [], _is_real(c)
        if not real:
            gram, tri = _cs_traces(f0)
            linear.append((-2, d0**2, _imaginary(gram)))
            cubic.append((-2, d0**3, _imaginary(tri)))
        if not (real and h.h_even.im is None and h.h_odd.im is None):
            linear.append((-1, *_metric_transgression(f0, d0, h)))
        out[2] = _cs2_form(a, linear, cubic)
    return out


def _simplex_cochains(conns, max_q: int) -> dict:
    """{q: cs^q} for every q = 1..max_q with 2q >= p, by the affine
    family of the p + 1 connections over M x Delta^p.

    p = 0 gives the supertraces of the curvature powers; for p > 0 the
    prefactor is (-1)^floor((p+1)/2) on the oriented (t_1, ..., t_p)
    chart.  A q with 2q < p has no entry: the q-th curvature power has
    no simplex-degree-p component to integrate.

    It has no caller in the package: it is the tests' oracle of
    cs_cochains, and of every family but a pair, until the simplex
    family leaves for the tests (ROADMAP item 5).  The benchmark's
    tracer, perfbench/spans.py, patches _affine_curvature,
    AffineForm.wedge and .power and fibre_integrate by name, which
    keeps them here.

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


def _is_real(c) -> bool:
    return all(m.im is None for om in c.omega for m in (om.ee, om.oo))


def _imaginary(t: dict) -> dict:
    """The imaginary parts of a table {key: (re, im)}, as (0, im)."""
    return {k: (0, y) for k, (_, y) in t.items() if y}


def _cs2_form(a: ConstantAlgebroid, linear: list, cubic: list) -> AlgebroidForm:
    """The 3-form _contract(a, sum of linear) + a.den * sum of cubic, for
    terms (weight, den, table): Gaussian integer tables over den, each
    multiplied by the integer weight.  It is CS(A) for linear gram and
    cubic tri of A (_cs_traces), and CS(c_1) - CS(c_0) + dT of a dual
    pair for linear -2i Im gram_0 and -T and cubic -2i Im tri_0."""
    den = lcm(*(d for _, d, _ in chain(linear, cubic)))
    lin = _weighted((w * (den // d), t) for w, d, t in linear)
    sums = _weighted(chain(
        ((1, _contract(a, lin)),) if lin else (),
        ((w * a.den * (den // d), t) for w, d, t in cubic),
    ))
    den *= a.den
    return AlgebroidForm(a.r, 3, {
        key: Scalar(Fraction(x, den), Fraction(y, den)) for key, (x, y) in sums.items()
    })


def _weighted(parts) -> dict:
    """sum of w * table over (w, table) in parts, for tables {key: (re, im)}."""
    sums = {}
    for w, part in parts:
        for key, (x, y) in part.items():
            x0, y0 = sums.get(key, (0, 0))
            sums[key] = (x0 + w * x, y0 + w * y)
    return sums


def _integer_frames(c) -> tuple:
    """(den, frames) for the connection c, with den the lcm of the
    denominators of its frame matrices.  frames[i] is None when frame
    matrix i is zero, and otherwise (blocks, left, right): blocks holds
    its even and odd blocks as Gaussian integer rows (re, im) over den,
    and left and right are its _flat vectors."""
    den = lcm(*(m.den for om in c.omega for m in (om.ee, om.oo)))
    frames = []
    for om in c.omega:
        if om.ee.is_zero() and om.oo.is_zero():
            frames.append(None)
            continue
        blocks = []
        for m in (om.ee, om.oo):
            f = den // m.den
            if f == 1:
                blocks.append((m.re, m.im))
            else:
                blocks.append((_lin(m.re, f), None if m.im is None else _lin(m.im, f)))
        frames.append((blocks, _flat(blocks), _flat(blocks, True)))
    return den, frames


def _flat(blocks, right=False) -> tuple:
    """The entries of the even and odd blocks as one vector (re, im),
    im None on real data: row by row, or with right, those of the
    transposed blocks with the odd one negated.  Then str(x y) is
    _dot(_flat(x), _flat(y, True))."""
    out = []
    for part in (0, 1):
        if part and blocks[0][1] is None and blocks[1][1] is None:
            return out[0], None
        ee, oo = [b[part] if b[part] is not None else [[0] * len(b[0])] * len(b[0]) for b in blocks]
        if right:
            out.append([*chain.from_iterable(zip(*ee)), *[-v for v in chain.from_iterable(zip(*oo))]])
        else:
            out.append([*chain.from_iterable(ee), *chain.from_iterable(oo)])
    return tuple(out)


def _dot(x: tuple, y: tuple) -> tuple:
    """sum_k x_k y_k for Gaussian integer vectors (re, im), as (re, im)."""
    (a, b), (c, d) = x, y
    re = sum(map(mul, a, c))
    if b is None:
        return re, 0 if d is None else sum(map(mul, a, d))
    if d is None:
        return re, sum(map(mul, b, c))
    return re - sum(map(mul, b, d)), sum(map(mul, a, d)) + sum(map(mul, b, c))


def _supertrace(frame) -> tuple:
    """str of an integer frame, or of None (zero), as (re, im)."""
    if frame is None:
        return 0, 0
    t = [[sum(row[k] for k, row in enumerate(rows)) if rows else 0 for rows in b] for b in frame[0]]
    return t[0][0] - t[1][0], t[0][1] - t[1][1]


def _cs_traces(frames: list) -> tuple:
    """(gram, tri) for the connection A with the integer frames over den:
    gram {(i, l): str(A_i A_l)} over den^2, in both orders, and tri
    {(i, j, k): 2 [str(A_i P_jk) - str(A_j P_ik)]} over den^3 for
    i < j < k, so that CS(A) = _contract(a, gram) + a.den * tri as in
    cs_cochains.  One product A_j A_k per pair j < k, except (0, 1),
    which is never a P_jk or a P_ik."""
    live = [i for i, x in enumerate(frames) if x is not None]
    gram = {}
    for n, i in enumerate(live):
        for l in live[n:]:
            gram[i, l] = gram[l, i] = _dot(frames[i][1], frames[l][2])
    prods = {}
    for j, k in combinations(live, 2):
        if k >= 2:
            x, y = frames[j][0], frames[k][0]
            prods[j, k] = _flat([_cmatmul(x[b], y[b], len(x[b][0])) for b in (0, 1)])
    tri = {}
    for i, j, k in combinations(live, 3):
        # str(A_m P_uv) = str(P_uv A_m)
        x1, y1 = _dot(prods[j, k], frames[i][2])
        x2, y2 = _dot(prods[i, k], frames[j][2])
        tri[i, j, k] = (2 * (x1 - x2), 2 * (y1 - y2))
    return gram, tri


def _contract(a: ConstantAlgebroid, t: dict) -> dict:
    """{(i, j, k): sum_l (-c_jk^l t_il + c_ik^l t_jl - c_ij^l t_kl)} for
    i < j < k and a table t {(m, l): (re, im)} of Gaussian integers
    (a missing entry is 0), with integer parts over a.den times the
    table's denominator; zero sums are left out.  With
    t_ml = str(A_m A_l) it is the part of CS(A) linear in dA, and for a
    2-form T (t_ml = T_ml) it is -dT, since
    (dT)_ijk = -T([e_i, e_j], e_k) + T([e_i, e_k], e_j) - T([e_j, e_k], e_i)."""
    out = {}
    for i, j, k in combinations(range(a.r), 3):
        re = im = 0
        for sign, m, u, v in ((-1, i, j, k), (1, j, i, k), (-1, k, i, j)):
            for l, x, y in a.ints[u][v]:
                if (m, l) in t:
                    tr, ti = t[m, l]
                    re += sign * (x * tr - y * ti)
                    im += sign * (x * ti + y * tr)
        if re or im:
            out[i, j, k] = (re, im)
    return out


def _metric_transgression(f0: list, d0: int, h) -> tuple:
    """(den, T) for the dual pair (c_0, h_dual(c_0, h)), with
    T = cs^2(z, c_0, c_1) of cs_cochains as {(i, j): (re, im)} for every
    ordered pair with T_ij != 0, integer parts over den, from the
    integer frames f0 of c_0 over d0 and the metric, never from c_1's
    frames: with A = c_0 and G = H^-1, c_1,j = -G A_j^* H
    blockwise, so str(c_0,i c_1,j) = -str(U_i V_j) for U = A G and
    V = A^* H.  Each parity takes one product for all U and one for all
    V, and a parity whose blocks are all zero takes no inverse.  G is
    negated and brought to the common denominator, so that
    _dot(U_i, V_j) of the _flat vectors is str(c_0,i c_1,j) over den."""
    live = [i for i, x in enumerate(f0) if x is not None]
    parts = []
    for b, hb in enumerate((h.h_even, h.h_odd)):
        blocks = [f0[i][0][b] for i in live]
        zero = all(y is None and not any(map(any, x)) for x, y in blocks)
        parts.append((None if zero else inverse(hb), hb, blocks))
    den = lcm(*(g.den * hb.den for g, hb, _ in parts if g is not None))
    u, v = [], []  # per parity, per frame: U's and V's block (re, im)
    for g, hb, blocks in parts:
        if g is None:  # U and V are zero with A
            u.append(blocks)
            v.append(blocks)
            continue
        n, f = hb.ncols, -(den // (g.den * hb.den))
        for dest, (x, y) in (
            (u, _cmatmul(_stacked(blocks), (_lin(g.re, f), None if g.im is None else _lin(g.im, f)), n)),
            (v, _cmatmul(_stacked(blocks, True), (hb.re, hb.im), n)),
        ):
            dest.append([(x[k:k + n], None if y is None else y[k:k + n]) for k in range(0, len(x), n)])
    left, right = [_flat(x) for x in zip(*u)], [_flat(x, True) for x in zip(*v)]
    out = {}
    for (k, i), (l, j) in combinations(enumerate(live), 2):
        im = _dot(left[k], right[l])[1]
        if im:
            out[i, j], out[j, i] = (0, 2 * im), (0, -2 * im)
    return den * d0 * d0, out


def _stacked(blocks: list, star=False) -> tuple:
    """The square blocks (re, im) one above the other, or with star their
    conjugate transposes; im None when every block's is."""
    if star:
        blocks = [(list(zip(*x)), None if y is None else [[-t for t in c] for c in zip(*y)]) for x, y in blocks]
    re = [row for x, _ in blocks for row in x]
    if all(y is None for _, y in blocks):
        return re, None
    return re, [row for x, y in blocks for row in ([[0] * len(x)] * len(x) if y is None else y)]


def _pair_chain(conns, max_q: int) -> dict:
    """{q: cs^q} of a pair for q = 1..max_q, by the chain on
    theta ^ F_t in cs_cochains: the route of cs_cochains from max_q = 3
    on, on the pair (c, h_dual(c, h)); any other pair takes it too."""
    a = conns[0].algebroid
    both, form = [], {}
    for i, (o0, o1) in enumerate(zip(conns[0].omega, conns[1].omega)):
        s = (o0.ee + o1.ee, o0.oo + o1.oo)
        d = (o1.ee - o0.ee, o1.oo - o0.oo)
        both.append({})
        if not _is_zero(s):
            both[i][(0,)] = s
        if not _is_zero(d):
            both[i][(1,)] = d
            form[((i,), ())] = {(0,): d}
    # cs^1 = str theta_i takes traces alone: X, Y and C from max_q = 2
    curv = _curvature_values(a, both, 2) if max_q >= 2 else {}
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
