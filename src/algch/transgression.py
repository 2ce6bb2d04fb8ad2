"""Transgression cochains.

cs_cochains(c, h, max_q) takes cs^q of a basic connection c and its
metric dual: up to q = 2 as intrinsic_cochains plus the coboundary of
a 2-form T from c's frames and solves against the metric, from q = 3
on by the chain cs^q = q int_0^1 str(theta ^ F_t^(q-1)) dt on frame
2-forms.  intrinsic_cochains(a, max_q) takes q = 1 off the bracket
table and the rest by the same chain on the flat ad (+) 0.  The affine
family over M x Delta^p, whose curvature has an extra dt-leg, is the
tests' oracle.

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
and Scalars are built only for the resulting AlgebroidForm.  The chain
keys its values the same way: by the exponent (m,) of u = 2t - 1 for
a pair, and by (0,) for ad (+) 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from operator import add

from .scalars import Scalar
from .linalg import Matrix, _bareiss, _lin, _matrix
from .algebroid import ConstantAlgebroid, AlgebroidForm, merge_sign, _real_brackets, _traces
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
        for key, sign, v1, v2 in _products(self.comps, other.comps):
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


def _products(left: dict, right: dict) -> list:
    """(key, sign, v1, v2) for every pair of components of left and right
    whose wedge does not vanish."""
    out = []
    for (i1, j1), v1 in left.items():
        for (i2, j2), v2 in right.items():
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
    zero coefficients are left out.  Blocks are square, so a product with
    a zero factor is that factor, and is not taken."""
    out = {}
    for sign, v1, v2 in terms:
        for e1, (a1, b1) in v1.items():
            for e2, (a2, b2) in v2.items():
                e = tuple(map(add, e1, e2))
                x, y = _times(a1, a2), _times(b1, b2)
                if e in out:
                    x0, y0 = out[e]
                    out[e] = (x0 + x, y0 + y) if sign == 1 else (x0 - x, y0 - y)
                else:
                    out[e] = (x, y) if sign == 1 else (-x, -y)
    return {e: v for e, v in out.items() if not _is_zero(v)}


def _times(x: Matrix, y: Matrix) -> Matrix:
    return x if x.is_zero() else y if y.is_zero() else x * y


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
    ((i, j), ()); zero values are left out, and scale 0 reads no bracket."""
    comps = {}
    for i in range(a.r):
        for j in range(i + 1, a.r):
            val = _poly_products([(1, x[i], x[j]), (-1, x[j], x[i])])
            for k, coeff in a.bracket(i, j) if scale else ():
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
    """The Chern-Simons cochains cs^q(c, c^h) of a basic connection c, the
    output of adjoint_setup, and its metric dual c^h = h_dual(c, h), as
    a list indexed by q = 0..max_q, with cs^0 the zero 0-form.

    The route depends on max_q alone.  Up to max_q = 2 they are
    intrinsic_cochains(a, max_q) plus dT at q = 2.  CS3 for (z, c, c^h),
    z the zero connection, gives (Chern and Simons, Ann. Math. 99, 1974)

        cs^2(c, c^h) = CS(c^h) - CS(c) + dT,
        CS(A) = cs^2(z, A),  T = cs^2(z, c, c^h),

    and cs^1 = CS^1(c^h) - CS^1(c).  CS(c^h) = (-1)^q conj CS(c), and
    CS(c) = CS(ad (+) 0) is real (intrinsic_cochains), so the difference
    is intrinsic_cochains' form.  T_ij = str(c_i c^h_j) - str(c_j c^h_i)
    comes from c's frames and h, never from c^h's (_metric_transgression),
    and (dT)_ijk = -_contract(a, T).  T can be nonzero under a real
    metric, as c is Gaussian under a Gaussian tm_conn; a parity whose
    frames and metric block are real adds nothing to it.

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
    if max_q >= 3:
        return _pair_chain([c, h_dual(c, h)], max_q)
    a = c.algebroid
    out = intrinsic_cochains(a, max_q)
    if max_q == 2:
        d0, f0 = _integer_frames(c)
        den, t = _metric_transgression(f0, d0, h)
        den *= a.den
        out[2] = AlgebroidForm(a.r, 3, {
            key: Scalar(Fraction(-x, den), Fraction(-y, den)) for key, (x, y) in _contract(a, t).items()
        })
    return out


class DomainError(ValueError):
    """An algebroid whose anchor or structure constants are not real: it
    is outside the intrinsic classes' domain, and _check_domain refuses it."""


def _check_domain(a: ConstantAlgebroid):
    """DomainError unless the anchor and structure constants of a are real."""
    if a.anchor.im is not None or not _real_brackets(a):
        raise DomainError("the intrinsic classes need a real anchor and real structure constants")


def _ad(a: ConstantAlgebroid, i: int) -> Matrix:
    """ad_{e_i} of a real algebroid: column j holds the coefficients of
    [e_i, e_j], read as integers over a.den."""
    re = [[0] * a.r for _ in range(a.r)]
    for j, cell in enumerate(a.ints[i]):
        for k, x, _ in cell:
            re[k][j] = x
    return _matrix(re, None, a.den, a.r)


def intrinsic_cochains(a: ConstantAlgebroid, max_q: int) -> list[AlgebroidForm]:
    """(-1)^q conj CS(c) - CS(c) for q = 0..max_q, CS(c) the Chern-Simons
    form of the basic connection c of the real algebroid a, from a alone.

    For any tm_conn, c_i = (ad_i, 0) - [rho, theta_i], and both terms
    commute with the odd boundary rho, so every product in CS(c) that
    holds a theta is a graded commutator with rho, of supertrace 0:
    CS(c) = CS(A) for A = ad (+) 0.  A is flat by Jacobi, so t A has
    curvature F_t = (t^2 - t) A^2 and CS^q(A) = c_q str(A ^ (A^2)^(q-1)),
    c_q = q (-1)^(q-1) ((q-1)!)^2 / (2q-1)!.  That form is real: the
    class form is 0 at even q, which is not traced, and -2 CS^q at odd
    q: -2 tr ad_i = -2 sum_j c_ij^j, read off the bracket table, at q = 1,
    and from 3 on a chain on ad_i and A^2 = [ad_i, ad_j].  As CS(c^h) =
    (-1)^q conj CS(c) (Chern and Simons, Ann. Math. 99, 1974; Crainic,
    Comment. Math. Helv. 78, 2003), it is cohomologous to
    cs_cochains(c, h) under every h, and up to max_q = 2 equal to it
    but for dT at q = 2.  DomainError if a is not real.
    """
    _check_domain(a)
    if max_q < 3:
        traced = {1: {((i,), ()): {(0,): (Fraction(t, a.den), 0)} for i, (t, _) in enumerate(_traces(a)) if t}}
    else:
        frames = [{} if (x := _ad(a, i)).is_zero() else {(0,): (x, Matrix.zeros(a.n, a.n))} for i in range(a.r)]
        form = {((i,), ()): x for i, x in enumerate(frames) if x}
        traced = _chain(form, _curvature_values(a, frames, 0), range(3, max_q + 1, 2))
    out = [AlgebroidForm(a.r, 0)]
    for q in range(1, max_q + 1):
        w = Fraction(-2 * q * factorial(q - 1) ** 2, factorial(2 * q - 1))
        comps = {idx: Scalar(w * v[(0,)][0]) for (idx, _), v in traced.get(q, {}).items()}
        out.append(AlgebroidForm(a.r, 2 * q - 1, comps))
    return out


def _simplex_cochains(conns, max_q: int) -> dict:
    """{q: cs^q} for every q = 1..max_q with 2q >= p (for 2q < p, R^q has
    no component of simplex degree p), by the affine family of the p + 1
    connections over M x Delta^p: _chain's supertraced powers str(R^q)
    of its curvature R, fibre-integrated, times (-1)^floor((p+1)/2) for
    p > 0 on the oriented (t_1, ..., t_p) chart.

    It has no caller in the package: it is the tests' oracle of every
    family but a pair.  The benchmark's tracer, perfbench/spans.py,
    patches _affine_curvature, AffineForm.wedge and .power and
    fibre_integrate by name, which keeps them here.
    """
    p = len(conns) - 1
    curv = _affine_curvature(conns)
    flip = p > 0 and ((p + 1) // 2) % 2 == 1
    out = {}
    for q, top in _chain(curv.comps, curv.comps, range(2, max_q + 1)).items():
        if 2 * q < p:
            continue
        integral = fibre_integrate(AffineForm(curv.r, p, 2 * q, top), p)
        out[q] = -integral if flip else integral
    return out


def _integer_frames(c) -> tuple:
    """(den, frames) for the connection c, with den the lcm of the
    denominators of its frame matrices.  frames[i] is None when frame
    matrix i is zero, and otherwise its even and odd blocks as Gaussian
    integer rows (re, im) over den."""
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
        frames.append(blocks)
    return den, frames


def _contract(a: ConstantAlgebroid, t: dict) -> dict:
    """{(i, j, k): sum_l (-c_jk^l t_il + c_ik^l t_jl - c_ij^l t_kl)} for
    i < j < k, the real algebroid a and a table t {(m, l): (re, im)} of
    Gaussian integers (a missing entry is 0), with integer parts over
    a.den times the table's denominator; zero sums are left out.  For a
    2-form T (t_ml = T_ml) it is -dT, since
    (dT)_ijk = -T([e_i, e_j], e_k) + T([e_i, e_k], e_j) - T([e_j, e_k], e_i)."""
    out = {}
    for i, j, k in combinations(range(a.r), 3):
        re = im = 0
        for sign, m, u, v in ((-1, i, j, k), (1, j, i, k), (-1, k, i, j)):
            for l, x, _ in a.ints[u][v]:
                if (m, l) in t:
                    tr, ti = t[m, l]
                    re += sign * x * tr
                    im += sign * x * ti
        if re or im:
            out[i, j, k] = (re, im)
    return out


def _metric_transgression(f0: list, d0: int, h) -> tuple:
    """(den, T) for the dual pair (c_0, h_dual(c_0, h)), T = cs^2(z, c_0, c_1)
    of cs_cochains as {(i, j): (re, im)} for every ordered pair with
    T_ij != 0, integer parts over den, from c_0's integer frames f0 over d0
    and the metric, never from c_1's frames.  With A = c_0, G = H^-1
    blockwise and H Hermitian, (A_j^* H)[c, a] = conj((H A_j)[a, c]), so

        str(c_0,i c_1,j) = -str(A_i G A_j^* H) = -sum_(a, c) U_i[a, c] conj(Z_j[a, c])

    per parity, for U_i = A_i G on A_i's nonzero rows and Z_j = H A_j on
    A_j's nonzero columns, from A's nonzero entries.  U reads G's rows at
    the frames' nonzero columns B, the conjugates of its columns B: one
    Bareiss pass on the integer rows [H | d E_B], d H's denominator, gives
    them over its last pivot, det H d^n > 0 for a positive-definite block.
    A parity with all-zero frames, or all-real frames and block, takes no
    elimination."""
    live = [i for i, x in enumerate(f0) if x is not None]
    parts = []  # per parity: (den, {(i, j): T_ij's im over den})
    for b, hb in enumerate((h.h_even, h.h_odd)):
        if hb.im is None and all(f0[i][b][1] is None for i in live):
            continue
        nz = {i: _entries(*f0[i][b]) for i in live}
        cols = sorted({c for es in nz.values() for _, c, _, _ in es})
        if not cols:
            continue
        n, pad = hb.ncols, [0] * len(cols)
        rows = [[*x, *(hb.den if k == c else 0 for c in cols)] for k, x in enumerate(hb.re)]
        xr, xi, (q, _), _ = _bareiss(rows, hb.im and [[*x, *pad] for x in hb.im])
        g = {c: ([x[k] for x in xr], [-x[k] for x in xi or [pad] * n]) for k, c in enumerate(cols)}
        hcols = [(x, [-t for t in y]) for x, y in zip(hb.re, hb.im or [[0] * n] * n)]  # conj(H[d, :])
        u = {i: _combined((a, g[c], x, y) for a, c, x, y in nz[i]) for i in live[:-1]}
        z = {j: _combined((c, hcols[d], x, y) for d, c, x, y in nz[j]) for j in live[1:]}
        sign = 2 if b else -2  # T_ij = 2i Im str(c_0,i c_1,j), odd traces negated
        parts.append((q * hb.den, {
            (i, j): sign * sum(
                ui[c] * zr[a] - ur[c] * zi[a] for a, (ur, ui) in u[i].items() for c, (zr, zi) in z[j].items()
            )
            for i, j in combinations(live, 2)
        }))
    den, acc, out = lcm(*(d for d, _ in parts)), {}, {}
    for d, sums in parts:
        for ij, y in sums.items():
            acc[ij] = acc.get(ij, 0) + den // d * y
    for (i, j), y in acc.items():
        if y:
            out[i, j], out[j, i] = (0, y), (0, -y)
    return den * d0 * d0, out


def _entries(re: list, im) -> list:
    """(row, column, re, im) of every nonzero entry of re + i im."""
    return [(a, c, x, im[a][c] if im else 0)
            for a, row in enumerate(re) for c, x in enumerate(row) if x or im and im[a][c]]


def _combined(terms) -> dict:
    """{key: sum of (x + i y) v} over (key, v, x, y) in terms, for Gaussian
    integer vectors v = (re, im), as (re, im) lists."""
    out = {}
    for k, (vr, vi), x, y in terms:
        if y:
            t = ([x * s - y * w for s, w in zip(vr, vi)], [x * w + y * s for s, w in zip(vr, vi)])
        else:
            t = ([x * s for s in vr], [x * w for w in vi])
        out[k] = tuple([*map(add, p, r)] for p, r in zip(out[k], t)) if k in out else t
    return out


def _chain(form: dict, curv: dict, qs) -> dict:
    """{q: str(form ^ curv^(q-1))} for q = 1 and each q in the range qs, on
    frame-polynomial values, as {exponent: (re, im)} per nonzero
    component; the powers stop at the last q, whose factor is not formed."""
    top = max(qs, default=1)
    traced = {1: {k: w for k, v in form.items() if (w := supertrace_terms(v))}}
    for q in range(2, top + 1):
        products = _products(form, curv)
        if q in qs:
            traced[q] = _traced_values(products)
        if q < top:
            form = _wedge_values(products)
    return traced


def _pair_chain(conns, max_q: int) -> list:
    """cs^q of a pair for q = 0..max_q, cs^0 the zero 0-form, by the
    chain on theta ^ F_t in cs_cochains: its route from max_q = 3 on, on
    (c, h_dual(c, h)), and any other pair's."""
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
    out = [AlgebroidForm(a.r, 0)]
    for q, top in _chain(form, curv, range(1, max_q + 1)).items():
        comps = {}
        for (i_idx, _), v in top.items():
            re = im = 0
            for (m,), (x, y) in v.items():
                if m % 2 == 0:
                    w = Fraction(q, 4 ** (q - 1) * (m + 1))
                    re += w * x
                    im += w * y
            comps[i_idx] = Scalar(re, im)
        out.append(AlgebroidForm(a.r, 2 * q - 1, comps))
    return out
