"""Seeded generators and the corpus shared across the test modules."""

import random
from fractions import Fraction
from itertools import combinations

from algch.scalars import Scalar, SimplexPolynomial, ZERO, ONE, I
from algch.linalg import Matrix, det, nullspace, solve
from algch.algebroid import (
    AlgebroidForm,
    ConstantAlgebroid,
    _sort_sign,
    coboundary_witness,
    direct_product,
    merge_sign,
)
from algch.connections import (
    GradedBundle,
    GradedEndo,
    OddMap,
    Connection,
    HermitianMetric,
    h_dual,
    supertrace,
)
from algch import charclasses
from algch.charclasses import adjoint_setup
from algch.pullback import (
    SubmersionSpec,
    pullback_algebroid,
    pullback_form,
    submersion_recipe,
)
from algch.transgression import (
    AffineForm,
    _affine_curvature,
    _check_family,
    fibre_integrate,
)
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family


def rand_rational(rng: random.Random, span=3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def rand_scalar(rng, real=False) -> Scalar:
    return Scalar(rand_rational(rng), 0 if real else rand_rational(rng, 2))


def rand_matrix(nrows, ncols, rng, real=False) -> Matrix:
    return Matrix(
        [[rand_scalar(rng, real) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


def rand_pd_matrix(n, rng, real=False) -> Matrix:
    m = rand_matrix(n, n, rng, real)
    return m.conj_transpose() * m + Matrix.identity(n)


def rand_bundle(rng, re=2, ro=2) -> GradedBundle:
    """Random graded bundle; the boundary is one-sided so that it
    squares to zero by shape."""
    kind = rng.randrange(3)
    if kind == 0 or re == 0 or ro == 0:
        return GradedBundle(re, ro)
    if kind == 1:
        return GradedBundle(re, ro, d01=rand_matrix(ro, re, rng))
    return GradedBundle(re, ro, d10=rand_matrix(re, ro, rng))


def boundary_commutant(b: GradedBundle) -> list[GradedEndo]:
    """Basis of parity-preserving endomorphisms commuting with the boundary."""
    re, ro = b.rank_even, b.rank_odd
    nunk = re * re + ro * ro
    rows = []
    for i in range(ro):  # d01*ee - oo*d01 = 0
        for j in range(re):
            row = [ZERO] * nunk
            for k in range(re):
                row[k * re + j] = row[k * re + j] + b.d01[i, k]
            for k in range(ro):
                row[re * re + i * ro + k] = row[re * re + i * ro + k] - b.d01[k, j]
            rows.append(row)
    for i in range(re):  # ee*d10 - d10*oo = 0
        for j in range(ro):
            row = [ZERO] * nunk
            for k in range(re):
                row[i * re + k] = row[i * re + k] + b.d10[k, j]
            for k in range(ro):
                row[re * re + k * ro + j] = row[re * re + k * ro + j] - b.d10[i, k]
            rows.append(row)
    if rows:
        vecs = nullspace(Matrix(rows, ncols=nunk))
    else:
        vecs = [
            tuple(ONE if i == j else ZERO for j in range(nunk))
            for i in range(nunk)
        ]
    out = []
    for v in vecs:
        ee = Matrix([[v[i * re + j] for j in range(re)] for i in range(re)], ncols=re)
        oo = Matrix(
            [[v[re * re + i * ro + j] for j in range(ro)] for i in range(ro)],
            ncols=ro,
        )
        out.append(GradedEndo(ee, oo))
    return out


def rand_connection(a: ConstantAlgebroid, b: GradedBundle, rng, basis=None, real=False) -> Connection:
    if basis is None:
        basis = boundary_commutant(b)
    omega = []
    for _ in range(a.r):
        om = GradedEndo.zeros(b.rank_even, b.rank_odd)
        for e in basis:
            om = om + e.scale(rand_scalar(rng, real))
        omega.append(om)
    c = Connection(a, b, omega)
    assert c.commutes_with_boundary()
    return c


def rand_metric(b: GradedBundle, rng, real=False) -> HermitianMetric:
    return HermitianMetric(
        b,
        rand_pd_matrix(b.rank_even, rng, real),
        rand_pd_matrix(b.rank_odd, rng, real),
    )


def rand_tm_conn(a: ConstantAlgebroid, rng, real=True) -> list[Matrix]:
    return [rand_matrix(a.r, a.r, rng, real) for _ in range(a.n)]


def rand_q_family(rng, trace_zero=False):
    a, b, c = rand_rational(rng), rand_rational(rng), rand_rational(rng)
    d = -a if trace_zero else rand_rational(rng)
    return q_family(a, b, c, d)


def small_corpus() -> dict[str, ConstantAlgebroid]:
    """The named desk-scale corpus used throughout the acceptance suite."""
    return {
        "abelian2": abelian(2),
        "heisenberg": heisenberg(),
        "so3": so3(),
        "q_trace2": q_family(1, 0, 0, 1),
        "q_trace0": q_family(1, 2, 3, -1),
        "tt1": tangent_torus(1),
        "tt2": tangent_torus(2),
        "tt1_x_so3": direct_product(tangent_torus(1), so3()),
    }


def rand_algebroid(rng, max_rank=3) -> ConstantAlgebroid:
    """Random valid algebroid drawn from exactly solvable families."""
    choice = rng.randrange(5)
    if choice == 0:
        return abelian(rng.randint(1, max_rank))
    if choice == 1:
        return so3()
    if choice == 2:
        return heisenberg()
    if choice == 3:
        return rand_q_family(rng, trace_zero=rng.random() < 0.5)
    return tangent_torus(rng.randint(1, min(2, max_rank)))


# ---------------------------------------------------------------------------
# Constructions only the tests use: the connection-level identities they
# check (equivalence, metric averages, direct sums, pullbacks) and the
# trace character of a Lie algebra.


def zero_connection(algebroid: ConstantAlgebroid, bundle: GradedBundle) -> Connection:
    z = GradedEndo.zeros(bundle.rank_even, bundle.rank_odd)
    return Connection(algebroid, bundle, [z] * algebroid.r)


def metric_average(c: Connection, h: HermitianMetric) -> Connection:
    """The h-metric connection (c + c^h) / 2."""
    dual = h_dual(c, h)
    half = Scalar(1) / Scalar(2)
    omega = [
        (om + dm).scale(half) for om, dm in zip(c.omega, dual.omega)
    ]
    return Connection(c.algebroid, c.bundle, omega)


def equivalence_witness(c0: Connection, c1: Connection):
    """Solve nabla^1 - nabla^0 = [theta, boundary] for theta.

    Returns a list of OddMaps (one per frame index) or None when the
    connections are not equivalent.  On success the supertraces of all
    curvature powers agree, which callers may assert.
    """
    if c0.algebroid != c1.algebroid or c0.bundle != c1.bundle:
        raise ValueError("connections live on different data")
    b = c0.bundle
    re, ro = b.rank_even, b.rank_odd
    n_unknowns = 2 * re * ro
    thetas = []
    for om0, om1 in zip(c0.omega, c1.omega):
        delta = om1 - om0
        # unknowns: eo entries (re*ro), then oe entries (ro*re)
        rows = []
        rhs = []
        for i in range(re):
            for j in range(re):
                row = [ZERO] * n_unknowns
                # (eo * d01)[i,j] = sum_k eo[i,k] d01[k,j]
                for k in range(ro):
                    row[i * ro + k] = row[i * ro + k] + b.d01[k, j]
                # (d10 * oe)[i,j] = sum_k d10[i,k] oe[k,j]
                for k in range(ro):
                    row[re * ro + k * re + j] = row[re * ro + k * re + j] + b.d10[i, k]
                rows.append(row)
                rhs.append(delta.ee[i, j])
        for i in range(ro):
            for j in range(ro):
                row = [ZERO] * n_unknowns
                # (oe * d10)[i,j] = sum_k oe[i,k] d10[k,j]
                for k in range(re):
                    row[re * ro + i * re + k] = row[re * ro + i * re + k] + b.d10[k, j]
                # (d01 * eo)[i,j] = sum_k d01[i,k] eo[k,j]
                for k in range(re):
                    row[k * ro + j] = row[k * ro + j] + b.d01[i, k]
                rows.append(row)
                rhs.append(delta.oo[i, j])
        x = solve(Matrix(rows, ncols=n_unknowns), rhs)
        if x is None:
            return None
        eo = Matrix([[x[i * ro + k] for k in range(ro)] for i in range(re)], ncols=ro)
        oe = Matrix(
            [[x[re * ro + k * re + j] for j in range(re)] for k in range(ro)],
            ncols=re,
        )
        thetas.append(OddMap(eo, oe))
    return thetas


def direct_sum_bundles(b0: GradedBundle, b1: GradedBundle) -> GradedBundle:
    return GradedBundle(
        b0.rank_even + b1.rank_even,
        b0.rank_odd + b1.rank_odd,
        Matrix.block_diag(b0.d01, b1.d01),
        Matrix.block_diag(b0.d10, b1.d10),
    )


def direct_sum_connections(c0: Connection, c1: Connection) -> Connection:
    assert c0.algebroid == c1.algebroid
    omega = [
        GradedEndo(Matrix.block_diag(o0.ee, o1.ee), Matrix.block_diag(o0.oo, o1.oo))
        for o0, o1 in zip(c0.omega, c1.omega)
    ]
    return Connection(c0.algebroid, direct_sum_bundles(c0.bundle, c1.bundle), omega)


def pullback_connection(a: ConstantAlgebroid, s: SubmersionSpec, c: Connection, pb: ConstantAlgebroid = None) -> Connection:
    """Pullback to p^!(A) acting on the pulled-back (same) bundle:
    vertical sections act by zero, horizontal lifts as in c."""
    assert c.algebroid == a
    if pb is None:
        pb = pullback_algebroid(a, s)
    z = GradedEndo.zeros(c.bundle.rank_even, c.bundle.rank_odd)
    return Connection(pb, c.bundle, [z] * s.k + list(c.omega))


def trace_character(a: ConstantAlgebroid) -> AlgebroidForm:
    """The 1-form e_i |-> Tr(ad_{e_i})."""
    comps = {
        (i,): sum((a.brackets[i][j][j] for j in range(a.r)), ZERO) for i in range(a.r)
    }
    return AlgebroidForm(a.r, 1, comps)


# ---------------------------------------------------------------------------
# Reference implementations kept as test oracles.  They are the plain
# dense formulas the fast paths in algch replaced, and the differential
# tests check that both give identical answers.


class PairScalar:
    """Gaussian rational as a plain pair of Fractions, with the textbook
    formulas and no shortcut for real values."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(x) -> "PairScalar":
        if isinstance(x, PairScalar):
            return x
        return PairScalar(x)

    def __add__(self, other):
        other = PairScalar.coerce(other)
        return PairScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = PairScalar.coerce(other)
        return PairScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return PairScalar.coerce(other) - self

    def __neg__(self):
        return PairScalar(-self.re, -self.im)

    def __mul__(self, other):
        other = PairScalar.coerce(other)
        return PairScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = PairScalar.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero")
        return PairScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return PairScalar.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return PairScalar(1) / self ** (-n)
        out = PairScalar(1)
        for _ in range(n):
            out = out * self
        return out


def leading_minors_positive(h: Matrix) -> bool:
    """Sylvester's criterion minor by minor: every leading principal
    minor of h is real and positive."""
    for k in range(1, h.nrows + 1):
        minor = det(Matrix([row[:k] for row in h.rows[:k]], ncols=k))
        if not minor.is_real() or not minor.re > 0:
            return False
    return True


def dense_validate_algebroid(a: ConstantAlgebroid) -> list[str]:
    """Axiom check over every index tuple: O(r^5) for Jacobi."""
    violations = []
    r = a.r
    c = a.brackets
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if c[i][j][k] != -c[j][i][k]:
                    violations.append(f"antisymmetry broken at (i,j,k)=({i+1},{j+1},{k+1})")
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    acc = ZERO
                    for m in range(r):
                        acc = (
                            acc
                            + c[i][j][m] * c[m][k][l]
                            + c[j][k][m] * c[m][i][l]
                            + c[k][i][m] * c[m][j][l]
                        )
                    if not acc.is_zero():
                        violations.append(
                            f"Jacobi broken at (i,j,k,l)=({i+1},{j+1},{k+1},{l+1})"
                        )
    for i in range(r):
        for j in range(r):
            for m in range(a.n):
                acc = ZERO
                for k in range(r):
                    acc = acc + c[i][j][k] * a.anchor[m, k]
                if not acc.is_zero():
                    violations.append(
                        f"anchor compatibility broken at (i,j), coordinate {m+1}"
                    )
    return violations


def dense_ce_differential(a: ConstantAlgebroid, omega: AlgebroidForm) -> AlgebroidForm:
    """CE differential of a scalar form, reading all r bracket
    coefficients of every pair."""
    r, k = a.r, omega.degree
    comps = {}
    for idx in combinations(range(r), k + 1):
        acc = ZERO
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
                for m in range(r):
                    term = omega.get((m,) + rest) * a.brackets[idx[s]][idx[t]][m]
                    acc = acc + (-term if (s + t) % 2 else term)
        comps[idx] = acc
    return AlgebroidForm(r, k + 1, comps)


def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Row-by-column product summing all ncols terms of every entry."""
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = a.zero
            for k in range(a.ncols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return Matrix(rows, a.zero, ncols=b.ncols)


def curvature(c: Connection) -> dict:
    """R(e_i, e_j) = [Omega_i, Omega_j] - sum_k c_ij^k Omega_k of one
    connection, as {(i, j): GradedEndo} with i < j and zero values left
    out.  The formula of the single-connection curvature, independent of
    the affine-family curvature in algch.transgression."""
    a = c.algebroid
    comps = {}
    for i, j in combinations(range(a.r), 2):
        val = c.omega[i].commutator(c.omega[j])
        for k, coeff in a.nonzero_brackets[i][j]:
            val = val - c.omega[k].scale(coeff)
        if not val.is_zero():
            comps[(i, j)] = val
    return comps


def covariant_differential(c: Connection, omega: dict, k: int) -> dict:
    """d^nabla of an endomorphism-valued k-form {sorted indices: value}:
    the commutator with the connection matrices plus the bracket sum."""
    a = c.algebroid

    def value(idx):
        srt, sign = _sort_sign(idx)
        v = omega.get(srt) if sign else None
        return v if v is None or sign == 1 else -v

    out = {}
    for idx in combinations(range(a.r), k + 1):
        acc = GradedEndo.zeros(c.bundle.rank_even, c.bundle.rank_odd)
        for s in range(k + 1):
            v = value(idx[:s] + idx[s + 1:])
            if v is not None:
                om = c.omega[idx[s]]
                term = om * v - v * om
                acc = acc + (term if s % 2 == 0 else -term)
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
                for m, coeff in a.nonzero_brackets[idx[s]][idx[t]]:
                    v = value((m,) + rest)
                    if v is not None:
                        term = v.scale(coeff)
                        acc = acc + (-term if (s + t) % 2 else term)
        if not acc.is_zero():
            out[idx] = acc
    return out


def wedge_endo_forms(f: dict, g: dict) -> dict:
    """Wedge of endomorphism-valued forms {sorted indices: value}; values
    multiply (matrix composition)."""
    out = {}
    for i1, v1 in f.items():
        for i2, v2 in g.items():
            sign = merge_sign(i1, i2)
            if sign == 0:
                continue
            merged = tuple(sorted(i1 + i2))
            term = (v1 * v2).scale(Scalar(sign))
            out[merged] = out[merged] + term if merged in out else term
    return {k: v for k, v in out.items() if not v.is_zero()}


def supertrace_curvature_power(c: Connection, q: int) -> AlgebroidForm:
    """supertrace(R^q) from the single-connection curvature oracle: the
    independent check of the p = 0 transgression cochain."""
    r_form = curvature(c)
    acc = r_form
    for _ in range(q - 1):
        acc = wedge_endo_forms(acc, r_form)
    return AlgebroidForm(c.algebroid.r, 2 * q, {k: supertrace(v) for k, v in acc.items()})


def reference_cs_cochain(conns, q: int) -> AlgebroidForm:
    """The transgression cochain for one q, the way it was computed
    before cs_cochains: the q-th power of a freshly built affine
    curvature, the supertrace of every component, then the fibre
    integral."""
    a, bundle = _check_family(conns)
    p = len(conns) - 1
    if 2 * q < p:
        return AlgebroidForm(a.r, 0)
    r_aff = _affine_curvature(conns)
    one = SimplexPolynomial.constant(p, 1)
    ident = GradedEndo.identity(bundle.rank_even, bundle.rank_odd, one, SimplexPolynomial(p))
    rq = r_aff.power(q, ident)
    traced = AffineForm(a.r, p, 2 * q, {k: supertrace(v) for k, v in rq.comps.items()})
    result = fibre_integrate(traced, p)
    if p > 0 and ((p + 1) // 2) % 2 == 1:
        result = -result
    return result


def reference_morita_verdicts(a, s, tm_conn, g_a, g_m, max_q, alt_metric):
    """(per_q, cohomologous) of morita_check, with every cochain computed
    on its own by reference_cs_cochain and every setup and dual rebuilt
    where it is used."""
    base = adjoint_setup(a, tm_conn)
    g = HermitianMetric(base.bundle, g_a, g_m)
    recipe = submersion_recipe(a, s, tm_conn, g_a, g_m)
    basic = recipe.setup.basic
    per_q, cohomologous = {}, {}
    for q in range(1, max_q + 1):
        base_cs = reference_cs_cochain([base.basic, h_dual(base.basic, g)], q)
        lhs = reference_cs_cochain([basic, h_dual(basic, recipe.metric)], q)
        rhs = pullback_form(a, s, base_cs)
        per_q[q] = {"equal": lhs == rhs, "both_zero": lhs.is_zero() and rhs.is_zero()}
        if alt_metric is not None:
            phase = I ** (q + 1)
            rep = reference_cs_cochain([basic, h_dual(basic, alt_metric)], q)
            diff = rep.scale(phase) - pullback_form(a, s, base_cs.scale(phase))
            cohomologous[q] = coboundary_witness(recipe.algebroid, diff) is not None
    return per_q, cohomologous


def fake_cs_cochains(monkeypatch, p, form):
    """Make charclasses.cs_cochains return form(r) at every q >= 1 for
    families of p+1 connections; other families are computed as usual."""
    real = charclasses.cs_cochains

    def patched(conns, max_q):
        if len(conns) != p + 1:
            return real(conns, max_q)
        r = conns[0].algebroid.r
        return [AlgebroidForm(r, 0)] + [form(r)] * max_q

    monkeypatch.setattr(charclasses, "cs_cochains", patched)
