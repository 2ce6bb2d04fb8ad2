import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from algch.scalars import Scalar, ZERO
from algch.linalg import Matrix
from algch.algebroid import AlgebroidForm, ce_differential, direct_product
from algch.connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    HermitianMetric,
    h_dual,
)
from algch import cli, connections, linalg, pullback, transgression
from algch.transgression import (
    AffineForm,
    _affine_curvature,
    fibre_integrate,
    cs_cochains,
    intrinsic_cochains,
    supertrace_product,
    supertrace_terms,
)
from algch.library import abelian, heisenberg, so3, sl3_r3, tangent_torus
from algch.charclasses import DomainError, adjoint_bundle, adjoint_setup, basic_cochains, intrinsic_char, modular_class

from helpers import (
    submersion_recipe,
    block_metric,
    whole_metric_transgression,
    adjoint_connection,
    adjoint_metric,
    corpus_products,
    form_conj,
    rand_bundle,
    rand_connection,
    rand_metric,
    rand_algebroid,
    rand_matrix,
    rand_pd_matrix,
    boundary_commutant,
    count_calls,
    cs_family,
    secondary_cochains,
    pullback_connection,
    rand_q_family,
    rand_tm_conn,
    reference_affine_curvature,
    reference_h_dual,
    ring_matrix,
    reference_cs_cochain,
    curvature,
    supertrace_curvature_power,
    SimplexPolynomial,
    simplex_integrate,
    constant_poly_endo,
    poly_endo_value,
    supertrace,
    zero_connection,
    isl2,
    imaginary_trace,
)


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def rand_family(seed, p, real, rank_even=2, rank_odd=1):
    """p+1 connections on a bundle with odd rank > 0, and a metric h: a
    random connection, its h-dual, then further random connections; all
    real when real is set, Gaussian otherwise.  Half the algebroids get
    an abelian factor that brings the rank up to 6 - p at most, the
    degree of the cochain at q = 3, so that it can be nonzero."""
    rng = random.Random(seed)
    a = rand_algebroid(rng)
    if rng.random() < 0.5:
        a = direct_product(a, abelian(rng.randint(1, max(1, 6 - p - a.r))))
    b = rand_bundle(rng, re=rank_even, ro=rank_odd)
    basis = boundary_commutant(b)
    c = rand_connection(a, b, rng, basis, real=real)
    h = rand_metric(b, rng, real=real)
    conns = [c, h_dual(c, h)]
    conns += [rand_connection(a, b, rng, basis, real=real) for _ in range(p - 1)]
    return conns[: p + 1], h


family_args = (
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 2**32),
    st.integers(0, 2),
    st.integers(1, 2),
)


class TestAffineCurvature:
    def test_constant_family(self):
        rng = random.Random(31)
        a = rand_algebroid(rng)
        b = rand_bundle(rng)
        c = rand_connection(a, b, rng)
        r_aff = _affine_curvature([c, c])
        plain = curvature(c)
        for (i_idx, j_idx) in r_aff.comps:
            assert j_idx == (), "constant family has no dt component"
        # compare through the polynomial embedding
        for (i, j) in [(i, j) for i in range(a.r) for j in range(i + 1, a.r)]:
            got = r_aff.comps.get(((i, j), ()))
            want = plain.get((i, j))
            if want is None:
                assert got is None
            else:
                assert poly_endo_value(got, 1) == constant_poly_endo(want, 1)

    def test_rank_one_mixed_leg(self):
        rng = random.Random(32)
        a = abelian(1)
        b = rand_bundle(rng)
        basis = boundary_commutant(b)
        c0 = rand_connection(a, b, rng, basis)
        c1 = rand_connection(a, b, rng, basis)
        r_aff = _affine_curvature([c0, c1])
        keys = set(r_aff.comps)
        assert keys <= {((0,), (0,))}, "no algebroid 2-forms in rank one"
        # stored as the value on (e_1, d/dt_1), i.e. minus the dt-first display
        diff = c1.omega[0] - c0.omega[0]
        if diff.is_zero():
            assert not keys
        else:
            assert poly_endo_value(r_aff.comps[((0,), (0,))], 1) == constant_poly_endo(-diff, 1)

    def test_commuting_flat_family_has_no_two_form(self):
        # three flat connections with pairwise commuting (diagonal)
        # matrices on an abelian algebra
        rng = random.Random(33)
        a = abelian(3)
        b = GradedBundle(2, 2)

        def diag_conn():
            omega = []
            for _ in range(a.r):
                ee = Matrix(
                    [[Scalar(rng.randint(-3, 3)) if i == j else ZERO for j in range(2)] for i in range(2)],
                    ncols=2,
                )
                oo = Matrix(
                    [[Scalar(rng.randint(-3, 3)) if i == j else ZERO for j in range(2)] for i in range(2)],
                    ncols=2,
                )
                omega.append(GradedEndo(ee, oo))
            return Connection(a, b, omega)

        conns = [diag_conn() for _ in range(3)]
        r_aff = _affine_curvature(conns)
        for (i_idx, j_idx) in r_aff.comps:
            assert len(i_idx) != 2, "(2,0) part should vanish for a commuting family"

    @settings(max_examples=30, deadline=None)
    @given(*family_args)
    def test_matches_reference(self, p, real, seed, re, ro):
        conns, _ = rand_family(seed, p, real, re, ro)
        got = {k: poly_endo_value(v, p) for k, v in _affine_curvature(conns).comps.items()}
        assert got == reference_affine_curvature(conns).comps


class TestFibreIntegrate:
    def test_no_dt_component(self):
        f = AffineForm(2, 1, 1, {((0,), ()): {(0,): (Fraction(1), 0)}})
        assert fibre_integrate(f, 1).is_zero()

    def test_constant_on_interval(self):
        lam = Scalar(3, -2)
        f = AffineForm(2, 1, 1, {((), (0,)): {(0,): (lam.re, lam.im)}})
        out = fibre_integrate(f, 1)
        assert out.degree == 0 and out.get(()) == lam

    def test_t0_t1_on_interval(self):
        # t0 * t1 = t1 - t1^2 once t0 is eliminated
        f = AffineForm(2, 1, 1, {((), (0,)): {(1,): (Fraction(1), 0), (2,): (Fraction(-1), 0)}})
        assert fibre_integrate(f, 1).get(()) == Scalar(1) / Scalar(6)

    def test_simplex_of_the_form_enforced(self):
        # an explicit check, so it also runs under python -O
        f = AffineForm(2, 1, 1, {((), (0,)): {(0,): (Fraction(1), 0)}})
        with pytest.raises(ValueError, match="over a 1-simplex, not a 2-simplex"):
            fibre_integrate(f, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), st.data())
    def test_matches_simplex_integrate(self, p, data):
        # the Dirichlet weight of each monomial against the polynomial
        # integral, on sums of monomials of degree up to 4
        exps = st.lists(st.integers(0, 2), min_size=p, max_size=p).map(tuple)
        parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        terms = data.draw(st.dictionaries(exps, st.tuples(parts, parts), max_size=5))
        top = tuple(range(p))
        got = fibre_integrate(AffineForm(1, p, p, {((), top): terms}), p).get(())
        f = SimplexPolynomial(p, {e: Scalar(x, y) for e, (x, y) in terms.items()})
        assert got == simplex_integrate(f, p)


class TestCsCochain:
    def test_p0_is_supertraced_curvature_power(self):
        rng = random.Random(34)
        for _ in range(6):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            for q in (1, 2, 3):
                assert cs_family([c], q)[q] == supertrace_curvature_power(c, q)

    def test_q0_p1_vanishes(self):
        # the q = 0 entry of a pair is the zero 0-form, on every route
        rng = random.Random(35)
        a = rand_algebroid(rng)
        b = rand_bundle(rng)
        basis = boundary_commutant(b)
        c0 = rand_connection(a, b, rng, basis)
        c1 = rand_connection(a, b, rng, basis)
        assert cs_family([c0, c1], 0)[0].is_zero()
        c, h = basic_pair("dual", 35, False)
        for max_q in range(4):
            q0 = cs_cochains(c, h, max_q)[0]
            assert q0.degree == 0 and q0.is_zero(), max_q

    def test_low_power_vanishes(self):
        # 2q < p leaves no top simplex component to integrate
        rng = random.Random(36)
        a = rand_algebroid(rng)
        b = rand_bundle(rng)
        basis = boundary_commutant(b)
        conns = [rand_connection(a, b, rng, basis) for _ in range(3)]
        assert cs_family(conns, 0)[0].is_zero()
        assert cs_family(conns, 1)[1].degree == 0

    def test_universal_sign_frozen(self):
        # regression pin: cs^1(c0, c1)(e_i) = +supertrace(Omega1_i - Omega0_i),
        # on any pair, and on a basic connection and its dual
        rng = random.Random(37)
        pairs = []
        for seed in range(6):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            basis = boundary_commutant(b)
            c0 = rand_connection(a, b, rng, basis)
            c1 = rand_connection(a, b, rng, basis)
            pairs.append((cs_family([c0, c1], 1)[1], c0, c1))
            c, h = basic_pair(DUAL_KINDS[seed % 5], seed, seed % 2 == 0)
            pairs.append((cs_cochains(c, h, 1)[1], c, h_dual(c, h)))
        for got, c0, c1 in pairs:
            for i in range(c0.algebroid.r):
                want = supertrace(c1.omega[i]) - supertrace(c0.omega[i])
                assert got.get((i,)) == want
        assert any(not got.is_zero() for got, _, _ in pairs[1::2])

    def test_empty_family(self):
        # an explicit check, so it also runs under python -O
        with pytest.raises(ValueError, match="at least one connection"):
            _affine_curvature([])

    def test_incompatible_connections(self):
        rng = random.Random(38)
        a = abelian(2)
        c0 = rand_connection(a, GradedBundle(2, 2), rng)
        c1 = rand_connection(a, GradedBundle(2, 1), rng)
        with pytest.raises(ValueError, match="not mutually compatible"):
            _affine_curvature([c0, c1])


def rand_poly_value(re, ro, p, rng, density=0.6):
    """A random polynomial value {exponent: (even, odd)} with every
    monomial that has each t_m to the power 0 or 1, so that products of
    two values reach most exponents in more than one way."""

    def block(n):
        m = rand_matrix(n, n, rng, real=rng.random() < 0.5)
        rows = [[v if rng.random() < density else ZERO for v in row] for row in m.rows]
        return Matrix(rows, ncols=n)

    return {e: (block(re), block(ro)) for e in product((0, 1), repeat=p)}


def traced_poly(f: SimplexPolynomial) -> dict:
    return {e: (c.re, c.im) for e, c in f.terms.items()}


class TestSupertraceProduct:
    """The fused last factor: supertrace(v1 * v2) without the product,
    against the supertrace of the product of polynomial matrices."""

    def test_polynomial_endos(self):
        rng = random.Random(40)
        for p in (0, 1, 2):
            for re, ro in ((2, 1), (1, 2), (3, 2), (0, 2), (2, 0)):
                for density in (0.0, 0.5, 1.0):
                    v1 = rand_poly_value(re, ro, p, rng, density)
                    v2 = rand_poly_value(re, ro, p, rng, density)
                    want = supertrace(poly_endo_value(v1, p) * poly_endo_value(v2, p))
                    assert supertrace_product(v1, v2) == traced_poly(want)
                    assert supertrace_terms(v1) == traced_poly(supertrace(poly_endo_value(v1, p)))

    def test_odd_block_enters_with_minus_sign(self):
        empty = Matrix([], ncols=0)
        one = Matrix([[Scalar(1)]])
        v = {(0,): (empty, one)}
        assert supertrace_product(v, v) == {(0,): (-1, 0)}
        assert supertrace_terms(v) == {(0,): (-1, 0)}


class TestCsCochainsOnePass:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), *family_args)
    # families whose top nonzero cochain has the largest q possible
    @example(3, 0, True, 8, 2, 1)
    @example(3, 0, False, 8, 2, 1)
    @example(3, 1, True, 8, 2, 1)
    @example(3, 1, False, 8, 2, 1)
    @example(3, 2, True, 4, 2, 1)
    @example(3, 2, False, 4, 2, 1)
    @example(3, 3, True, 0, 2, 1)
    @example(3, 3, False, 0, 2, 1)
    def test_matches_per_q_reference(self, max_q, p, real, seed, re, ro):
        # the integer core against the polynomial-matrix reference; the
        # q/p factors and the sign flip differ across p = 0..3
        conns, _ = rand_family(seed, p, real, re, ro)
        got = cs_family(conns, max_q)
        assert len(got) == max_q + 1
        for q in range(max_q + 1):
            assert got[q] == reference_cs_cochain(conns, q), (p, q)

    def test_same_cochain_for_every_max_q(self):
        # max_q sets where the powers stop, and the route of
        # cs_cochains: intrinsic_cochains plus dT to 2, the chain from 3
        rng = random.Random(41)
        a = so3()
        b = rand_bundle(rng, re=2, ro=1)
        basis = boundary_commutant(b)
        conns = [rand_connection(a, b, rng, basis) for _ in range(3)]
        forms = cs_family(conns, 3)
        for q in range(4):
            assert cs_family(conns, q)[q] == forms[q]
        for kind in ("dual", "gaussian"):
            c, h = basic_pair(kind, 41, False)
            forms = cs_cochains(c, h, 4)
            assert not forms[2].is_zero(), kind
            for q in range(4):
                assert cs_cochains(c, h, q)[q] == forms[q], (kind, q)
        # and of the oracle of intrinsic_cochains, the chain on (z, c)
        forms = secondary_cochains(conns[0], 4)
        for q in range(4):
            assert secondary_cochains(conns[0], q)[q] == forms[q]
        # intrinsic_cochains takes A^2 from max_q 3 on and stops its
        # powers at the last odd q: sl3_r3, the first class above q = 1
        forms = intrinsic_cochains(sl3_r3(), 5)
        assert not forms[3].is_zero()
        for q in range(6):
            assert intrinsic_cochains(sl3_r3(), q)[q] == forms[q]

    def test_curvature_built_once(self, monkeypatch):
        # the simplex path builds the affine curvature once; a pair takes
        # the Chern-Simons path, which builds none
        calls = []
        original = transgression._affine_curvature

        def counted(conns):
            calls.append(len(conns))
            return original(conns)

        monkeypatch.setattr(transgression, "_affine_curvature", counted)
        rng = random.Random(42)
        a = so3()
        b = rand_bundle(rng, re=2, ro=1)
        basis = boundary_commutant(b)
        for p in (0, 1, 2):
            calls.clear()
            conns = [rand_connection(a, b, rng, basis) for _ in range(p + 1)]
            cs_family(conns, 3)
            assert calls == ([] if p == 1 else [p + 1])
        calls.clear()
        cs_cochains(*basic_pair("dual", 42, False), 3)
        assert calls == []

    @pytest.mark.parametrize("real", [True, False])
    def test_unordered_pairs_traced_once(self, monkeypatch, real):
        # at q = 2 the simplex path's R ^ R holds each pair of a dt-leg
        # and a 2-form in both orders under one key, and str(v1 v2) =
        # str(v2 v1); the pair chain (max_q >= 3) traces theta ^ F at
        # q = 2, where each theta_k stands for one dt-leg and meets each
        # 2-form in one order only
        calls, per_q = [], []
        original, traced = transgression.supertrace_product, transgression._traced_values

        def counted(v1, v2):
            calls.append(1)
            return original(v1, v2)

        def traced_q(products):
            calls.clear()
            out = traced(products)
            per_q.append(len(calls))
            return out

        monkeypatch.setattr(transgression, "supertrace_product", counted)
        monkeypatch.setattr(transgression, "_traced_values", traced_q)
        ordered = 0
        for seed in range(6):
            conns, _ = rand_family(seed, 1, real)
            curv = _affine_curvature(conns).comps
            # the ordered pairs whose merged simplex index has length >= 1
            pairs = sum(len(key[1]) >= 1 for key, *_ in transgression._products(curv, curv))
            per_q.clear()
            got = cs_family(conns, 3)
            assert len(per_q) == 2 and 2 * per_q[0] == pairs
            assert got[2] == reference_cs_cochain(conns, 2)
            ordered += pairs
        assert ordered > 0

    def test_no_matrix_products_below_max_q_3(self, monkeypatch):
        # up to max_q 2 a basic pair takes cs^1 off the bracket table and
        # T from c's nonzero entries: no matrix product at all, and no
        # dual; h_dual multiplies only nonzero blocks, such as those of a
        # pullback's horizontal sections
        calls = []
        matrix_mul, row_mul = Matrix.__mul__, linalg._cmatmul

        def counted_matrix(x, y):
            calls.append("Matrix")
            return matrix_mul(x, y)

        def counted_rows(x, y, ncols):
            calls.append("rows")
            return row_mul(x, y, ncols)

        monkeypatch.setattr(Matrix, "__mul__", counted_matrix)
        monkeypatch.setattr(linalg, "_cmatmul", counted_rows)
        duals = count_calls(monkeypatch, connections.h_dual)
        pairs = [basic_pair(kind, 5, real) for kind in DUAL_KINDS for real in (True, False)]
        for c, h in pairs:
            for max_q in (1, 2):
                calls.clear()
                cs_cochains(c, h, max_q)
                assert calls == [] and duals == [], max_q
        c, h = pairs[DUAL_KINDS.index("pullback") * 2 + 1]
        calls.clear()
        h_dual(c, h)
        blocks = [m for om in c.omega for m in (om.ee, om.oo)]
        assert any(m.is_zero() for m in blocks)
        assert calls.count("Matrix") == 2 * sum(not m.is_zero() for m in blocks)

    def test_no_product_with_a_zero_block(self, monkeypatch):
        # a block product with a zero factor is that zero block, reused:
        # ad (+) 0 has a zero odd block in every frame, which was half of
        # the products of intrinsic_cochains on sl3_r3, and a pair's
        # frames can have one zero block
        calls = []
        matrix_mul = Matrix.__mul__

        def counted(x, y):
            calls.append(x.is_zero() or y.is_zero())
            return matrix_mul(x, y)

        pairs = [rand_pair(kind, 3, False, 2, 1)[:2] for kind in PAIR_KINDS]
        monkeypatch.setattr(Matrix, "__mul__", counted)
        forms = intrinsic_cochains(sl3_r3(), 3)
        assert len(calls) > 0 and calls.count(True) == 0
        for pair in pairs:
            calls.clear()
            cs_family(pair, 3)
            assert calls.count(True) == 0
        monkeypatch.undo()
        assert not forms[3].is_zero()

    def test_q0_entry_is_superdimension(self):
        # the Chern character's q = 0 entry; a pair's is zero
        rng = random.Random(43)
        a = so3()
        for re, ro in ((2, 1), (1, 1), (0, 2)):
            b = GradedBundle(re, ro)
            c = rand_connection(a, b, rng)
            q0 = cs_family([c], 0)[0]
            assert q0.degree == 0 and q0.get(()) == Scalar(re - ro)
            assert cs_family([c, c], 0)[0].is_zero()
        assert cs_cochains(*basic_pair("torus", 43, False), 0)[0].is_zero()


PAIR_KINDS = ("dual", "lie", "torus", "equal", "pullback", "mixed", "gaussian")

# the kinds of rand_pair whose c_1 is h_dual(c_0, h), and of basic_pair
DUAL_KINDS = ("dual", "lie", "torus", "pullback", "gaussian")


def rand_pair(kind, seed, real, rank_even, rank_odd):
    """(c_0, c_1, h): a pair of connections of one kind, real or
    Gaussian, and the metric h with c_1 = h_dual(c_0, h), or None:
    dual, a random connection and its metric dual;
    lie, the flat adjoint connection of a Lie algebra, whose bundle has
    a 0 x 0 odd block, and its dual;
    torus, the basic connection of a torus times a Lie algebra with a
    zero tm_conn, flat as well, and its dual;
    equal, one connection twice (no h);
    pullback, a pullback connection and its dual, so that theta_i and
    N_i are zero on the vertical sections;
    mixed, theta_i = 0, N_i = 0 or neither, index by index (no h);
    gaussian, as dual, on isl2 or the imaginary-trace algebra times a
    small factor, so that the structure constants are complex.
    The other kinds draw algebroids of rank up to 5 and bundles of the
    given ranks, where 0 gives a 0 x 0 block."""
    rng = random.Random(seed)
    if kind in ("lie", "torus"):
        a = rng.choice([so3(), heisenberg(), rand_q_family(rng)])
        if kind == "torus":
            a = direct_product(tangent_torus(rng.randint(1, 2)), a)
        c = adjoint_setup(a, [Matrix.zeros(a.r, a.r)] * a.n)
        h = rand_metric(c.bundle, rng, real=real)
        return c, h_dual(c, h), h
    if kind == "gaussian":
        a = rng.choice([
            isl2(),
            direct_product(isl2(), abelian(rng.randint(1, 2))),
            direct_product(imaginary_trace(), rng.choice([abelian(1), so3(), heisenberg()])),
        ])
    else:
        a = rand_algebroid(rng)
        if rng.random() < 0.5:
            a = direct_product(a, abelian(rng.randint(1, max(1, 5 - a.r))))
    b = rand_bundle(rng, re=rank_even, ro=rank_odd, real=real)
    c = rand_connection(a, b, rng, real=real)
    if kind == "equal":
        return c, c, None
    if kind == "mixed":
        d = rand_connection(a, b, rng, real=real)
        omega = [rng.choice((om, -om, dm)) for om, dm in zip(c.omega, d.omega)]
        return c, Connection(a, b, omega), None
    if kind == "pullback":
        c = pullback_connection(a, rng.randint(1, 2), c)
    h = rand_metric(b, rng, real=real)
    return c, h_dual(c, h), h


def basic_data(a, rng, real_tm, real_metric, fibre=False):
    """(algebroid, tm_conn, h) on the real algebroid a: a random tm_conn
    and a random metric on the adjoint bundle, each real or Gaussian;
    with fibre, their pullback along one fibre direction as morita-check
    builds it (submersion_recipe): the pullback algebroid, nabla-bar and
    g-bar, under which the vertical sections act by zero."""
    tm = rand_tm_conn(a, rng, real=real_tm)
    h = adjoint_metric(a, rand_pd_matrix(a.r, rng, real_metric), rand_pd_matrix(a.n, rng, real_metric))
    if not fibre:
        return a, tm, h
    recipe = submersion_recipe(a, 1, tm, h)
    return recipe.algebroid, recipe.tm_conn, recipe.metric


def basic_pair(kind, seed, real):
    """(c, h): a basic connection, the output of adjoint_setup, and a
    metric on its adjoint bundle, real or Gaussian, the only pairs
    cs_cochains takes:
    lie, a Lie algebra, whose odd block is 0 x 0;
    torus, a torus times a Lie algebra with a zero tm_conn, flat;
    dual, the same with a random tm_conn, real or Gaussian with h;
    pullback, as dual, pulled back along one fibre direction;
    gaussian, as dual with a Gaussian tm_conn under a real or Gaussian
    metric, so that T reads c's imaginary parts."""
    rng = random.Random(seed)
    a = rng.choice([so3(), heisenberg(), rand_q_family(rng)])
    if kind != "lie":
        a = direct_product(tangent_torus(rng.randint(1, 2)), a)
    a, tm, h = basic_data(a, rng, real and kind != "gaussian", real, kind == "pullback")
    if kind in ("lie", "torus"):
        tm = [Matrix.zeros(a.r, a.r)] * a.n
    return adjoint_setup(a, tm), h


def integer_form(r, degree, nums, den):
    """The AlgebroidForm of the integer parts {key: (re, im)} over den,
    at the sorted keys."""
    return AlgebroidForm(r, degree, {
        k: Scalar(Fraction(x, den), Fraction(y, den))
        for k, (x, y) in nums.items()
        if list(k) == sorted(k)
    })


class TestChernSimonsDifference:
    # cs^2(c_0, c_1) = CS(c_1) - CS(c_0) + dT and its parts, with the
    # simplex path as the oracle: CS(A) = cs^2(z, A) for the zero
    # connection z, and on a dual pair T = cs^2(z, c_0, c_1) from c_0 and
    # the metric, and its dT, on every kind of pair; on a basic
    # connection c of the same algebroid CS(c) = CS(ad (+) 0) = CS(c^h),
    # so that cs^2(c, c^h) = dT
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_sum_and_parts_match_simplex_path(self, kind, real):
        nonzero = 0
        # seeds 4 to 7 reach so3, where a flat pair's CS forms are nonzero
        for seed in range(4, 8):
            c0, c1, h = rand_pair(kind, seed, real, seed % 3, (seed + 1) % 3)
            a = c0.algebroid
            want = transgression._simplex_cochains([c0, c1], 2)
            assert cs_family([c0, c1], 2)[1:] == [want[1], want[2]], (kind, seed)
            nonzero += any(not f.is_zero() for f in want.values())
            if h is not None:
                d0, f0 = transgression._integer_frames(c0)
                den, t = transgression._metric_transgression(f0, d0, h)
                form = integer_form(a.r, 2, t, den)
                want_t = transgression._simplex_cochains([zero_connection(a, c0.bundle), c0, c1], 2)[2]
                assert form == want_t, (kind, seed)
                nonzero += not want_t.is_zero()
            if kind == "gaussian":
                # complex structure constants: no basic connection
                with pytest.raises(DomainError):
                    adjoint_setup(a, [Matrix.zeros(a.r, a.r)] * a.n)
                continue
            if h is not None:  # dT on real structure constants
                dt = {k: (-x, -y) for k, (x, y) in transgression._contract(a, t).items()}
                assert integer_form(a.r, 3, dt, den * a.den) == ce_differential(a, form), (kind, seed)
            c = adjoint_setup(a, rand_tm_conn(a, random.Random(seed), real=real))
            hc = rand_metric(c.bundle, random.Random(seed), real=real)
            z = zero_connection(a, c.bundle)
            cs = transgression._simplex_cochains([z, c], 2)[2]
            assert cs == transgression._simplex_cochains([z, adjoint_connection(a, c.bundle)], 2)[2], (kind, seed)
            dual = h_dual(c, hc)
            assert transgression._simplex_cochains([z, dual], 2)[2] == cs, (kind, seed)
            d0, f0 = transgression._integer_frames(c)
            den, t = transgression._metric_transgression(f0, d0, hc)
            form = integer_form(a.r, 2, t, den)
            assert form == transgression._simplex_cochains([z, c, dual], 2)[2], (kind, seed)
            got = cs_cochains(c, hc, 2)
            assert got[2] == ce_differential(a, form), (kind, seed)
            want = transgression._simplex_cochains([c, dual], 2)
            assert got[1:] == [want[1], want[2]], (kind, seed)
            nonzero += not cs.is_zero()
        assert nonzero > 0, kind


class TestPairPath:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(PAIR_KINDS),
        st.integers(0, 5),
        st.booleans(),
        st.integers(0, 2**32),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    # rank-5 pairs whose cs^3 is nonzero, so that Y and u^4 count
    @example("dual", 5, True, 8, 2, 1)
    @example("dual", 3, False, 8, 2, 1)
    @example("mixed", 4, False, 22, 2, 2)
    @example("pullback", 3, True, 25, 2, 1)
    @example("torus", 3, False, 0, 0, 0)
    @example("lie", 2, True, 0, 0, 0)
    def test_matches_simplex_path_and_reference(self, kind, max_q, real, seed, re, ro):
        c0, c1, _ = rand_pair(kind, seed, real, re, ro)
        got = cs_family([c0, c1], max_q)
        assert len(got) == max_q + 1 and got[0].is_zero()
        simplex = transgression._simplex_cochains([c0, c1], max_q) if max_q else {}
        for q in range(1, max_q + 1):
            assert got[q] == simplex[q], (kind, q)
            assert got[q] == reference_cs_cochain([c0, c1], q), (kind, q)

    def test_examples_reach_every_term(self):
        # the examples above keep the differential test sharp: each
        # reaches a nonzero cs^3, where Y ^ Y and u^4 enter
        for kind, seed, re, ro in (("dual", 8, 2, 1), ("mixed", 22, 2, 2), ("pullback", 25, 2, 1)):
            for real in (True, False):
                assert not cs_family(rand_pair(kind, seed, real, re, ro)[:2], 3)[3].is_zero()


def real_basic_connection(seed):
    """The basic connection of a real algebroid tangent_torus(k) x g under
    a real random tm_conn, so not flat, pulled back along one fibre
    direction on odd seeds: a real c_0, as in morita-check."""
    rng = random.Random(seed)
    a = rng.choice([so3(), heisenberg(), rand_q_family(rng)])
    a = direct_product(tangent_torus(rng.randint(1, 2)), a)
    a, tm, _ = basic_data(a, rng, True, True, seed % 2 == 1)
    return adjoint_setup(a, tm)


BASIC_CASES = corpus_products()


class TestDualPair:
    # cs_cochains(c, h) of a basic connection c is intrinsic_cochains
    # plus dT; the chain on (c, h_dual(c, h)), cs_family, and the simplex
    # path are its oracles
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(range(len(BASIC_CASES))),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32),
    )
    # tr ad nonzero (q_trace2), and a Gaussian tm_conn under a real
    # metric, with and without a fibre
    @example(3, True, True, False, 0)
    @example(3, False, True, True, 1)
    @example(7, False, True, False, 2)
    @example(7, False, True, True, 3)
    def test_matches_general_path_and_simplex_path(self, case, real_tm, real_metric, fibre, seed):
        name, a = BASIC_CASES[case]
        a, tm, h = basic_data(a, random.Random(seed), real_tm, real_metric, fibre)
        c = adjoint_setup(a, tm)
        dual = h_dual(c, h)
        chain = cs_family([c, dual], 2)
        for max_q in (1, 2):
            want = chain[:max_q + 1]
            assert cs_cochains(c, h, max_q) == want, (name, max_q)
            assert basic_cochains(a, tm, h, max_q) == want, (name, max_q)
        simplex = transgression._simplex_cochains([c, dual], 2)
        assert chain[1:] == [simplex[1], simplex[2]], name

    def test_examples_reach_every_term(self):
        # the examples above reach a nonzero cs^1 (q_trace2, so the q = 1
        # weight counts) and a nonzero cs^2 from a Gaussian tm_conn under
        # a real metric, so that its sign counts and T is not skipped
        # when only tm_conn is Gaussian
        assert BASIC_CASES[3][0] == "q_trace2" and BASIC_CASES[7][0] == "tt1_x_so3"
        a, tm, h = basic_data(BASIC_CASES[3][1], random.Random(0), True, True)
        assert not cs_cochains(adjoint_setup(a, tm), h, 1)[1].is_zero()
        for fibre, seed in ((False, 2), (True, 3)):
            a, tm, h = basic_data(BASIC_CASES[7][1], random.Random(seed), False, True, fibre)
            assert h.h_even.im is h.h_odd.im is None
            assert not cs_cochains(adjoint_setup(a, tm), h, 2)[2].is_zero(), fibre

    @pytest.mark.parametrize("kind", DUAL_KINDS)
    def test_examples_reach_a_nonzero_cs2(self, kind):
        # a basic pair's cs^2 is dT; with real data it is zero, so
        # Gaussian metrics or a Gaussian tm_conn must reach it, the latter
        # under a real metric too
        nonzero = dict.fromkeys((True, False), 0)
        for seed in range(6):
            for real in (True, False):
                c, h = basic_pair(kind, seed, real)
                got = cs_cochains(c, h, 2)
                assert got == cs_family([c, h_dual(c, h)], 2), (kind, seed, real)
                nonzero[real] += not got[2].is_zero()
        assert nonzero[False] > 0, kind
        assert (nonzero[True] > 0) == (kind == "gaussian"), kind

    def test_real_pair_takes_no_trace(self, monkeypatch):
        # a real basic connection under a real metric: T is decided zero
        # from the im of every frame and metric block, with no elimination
        a = direct_product(tangent_torus(1), so3())
        c = adjoint_setup(a, [Matrix.identity(a.r)])
        h = rand_metric(c.bundle, random.Random(3), real=True)
        calls = []
        bareiss = transgression._bareiss
        monkeypatch.setattr(transgression, "_bareiss", lambda re, im: calls.append(1) or bareiss(re, im))
        got = cs_cochains(c, h, 2)
        assert calls == [] and got[2].is_zero()
        monkeypatch.undo()
        simplex = transgression._simplex_cochains([c, h_dual(c, h)], 2)
        assert got[1:] == [simplex[1], simplex[2]]

    def test_real_connection_under_gaussian_metric(self):
        # the morita-check case: a real c_0 has a Gaussian dual under a
        # Gaussian metric, so cs_cochains must take T although c_0
        # alone is real; a metric is real only when both of its blocks
        # are, so a Gaussian block of either parity alone takes T too
        nonzero = dict.fromkeys(("both", "even", "odd"), 0)
        for seed in range(4):
            c0 = real_basic_connection(seed)
            assert all(m.im is None for om in c0.omega for m in (om.ee, om.oo))
            b = c0.bundle
            for gaussian in nonzero:
                rng = random.Random(seed)
                h = HermitianMetric(
                    b,
                    rand_pd_matrix(b.rank_even, rng, real=gaussian == "odd"),
                    rand_pd_matrix(b.rank_odd, rng, real=gaussian == "even"),
                )
                dual = h_dual(c0, h)
                got = cs_cochains(c0, h, 2)
                assert got == cs_family([c0, dual], 2), (seed, gaussian)
                simplex = transgression._simplex_cochains([c0, dual], 2)
                assert got[1:] == [simplex[1], simplex[2]], (seed, gaussian)
                nonzero[gaussian] += not got[2].is_zero()
        assert all(nonzero.values()), nonzero


# (kind, real c_0, real metric, seed, even rank, odd rank) with a nonzero
# T: a real c_0 under a Gaussian metric, zero frames (pullback, lie,
# torus), a 0 x 0 odd block (lie, and odd rank 0) and a 0 x 0 even block
METRIC_T_EXAMPLES = (
    ("dual", True, False, 0, 2, 1),
    ("dual", False, True, 1, 1, 0),
    ("dual", False, False, 0, 0, 2),
    ("gaussian", False, False, 1, 2, 1),
    ("pullback", False, False, 0, 2, 1),
    ("lie", False, False, 0, 2, 1),
    ("torus", True, False, 0, 1, 1),
)


def dual_frame_t(c0, h) -> AlgebroidForm:
    """T_ij = str(c_0,i c_1,j) - str(c_0,j c_1,i) from the frames of
    c_1 = h_dual(c_0, h)."""
    r, dual = c0.algebroid.r, h_dual(c0, h)
    cross = [[supertrace(GradedEndo(x.ee * y.ee, x.oo * y.oo)) for y in dual.omega] for x in c0.omega]
    return AlgebroidForm(r, 2, {
        (i, j): cross[i][j] - cross[j][i] for i in range(r) for j in range(i + 1, r)
    })


def integer_connection(f0, d0, b) -> Connection:
    """The connection on the bundle b with the integer frames f0 over d0
    (a zero frame None); the algebroid only sets the number of frames."""
    def block(x, n):
        if x is None:
            return Matrix.zeros(n, n)
        re, im = x
        return Matrix([[Scalar(Fraction(v, d0), Fraction(im[k][l] if im else 0, d0)) for l, v in enumerate(row)]
                       for k, row in enumerate(re)], ncols=n)

    sizes = (b.rank_even, b.rank_odd)
    omega = [GradedEndo(*(block(x and x[p], n) for p, n in enumerate(sizes))) for x in f0]
    return Connection(abelian(len(f0)), b, omega)


class TestMetricTransgression:
    # cs_cochains takes T from c_0's frames and the metric inverse; T
    # from the frames of c_1 = h_dual(c_0, h) by the general formula
    # T_ij = str(c_0,i c_1,j) - str(c_0,j c_1,i), and the simplex path,
    # are its oracles
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from(DUAL_KINDS),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @example(*METRIC_T_EXAMPLES[0])
    @example(*METRIC_T_EXAMPLES[1])
    @example(*METRIC_T_EXAMPLES[2])
    @example(*METRIC_T_EXAMPLES[3])
    @example(*METRIC_T_EXAMPLES[4])
    @example(*METRIC_T_EXAMPLES[5])
    @example(*METRIC_T_EXAMPLES[6])
    def test_matches_frames_general_path_and_simplex_path(self, kind, real, real_metric, seed, re, ro):
        c0 = rand_pair(kind, seed, real, re, ro)[0]
        h = rand_metric(c0.bundle, random.Random(seed), real=real_metric)
        a = c0.algebroid
        d0, f0 = transgression._integer_frames(c0)
        den, t = transgression._metric_transgression(f0, d0, h)
        assert all(t[j, i] == (-x, -y) for (i, j), (x, y) in t.items())
        got = integer_form(a.r, 2, t, den)
        assert got == dual_frame_t(c0, h), kind
        z = zero_connection(a, c0.bundle)
        assert got == transgression._simplex_cochains([z, c0, h_dual(c0, h)], 2)[2], kind

    def test_examples_reach_a_nonzero_t(self):
        for kind, real, real_metric, seed, re, ro in METRIC_T_EXAMPLES:
            c0 = rand_pair(kind, seed, real, re, ro)[0]
            h = rand_metric(c0.bundle, random.Random(seed), real=real_metric)
            d0, f0 = transgression._integer_frames(c0)
            assert transgression._metric_transgression(f0, d0, h)[1], kind

    def test_gaussian_pair_builds_no_dual_frames(self, monkeypatch):
        duals = count_calls(monkeypatch, connections.h_dual)
        nonzero = 0
        for kind in DUAL_KINDS:
            for seed in range(3):
                c, h = basic_pair(kind, seed, False)
                got = cs_cochains(c, h, 2)
                assert duals == [], (kind, seed)
                assert got == cs_family([c, h_dual(c, h)], 2), (kind, seed)
                nonzero += not got[2].is_zero()
        assert nonzero > 0


def sparse_frames(count, sizes, rng, real) -> list:
    """count integer frames, None one time in four, as _integer_frames
    gives them: per parity Gaussian rows (re, im), im None when zero,
    nonzero only in a random set of columns drawn once per parity."""
    cols = [set(rng.sample(range(n), rng.randint(0, n))) for n in sizes]

    def block(n, cs):
        parts = [[[rng.randint(-3, 3) if c in cs and rng.random() < 0.6 else 0 for c in range(n)]
                  for _ in range(n)] for _ in range(1 if real else 2)]
        return parts[0], parts[1] if len(parts) > 1 and any(map(any, parts[1])) else None

    return [None if rng.random() < 0.25 else [block(n, cs) for n, cs in zip(sizes, cols)] for _ in range(count)]


def recorded_bareiss(monkeypatch) -> list:
    """The number of rows of each Bareiss pass _metric_transgression runs."""
    rows, original = [], transgression._bareiss

    def recorded(re, im):
        rows.append(len(re))
        return original(re, im)

    monkeypatch.setattr(transgression, "_bareiss", recorded)
    return rows


class TestMetricTransgressionReach:
    # the Bareiss pass runs on the indices of H that the frames' columns
    # reach through H's nonzero entries; the pass on the whole of H is
    # its oracle, on the nose
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32), st.booleans(), st.booleans(), st.integers(0, 5), st.integers(0, 5))
    def test_matches_whole_metric(self, seed, real_frames, real_metric, re, ro):
        # H block diagonal under a permutation, its blocks paths or dense:
        # two frame columns in one path are joined only through the
        # indices between them
        rng = random.Random(seed)
        h = HermitianMetric(GradedBundle(re, ro), block_metric(re, rng, real_metric), block_metric(ro, rng, real_metric))
        f0 = sparse_frames(rng.randint(2, 4), (re, ro), rng, real_frames)
        d0 = rng.randint(1, 4)
        den, t = transgression._metric_transgression(f0, d0, h)
        want_den, want = whole_metric_transgression(f0, d0, h)
        assert integer_form(len(f0), 2, t, den) == integer_form(len(f0), 2, want, want_den)

    def test_reach_is_closed(self, monkeypatch):
        # the frames read column 0 alone; H is the path 0 - 1 - 2 - 3
        # beside the lone index 4, so G's column 0 needs rows 0 to 3, of
        # which one step from 0 reaches only 1, and not row 4
        rows = recorded_bareiss(monkeypatch)
        i = Scalar(0, 1)
        path = [[7, 1, 0, 0, 0], [1, 7, i, 0, 0], [0, -i, 7, 2, 0], [0, 0, 2, 7, 0], [0, 0, 0, 0, 5]]
        h = HermitianMetric(GradedBundle(5, 0), Matrix(path, ncols=5), Matrix.zeros(0, 0))

        def frame(re, im):
            return [([[x, 0, 0, 0, 0] for x in re], im and [[y, 0, 0, 0, 0] for y in im]), ([], None)]

        f0 = [frame([1, 0, 2, 0, 1], [0, 1, 0, 0, 0]), frame([0, 3, 0, -1, 0], None)]
        den, t = transgression._metric_transgression(f0, 1, h)
        assert rows == [4]
        want_den, want = whole_metric_transgression(f0, 1, h)
        assert t and integer_form(2, 2, t, den) == integer_form(2, 2, want, want_den)

    @pytest.mark.parametrize("name", ["heisenberg", "so3", "tt2", "tt1 x so3"])
    def test_g_bar_eliminates_the_base_block(self, monkeypatch, name):
        # g-bar = block_diag(I_k, g) under Gaussian blocks: each parity the
        # base eliminates, the pullback eliminates on g's block alone, r
        # (or n) rows and not k + r (or k + n)
        a = {"heisenberg": heisenberg(), "so3": so3(), "tt2": tangent_torus(2),
             "tt1 x so3": direct_product(tangent_torus(1), so3())}[name]
        rng = random.Random(name)
        g = HermitianMetric(adjoint_bundle(a.anchor), rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))
        tm = rand_tm_conn(a, rng, real=False)
        rows = recorded_bareiss(monkeypatch)
        cs_cochains(adjoint_setup(a, tm), g, 2)
        assert rows == [a.r] + [a.n] * (a.n > 0)
        for k in (1, 2):
            recipe = submersion_recipe(a, k, tm, g)
            rows.clear()
            cs_cochains(recipe.basic, recipe.metric, 2)
            assert rows == [a.r] + [a.n] * (a.n > 0), k


class TestMetricTransgressionOnMorita:
    # morita_check's T against the cross traces of the dual frames: no
    # report sees a wrong T, since a morita-check report holds booleans,
    # its EQUAL compares two T's built by the same routine, and its
    # perturbed verdict holds for any T at max_q 2 (dT is exact)
    @pytest.mark.parametrize("gaussian_tm", [False, True])
    @pytest.mark.parametrize("name", ["heisenberg", "so3", "q_family", "tt2"])
    def test_every_call_matches_dual_frames(self, monkeypatch, name, gaussian_tm):
        calls = []
        metric_transgression = transgression._metric_transgression

        def recorded(f0, d0, h):
            out = metric_transgression(f0, d0, h)
            calls.append((f0, d0, h, out))
            return out

        monkeypatch.setattr(transgression, "_metric_transgression", recorded)
        rng = random.Random(name)
        a = {"heisenberg": heisenberg, "so3": so3, "q_family": lambda: rand_q_family(rng),
             "tt2": lambda: tangent_torus(2)}[name]()
        tm = rand_tm_conn(a, rng, real=not gaussian_tm)
        g = HermitianMetric(adjoint_bundle(a.anchor), rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng, real=True))
        odd = nonzero = 0
        for k in (1, 2):
            calls.clear()
            assert pullback.morita_check(a, k, tm, g, 2, seed=k).passed
            assert len(calls) == 3, k  # base under g, pullback under g-bar and the perturbed metric
            for f0, d0, h, (den, t) in calls:
                assert all(t[j, i] == (-x, -y) for (i, j), (x, y) in t.items())
                assert integer_form(len(f0), 2, t, den) == dual_frame_t(integer_connection(f0, d0, h.bundle), h), k
                nonzero += bool(t)
                odd += h.h_odd.im is not None and any(
                    x is not None and (x[1][1] is not None or any(map(any, x[1][0]))) for x in f0
                )
        # a Gaussian odd block under nonzero odd frames: the bases with
        # a TM part; a Lie algebra's basic connection has no odd term
        assert (odd > 0) == (a.n > 0) and nonzero > 0


class TestLazyDual:
    # cs_cochains builds the dual c^h = h_dual(c, h) only where the chain
    # reads its frames, from max_q 3 on, and then once; h_dual builds the
    # frames -H^-1 Omega^* H at once, with the inverses of the metric
    # blocks they need

    @staticmethod
    def counted(monkeypatch) -> list:
        """Record every Matrix product and every inverse h_dual takes."""
        calls = []
        matrix_mul, inverse = Matrix.__mul__, connections.inverse

        def counted_mul(x, y):
            calls.append("mul")
            return matrix_mul(x, y)

        def counted_inverse(m):
            calls.append("inverse")
            return inverse(m)

        monkeypatch.setattr(Matrix, "__mul__", counted_mul)
        monkeypatch.setattr(connections, "inverse", counted_inverse)
        return calls

    def test_metric_on_another_bundle_refused(self):
        # refused by cs_cochains on each route: the Chern-Simons
        # difference at max_q 1 and 2 and the chain at 3
        g = HermitianMetric(GradedBundle(3, 1), Matrix.identity(3), Matrix.identity(1))
        for max_q in (1, 2, 3):
            with pytest.raises(ValueError, match="different bundles"):
                cs_cochains(adjoint_setup(so3(), []), g, max_q)

    def test_no_products_where_the_frames_are_not_read(self, monkeypatch):
        # a basic pair at max_q 1 and 2 takes cs^1 and cs^2 from the
        # bracket table, c and the metric alone: no product, no inverse
        calls = self.counted(monkeypatch)
        for kind in DUAL_KINDS:
            for seed in range(4):
                for real in (True, False):
                    c, h = basic_pair(kind, seed, real)
                    for max_q in (1, 2):
                        calls.clear()
                        cs_cochains(c, h, max_q)
                        assert calls == [], (kind, seed, max_q)

    def test_modular_class_builds_no_dual_frames(self, monkeypatch):
        # char and modular read no metric: neither h_dual nor an inverse
        # runs, at any max_q, under the Gaussian g_A of
        # tt1_so3_hermitian and under real and Gaussian tm_conn
        calls = self.counted(monkeypatch)
        monkeypatch.setattr(linalg, "inverse", connections.inverse)
        # the elimination of the metric blocks that T takes
        bareiss = transgression._bareiss
        monkeypatch.setattr(transgression, "_bareiss", lambda re, im: calls.append("inverse") or bareiss(re, im))
        duals = count_calls(monkeypatch, connections.h_dual)
        path = Path(__file__).resolve().parent.parent / "inputs" / "tt1_so3_hermitian.json"
        for argv in (["modular"], ["char", "--max-q", "1"], ["char", "--max-q", "2"], ["char", "--max-q", "3"]):
            assert cli.main(argv + [str(path)]) == 0
        for seed in range(3):
            rng = random.Random(seed)
            a = direct_product(tangent_torus(1), rng.choice([so3(), rand_q_family(rng)]))
            tm = rand_tm_conn(a, rng, real=seed != 1)
            modular_class(a)
            intrinsic_char(a, max_q=3)
        assert "inverse" not in calls and duals == []
        # modular and char up to max-q 2 take traces of ad alone: no
        # Matrix product, while max-q 3 builds A^2
        for argv in (["modular"], ["char", "--max-q", "1"], ["char", "--max-q", "2"], ["char", "--max-q", "3"]):
            calls.clear()
            assert cli.main(argv + [str(path)]) == 0
            assert ("mul" in calls) == (argv[-1] == "3"), argv

    def test_frames_built_once_where_the_chain_reads_them(self, monkeypatch):
        calls = self.counted(monkeypatch)
        duals = count_calls(monkeypatch, connections.h_dual)
        skipped = 0
        for kind in DUAL_KINDS:
            for real in (True, False):
                c0, h = basic_pair(kind, 3, real)
                duals.clear()
                cs_cochains(c0, h, 3)
                assert duals == [(c0, h)], kind
                calls.clear()
                frames = h_dual(c0, h).omega
                # one inverse per parity with a nonzero frame block, and
                # two products per nonzero block
                blocks = [[om.ee for om in c0.omega], [om.oo for om in c0.omega]]
                live = [any(not m.is_zero() for m in part) for part in blocks]
                assert calls.count("inverse") == sum(live), kind
                nonzero = sum(not m.is_zero() for part in blocks for m in part)
                assert calls.count("mul") == 2 * nonzero, kind
                skipped += not all(live)
                want = reference_h_dual(c0, h)
                assert [[ring_matrix(dom.ee), ring_matrix(dom.oo)] for dom in frames] == want, kind
        assert skipped > 0


def check_cs_axioms(a, b, conns, metric, q, rng):
    """One randomized instance of the four transgression axioms."""
    p = len(conns) - 1
    cs = cs_family(conns, q)[q]

    # CS1: the p=0 cochain is the supertraced curvature power
    assert cs_family([conns[0]], q)[q] == supertrace_curvature_power(conns[0], q)

    # CS2: permutations act by their sign
    perm = list(range(p + 1))
    rng.shuffle(perm)
    lhs = cs_family([conns[s] for s in perm], q)[q]
    rhs = cs
    if perm_sign(perm) == -1:
        rhs = -rhs
    assert lhs == rhs

    # CS2 consequence: a repeated connection kills the cochain
    if p >= 1:
        repeated = list(conns)
        repeated[-1] = repeated[0]
        assert cs_family(repeated, q)[q].is_zero()

    # CS3: d cs^q(c_0..c_p) = sum_i (-1)^i cs^q(c_0..omit i..c_p)
    if 2 * q >= p + 1:
        lhs = ce_differential(a, cs)
        rhs = AlgebroidForm(a.r, 2 * q - p + 1)
        for i in range(p + 1):
            omitted = conns[:i] + conns[i + 1:]
            term = cs_family(omitted, q)[q]
            # degree bookkeeping: omitting one connection raises the
            # algebroid degree by one
            rhs = rhs + (term if i % 2 == 0 else -term)
        assert lhs == rhs

    # CS4: duals conjugate the cochain up to (-1)^q
    duals = [h_dual(c, metric) for c in conns]
    lhs = cs_family(duals, q)[q]
    rhs = form_conj(cs)
    if q % 2:
        rhs = -rhs
    assert lhs == rhs


class TestCsAxioms:
    def test_randomized_suite(self):
        rng = random.Random(39)
        for _ in range(12):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            basis = boundary_commutant(b)
            p = rng.randint(1, 2)
            q = rng.randint(1, 3)
            if 2 * q < p:
                q = p
            conns = [rand_connection(a, b, rng, basis) for _ in range(p + 1)]
            metric = rand_metric(b, rng)
            check_cs_axioms(a, b, conns, metric, q, rng)
