import random
from fractions import Fraction
from itertools import product

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
from algch import connections, transgression
from algch.transgression import (
    AffineForm,
    _affine_curvature,
    fibre_integrate,
    cs_cochains,
    supertrace_product,
    supertrace_terms,
)
from algch.library import abelian, heisenberg, so3, tangent_torus
from algch.charclasses import adjoint_setup, modular_class

from helpers import (
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
        h = rand_metric(b, rng)
        for max_q in range(4):
            q0 = cs_cochains(c0, h, max_q)[0]
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
        # on any pair and on (c, h_dual(c, h))
        rng = random.Random(37)
        for _ in range(6):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            basis = boundary_commutant(b)
            c0 = rand_connection(a, b, rng, basis)
            c1 = rand_connection(a, b, rng, basis)
            h = rand_metric(b, rng)
            dual = h_dual(c0, h)
            for got, other in ((cs_family([c0, c1], 1)[1], c1), (cs_cochains(c0, h, 1)[1], dual)):
                for i in range(a.r):
                    want = supertrace(other.omega[i]) - supertrace(c0.omega[i])
                    assert got.get((i,)) == want

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
        # q/p factors and the sign flip differ across p = 0..3, and a
        # pair, (c, h_dual(c, h)), is also the package's own
        conns, h = rand_family(seed, p, real, re, ro)
        got = cs_family(conns, max_q)
        assert len(got) == max_q + 1
        for q in range(max_q + 1):
            assert got[q] == reference_cs_cochain(conns, q), (p, q)
        if p == 1:
            assert cs_cochains(conns[0], h, max_q) == got

    def test_same_cochain_for_every_max_q(self):
        # max_q sets how much of each power is pruned, and the route of
        # cs_cochains: the Chern-Simons difference to 2, the chain from 3
        rng = random.Random(41)
        a = so3()
        b = rand_bundle(rng, re=2, ro=1)
        basis = boundary_commutant(b)
        conns = [rand_connection(a, b, rng, basis) for _ in range(3)]
        forms = cs_family(conns, 3)
        for q in range(4):
            assert cs_family(conns, q)[q] == forms[q]
        h = rand_metric(b, rng, real=False)
        forms = cs_cochains(conns[0], h, 4)
        for q in range(4):
            assert cs_cochains(conns[0], h, q)[q] == forms[q]

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
        cs_cochains(conns[0], rand_metric(b, rng), 3)
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
            conns, h = rand_family(seed, 1, real)
            curv = _affine_curvature(conns).comps
            pairs = len(transgression._products(curv, curv, 1))
            per_q.clear()
            got = cs_cochains(conns[0], h, 3)
            assert len(per_q) == 2 and 2 * per_q[0] == pairs
            assert got[2] == reference_cs_cochain(conns, 2)
            ordered += pairs
        assert ordered > 0

    def test_no_matrix_products_below_max_q_3(self, monkeypatch):
        # cs^1 takes traces alone on every pair; at max_q 2 a dual pair
        # multiplies integer rows of c_0 alone, one product per block and
        # frame pair, plus at most two stacked products per parity for T
        # from the metric, and builds no dual; h_dual multiplies only
        # nonzero blocks
        calls, traced = [], []
        matrix_mul, row_mul, cs_traces = Matrix.__mul__, transgression._cmatmul, transgression._cs_traces

        def counted_matrix(x, y):
            calls.append("Matrix")
            return matrix_mul(x, y)

        def counted_rows(x, y, ncols):
            calls.append("rows")
            return row_mul(x, y, ncols)

        def recorded_traces(frames):
            traced.append(frames)
            return cs_traces(frames)

        monkeypatch.setattr(Matrix, "__mul__", counted_matrix)
        monkeypatch.setattr(transgression, "_cmatmul", counted_rows)
        monkeypatch.setattr(transgression, "_cs_traces", recorded_traces)
        duals = count_calls(monkeypatch, connections.h_dual)
        for kind in PAIR_KINDS:
            for real in (True, False):
                c0, c1, h = rand_pair(kind, 5, real, 2, 1)
                r = c0.algebroid.r
                calls.clear()
                pair_cochains(c0, c1, h, 1)
                assert calls == [], kind
                if h is None:
                    continue
                traced.clear()
                pair_cochains(c0, c1, h, 2)
                assert "Matrix" not in calls and duals == [], kind
                assert len(calls) <= r * (r - 1) + 4, kind
                f0 = transgression._integer_frames(c0)[1]
                assert all(frames == f0 for frames in traced), kind
                if kind == "pullback":
                    calls.clear()
                    h_dual(c0, h)
                    blocks = [m for om in c0.omega for m in (om.ee, om.oo)]
                    assert any(m.is_zero() for m in blocks)
                    assert calls == ["Matrix"] * 2 * sum(not m.is_zero() for m in blocks)

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
            assert cs_cochains(c, rand_metric(b, rng), 0)[0].is_zero()


PAIR_KINDS = ("dual", "lie", "torus", "equal", "pullback", "mixed", "gaussian")

# the kinds of rand_pair whose c_1 is h_dual(c_0, h)
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


def pair_cochains(c0, c1, h, max_q):
    """The package's cs_cochains(c0, h, max_q) for a pair of rand_pair
    with a metric, and the chain of cs_family for any other pair."""
    return cs_family([c0, c1], max_q) if h is None else cs_cochains(c0, h, max_q)


def integer_form(r, degree, nums, den):
    """The AlgebroidForm of the integer parts {key: (re, im)} over den,
    at the sorted keys."""
    return AlgebroidForm(r, degree, {
        k: Scalar(Fraction(x, den), Fraction(y, den))
        for k, (x, y) in nums.items()
        if list(k) == sorted(k)
    })


class TestChernSimonsDifference:
    # cs^2(c_0, c_1) = CS(c_1) - CS(c_0) + dT and its parts on every kind
    # of pair, with the simplex path as the oracle: CS(A) = cs^2(z, A)
    # for the zero connection z, and on a dual pair T = cs^2(z, c_0, c_1)
    # from c_0 and the metric, and its dT
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_sum_and_parts_match_simplex_path(self, kind, real):
        nonzero = 0
        # seeds 4 to 7 reach so3, where a flat pair's CS forms are nonzero
        for seed in range(4, 8):
            c0, c1, h = rand_pair(kind, seed, real, seed % 3, (seed + 1) % 3)
            a = c0.algebroid
            z = zero_connection(a, c0.bundle)
            want = transgression._simplex_cochains([c0, c1], 2)
            assert pair_cochains(c0, c1, h, 2)[1:] == [want[1], want[2]], (kind, seed)
            for c in (c0, c1):
                d, f = transgression._integer_frames(c)
                gram, tri = transgression._cs_traces(f)
                cs = transgression._cs2_form(a, [(1, d**2, gram)], [(1, d**3, tri)])
                assert cs == transgression._simplex_cochains([z, c], 2)[2], (kind, seed)
                nonzero += not cs.is_zero()
            if h is None:
                continue
            d0, f0 = transgression._integer_frames(c0)
            den, t = transgression._metric_transgression(f0, d0, h)
            form = integer_form(a.r, 2, t, den)
            want_t = transgression._simplex_cochains([z, c0, c1], 2)[2]
            assert form == want_t, (kind, seed)
            dt = transgression._cs2_form(a, [(-1, den, t)], [])
            assert dt == ce_differential(a, form), (kind, seed)
            nonzero += not want_t.is_zero()
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
        c0, c1, h = rand_pair(kind, seed, real, re, ro)
        got = pair_cochains(c0, c1, h, max_q)
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
                assert not pair_cochains(*rand_pair(kind, seed, real, re, ro), 3)[3].is_zero()


def real_basic_connection(seed):
    """The basic connection of a real algebroid tangent_torus(k) x g under
    a real random tm_conn, so not flat, pulled back by one fibre
    direction on odd seeds: a real c_0, as in morita-check."""
    rng = random.Random(seed)
    a = rng.choice([so3(), heisenberg(), rand_q_family(rng)])
    a = direct_product(tangent_torus(rng.randint(1, 2)), a)
    c = adjoint_setup(a, rand_tm_conn(a, rng))
    return pullback_connection(a, 1, c) if seed % 2 else c


class TestDualPair:
    # cs_cochains(c, h) takes cs^1 and cs^2 from c's own traces and the
    # metric; the chain on the frames of h_dual(c, h) and the simplex
    # path are its oracles
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from(DUAL_KINDS),
        st.integers(1, 2),
        st.booleans(),
        st.integers(0, 2**32),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    # pairs with a nonzero cs^2: Gaussian brackets, metrics and frames
    @example("gaussian", 2, True, 1, 2, 1)
    @example("dual", 2, False, 3, 2, 1)
    @example("lie", 2, False, 3, 2, 1)
    @example("pullback", 2, True, 0, 2, 1)
    def test_matches_general_path_and_simplex_path(self, kind, max_q, real, seed, re, ro):
        c0, c1, h = rand_pair(kind, seed, real, re, ro)
        got = cs_cochains(c0, h, max_q)
        assert got == cs_family([c0, c1], max_q), kind
        simplex = transgression._simplex_cochains([c0, c1], max_q)
        assert got[1:] == [simplex[q] for q in range(1, max_q + 1)], kind

    @pytest.mark.parametrize("kind", DUAL_KINDS)
    def test_examples_reach_a_nonzero_cs2(self, kind):
        # a dual pair's cs^2 is -2i Im of c_0's terms plus dT; with real
        # data it is zero, so Gaussian metrics or frames must reach it
        nonzero = 0
        for seed in range(6):
            for real in (True, False):
                c0, c1, h = rand_pair(kind, seed, real, 2, 1)
                got = cs_cochains(c0, h, 2)
                assert got == cs_family([c0, c1], 2), (kind, seed, real)
                nonzero += not got[2].is_zero()
        assert nonzero > 0, kind

    def test_real_pair_takes_no_trace(self, monkeypatch):
        # a real basic connection under a real metric: cs^2 is decided
        # zero from the im of every block of c and h
        a = direct_product(tangent_torus(1), so3())
        c = adjoint_setup(a, [Matrix.identity(a.r)])
        h = rand_metric(c.bundle, random.Random(3), real=True)
        calls = []
        monkeypatch.setattr(transgression, "_dot", lambda x, y: calls.append(1))
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
            assert transgression._is_real(c0)
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
        dual = h_dual(c0, h)
        cross = [
            [supertrace(GradedEndo(x.ee * y.ee, x.oo * y.oo)) for y in dual.omega]
            for x in c0.omega
        ]
        frames = AlgebroidForm(a.r, 2, {
            (i, j): cross[i][j] - cross[j][i] for i in range(a.r) for j in range(i + 1, a.r)
        })
        assert got == frames, kind
        z = zero_connection(a, c0.bundle)
        assert got == transgression._simplex_cochains([z, c0, dual], 2)[2], kind

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
                c0, c1, h = rand_pair(kind, seed, False, 2, 1)
                got = cs_cochains(c0, h, 2)
                assert duals == [], (kind, seed)
                assert got == cs_family([c0, c1], 2), (kind, seed)
                nonzero += not got[2].is_zero()
        assert nonzero > 0


class TestLazyDual:
    # cs_cochains builds the dual c^h = h_dual(c, h) only where the chain
    # reads its frames, from max_q 3 on, and then once; h_dual builds the
    # frames -H^-1 Omega^* H at once, with the inverses of the metric
    # blocks they need (see test_charclasses.py TestIntrinsic for the
    # bundle check)

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

    def test_no_products_where_the_frames_are_not_read(self, monkeypatch):
        # a real pair at max_q 2 and any dual pair at max_q 1 take cs^1
        # and cs^2 from c_0 and the metric alone
        calls = self.counted(monkeypatch)
        real_pairs = 0
        for kind in DUAL_KINDS:
            for seed in range(4):
                for real in (True, False):
                    c0, _, h = rand_pair(kind, seed, real, 2, 1)
                    blocks = [m for om in c0.omega for m in (om.ee, om.oo)]
                    blocks += [h.h_even, h.h_odd]
                    both_real = all(m.im is None for m in blocks)
                    real_pairs += both_real
                    for max_q in (1, 2) if both_real else (1,):
                        calls.clear()
                        cs_cochains(c0, h, max_q)
                        assert calls == [], (kind, seed, max_q)
        assert real_pairs > 0

    def test_modular_class_builds_no_dual_frames(self, monkeypatch):
        # max_q 1 under a Gaussian metric: the Chern character multiplies
        # c's own frames, but no dual is built
        calls = self.counted(monkeypatch)
        duals = count_calls(monkeypatch, connections.h_dual)
        for seed in range(3):
            rng = random.Random(seed)
            a = direct_product(tangent_torus(1), rng.choice([so3(), rand_q_family(rng)]))
            tm = rand_tm_conn(a, rng)
            g = rand_metric(adjoint_setup(a, tm).bundle, rng, real=False)
            calls.clear()
            modular_class(a, tm, g)
            assert "inverse" not in calls and duals == [], seed

    def test_frames_built_once_where_the_chain_reads_them(self, monkeypatch):
        calls = self.counted(monkeypatch)
        duals = count_calls(monkeypatch, connections.h_dual)
        skipped = 0
        for kind in DUAL_KINDS:
            for real in (True, False):
                c0, _, h = rand_pair(kind, 3, real, 2, 1)
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
