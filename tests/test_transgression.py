import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from algch.scalars import Scalar, SimplexPolynomial, ZERO, ONE
from algch.linalg import Matrix
from algch.algebroid import AlgebroidForm, ce_differential, basis_form
from algch.connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    supertrace,
    supertrace_product,
    h_dual,
)
from algch import transgression
from algch.transgression import (
    AffineForm,
    _affine_curvature,
    fibre_integrate,
    cs_cochain,
    cs_cochains,
)
from algch.library import abelian, so3

from helpers import (
    rand_bundle,
    rand_connection,
    rand_metric,
    rand_algebroid,
    rand_scalar,
    boundary_commutant,
    reference_cs_cochain,
    curvature,
    supertrace_curvature_power,
)


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


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
        from algch.transgression import _poly_endo

        for (i, j) in [(i, j) for i in range(a.r) for j in range(i + 1, a.r)]:
            got = r_aff.comps.get(((i, j), ()))
            want = plain.get((i, j))
            if want is None:
                assert got is None
            else:
                assert got == _poly_endo(want, 1)

    def test_rank_one_mixed_leg(self):
        rng = random.Random(32)
        a = abelian(1)
        b = rand_bundle(rng)
        basis = boundary_commutant(b)
        c0 = rand_connection(a, b, rng, basis)
        c1 = rand_connection(a, b, rng, basis)
        r_aff = _affine_curvature([c0, c1])
        from algch.transgression import _poly_endo

        keys = set(r_aff.comps)
        assert keys <= {((0,), (0,))}, "no algebroid 2-forms in rank one"
        # stored as the value on (e_1, d/dt_1), i.e. minus the dt-first display
        diff = c1.omega[0] - c0.omega[0]
        if diff.is_zero():
            assert not keys
        else:
            assert r_aff.comps[((0,), (0,))] == _poly_endo(-diff, 1)

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


class TestFibreIntegrate:
    def test_no_dt_component(self):
        f = AffineForm(2, 1, 1, {((0,), ()): SimplexPolynomial.constant(1, ONE)})
        assert fibre_integrate(f, 1).is_zero()

    def test_constant_on_interval(self):
        lam = Scalar(3, -2)
        f = AffineForm(2, 1, 1, {((), (0,)): SimplexPolynomial.constant(1, lam)})
        out = fibre_integrate(f, 1)
        assert out.degree == 0 and out.get(()) == lam

    def test_t0_t1_on_interval(self):
        t0 = SimplexPolynomial.variable(0, 1)
        t1 = SimplexPolynomial.variable(1, 1)
        f = AffineForm(2, 1, 1, {((), (0,)): t0 * t1})
        assert fibre_integrate(f, 1).get(()) == Scalar(1) / Scalar(6)


class TestCsCochain:
    def test_p0_is_supertraced_curvature_power(self):
        rng = random.Random(34)
        for _ in range(6):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            for q in (1, 2, 3):
                assert cs_cochain([c], q) == supertrace_curvature_power(c, q)

    def test_q0_p1_vanishes(self):
        rng = random.Random(35)
        a = rand_algebroid(rng)
        b = rand_bundle(rng)
        basis = boundary_commutant(b)
        c0 = rand_connection(a, b, rng, basis)
        c1 = rand_connection(a, b, rng, basis)
        assert cs_cochain([c0, c1], 0).is_zero()

    def test_low_power_vanishes(self):
        # 2q < p leaves no top simplex component to integrate
        rng = random.Random(36)
        a = rand_algebroid(rng)
        b = rand_bundle(rng)
        basis = boundary_commutant(b)
        conns = [rand_connection(a, b, rng, basis) for _ in range(3)]
        assert cs_cochain(conns, 0).is_zero()
        assert cs_cochain(conns, 1).degree == 0

    def test_universal_sign_frozen(self):
        # regression pin: cs^1(c0, c1)(e_i) = +supertrace(Omega1_i - Omega0_i)
        rng = random.Random(37)
        for _ in range(6):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            basis = boundary_commutant(b)
            c0 = rand_connection(a, b, rng, basis)
            c1 = rand_connection(a, b, rng, basis)
            cs1 = cs_cochain([c0, c1], 1)
            for i in range(a.r):
                want = supertrace(c1.omega[i] - c0.omega[i])
                assert cs1.get((i,)) == want

    def test_incompatible_connections(self):
        rng = random.Random(38)
        a = abelian(2)
        c0 = rand_connection(a, GradedBundle(2, 2), rng)
        c1 = rand_connection(a, GradedBundle(2, 1), rng)
        with pytest.raises(ValueError):
            cs_cochain([c0, c1], 1)


def rand_poly_endo(re, ro, p, rng, density=0.6):
    zero = SimplexPolynomial(p)

    def entry():
        if rng.random() >= density:
            return zero
        f = SimplexPolynomial.constant(p, rand_scalar(rng, real=rng.random() < 0.5))
        for i in range(1, p + 1):
            f = f + SimplexPolynomial.variable(i, p) * rand_scalar(rng)
        return f

    def block(n):
        return Matrix([[entry() for _ in range(n)] for _ in range(n)], zero, ncols=n)

    return GradedEndo(block(re), block(ro))


class TestSupertraceProduct:
    """The fused last factor: supertrace(v1 * v2) without the product."""

    def test_polynomial_endos(self):
        rng = random.Random(40)
        for p in (0, 1, 2):
            for re, ro in ((2, 1), (1, 2), (3, 2), (0, 2), (2, 0)):
                for density in (0.0, 0.5, 1.0):
                    v1 = rand_poly_endo(re, ro, p, rng, density)
                    v2 = rand_poly_endo(re, ro, p, rng, density)
                    got = supertrace_product(v1, v2)
                    assert got == supertrace(v1 * v2)
                    assert got.p == p

    def test_odd_block_enters_with_minus_sign(self):
        one = SimplexPolynomial.constant(1, 1)
        zero = SimplexPolynomial(1)
        empty = Matrix([], zero, ncols=0)
        v = GradedEndo(empty, Matrix([[one]], zero))
        assert supertrace_product(v, v) == SimplexPolynomial.constant(1, -1)


def rand_family(data, p, real_metric):
    """p+1 connections on a bundle with odd rank > 0: a random
    connection, its metric dual, then further random connections."""
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    a = rand_algebroid(rng)
    b = rand_bundle(
        rng,
        re=data.draw(st.integers(0, 2), label="rank_even"),
        ro=data.draw(st.integers(1, 2), label="rank_odd"),
    )
    basis = boundary_commutant(b)
    c = rand_connection(a, b, rng, basis, real=real_metric)
    conns = [c, h_dual(c, rand_metric(b, rng, real=real_metric))]
    conns += [rand_connection(a, b, rng, basis) for _ in range(p - 1)]
    return conns[: p + 1]


class TestCsCochainsOnePass:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2), st.integers(0, 3), st.booleans(), st.data()
    )
    def test_matches_per_q_reference(self, p, max_q, real_metric, data):
        conns = rand_family(data, p, real_metric)
        got = cs_cochains(conns, max_q)
        assert len(got) == max_q + 1
        for q in range(max_q + 1):
            assert got[q] == reference_cs_cochain(conns, q), (p, q)

    def test_same_cochain_for_every_max_q(self):
        # max_q sets how much of each power is pruned
        rng = random.Random(41)
        a = so3()
        b = rand_bundle(rng, re=2, ro=1)
        basis = boundary_commutant(b)
        conns = [rand_connection(a, b, rng, basis) for _ in range(3)]
        forms = cs_cochains(conns, 3)
        for q in range(4):
            assert cs_cochain(conns, q) == forms[q]

    def test_curvature_built_once(self, monkeypatch):
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
            cs_cochains(conns, 3)
            assert calls == [p + 1]

    def test_q0_entry_is_superdimension(self):
        rng = random.Random(43)
        a = so3()
        for re, ro in ((2, 1), (1, 1), (0, 2)):
            b = GradedBundle(re, ro)
            c = rand_connection(a, b, rng)
            q0 = cs_cochains([c], 0)[0]
            assert q0.degree == 0 and q0.get(()) == Scalar(re - ro)
            assert cs_cochains([c, c], 0)[0].is_zero()


def check_cs_axioms(a, b, conns, metric, q, rng):
    """One randomized instance of the four transgression axioms."""
    p = len(conns) - 1
    cs = cs_cochain(conns, q)

    # CS1: the p=0 cochain is the supertraced curvature power
    assert cs_cochain([conns[0]], q) == supertrace_curvature_power(conns[0], q)

    # CS2: permutations act by their sign
    perm = list(range(p + 1))
    rng.shuffle(perm)
    lhs = cs_cochain([conns[s] for s in perm], q)
    rhs = cs
    if perm_sign(perm) == -1:
        rhs = -rhs
    assert lhs == rhs

    # CS2 consequence: a repeated connection kills the cochain
    if p >= 1:
        repeated = list(conns)
        repeated[-1] = repeated[0]
        assert cs_cochain(repeated, q).is_zero()

    # CS3: d cs^q(c_0..c_p) = sum_i (-1)^i cs^q(c_0..omit i..c_p)
    if 2 * q >= p + 1:
        lhs = ce_differential(a, cs)
        rhs = AlgebroidForm(a.r, 2 * q - p + 1)
        for i in range(p + 1):
            omitted = conns[:i] + conns[i + 1:]
            term = cs_cochain(omitted, q)
            # degree bookkeeping: omitting one connection raises the
            # algebroid degree by one
            rhs = rhs + (term if i % 2 == 0 else -term)
        assert lhs == rhs

    # CS4: duals conjugate the cochain up to (-1)^q
    duals = [h_dual(c, metric) for c in conns]
    lhs = cs_cochain(duals, q)
    rhs = cs.conj()
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
