import random
from itertools import combinations

import pytest

from algch.scalars import Scalar, ZERO, ONE, I
from algch.linalg import Matrix
from algch.algebroid import AlgebroidForm, merge_sign, ce_differential
from algch.connections import (
    GradedBundle,
    GradedEndo,
    OddMap,
    Connection,
    HermitianMetric,
    supertrace,
    curvature,
    h_dual,
)
from algch.charclasses import adjoint_setup, adjoint_connection
from algch.library import abelian, heisenberg, so3, q_family

from helpers import (
    rand_bundle,
    rand_connection,
    rand_metric,
    rand_matrix,
    rand_algebroid,
    rand_tm_conn,
    boundary_commutant,
    small_corpus,
    form_supertrace,
    metric_average,
    equivalence_witness,
    zero_connection,
)


def wedge_endo_forms(f: AlgebroidForm, g: AlgebroidForm) -> AlgebroidForm:
    """Independent wedge of endomorphism-valued forms, used as the
    oracle for supertrace(curvature^q)."""
    out = {}
    r = f.r
    for i1, v1 in f.comps.items():
        for i2, v2 in g.comps.items():
            if set(i1) & set(i2):
                continue
            merged = tuple(sorted(i1 + i2))
            sign = merge_sign(i1, i2)
            term = (v1 * v2).scale(Scalar(sign))
            out[merged] = out.get(merged, None)
            out[merged] = term if out[merged] is None else out[merged] + term
    comps = {k: v for k, v in out.items() if not v.is_zero()}
    return AlgebroidForm(r, f.degree + g.degree, comps, zero=f.zero)


def supertrace_curvature_power(c: Connection, q: int) -> AlgebroidForm:
    r_form = curvature(c)
    acc = r_form
    for _ in range(q - 1):
        acc = wedge_endo_forms(acc, r_form)
    return form_supertrace(acc)


class TestCurvature:
    def test_adjoint_representation_flat(self):
        for a in (heisenberg(), so3(), q_family(1, 2, 3, 4)):
            bundle = GradedBundle(a.r, 0)
            assert curvature(adjoint_connection(a, bundle)).is_zero()

    def test_abelian_commutator(self):
        rng = random.Random(11)
        a = abelian(2)
        b = GradedBundle(2, 2)
        c = rand_connection(a, b, rng)
        r_form = curvature(c)
        assert r_form.get((0, 1)) == c.omega[0].commutator(c.omega[1])

    def test_rank_one_zero(self):
        rng = random.Random(12)
        a = abelian(1)
        c = rand_connection(a, rand_bundle(rng), rng)
        assert curvature(c).is_zero()

    def test_values_commute_with_boundary(self):
        rng = random.Random(13)
        for _ in range(5):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            d = GradedEndo(Matrix.zeros(b.rank_even, b.rank_even), Matrix.zeros(b.rank_odd, b.rank_odd))
            for v in curvature(c).comps.values():
                ee = v.ee * b.d10 - b.d10 * v.oo
                oo = v.oo * b.d01 - b.d01 * v.ee
                assert ee.is_zero() and oo.is_zero()


class TestSupertrace:
    def test_identity_two_three(self):
        assert supertrace(GradedEndo.identity(2, 3)) == Scalar(-1)

    def test_block_formula(self):
        rng = random.Random(14)
        t = GradedEndo(rand_matrix(2, 2, rng), rand_matrix(3, 3, rng))
        assert supertrace(t) == t.ee.trace() - t.oo.trace()

    def test_vanishes_on_parity_preserving_commutators(self):
        rng = random.Random(15)
        for _ in range(10):
            s = GradedEndo(rand_matrix(2, 2, rng), rand_matrix(2, 2, rng))
            t = GradedEndo(rand_matrix(2, 2, rng), rand_matrix(2, 2, rng))
            assert supertrace(s.commutator(t)).is_zero()

    def test_vanishes_on_odd_anticommutators(self):
        # the graded commutator of two odd maps is the anticommutator
        rng = random.Random(16)
        for _ in range(10):
            s = OddMap(rand_matrix(2, 2, rng), rand_matrix(2, 2, rng))
            t = OddMap(rand_matrix(2, 2, rng), rand_matrix(2, 2, rng))
            ee = s.eo * t.oe + t.eo * s.oe
            oo = s.oe * t.eo + t.oe * s.eo
            assert supertrace(GradedEndo(ee, oo)).is_zero()


class TestMetric:
    def test_positive_definite_enforced(self):
        b = GradedBundle(2, 1)
        bad = Matrix([[ONE, ZERO], [ZERO, -ONE]], ncols=2)
        with pytest.raises(ValueError):
            HermitianMetric(b, bad, Matrix.identity(1))

    def test_hermitian_enforced(self):
        b = GradedBundle(2, 1)
        not_herm = Matrix([[ONE, I], [I, ONE]], ncols=2)
        with pytest.raises(ValueError):
            HermitianMetric(b, not_herm, Matrix.identity(1))


class TestHDual:
    def test_skew_hermitian_fixed_by_identity_metric(self):
        rng = random.Random(17)
        a = abelian(2)
        b = GradedBundle(2, 2)
        omega = []
        for _ in range(2):
            m_e = rand_matrix(2, 2, rng)
            m_o = rand_matrix(2, 2, rng)
            omega.append(
                GradedEndo(
                    m_e - m_e.conj_transpose(), m_o - m_o.conj_transpose()
                )
            )
        c = Connection(a, b, omega)
        assert h_dual(c, HermitianMetric.identity(b)) == c

    def test_involution(self):
        rng = random.Random(18)
        for _ in range(8):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            h = rand_metric(b, rng)
            assert h_dual(h_dual(c, h), h) == c

    def test_metric_average_is_fixed(self):
        rng = random.Random(19)
        for _ in range(8):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            h = rand_metric(b, rng)
            m = metric_average(c, h)
            assert h_dual(m, h) == m

    def test_dual_supertrace_powers(self):
        # supertrace(R^q) of the dual is (-1)^q times the conjugate
        rng = random.Random(20)
        for _ in range(5):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            h = rand_metric(b, rng)
            dual = h_dual(c, h)
            for q in (1, 2, 3):
                lhs = supertrace_curvature_power(dual, q)
                rhs = supertrace_curvature_power(c, q).conj()
                if q % 2:
                    rhs = -rhs
                assert lhs == rhs


class TestEquivalence:
    def test_equal_connections(self):
        rng = random.Random(21)
        a = rand_algebroid(rng)
        b = rand_bundle(rng)
        c = rand_connection(a, b, rng)
        theta = equivalence_witness(c, c)
        assert theta is not None
        assert all(t.anticommutator_with_boundary(b).is_zero() for t in theta)

    def test_zero_boundary_means_equal(self):
        rng = random.Random(22)
        a = abelian(2)
        b = GradedBundle(2, 2)  # zero boundary
        c0 = rand_connection(a, b, rng)
        c1 = rand_connection(a, b, rng)
        if c0 == c1:  # pragma: no cover - astronomically unlikely
            return
        assert equivalence_witness(c0, c1) is None
        assert equivalence_witness(c0, c0) is not None

    def test_constructed_equivalence(self):
        rng = random.Random(23)
        for _ in range(8):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c0 = rand_connection(a, b, rng)
            omega1 = []
            for i in range(a.r):
                th = OddMap(
                    rand_matrix(b.rank_even, b.rank_odd, rng),
                    rand_matrix(b.rank_odd, b.rank_even, rng),
                )
                omega1.append(c0.omega[i] + th.anticommutator_with_boundary(b))
            c1 = Connection(a, b, omega1)
            theta = equivalence_witness(c0, c1)
            assert theta is not None
            for i in range(a.r):
                delta = theta[i].anticommutator_with_boundary(b)
                assert delta == c1.omega[i] - c0.omega[i]
            # equivalent connections share the closed characteristic forms
            for q in (1, 2, 3):
                assert supertrace_curvature_power(c0, q) == supertrace_curvature_power(c1, q)

    def test_basic_vs_adjoint_witness(self):
        rng = random.Random(24)
        for name, a in small_corpus().items():
            if a.r + a.n > 5:
                continue
            setup = adjoint_setup(a, rand_tm_conn(a, rng))
            theta = equivalence_witness(setup.basic, setup.adjoint)
            assert theta is not None, name
            b = setup.bundle
            for i in range(a.r):
                delta = theta[i].anticommutator_with_boundary(b)
                assert delta == setup.adjoint.omega[i] - setup.basic.omega[i]


class TestDifferentialIdentities:
    def test_bianchi(self):
        rng = random.Random(25)
        for _ in range(8):
            a = rand_algebroid(rng, max_rank=4)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            assert ce_differential(a, curvature(c), conn=c).is_zero()

    def test_supertrace_powers_closed(self):
        rng = random.Random(26)
        for _ in range(5):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            for q in (1, 2, 3):
                f = supertrace_curvature_power(c, q)
                assert ce_differential(a, f).is_zero()

    def test_zero_connection_flat(self):
        a = heisenberg()
        c = zero_connection(a, GradedBundle(2, 1))
        assert curvature(c).is_zero()
