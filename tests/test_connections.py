import random

import pytest

from algch.scalars import Scalar, ZERO, ONE, I
from algch.linalg import Matrix
from algch.algebroid import ce_differential
from algch.connections import (
    GradedBundle,
    GradedEndo,
    OddMap,
    Connection,
    HermitianMetric,
    supertrace,
    h_dual,
    check_metric_block,
)
from algch.charclasses import adjoint_setup, adjoint_connection
from algch.transgression import _affine_curvature, _poly_endo, _poly_matrix
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
    curvature,
    covariant_differential,
    leading_minors_positive,
    supertrace_curvature_power,
    metric_average,
    equivalence_witness,
    zero_connection,
)


class TestCurvature:
    """The only curvature in algch is the affine-family one; at p = 0 it
    is the curvature of the single connection."""

    def test_adjoint_representation_flat(self):
        for a in (heisenberg(), so3(), q_family(1, 2, 3, 4)):
            bundle = GradedBundle(a.r, 0)
            assert _affine_curvature([adjoint_connection(a, bundle)]).is_zero()

    def test_abelian_commutator(self):
        rng = random.Random(11)
        a = abelian(2)
        b = GradedBundle(2, 2)
        c = rand_connection(a, b, rng)
        comm = c.omega[0].commutator(c.omega[1])
        assert not comm.is_zero()
        assert _affine_curvature([c]).comps == {((0, 1), ()): _poly_endo(comm, 0)}

    def test_rank_one_zero(self):
        rng = random.Random(12)
        a = abelian(1)
        c = rand_connection(a, rand_bundle(rng), rng)
        assert _affine_curvature([c]).is_zero()

    def test_values_commute_with_boundary(self):
        rng = random.Random(13)
        for _ in range(5):
            a = rand_algebroid(rng)
            b = rand_bundle(rng)
            c = rand_connection(a, b, rng)
            d01, d10 = _poly_matrix(b.d01, 0), _poly_matrix(b.d10, 0)
            for v in _affine_curvature([c]).comps.values():
                ee = v.ee * d10 - d10 * v.oo
                oo = v.oo * d01 - d01 * v.ee
                assert ee.is_zero() and oo.is_zero()

    def test_matches_single_connection_oracle(self):
        rng = random.Random(16)
        for _ in range(8):
            a = rand_algebroid(rng, max_rank=4)
            c = rand_connection(a, rand_bundle(rng), rng)
            want = {(k, ()): _poly_endo(v, 0) for k, v in curvature(c).items()}
            assert _affine_curvature([c]).comps == want


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

    def test_pivots_match_leading_minors(self):
        # Hermitian m + m^* + c: positive-definite, singular and
        # indefinite, real and Gaussian
        rng = random.Random(18)
        cases = [
            Matrix([[ZERO]], ncols=1),
            Matrix([[ONE, ONE], [ONE, ONE]], ncols=2),
            Matrix([[ZERO, ONE], [ONE, ONE]], ncols=2),
            Matrix([[Scalar(2), I], [-I, ONE]], ncols=2),
        ]
        for _ in range(200):
            n = rng.randint(1, 5)
            m = rand_matrix(n, n, rng, real=rng.random() < 0.5)
            shift = Matrix.identity(n).scale(Scalar(rng.randint(-2, 4)))
            cases.append(m + m.conj_transpose() + shift)
        outcomes = set()
        for h in cases:
            want = leading_minors_positive(h)
            if want:
                check_metric_block(h)
            else:
                with pytest.raises(ValueError, match="not positive-definite"):
                    check_metric_block(h)
            outcomes.add(want)
        assert outcomes == {True, False}


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
            assert covariant_differential(c, curvature(c), 2) == {}

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
        assert _affine_curvature([c]).is_zero()
