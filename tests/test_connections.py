import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algch.scalars import Scalar, ZERO, ONE, I
from algch.linalg import Matrix, positive_definite
from algch.algebroid import ce_differential
from algch.connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    HermitianMetric,
    h_dual,
    check_metric_block,
)
from algch.charclasses import adjoint_setup
from algch.transgression import _affine_curvature
from algch.library import abelian, heisenberg, so3, q_family

from helpers import (
    adjoint_connection,
    rand_bundle,
    rand_connection,
    rand_metric,
    rand_matrix,
    rand_pd_matrix,
    rand_algebroid,
    rand_tm_conn,
    small_corpus,
    curvature,
    covariant_differential,
    leading_minors_positive,
    supertrace_curvature_power,
    metric_average,
    equivalence_witness,
    zero_connection,
    identity_endo,
    identity_metric,
    supertrace,
    Endo,
    boundary_commutator,
    conj,
    form_conj,
)


def single_curvature(c) -> dict:
    """_affine_curvature([c]) as {(I, ()): GradedEndo}."""
    return {k: GradedEndo(*v[()]) for k, v in _affine_curvature([c]).comps.items()}


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
        assert single_curvature(c) == {((0, 1), ()): comm}

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
            for v in single_curvature(c).values():
                assert (v.oo * b.d01 - b.d01 * v.ee).is_zero()

    def test_matches_single_connection_oracle(self):
        rng = random.Random(16)
        for _ in range(8):
            a = rand_algebroid(rng, max_rank=4)
            c = rand_connection(a, rand_bundle(rng), rng)
            want = {(k, ()): v for k, v in curvature(c).items()}
            assert single_curvature(c) == want


class TestShapes:
    """Explicit checks, so they also run under python -O."""

    def test_bundle_boundary_shapes_enforced(self):
        with pytest.raises(ValueError, match="boundary must be 1 x 2, got 2 x 1"):
            GradedBundle(2, 1, d01=Matrix.zeros(2, 1))

    def test_endo_blocks_must_be_square(self):
        with pytest.raises(ValueError, match="blocks must be square, got 2 x 1 and 1 x 1"):
            GradedEndo(Matrix.zeros(2, 1), Matrix.zeros(1, 1))
        with pytest.raises(ValueError, match="got 1 x 1 and 0 x 2"):
            GradedEndo(Matrix.zeros(1, 1), Matrix.zeros(0, 2))

    def test_connection_shapes_enforced(self):
        a = abelian(2)
        b = GradedBundle(2, 1)
        ok = Endo.zeros(2, 1)
        with pytest.raises(ValueError, match="needs 2 frame matrices, got 1"):
            Connection(a, b, [ok])
        with pytest.raises(ValueError, match="frame matrix 2 has blocks 1 x 1 and 1 x 1"):
            Connection(a, b, [ok, Endo.zeros(1, 1)])
        with pytest.raises(ValueError, match="frame matrix 1 has blocks 2 x 2 and 2 x 2"):
            Connection(a, b, [Endo.zeros(2, 2), ok])


class TestSupertrace:
    def test_identity_two_three(self):
        assert supertrace(identity_endo(2, 3)) == Scalar(-1)

    def test_block_formula(self):
        rng = random.Random(14)
        t = GradedEndo(rand_matrix(2, 2, rng), rand_matrix(3, 3, rng))
        diagonal = [t.ee[i, i] for i in range(2)] + [-t.oo[i, i] for i in range(3)]
        assert supertrace(t) == sum(diagonal, ZERO)

    def test_vanishes_on_parity_preserving_commutators(self):
        rng = random.Random(15)
        for _ in range(10):
            s = Endo(rand_matrix(2, 2, rng), rand_matrix(2, 2, rng))
            t = Endo(rand_matrix(2, 2, rng), rand_matrix(2, 2, rng))
            assert supertrace(s.commutator(t)).is_zero()

    def test_vanishes_on_odd_anticommutators(self):
        # the graded commutator of two odd maps s, t, each given by its
        # block odd -> even (eo) and even -> odd (oe), is the anticommutator
        rng = random.Random(16)
        for _ in range(10):
            s_eo, s_oe, t_eo, t_oe = (rand_matrix(2, 2, rng) for _ in range(4))
            ee = s_eo * t_oe + t_eo * s_oe
            oo = s_oe * t_eo + t_oe * s_eo
            assert supertrace(GradedEndo(ee, oo)).is_zero()


class TestMetric:
    # definiteness is decided by check_metric_block, which parsing calls;
    # HermitianMetric takes its blocks as given and checks shapes only

    def test_positive_definite_enforced(self):
        bad = Matrix([[ONE, ZERO], [ZERO, -ONE]], ncols=2)
        with pytest.raises(ValueError, match="not positive-definite"):
            check_metric_block(bad)

    def test_hermitian_enforced(self):
        not_herm = Matrix([[ONE, I], [I, ONE]], ncols=2)
        with pytest.raises(ValueError, match="not Hermitian"):
            check_metric_block(not_herm)

    def test_block_shapes_enforced(self):
        # explicit checks, so they also run under python -O
        b = GradedBundle(2, 1)
        with pytest.raises(ValueError, match="even metric block must be 2 x 2, got 3 x 3"):
            HermitianMetric(b, Matrix.identity(3), Matrix.identity(1))
        with pytest.raises(ValueError, match="odd metric block must be 1 x 1, got 2 x 2"):
            HermitianMetric(b, Matrix.identity(2), Matrix.identity(2))

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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["definite", "singular", "shifted", "lower", "imaginary diagonal"]),
    )
    def test_agrees_with_minors_and_entrywise_test(self, n, seed, real, kind):
        # Hermitian by conj on Scalars, definite by leading_minors_positive:
        # c^* c + 1, a singular c^* c, m + m^* + s (either verdict), and a
        # definite block with one lower or diagonal entry perturbed
        rng = random.Random(seed)
        if kind == "singular" and n:
            c = rand_matrix(rng.randint(0, n - 1), n, rng, real)
            h = c.conj_transpose() * c
        elif kind == "shifted":
            m = rand_matrix(n, n, rng, real)
            h = m + m.conj_transpose() + Matrix.identity(n).scale(rng.randint(-3, 4))
        else:
            h = rand_pd_matrix(n, rng, real)
        if kind in ("lower", "imaginary diagonal") and n:
            i = rng.randrange(n)
            j = i if kind == "imaginary diagonal" else rng.randrange(i + 1)
            x = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
            d = Scalar(0, x) if j == i or rng.random() < 0.5 else Scalar(x)
            rows = [list(row) for row in h.rows]
            rows[i][j] = rows[i][j] + d
            h = Matrix(rows, ncols=n)
        e = h.rows
        hermitian = all(e[i][j] == conj(e[j][i]) for i in range(n) for j in range(n))
        before = (copy.deepcopy(h.re), copy.deepcopy(h.im), h.den)
        try:
            check_metric_block(h)
            got = None
        except ValueError as err:
            got = str(err)
        if not hermitian:
            assert got == "metric block is not Hermitian"
        elif not leading_minors_positive(h):
            assert got == "metric block is not positive-definite"
        else:
            assert got is None
        if hermitian:
            assert positive_definite(h) == leading_minors_positive(h)
        assert (h.re, h.im, h.den) == before


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
        assert h_dual(c, identity_metric(b)) == c

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
                rhs = form_conj(supertrace_curvature_power(c, q))
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
        assert all(boundary_commutator(t, b).is_zero() for t in theta)

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
                th = rand_matrix(b.rank_even, b.rank_odd, rng)
                omega1.append(c0.omega[i] + boundary_commutator(th, b))
            c1 = Connection(a, b, omega1)
            theta = equivalence_witness(c0, c1)
            assert theta is not None
            for i in range(a.r):
                delta = boundary_commutator(theta[i], b)
                assert delta == c1.omega[i] - c0.omega[i]
            # equivalent connections share the closed characteristic forms
            for q in (1, 2, 3):
                assert supertrace_curvature_power(c0, q) == supertrace_curvature_power(c1, q)

    def test_basic_vs_adjoint_witness(self):
        rng = random.Random(24)
        for name, a in small_corpus().items():
            if a.r + a.n > 5:
                continue
            basic = adjoint_setup(a, rand_tm_conn(a, rng))
            b = basic.bundle
            ad = adjoint_connection(a, b)
            theta = equivalence_witness(basic, ad)
            assert theta is not None, name
            for i in range(a.r):
                delta = boundary_commutator(theta[i], b)
                assert delta == Endo.of(ad.omega[i]) - basic.omega[i]


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
