import random
from fractions import Fraction
from pathlib import Path

import pytest

from algch.scalars import Scalar, ONE
from algch.linalg import Matrix
from algch.algebroid import (
    AlgebroidForm,
    ce_differential,
    coboundary_witness,
    direct_product,
)
from algch.connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    HermitianMetric,
)
from algch import algebroid, charclasses, cli
from algch.scalars import I
from algch.charclasses import (
    IdentityFailure,
    PrimaryObstruction,
    KAPPA,
    chern_character,
    secondary_class,
    adjoint_setup,
    intrinsic_char,
    modular_class,
    default_max_q,
)
from algch.pullback import pullback_algebroid
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family, lie_algebra

from helpers import (
    adjoint_connection,
    boundary_commutator,
    zero_connection,
    direct_sum_connections,
    rand_bundle,
    rand_connection,
    rand_algebroid,
    rand_tm_conn,
    rand_pd_matrix,
    rand_q_family,
    basis_form,
    small_corpus,
    fake_cs_cochains,
    trace_character,
    dense_brackets,
    dense_ad,
    identity_metric,
    tm_theta,
    commutes_with_boundary,
    Endo,
)


def identity_adjoint_metric(a):
    bundle = GradedBundle(a.r, a.n, d01=a.anchor)
    return HermitianMetric(bundle, Matrix.identity(a.r), Matrix.identity(a.n))


def rand_adjoint_metric(a, rng, real=True):
    bundle = GradedBundle(a.r, a.n, d01=a.anchor)
    return HermitianMetric(
        bundle, rand_pd_matrix(a.r, rng, real), rand_pd_matrix(a.n, rng, real)
    )


class TestChernCharacter:
    def test_flat_connection(self):
        a = heisenberg()
        c = zero_connection(a, GradedBundle(2, 1))
        entries = chern_character(c, 3)
        assert entries[0] == basis_form(3, (), Scalar(1))  # sdim = 2 - 1
        assert all(e.is_zero() for e in entries[1:])

    def test_entries_closed(self):
        rng = random.Random(41)
        for _ in range(6):
            a = rand_algebroid(rng)
            c = rand_connection(a, rand_bundle(rng), rng)
            for e in chern_character(c, 3):
                assert ce_differential(a, e).is_zero()

    def test_additivity_under_direct_sum(self):
        rng = random.Random(42)
        for _ in range(6):
            a = rand_algebroid(rng)
            c0 = rand_connection(a, rand_bundle(rng), rng)
            c1 = rand_connection(a, rand_bundle(rng), rng)
            s = direct_sum_connections(c0, c1)
            lhs = chern_character(s, 3)
            rhs0 = chern_character(c0, 3)
            rhs1 = chern_character(c1, 3)
            for q in range(4):
                assert lhs[q] == rhs0[q] + rhs1[q]

    def test_exactness_over_lie_algebras(self):
        rng = random.Random(43)
        for a in (heisenberg(), so3(), q_family(1, 2, 3, 4), abelian(3)):
            c = rand_connection(a, rand_bundle(rng), rng)
            for q, e in enumerate(chern_character(c, 3)):
                if q == 0:
                    continue
                assert coboundary_witness(a, e) is not None


class TestSecondaryClass:
    def test_invariant_metric_gives_identically_zero(self):
        # skew-Hermitian frame matrices are fixed by the identity metric
        rng = random.Random(44)
        a = abelian(3)
        b = GradedBundle(2, 2)
        omega = []
        for _ in range(a.r):
            from helpers import rand_matrix

            m_e = rand_matrix(2, 2, rng)
            m_o = rand_matrix(2, 2, rng)
            omega.append(GradedEndo(m_e - m_e.conj_transpose(), m_o - m_o.conj_transpose()))
        c = Connection(a, b, omega)
        h = identity_metric(b)
        for rep in secondary_class(c, h, 2):
            assert rep.representative.is_zero()
            assert rep.is_zero_class

    def test_so3_adjoint_identity_metric(self):
        a = so3()
        bundle = GradedBundle(3, 0)
        c = adjoint_connection(a, bundle)
        h = identity_metric(bundle)
        for rep in secondary_class(c, h, 2):
            assert rep.is_zero_class

    def test_real_even_q_zero_class(self):
        # the generators of the relative cohomology of (gl_n(R), O(n))
        # lie in degrees 1, 5, 9, ... (Kamber and Tondeur), so on real
        # brackets the q = 2 class is ZERO under any Hermitian metric,
        # real or Gaussian, and any real tm_conn; the corpus and its
        # products of rank up to 6
        corpus = small_corpus()
        cases = list(corpus.items())
        names = sorted(corpus)
        for i, x in enumerate(names):
            for y in names[i:]:
                if corpus[x].r + corpus[y].r <= 6:
                    cases.append((f"{x} x {y}", direct_product(corpus[x], corpus[y])))
        rng = random.Random(45)
        nonzero = 0
        for name, a in cases:
            tm = rand_tm_conn(a, rng, real=True)
            for real in (True, False):
                g = rand_adjoint_metric(a, rng, real=real)
                rep = intrinsic_char(a, tm, g, max_q=2)[1]
                assert rep.q == 2 and rep.is_zero_class, (name, real)
                nonzero += not rep.representative.is_zero()
        assert nonzero > 0


    def test_one_differential_per_representative(self, monkeypatch, capsys):
        # the closedness check computes d of each representative; the
        # witness solve does not compute it again
        degrees = []
        real = algebroid.ce_differential

        def counted(a, omega):
            degrees.append(omega.degree)
            return real(a, omega)

        monkeypatch.setattr(algebroid, "ce_differential", counted)
        monkeypatch.setattr(charclasses, "ce_differential", counted)
        path = Path(__file__).resolve().parent.parent / "inputs" / "q_family.json"
        assert cli.main(["char", "--max-q", "2", str(path)]) == 0
        assert "char^2" in capsys.readouterr().out
        assert degrees == [1, 3]


class TestVerdictChecks:
    """Verdict-deciding identities raise IdentityFailure, not assert, so
    they also hold under python -O."""

    def so3_adjoint(self):
        a = so3()
        bundle = GradedBundle(3, 0)
        return adjoint_connection(a, bundle), identity_metric(bundle)

    def test_imaginary_representative(self, monkeypatch):
        # i^2 * i is imaginary
        fake_cs_cochains(monkeypatch, 1, lambda r: AlgebroidForm(r, 1, {(0,): I}))
        c, h = self.so3_adjoint()
        with pytest.raises(IdentityFailure, match="q=1 has an imaginary part") as info:
            secondary_class(c, h, 1)
        assert info.value.identity == "reality"

    def test_open_representative(self, monkeypatch):
        # H^1(so3) = 0, so no nonzero 1-form is closed
        fake_cs_cochains(monkeypatch, 1, lambda r: AlgebroidForm(r, 1, {(0,): ONE}))
        c, h = self.so3_adjoint()
        with pytest.raises(IdentityFailure, match="q=1 is not closed") as info:
            secondary_class(c, h, 1)
        assert info.value.identity == "closedness"

    def test_primary_obstruction(self, monkeypatch):
        # on an abelian algebra every form is closed and none is exact
        fake_cs_cochains(monkeypatch, 0, lambda r: AlgebroidForm(r, 2, {(0, 1): ONE}))
        a = abelian(2)
        bundle = GradedBundle(1, 0)
        c = zero_connection(a, bundle)
        with pytest.raises(PrimaryObstruction, match="q=1"):
            secondary_class(c, identity_metric(bundle), 1)


class TestAdjointSetup:
    def test_tm_conn_count_and_shapes_enforced(self):
        # explicit checks, so they also run under python -O
        a = tangent_torus(2)
        with pytest.raises(ValueError, match="tm_conn needs 2 matrices, got 1"):
            adjoint_setup(a, [Matrix.zeros(2, 2)])
        with pytest.raises(ValueError, match=r"tm_conn\[1\] must be 2 x 2, got 3 x 2"):
            adjoint_setup(a, [Matrix.zeros(2, 2), Matrix.zeros(3, 2)])

    def test_lie_algebra_basic_is_adjoint(self):
        for a in (heisenberg(), so3(), q_family(2, 3, 5, 7)):
            basic = adjoint_setup(a, [])
            assert basic.bundle.d01.is_zero()
            assert basic == adjoint_connection(a, basic.bundle)

    def test_ad_matches_dense_brackets(self):
        # Gaussian brackets (sl2 with every bracket times i) and fractional
        # ones (a q_family with entries +-1/2), alone and beside a torus
        half = Fraction(1, 2)
        isl2 = lie_algebra(3, {(0, 1): {1: 2 * I}, (0, 2): {2: -2 * I}, (1, 2): {0: I}})
        for g in (isl2, q_family(half, -half, -half, half)):
            for a in (g, direct_product(tangent_torus(1), g)):
                # a zero tm_conn leaves the adjoint action alone
                basic = adjoint_setup(a, [Matrix.zeros(a.r, a.r)] * a.n)
                for i in range(a.r):
                    assert basic.omega[i].ee == dense_ad(a, i)
                    assert basic.omega[i].oo == Matrix.zeros(a.n, a.n)

    def test_ad_built_once_per_setup(self, monkeypatch):
        # each frame takes its ad_{e_i} once: even block ad - theta rho,
        # odd block -rho theta
        calls = []
        original = charclasses._ad

        def counted(a, i):
            calls.append(i)
            return original(a, i)

        monkeypatch.setattr(charclasses, "_ad", counted)
        a = direct_product(direct_product(tangent_torus(2), q_family(1, 2, 3, 4)), so3())
        assert a.r == 8
        tm = rand_tm_conn(a, random.Random(0))
        basic = adjoint_setup(a, tm)
        assert sorted(calls) == list(range(a.r))
        rho = a.anchor
        for i, theta in enumerate(tm_theta(a, tm)):
            assert basic.omega[i].ee == dense_ad(a, i) - theta * rho
            assert basic.omega[i].oo == -(rho * theta)

    def test_tangent_torus_flat_recipe(self):
        for n in (1, 2, 3):
            a = tangent_torus(n)
            basic = adjoint_setup(a, [Matrix.zeros(n, n)] * n)
            assert all(om.is_zero() for om in basic.omega)

    def test_q_family_e3_block(self):
        qa, qb, qc, qd = Scalar(1), Scalar(2), Scalar(3), Scalar(4)
        a = q_family(qa, qb, qc, qd)
        ee = adjoint_setup(a, []).omega[2].ee
        # upper-left 2x2 block acts by -Q^T on span(e_1, e_2)
        assert ee[0, 0] == -qa and ee[0, 1] == -qc
        assert ee[1, 0] == -qb and ee[1, 1] == -qd
        assert ee[2, 0].is_zero() and ee[2, 1].is_zero() and ee[2, 2].is_zero()

    def test_equivalence_identity_on_corpus(self):
        rng = random.Random(46)
        for a in small_corpus().values():
            tm = rand_tm_conn(a, rng)
            basic = adjoint_setup(a, tm)
            b = basic.bundle
            ad = adjoint_connection(a, b)
            for i, theta in enumerate(tm_theta(a, tm)):
                delta = Endo.of(ad.omega[i]) - basic.omega[i]
                assert delta == boundary_commutator(theta, b)

    def test_basic_commutes_with_boundary(self):
        # rho (ad_i + T_i rho) = (rho T_i) rho because rho ad_i = 0, the
        # anchor axiom of a valid algebroid
        rng = random.Random(48)
        products = [
            direct_product(tangent_torus(rng.randint(1, 2)), rand_algebroid(rng)) for _ in range(4)
        ] + [pullback_algebroid(a, 1) for a in (heisenberg(), q_family(1, 2, 3, 4))]
        assert all(a.n > 0 for a in products)
        for a in list(small_corpus().values()) + products:
            for real in (True, False):
                basic = adjoint_setup(a, rand_tm_conn(a, rng, real=real))
                assert commutes_with_boundary(basic)


class TestIntrinsic:
    def test_metric_on_another_bundle_refused(self):
        # refused by h_dual, the one place that pairs metric and connection
        a = so3()
        g = HermitianMetric(GradedBundle(3, 1), Matrix.identity(3), Matrix.identity(1))
        with pytest.raises(ValueError, match="different bundles"):
            intrinsic_char(a, [], g, max_q=1)

    def test_q_family_trace_nonzero(self):
        rng = random.Random(47)
        a = rand_q_family(rng)
        while trace_character(a).is_zero():
            a = rand_q_family(rng)
        reports = intrinsic_char(a, [], identity_adjoint_metric(a), max_q=1)
        assert not reports[0].is_zero_class

    def test_q_family_trace_zero(self):
        a = q_family(1, 0, 0, -1)
        for rep in intrinsic_char(a, [], identity_adjoint_metric(a), max_q=2):
            assert rep.is_zero_class

    def test_tangent_torus_vanishes_identically(self):
        for n in (1, 2, 3):
            a = tangent_torus(n)
            tm = [Matrix.zeros(n, n)] * n
            g = identity_adjoint_metric(a)
            for rep in intrinsic_char(a, tm, g):
                assert rep.representative.is_zero()
                assert rep.is_zero_class

    def test_reality_and_closedness(self):
        rng = random.Random(48)
        for a in small_corpus().values():
            if a.r + a.n > 4:
                continue
            tm = rand_tm_conn(a, rng)
            g = rand_adjoint_metric(a, rng, real=False)
            for rep in intrinsic_char(a, tm, g, max_q=2):
                for v in rep.representative.comps.values():
                    assert v.is_real()
                assert ce_differential(a, rep.representative).is_zero()

    def test_metric_independence(self):
        rng = random.Random(49)
        for a in (q_family(1, 2, 3, 4), heisenberg(), direct_product(tangent_torus(1), so3())):
            tm = rand_tm_conn(a, rng)
            g0 = rand_adjoint_metric(a, rng, real=False)
            g1 = rand_adjoint_metric(a, rng, real=False)
            r0 = intrinsic_char(a, tm, g0, max_q=2)
            r1 = intrinsic_char(a, tm, g1, max_q=2)
            for a0, a1 in zip(r0, r1):
                diff = a0.representative - a1.representative
                assert coboundary_witness(a, diff) is not None

    def test_connection_independence(self):
        rng = random.Random(50)
        a = direct_product(tangent_torus(1), q_family(1, 2, 3, 4))
        g = rand_adjoint_metric(a, rng)
        for _ in range(3):
            tm0 = rand_tm_conn(a, rng)
            tm1 = rand_tm_conn(a, rng)
            r0 = intrinsic_char(a, tm0, g, max_q=2)
            r1 = intrinsic_char(a, tm1, g, max_q=2)
            for a0, a1 in zip(r0, r1):
                diff = a0.representative - a1.representative
                assert coboundary_witness(a, diff) is not None

    def test_default_max_q(self):
        assert default_max_q(so3()) == 2
        assert default_max_q(tangent_torus(2)) == 3


class TestModular:
    def test_abelian_zero(self):
        a = abelian(3)
        res = modular_class(a, [], identity_adjoint_metric(a))
        assert res.report.is_zero_class
        assert res.normalized.is_zero()

    def test_heisenberg_zero(self):
        a = heisenberg()
        res = modular_class(a, [], identity_adjoint_metric(a))
        assert res.report.is_zero_class
        assert res.normalized.is_zero()

    def test_q_family_character(self):
        rng = random.Random(51)
        for _ in range(8):
            a = rand_q_family(rng)
            # normalized representative is e_3 |-> Tr(ad_{e_3}) = -(a+d)
            c = dense_brackets(a)
            tr = c[0][2][0] + c[1][2][1]  # = a + d
            res = modular_class(a, [], identity_adjoint_metric(a))
            assert res.normalized == AlgebroidForm(3, 1, {(2,): -tr})

    def test_kappa_universality(self):
        # one global constant relates the q=1 representative to the
        # trace character, for any metric
        rng = random.Random(52)
        algebras = [
            q_family(1, 0, 0, 1),
            q_family(2, 1, -1, 3),
            lie_algebra(2, {(0, 1): {0: 1}}),  # [e_1,e_2] = e_1, solvable
        ]
        for a in algebras:
            tc = trace_character(a)
            assert not tc.is_zero()
            for _ in range(3):
                g = rand_adjoint_metric(a, rng, real=rng.random() < 0.5)
                rep = intrinsic_char(a, [], g, max_q=1)[0].representative
                assert rep == tc.scale(KAPPA)
        assert KAPPA == Scalar(2)
