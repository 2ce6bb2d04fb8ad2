import random
from fractions import Fraction
from pathlib import Path

import pytest

from algch.scalars import Scalar
from algch.linalg import Matrix
from algch.algebroid import (
    AlgebroidForm,
    ConstantAlgebroid,
    ce_differential,
    coboundary_witness,
    direct_product,
    validate_algebroid,
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
    DomainError,
    KAPPA,
    secondary_class,
    adjoint_setup,
    intrinsic_char,
    modular_class,
    default_max_q,
)
from algch.pullback import pullback_algebroid
from algch.transgression import cs_cochains
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family, lie_algebra

from helpers import (
    adjoint_connection,
    boundary_commutator,
    chern_character,
    zero_connection,
    direct_sum_connections,
    rand_bundle,
    rand_connection,
    rand_algebroid,
    rand_tm_conn,
    rand_pd_matrix,
    rand_q_family,
    basis_form,
    isl2,
    small_corpus,
    trace_character,
    dense_brackets,
    dense_ad,
    identity_metric,
    tm_theta,
    commutes_with_boundary,
    curvature,
    dense_ce_differential,
    supertrace_curvature_power,
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


def corpus_products():
    """(name, algebroid) for the corpus and its products of rank up to 6."""
    corpus = small_corpus()
    cases = list(corpus.items())
    names = sorted(corpus)
    for i, x in enumerate(names):
        for y in names[i:]:
            if corpus[x].r + corpus[y].r <= 6:
                cases.append((f"{x} x {y}", direct_product(corpus[x], corpus[y])))
    return cases


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
        rng = random.Random(45)
        nonzero = 0
        for name, a in corpus_products():
            tm = rand_tm_conn(a, rng, real=True)
            for real in (True, False):
                g = rand_adjoint_metric(a, rng, real=real)
                rep = intrinsic_char(a, tm, g, max_q=2)[1]
                assert rep.q == 2 and rep.is_zero_class, (name, real)
                nonzero += not rep.representative.is_zero()
        assert nonzero > 0

    def test_one_differential_per_representative(self, monkeypatch, capsys):
        # d of a representative is never computed: closedness is a
        # theorem; the witness solve builds one matrix of d per nonzero
        # representative, d_(k-1) for degree k (here cs^2 is zero)
        computed, built = [], []
        real_d, real_matrix = algebroid.ce_differential, algebroid._diff_matrix

        def counted_d(a, omega):
            computed.append(omega.degree)
            return real_d(a, omega)

        def counted_matrix(a, k):
            built.append(k)
            return real_matrix(a, k)

        monkeypatch.setattr(algebroid, "ce_differential", counted_d)
        monkeypatch.setattr(algebroid, "_diff_matrix", counted_matrix)
        path = Path(__file__).resolve().parent.parent / "inputs" / "q_family.json"
        assert cli.main(["char", "--max-q", "2", str(path)]) == 0
        assert "char^2" in capsys.readouterr().out
        assert computed == []
        assert built == [0]


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
        # fractional brackets (a q_family with entries +-1/2), alone and
        # beside a torus; Gaussian ones (sl2 with every bracket times i)
        # are outside the domain and refused
        half = Fraction(1, 2)
        g = q_family(half, -half, -half, half)
        for a in (g, direct_product(tangent_torus(1), g)):
            # a zero tm_conn leaves the adjoint action alone
            basic = adjoint_setup(a, [Matrix.zeros(a.r, a.r)] * a.n)
            for i in range(a.r):
                assert basic.omega[i].ee == dense_ad(a, i)
                assert basic.omega[i].oo == Matrix.zeros(a.n, a.n)
        for a in (isl2(), direct_product(tangent_torus(1), isl2())):
            with pytest.raises(DomainError, match="real structure constants"):
                adjoint_setup(a, [Matrix.zeros(a.r, a.r)] * a.n)

    def test_gaussian_anchor_refused(self):
        # valid (no brackets), but the anchor d/dx |-> i d/dx is not real
        a = ConstantAlgebroid(1, 1, Matrix([[I]], ncols=1), {})
        assert validate_algebroid(a) == []
        with pytest.raises(DomainError, match="real anchor"):
            adjoint_setup(a, [Matrix.zeros(1, 1)])

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
        # refused by cs_cochains on each route: the Chern-Simons
        # difference at max_q 1 and 2 and the chain at 3
        a = so3()
        g = HermitianMetric(GradedBundle(3, 1), Matrix.identity(3), Matrix.identity(1))
        for max_q in (1, 2, 3):
            with pytest.raises(ValueError, match="different bundles"):
                cs_cochains(adjoint_setup(a, []), g, max_q)
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
        # secondary_class assumes three identities, which are theorems
        # for the basic connection of a real algebroid and are checked
        # here only: str(R^q) vanishes as a form (R = -[d01, K_bas]
        # commutes with d01), and every representative is real and
        # closed.  The corpus and its products of rank up to 6, each
        # with a real and a Gaussian tm_conn and metric; the curvature
        # oracle only where r + n <= 4
        rng = random.Random(53)
        curved = nonzero = 0
        for name, a in corpus_products():
            for real_tm in (True, False):
                for real_g in (True, False):
                    tm = rand_tm_conn(a, rng, real=real_tm)
                    g = rand_adjoint_metric(a, rng, real=real_g)
                    case = (name, real_tm, real_g)
                    if a.r + a.n <= 4:
                        basic = adjoint_setup(a, tm)
                        curved += any(not v.is_zero() for v in curvature(basic).values())
                        for q in (1, 2, 3):
                            assert supertrace_curvature_power(basic, q).is_zero(), case + (q,)
                    for rep in intrinsic_char(a, tm, g):
                        form = rep.representative
                        assert all(v.is_real() for v in form.comps.values()), case + (rep.q,)
                        assert dense_ce_differential(a, form).is_zero(), case + (rep.q,)
                        nonzero += not form.is_zero()
        assert curved > 0 and nonzero > 0

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
