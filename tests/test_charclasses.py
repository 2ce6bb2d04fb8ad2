import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from algch.scalars import Scalar, ZERO, ONE
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
    h_dual,
)
from algch import algebroid, charclasses, cli, linalg
from algch.scalars import I
from algch.charclasses import (
    DomainError,
    KAPPA,
    adjoint_setup,
    basic_cochains,
    intrinsic_char,
    modular_class,
    default_max_q,
)
from algch.pullback import pullback_algebroid
from algch import transgression
from algch.transgression import cs_cochains, intrinsic_cochains
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family, lie_algebra, sl3_r3

from helpers import (
    submersion_recipe,
    adjoint_connection,
    count_calls,
    corpus_products,
    cs_family,
    adjoint_metric,
    rand_rational,
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
    imaginary_trace,
    small_corpus,
    trace_character,
    dense_brackets,
    dense_ad,
    tm_theta,
    commutes_with_boundary,
    curvature,
    dense_ce_differential,
    dense_ce_transpose,
    diff_matrix,
    supertrace_curvature_power,
    sympy_left_kernel,
    secondary_class,
    secondary_cochains,
    sl3_semidirect,
    dual_action,
    sum_action,
    sym2_action,
    Endo,
)


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
        for rep in secondary_class(c, 2):
            assert rep.representative.is_zero()
            assert rep.is_zero_class

    def test_so3_adjoint_identity_metric(self):
        a = so3()
        bundle = GradedBundle(3, 0)
        c = adjoint_connection(a, bundle)
        for rep in secondary_class(c, 2):
            assert rep.is_zero_class

    def test_real_even_q_zero_class(self):
        # the generators of the relative cohomology of (gl_n(R), O(n))
        # lie in degrees 1, 5, 9, ... (Kamber and Tondeur), so on real
        # brackets the q = 2 class is ZERO, and so is the pair route's
        # for any tm_conn, real or Gaussian, under any Hermitian metric;
        # the corpus and its products of rank up to 6
        rng = random.Random(45)
        nonzero = 0
        for name, a in corpus_products():
            rep = intrinsic_char(a, max_q=2)[1]
            assert rep.q == 2 and rep.is_zero_class, name
            for real in (True, False):
                tm = rand_tm_conn(a, rng, real=real)
                g = rand_adjoint_metric(a, rng, real=real)
                pair = cs_cochains(adjoint_setup(a, tm), g, 2)[2].scale(I**3)
                assert coboundary_witness(a, pair) is not None, (name, real)
                nonzero += not pair.is_zero()
        assert nonzero > 0

    def test_one_differential_per_representative(self, monkeypatch, capsys):
        # d of a representative is never computed: closedness is a
        # theorem; the witness takes one elimination per nonzero
        # representative, on the columns of d_(k-1) for degree k (here
        # cs^2 is zero, and the one column of d_0 serves char^1)
        computed, solved = [], []
        real_d, real_solve = algebroid.ce_differential, algebroid._solve

        def counted_d(a, omega):
            computed.append(omega.degree)
            return real_d(a, omega)

        def counted_solve(columns, *args):
            solved.append(len(columns))
            return real_solve(columns, *args)

        monkeypatch.setattr(algebroid, "ce_differential", counted_d)
        monkeypatch.setattr(algebroid, "_solve", counted_solve)
        path = Path(__file__).resolve().parent.parent / "inputs" / "q_family.json"
        assert cli.main(["char", "--max-q", "2", str(path)]) == 0
        assert "char^2" in capsys.readouterr().out
        assert computed == []
        assert solved == [1]


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
        # and so are they by intrinsic_cochains, which reads only the real
        # parts (imaginary_trace has tr ad e_1 = i)
        for a in (isl2(), direct_product(tangent_torus(1), isl2()), imaginary_trace()):
            with pytest.raises(DomainError, match="real structure constants"):
                adjoint_setup(a, [Matrix.zeros(a.r, a.r)] * a.n)
            with pytest.raises(DomainError, match="real structure constants"):
                intrinsic_cochains(a, 1)

    def test_gaussian_anchor_refused(self):
        # valid (no brackets), but the anchor d/dx |-> i d/dx is not real
        a = ConstantAlgebroid(1, 1, Matrix([[I]], ncols=1), {})
        assert validate_algebroid(a) == []
        with pytest.raises(DomainError, match="real anchor"):
            adjoint_setup(a, [Matrix.zeros(1, 1)])
        with pytest.raises(DomainError, match="real anchor"):
            intrinsic_char(a)

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

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 2), st.booleans())
    def test_frames_match_matrix_arithmetic(self, seed, n, k, real_tm):
        # every frame against dense_ad - theta rho and -rho theta in Matrix
        # arithmetic: a Lie algebra or torus beside an abelian factor with
        # a random rational anchor on n coordinates, tm_conn matrices with
        # their own denominators, and the basic connection of the pullback
        # by k fibre coordinates that submersion_recipe builds
        rng = random.Random(seed)
        a = rand_algebroid(rng)
        if n:
            m = rng.randint(1, 3)
            anchor = Matrix([[rand_rational(rng) for _ in range(m)] for _ in range(n)], ncols=m)
            a = direct_product(ConstantAlgebroid(n, m, anchor, {}), a)
        tm = [g.scale(Fraction(1, rng.randint(1, 7))) for g in rand_tm_conn(a, rng, real=real_tm)]
        cases = [(a, tm, adjoint_setup(a, tm))]
        if k:
            g = adjoint_metric(a, rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))
            recipe = submersion_recipe(a, k, tm, g)
            cases.append((recipe.algebroid, recipe.tm_conn, recipe.basic))
        for b, tm_b, basic in cases:
            rho = b.anchor
            for i, theta in enumerate(tm_theta(b, tm_b)):
                assert basic.omega[i].ee == dense_ad(b, i) - theta * rho
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
        # on the nose, odd block shape included, also where frames with
        # T_i = 0 take no product (zero_column_cases)
        rng = random.Random(46)
        cases = [(name, a, rand_tm_conn(a, rng)) for name, a in small_corpus().items()]
        zero_t = nonzero_t = 0
        for label, a, tm in cases + zero_column_cases():
            basic = adjoint_setup(a, tm)
            b = basic.bundle
            ad = adjoint_connection(a, b)
            for i, theta in enumerate(tm_theta(a, tm)):
                delta = Endo.of(ad.omega[i]) - basic.omega[i]
                assert delta == boundary_commutator(theta, b), (label, i)
                zero_t += theta.is_zero()
                nonzero_t += not theta.is_zero()
        assert zero_t and nonzero_t

    def test_products_only_for_nonzero_t(self, monkeypatch):
        # so3 over a point pulled back to k = 2: no frame has a T_i; on a
        # tt2 pullback only the horizontal frames with a nonzero tm_conn
        # column take their two products
        rng = random.Random(38)
        calls = count_calls(monkeypatch, linalg._cmatmul)
        recipe = submersion_recipe(so3(), 2, [], adjoint_metric(so3(), Matrix.identity(3), Matrix.zeros(0, 0)))
        calls.clear()
        adjoint_setup(recipe.algebroid, recipe.tm_conn)
        assert calls == []
        a = tangent_torus(2)
        tm = rand_tm_conn(a, rng, real=False)
        tm[1] = zero_columns(tm[1], {0})
        tm[0] = zero_columns(tm[0], {0})
        for k in (1, 2):
            pb = pullback_algebroid(a, k)
            nabla_bar = [Matrix.zeros(pb.r, pb.r)] * k + [Matrix.block_diag(Matrix.zeros(k, k), g) for g in tm]
            calls.clear()
            adjoint_setup(pb, nabla_bar)
            assert len(calls) == 2, k  # hor(e_2) only: column 0 is zero, v_1..v_k act by zero

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


def zero_columns(g: Matrix, cols) -> Matrix:
    """g with the columns in cols set to zero."""
    return Matrix([[ZERO if j in cols else g[i, j] for j in range(g.ncols)] for i in range(g.nrows)], ncols=g.ncols)


def zero_column_cases():
    """(label, algebroid, tm_conn): the corpus' algebroids with a base and
    the k = 1 and k = 2 pullbacks of every corpus algebroid, the latter
    under the recipe's nabla-bar, each under a zero tm_conn, the CLI's
    default for an absent one, and a random one (real or Gaussian) with
    half of its columns, at random, zeroed in every matrix."""
    rng = random.Random(38)
    cases = []
    for name, a in small_corpus().items():
        dead = set(rng.sample(range(a.r), a.r // 2))
        tms = {
            "zero": [Matrix.zeros(a.r, a.r)] * a.n,
            "absent": cli._tm_conn({}, a),
            "partly zero": [zero_columns(g, dead) for g in rand_tm_conn(a, rng, real=rng.random() < 0.5)],
        }
        g = adjoint_metric(a, Matrix.identity(a.r), Matrix.identity(a.n))
        for kind, tm in tms.items():
            if a.n:
                cases.append((f"{name}, {kind}", a, tm))
            for k in (1, 2):
                recipe = submersion_recipe(a, k, tm, g)
                cases.append((f"{name} at k={k}, {kind}", recipe.algebroid, recipe.tm_conn))
    return cases


def pair_oracle(a, c, h, reports):
    """The pair route under the metric h, i^(q+1) cs_cochains(c, h, q),
    against each metric-free report of secondary_class: the same verdict,
    and a difference that has a witness."""
    for rep in reports:
        q = rep.q
        pair = cs_cochains(c, h, q)[q].scale(I ** (q + 1))
        assert (coboundary_witness(a, pair) is not None) == rep.is_zero_class, q
        diff = pair - rep.representative
        w = coboundary_witness(a, diff)
        assert w is not None, q
        assert ce_differential(a, w) == diff, q


ORACLE_CASES = corpus_products()


class TestIntrinsic:
    def test_q_family_trace_nonzero(self):
        rng = random.Random(47)
        a = rand_q_family(rng)
        while trace_character(a).is_zero():
            a = rand_q_family(rng)
        reports = intrinsic_char(a, max_q=1)
        assert not reports[0].is_zero_class

    def test_q_family_trace_zero(self):
        a = q_family(1, 0, 0, -1)
        for rep in intrinsic_char(a, max_q=2):
            assert rep.is_zero_class

    def test_sl3_r3_third_class_nonzero(self):
        # sl3 semidirect R^3 is unimodular, so char^1 is ZERO; char^3 is
        # closed but not exact in its constant complex, where b_3 = 2;
        # every other class up to the default max_q 6 is ZERO
        a = sl3_r3()
        reports = intrinsic_char(a)
        assert [rep.is_zero_class for rep in reports] == [True, True, False, True, True, True]
        assert ce_differential(a, reports[2].representative).is_zero()

    def test_sl3_r3_third_class_certificate(self):
        # NONZERO with a certificate: by the Fredholm alternative omega is
        # not exact exactly when some y has y . d_4 = 0 and y . omega != 0.
        # y is the sparsest such vector of sympy's basis of the left kernel
        # of the matrix of d_4; it is checked by dense_ce_differential's
        # formula alone, so where it came from does not matter
        a = sl3_r3()
        rep = intrinsic_char(a, max_q=3)[2]
        omega = rep.representative
        assert not rep.is_zero_class and rep.witness is None

        def pairing(y, form):
            return sum((w * form.get(idx) for idx, w in y.items()), ZERO)

        cod = list(combinations(range(a.r), 5))
        kernel = [{i: w for i, w in zip(cod, v) if not w.is_zero()} for v in sympy_left_kernel(diff_matrix(a, 4))]
        y = min((y for y in kernel if not pairing(y, omega).is_zero()), key=len)
        # y . d e^I = 0 for every basis 4-form e^I, all 330 in one
        # transposed loop rather than 330 full dense_ce_differential passes
        assert dense_ce_transpose(a, y, 4) == {}
        # the check has teeth: one coefficient of y changed leaves no
        # cocycle, and on the 4-forms where that shows, the transposed
        # loop agrees with dense_ce_differential itself
        bad = dict(y)
        bad[min(y)] += ONE
        shows = dense_ce_transpose(a, bad, 4)
        assert shows
        for idx in sorted(shows)[:3]:
            d = dense_ce_differential(a, basis_form(a.r, idx))
            assert pairing(y, d).is_zero()
            assert pairing(bad, d) == shows[idx]

    def test_tt1_x_sl3_r3_with_tm_conn(self):
        # the class does not depend on tm_conn: char^3 stays NONZERO,
        # from the algebroid alone and from the basic connection of a
        # real tm_conn
        a = direct_product(tangent_torus(1), sl3_r3())
        tm = rand_tm_conn(a, random.Random(0), real=True)
        for reports in (intrinsic_char(a, max_q=3), secondary_class(adjoint_setup(a, tm), 3)):
            assert [rep.is_zero_class for rep in reports] == [True, True, False]

    def test_tangent_torus_vanishes_identically(self):
        for n in (1, 2, 3):
            a = tangent_torus(n)
            for rep in intrinsic_char(a):
                assert rep.representative.is_zero()
                assert rep.is_zero_class

    def test_reality_and_closedness(self):
        # the oracle secondary_class assumes three identities, which are
        # theorems for the basic connection of a real algebroid and are
        # checked here only: str(R^q) vanishes as a form
        # (R = -[d01, K_bas] commutes with d01), and every representative
        # is real and closed, here those of intrinsic_char.  The corpus
        # and its products of rank up to 6, each with a real and a
        # Gaussian tm_conn; the curvature oracle only where r + n <= 4
        rng = random.Random(53)
        curved = nonzero = 0
        for name, a in corpus_products():
            for real_tm in (True, False):
                tm = rand_tm_conn(a, rng, real=real_tm)
                case = (name, real_tm)
                if a.r + a.n <= 4:
                    basic = adjoint_setup(a, tm)
                    curved += any(not v.is_zero() for v in curvature(basic).values())
                    for q in (1, 2, 3):
                        assert supertrace_curvature_power(basic, q).is_zero(), case + (q,)
            for rep in intrinsic_char(a):
                form = rep.representative
                assert all(v.im == 0 for v in form.comps.values()), (name, rep.q)
                assert dense_ce_differential(a, form).is_zero(), (name, rep.q)
                nonzero += not form.is_zero()
        assert curved > 0 and nonzero > 0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ORACLE_CASES), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_pair_route_oracle(self, case, seed, real_g, real_tm):
        # the pair route, cs^q(c, c^h), under a real or Gaussian metric
        # is the independent oracle of the metric-free classes at
        # max_q 3, over the corpus and its products of rank up to 6,
        # for the basic connection of a random tm_conn and for the
        # classes from the algebroid alone
        _, a = case
        rng = random.Random(seed)
        c = adjoint_setup(a, rand_tm_conn(a, rng, real=real_tm))
        h = rand_adjoint_metric(a, rng, real=real_g)
        pair_oracle(a, c, h, secondary_class(c, 3))
        pair_oracle(a, c, h, intrinsic_char(a, max_q=3))

    @pytest.mark.parametrize("real_g", [True, False], ids=["real metric", "gaussian metric"])
    def test_pair_route_oracle_sl3_r3(self, real_g):
        # the first NONZERO class above q = 1: a wrong sign or a dropped
        # conjugate in the fold leaves CS(c) or 2 CS(c), not exact, from
        # the oracle at q = 3
        a = sl3_r3()
        c = adjoint_setup(a, [])
        reports = intrinsic_char(a, max_q=3)
        pair_oracle(a, c, rand_adjoint_metric(a, random.Random(7), real=real_g), reports)
        assert [rep.is_zero_class for rep in reports] == [True, True, False]

    def test_metric_independence(self):
        # the pair route under two Gaussian metrics against the
        # metric-free class, up to max_q 3
        rng = random.Random(49)
        for a in (q_family(1, 2, 3, 4), heisenberg(), direct_product(tangent_torus(1), so3())):
            c = adjoint_setup(a, rand_tm_conn(a, rng))
            for _ in range(2):
                h = rand_adjoint_metric(a, rng, real=False)
                for reports in (secondary_class(c, 3), intrinsic_char(a, max_q=3)):
                    pair_oracle(a, c, h, reports)

    def test_connection_independence(self):
        # the basic connections of two tm_conn draws, real or Gaussian,
        # give cohomologous metric-free representatives at every q up to
        # 3, and so does the algebroid alone
        rng = random.Random(50)
        a = direct_product(tangent_torus(1), q_family(1, 2, 3, 4))
        alone = intrinsic_char(a, max_q=3)
        for real in (True, False):
            tm0 = rand_tm_conn(a, rng, real=real)
            tm1 = rand_tm_conn(a, rng, real=not real)
            r0 = secondary_class(adjoint_setup(a, tm0), 3)
            r1 = secondary_class(adjoint_setup(a, tm1), 3)
            for a0, a1, a2 in zip(r0, r1, alone):
                assert a0.is_zero_class == a1.is_zero_class == a2.is_zero_class
                for diff in (a0.representative - a1.representative, a0.representative - a2.representative):
                    assert coboundary_witness(a, diff) is not None

    def test_default_max_q(self):
        assert default_max_q(so3()) == 2
        assert default_max_q(tangent_torus(2)) == 3


class TestFlatRoute:
    def test_matches_basic_connection_oracle(self):
        """intrinsic_cochains(a, max_q), from the algebroid alone, equals
        on the nose the oracle secondary_cochains(c, max_q) on the basic
        connection c of a real or Gaussian tm_conn.

        With the anchor rho as the odd boundary, c_i = (ad_i, 0) -
        [rho, theta_i], a graded commutator.  Both terms commute with
        rho (rho ad_i = 0, and [rho, [rho, theta]] = 0), so every product
        in CS(c) that holds a theta is a graded commutator with rho, and
        its supertrace is 0: CS(c) = CS(ad (+) 0) for every tm_conn.
        ad (+) 0 is flat by Jacobi, which gives intrinsic_cochains its
        closed form.

        The corpus and its products of rank up to 6 at max_q 1 through
        the default; tt1 x sl3_r3 up to 3, its first class above q = 1
        (the oracle takes 40 s and more at its default 7).  From 3 on
        the oracle's chain at the top max_q gives every smaller one
        (test_same_cochain_for_every_max_q)."""
        rng = random.Random(55)
        cases = [(name, a, default_max_q(a)) for name, a in ORACLE_CASES]
        cases.append(("tt1 x sl3_r3", direct_product(tangent_torus(1), sl3_r3()), 3))
        nonzero = 0
        for name, a, top in cases:
            for real in (True, False):
                c = adjoint_setup(a, rand_tm_conn(a, rng, real=real))
                oracle = {1: secondary_cochains(c, 1), 2: secondary_cochains(c, 2)}
                if top >= 3:
                    chain = secondary_cochains(c, top)
                    oracle.update((m, chain[:m + 1]) for m in range(3, top + 1))
                for m in range(1, top + 1):
                    got = intrinsic_cochains(a, m)
                    assert got == oracle[m], (name, real, m)
                nonzero += sum(not f.is_zero() for f in got)
        assert nonzero > 0

    def test_theta_terms_mutations(self):
        # the classes cannot see theta: dropping both theta terms of the
        # basic connection (the adjoint connection (ad_i, 0)) leaves every
        # form of the oracle unchanged, while dropping only one of them,
        # -theta_i rho or -rho theta_i, changes q = 1 by tr(rho theta_i)
        rng = random.Random(56)
        for a in (direct_product(tangent_torus(1), so3()), direct_product(tangent_torus(2), q_family(1, 2, 3, 4))):
            tm = rand_tm_conn(a, rng)
            basic = adjoint_setup(a, tm)
            want = intrinsic_cochains(a, default_max_q(a))
            assert secondary_cochains(adjoint_connection(a, basic.bundle), default_max_q(a)) == want
            rho, zero = a.anchor, Matrix.zeros(a.n, a.n)
            thetas = tm_theta(a, tm)
            for one in (
                [GradedEndo(dense_ad(a, i) - theta * rho, zero) for i, theta in enumerate(thetas)],
                [GradedEndo(dense_ad(a, i), -(rho * theta)) for i, theta in enumerate(thetas)],
            ):
                assert secondary_cochains(Connection(a, basic.bundle, one), 1)[1] != want[1]

    def test_dropped_structure_constant_caught(self, monkeypatch):
        # one c_ij^k dropped from ad_i changes the forms: at max_q 1 each
        # c_ij^j of a q-family, dropped from the integer table, whose sums
        # tr ad_i = sum_j c_ij^j the q = 1 form reads, and at max_q 3
        # every ninth c_ij^k of sl3_r3 with e_i in sl3, dropped from _ad,
        # which the chain reads (an ad_(v_l) entry can leave char^3's
        # form alone)
        a = q_family(1, 2, 3, 4)
        want = intrinsic_cochains(a, 1)
        entries = [(i, j) for i, row in enumerate(a.ints) for j, cell in enumerate(row) if j in (k for k, _, _ in cell)]
        assert entries
        for i0, j0 in entries:
            ints = [list(row) for row in a.ints]
            ints[i0][j0] = tuple(t for t in ints[i0][j0] if t[0] != j0)
            b = algebroid._algebroid(a.n, a.r, a.anchor, a.den, tuple(map(tuple, ints)))
            assert intrinsic_cochains(b, 1) != want, (i0, j0)
        original = transgression._ad
        a = sl3_r3()
        want = intrinsic_cochains(a, 3)
        entries = [(i, j, k) for i in range(8) for j in range(a.r) for k, _, _ in a.ints[i][j]]
        assert entries
        for i0, j0, k0 in entries[::9]:

            def dropped(b, i, i0=i0, j0=j0, k0=k0):
                m = original(b, i)
                if i != i0:
                    return m
                rows = [[ZERO if (k, j) == (k0, j0) else m[k, j] for j in range(b.r)] for k in range(b.r)]
                return Matrix(rows, ncols=b.r)

            monkeypatch.setattr(transgression, "_ad", dropped)
            assert intrinsic_cochains(a, 3) != want, (i0, j0, k0)
            monkeypatch.setattr(transgression, "_ad", original)


class TestBasicCochains:
    def test_equals_cs_cochains_on_the_nose(self, monkeypatch):
        """basic_cochains(a, tm_conn, h, max_q), the route of cs, equals
        cs_cochains(c, h, max_q) for c = adjoint_setup(a, tm_conn), and
        the chain on (c, h_dual(c, h)), cs_family, on the nose at max_q 1
        and 2, on the corpus and its products of rank up to 6, under
        every mix of a real and a Gaussian tm_conn, g_A and g_M.

        A real pair builds no basic connection: its cochains are
        intrinsic_cochains(a, max_q), with tr ad_i read off the bracket
        table, and its T is 0.  Any other pair builds one.  The Gaussian
        g_M of a real tm_conn and g_A gives a nonzero cs^2, wholly from
        T's odd parity, on some of the cases, so a Gaussian g_M taken as
        real is seen."""
        rng = random.Random(35)
        corpus = list(small_corpus().values())
        cases = corpus + [direct_product(x, y) for x, y in combinations_with_replacement(corpus, 2) if x.r + y.r <= 6]
        calls = count_calls(monkeypatch, charclasses.adjoint_setup)
        real_pairs = odd_t = 0
        for a in cases:
            for tm_real, ga_real, gm_real in product((True, False), repeat=3):
                tm = rand_tm_conn(a, rng, real=tm_real)
                h = adjoint_metric(a, rand_pd_matrix(a.r, rng, ga_real), rand_pd_matrix(a.n, rng, gm_real))
                real = all(m.im is None for m in (*tm, h.h_even, h.h_odd))
                c = adjoint_setup(a, tm)
                chain = cs_family([c, h_dual(c, h)], 2)
                for max_q in (1, 2):
                    calls.clear()
                    got = basic_cochains(a, tm, h, max_q)
                    assert len(calls) == (not real), (a, tm_real, ga_real, gm_real, max_q)
                    assert got == cs_cochains(c, h, max_q) == chain[:max_q + 1], (a, tm_real, ga_real, gm_real, max_q)
                real_pairs += real
                odd_t += tm_real and ga_real and h.h_odd.im is not None and not got[2].is_zero()
        assert real_pairs and odd_t, (real_pairs, odd_t)


class TestAnomalyFamily:
    @pytest.mark.parametrize(
        "action, anomaly",
        [(dual_action, -1), (sum_action, 0), (sym2_action, 7)],
        ids=["R3*", "R3 + R3*", "Sym2 R3"],
    )
    def test_cubic_anomaly_predicts_char3(self, action, anomaly):
        # tr_V(X^3) = A(V) tr_R3(X^3) on sl3 (Okubo, Phys. Rev. D 16,
        # 1977), and the adjoint representation has A = 0, so the
        # degree-5 form of sl3 semidirect V restricted to sl3 is A(V)
        # times that of sl3_r3 (V = R^3, A = 1) on the nose, and char^3
        # is NONZERO exactly when A(V) != 0
        assert sl3_semidirect(lambda x: x) == sl3_r3()

        def on_sl3(b):
            form = intrinsic_cochains(b, 3)[3]
            return AlgebroidForm(8, 5, {k: v for k, v in form.comps.items() if k[-1] < 8})

        reference = on_sl3(sl3_r3())
        assert not reference.is_zero()
        a = sl3_semidirect(action)
        assert on_sl3(a) == reference.scale(anomaly)
        assert intrinsic_char(a, max_q=3)[2].is_zero_class == (anomaly == 0)


class TestModular:
    def test_abelian_zero(self):
        a = abelian(3)
        res = modular_class(a)
        assert res.report.is_zero_class
        assert res.normalized.is_zero()

    def test_heisenberg_zero(self):
        a = heisenberg()
        res = modular_class(a)
        assert res.report.is_zero_class
        assert res.normalized.is_zero()

    def test_q_family_character(self):
        rng = random.Random(51)
        for _ in range(8):
            a = rand_q_family(rng)
            # normalized representative is e_3 |-> Tr(ad_{e_3}) = -(a+d)
            c = dense_brackets(a)
            tr = c[0][2][0] + c[1][2][1]  # = a + d
            res = modular_class(a)
            assert res.normalized == AlgebroidForm(3, 1, {(2,): -tr})

    def test_kappa_universality(self):
        # one global constant relates the q=1 representative to the
        # trace character; the pair route gives it on the nose under
        # any metric
        rng = random.Random(52)
        algebras = [
            q_family(1, 0, 0, 1),
            q_family(2, 1, -1, 3),
            lie_algebra(2, {(0, 1): {0: 1}}),  # [e_1,e_2] = e_1, solvable
        ]
        for a in algebras:
            tc = trace_character(a)
            assert not tc.is_zero()
            rep = intrinsic_char(a, max_q=1)[0].representative
            assert rep == tc.scale(KAPPA)
            for _ in range(3):
                g = rand_adjoint_metric(a, rng, real=rng.random() < 0.5)
                assert -cs_cochains(adjoint_setup(a, []), g, 1)[1] == rep
        assert KAPPA == Scalar(2)
