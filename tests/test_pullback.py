import random

import pytest

from algch.scalars import Scalar, ZERO, ONE
from algch.linalg import Matrix
from algch.algebroid import (
    AlgebroidForm,
    basis_form,
    validate_algebroid,
    coboundary_witness,
    direct_product,
)
from algch.connections import GradedBundle, HermitianMetric, h_dual
from algch.transgression import cs_cochain
from algch.charclasses import adjoint_setup, IdentityFailure
from algch import pullback
from algch.pullback import (
    SubmersionSpec,
    pullback_algebroid,
    pullback_anchor,
    pullback_form,
    submersion_recipe,
    morita_check,
    _check_basic_splitting,
)
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family

from helpers import (
    rand_bundle,
    rand_connection,
    rand_pd_matrix,
    rand_tm_conn,
    rand_algebroid,
    boundary_commutant,
    small_corpus,
    rand_q_family,
    reference_morita_verdicts,
    pullback_connection,
)


class TestPullbackAlgebroid:
    def test_lie_algebra_is_product_with_torus(self):
        for g in (heisenberg(), so3(), q_family(1, 2, 3, 4)):
            pb = pullback_algebroid(g, SubmersionSpec(1))
            assert pb == direct_product(tangent_torus(1), g)

    def test_tangent_torus_pulls_back_to_tangent_torus(self):
        for n in (1, 2):
            for k in (1, 2):
                pb = pullback_algebroid(tangent_torus(n), SubmersionSpec(k))
                assert (pb.n, pb.r) == (n + k, n + k)
                assert all(
                    all(v.is_zero() for v in row)
                    for plane in pb.brackets
                    for row in plane
                )
                # the anchor permutes the coordinate fields
                cols = {pb.anchor.column(i) for i in range(pb.r)}
                ident = {Matrix.identity(n + k).column(i) for i in range(n + k)}
                assert cols == ident

    def test_q_family_rank_five(self):
        a = q_family(1, 2, 3, 4)
        pb = pullback_algebroid(a, SubmersionSpec(2))
        assert (pb.n, pb.r) == (2, 5)
        for i in range(3):
            for j in range(3):
                for m in range(3):
                    assert pb.brackets[2 + i][2 + j][2 + m] == a.brackets[i][j][m]
        assert validate_algebroid(pb) == []

    def test_validity_preserved(self):
        rng = random.Random(61)
        for _ in range(8):
            a = rand_algebroid(rng)
            k = rng.randint(1, 2)
            pb = pullback_algebroid(a, SubmersionSpec(k))
            assert validate_algebroid(pb) == []
        # pullback_algebroid does not check its result either
        for n in (1, 2):
            for a in (
                direct_product(tangent_torus(n), rand_q_family(rng)),
                direct_product(rand_q_family(rng, trace_zero=True), tangent_torus(n)),
            ):
                for k in (1, 2):
                    pb = pullback_algebroid(a, SubmersionSpec(k))
                    assert (pb.n, pb.r) == (n + k, k + n + 3)
                    assert validate_algebroid(pb) == []


class TestPullbackData:
    def test_zero_form(self):
        a = q_family(1, 0, 0, 1)
        assert pullback_form(a, SubmersionSpec(1), AlgebroidForm(3, 2)).is_zero()

    def test_frame_covector(self):
        a = q_family(1, 0, 0, 1)
        pulled = pullback_form(a, SubmersionSpec(1), basis_form(3, (0,)))
        assert pulled == basis_form(4, (1,))

    def test_cs1_naturality(self):
        rng = random.Random(62)
        for _ in range(5):
            a = rand_algebroid(rng)
            s = SubmersionSpec(rng.randint(1, 2))
            b = rand_bundle(rng)
            basis = boundary_commutant(b)
            c0 = rand_connection(a, b, rng, basis)
            c1 = rand_connection(a, b, rng, basis)
            pb = pullback_algebroid(a, s)
            lhs = cs_cochain(
                [
                    pullback_connection(a, s, c0, pb),
                    pullback_connection(a, s, c1, pb),
                ],
                1,
            )
            rhs = pullback_form(a, s, cs_cochain([c0, c1], 1))
            assert lhs == rhs


class TestSubmersionRecipe:
    def test_lie_algebra_block_structure(self):
        for g in (heisenberg(), q_family(1, 2, 3, 4)):
            recipe = submersion_recipe(
                g, SubmersionSpec(1), [], Matrix.identity(3), Matrix.identity(0)
            )
            base = adjoint_setup(g, [])
            # vertical section acts by zero; horizontal lifts act by ad
            assert recipe.setup.basic.omega[0].is_zero()
            for i in range(3):
                om = recipe.setup.basic.omega[1 + i].ee
                for p in range(4):
                    for q in range(4):
                        want = base.basic.omega[i].ee[p - 1, q - 1] if p and q else ZERO
                        assert om[p, q] == want

    def test_tangent_torus_all_zero(self):
        for n in (1, 2):
            a = tangent_torus(n)
            recipe = submersion_recipe(
                a,
                SubmersionSpec(1),
                [Matrix.zeros(n, n)] * n,
                Matrix.identity(n),
                Matrix.identity(n),
            )
            assert all(om.is_zero() for om in recipe.setup.basic.omega)

    def test_vertical_subconnection_is_metric(self):
        rng = random.Random(63)
        a = q_family(1, 2, 3, 4)
        s = SubmersionSpec(2, g_v=rand_pd_matrix(2, rng, real=True))
        recipe = submersion_recipe(
            a, s, [], rand_pd_matrix(3, rng, real=True), Matrix.identity(0)
        )
        dual = h_dual(recipe.setup.basic, recipe.metric)
        for j in range(s.k):  # vertical frame sections
            assert recipe.setup.basic.omega[j].is_zero()
            assert dual.omega[j].is_zero()


    def test_dual_is_metric_dual_of_basic(self):
        rng = random.Random(65)
        a = q_family(1, 2, 3, 4)
        recipe = submersion_recipe(
            a, SubmersionSpec(1), [], rand_pd_matrix(3, rng), Matrix.identity(0)
        )
        assert recipe.dual == h_dual(recipe.setup.basic, recipe.metric)

    def test_base_data(self):
        rng = random.Random(66)
        a = tangent_torus(1)
        tm = rand_tm_conn(a, rng)
        g_a, g_m = rand_pd_matrix(1, rng), rand_pd_matrix(1, rng)
        recipe = submersion_recipe(a, SubmersionSpec(1), tm, g_a, g_m)
        base = adjoint_setup(a, tm)
        assert recipe.base.basic == base.basic
        assert recipe.base_dual == h_dual(base.basic, HermitianMetric(base.bundle, g_a, g_m))


class TestBasicSplittingFailures:
    """The splitting identity raises IdentityFailure, also under -O."""

    def recipe(self):
        rng = random.Random(67)
        s = SubmersionSpec(1)
        g_a = rand_pd_matrix(3, rng, real=True)
        return s, submersion_recipe(q_family(1, 2, 3, 4), s, [], g_a, Matrix.identity(0))

    def test_wrong_base_dual(self):
        s, r = self.recipe()
        with pytest.raises(IdentityFailure, match="basic splitting") as info:
            # the basic connection itself is not its dual for this metric
            _check_basic_splitting(s, r.base, r.base.basic, r.setup, r.dual)
        assert info.value.identity == "basic splitting"

    def test_wrong_base_connection(self):
        s, r = self.recipe()
        other = adjoint_setup(q_family(1, 0, 0, 1), [])
        with pytest.raises(IdentityFailure, match="even block of hor"):
            _check_basic_splitting(s, other, r.base_dual, r.setup, r.dual)

    def test_vertical_section_acting(self):
        a = tangent_torus(1)
        s = SubmersionSpec(1)
        g = Matrix.identity(1)
        r = submersion_recipe(a, s, [Matrix.zeros(1, 1)], g, g)
        # let the vertical coordinate field move v_1: the basic
        # connection of the pullback then acts along v_1
        nabla = list(r.tm_conn)
        nabla[1] = Matrix([[ONE, ZERO], [ZERO, ZERO]])
        bad = adjoint_setup(r.algebroid, nabla)
        with pytest.raises(IdentityFailure, match="vertical section v_1"):
            _check_basic_splitting(s, r.base, r.base_dual, bad, h_dual(bad.basic, r.metric))


class TestMoritaCheck:
    def test_q_family_nonzero_class(self):
        a = q_family(1, 0, 0, 1)  # Tr Q = 2
        report = morita_check(
            a, SubmersionSpec(1), [], Matrix.identity(3), Matrix.identity(0), max_q=1
        )
        assert report.passed
        assert report.per_q[1]["equal"] and not report.per_q[1]["both_zero"]
        # the shared q=1 form is a nonzero class upstairs
        base = adjoint_setup(a, [])
        g = HermitianMetric(base.bundle, Matrix.identity(3), Matrix.identity(0))
        form = pullback_form(
            a,
            SubmersionSpec(1),
            cs_cochain([base.basic, h_dual(base.basic, g)], 1),
        )
        pb = pullback_algebroid(a, SubmersionSpec(1))
        assert coboundary_witness(pb, form) is None

    def test_tangent_torus_both_zero(self):
        a = tangent_torus(2)
        report = morita_check(
            a,
            SubmersionSpec(1),
            [Matrix.zeros(2, 2)] * 2,
            Matrix.identity(2),
            Matrix.identity(2),
            max_q=2,
        )
        assert report.passed
        assert all(v["both_zero"] for v in report.per_q.values())

    def test_so3_invariant_metric_both_zero(self):
        a = so3()
        report = morita_check(
            a, SubmersionSpec(2), [], Matrix.identity(3), Matrix.identity(0), max_q=2
        )
        assert report.passed
        assert all(v["both_zero"] for v in report.per_q.values())

    def test_perturbed_metric_cohomologous(self):
        rng = random.Random(64)
        a = q_family(1, 2, 3, 4)
        s = SubmersionSpec(1)
        pb = pullback_algebroid(a, s)
        bundle = GradedBundle(pb.r, pb.n, d01=pb.anchor)
        alt = HermitianMetric(
            bundle, rand_pd_matrix(pb.r, rng, real=True), rand_pd_matrix(pb.n, rng, real=True)
        )
        report = morita_check(
            a, s, [], Matrix.identity(3), Matrix.identity(0), max_q=2, alt_metric=alt
        )
        assert report.passed
        assert all(report.cohomologous.values())


class TestMoritaAgainstReference:
    """morita_check computes each pair's cochains once and reuses the
    base pair's; the oracle recomputes every cochain per q."""

    def test_corpus_verdicts(self):
        rng = random.Random(68)
        for name, a in small_corpus().items():
            tm = rand_tm_conn(a, rng, real=True)
            g_a = rand_pd_matrix(a.r, rng)
            g_m = rand_pd_matrix(a.n, rng, real=True)
            s = SubmersionSpec(1)
            anchor = pullback_anchor(a, s)
            alt = HermitianMetric(
                GradedBundle(anchor.ncols, anchor.nrows, d01=anchor),
                rand_pd_matrix(anchor.ncols, rng),
                rand_pd_matrix(anchor.nrows, rng, real=True),
            )
            report = morita_check(a, s, tm, g_a, g_m, max_q=2, alt_metric=alt)
            per_q, cohomologous = reference_morita_verdicts(a, s, tm, g_a, g_m, 2, alt)
            assert report.per_q == per_q, name
            assert report.cohomologous == cohomologous, name
            assert report.passed == (
                all(v["equal"] for v in per_q.values()) and all(cohomologous.values())
            )

    def test_setups_and_duals_built_once(self, monkeypatch):
        counts = {"adjoint_setup": 0, "h_dual": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(pullback, "adjoint_setup", counting("adjoint_setup", pullback.adjoint_setup))
        monkeypatch.setattr(pullback, "h_dual", counting("h_dual", pullback.h_dual))
        rng = random.Random(69)
        a = heisenberg()
        s = SubmersionSpec(1)
        anchor = pullback_anchor(a, s)
        alt = HermitianMetric(
            GradedBundle(anchor.ncols, anchor.nrows, d01=anchor),
            rand_pd_matrix(anchor.ncols, rng),
            rand_pd_matrix(anchor.nrows, rng),
        )
        morita_check(a, s, [], Matrix.identity(3), Matrix.identity(0), max_q=3, alt_metric=alt)
        # base and pullback setups; base, pullback and alternative duals
        assert counts == {"adjoint_setup": 2, "h_dual": 3}
