import random

import pytest

from algch.scalars import ZERO, ONE
from algch.linalg import Matrix
from algch.algebroid import (
    AlgebroidForm,
    validate_algebroid,
    coboundary_witness,
    direct_product,
)
from algch.connections import Connection, GradedBundle, GradedEndo, HermitianMetric, h_dual
from algch.transgression import cs_cochains
from algch.charclasses import adjoint_setup, IdentityFailure
from algch import connections, pullback
from algch.pullback import (
    pullback_algebroid,
    pullback_anchor,
    pullback_form,
    submersion_recipe,
    morita_check,
    MoritaReport,
    _check_basic_splitting,
)
from algch.library import tangent_torus, heisenberg, so3, q_family

from helpers import (
    basis_form,
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
    adjoint_metric,
    column,
    reference_h_dual,
    ring_matrix,
)


class TestPullbackAlgebroid:
    def test_lie_algebra_is_product_with_torus(self):
        for g in (heisenberg(), so3(), q_family(1, 2, 3, 4)):
            pb = pullback_algebroid(g, 1)
            assert pb == direct_product(tangent_torus(1), g)

    def test_tangent_torus_pulls_back_to_tangent_torus(self):
        for n in (1, 2):
            for k in (1, 2):
                pb = pullback_algebroid(tangent_torus(n), k)
                assert (pb.n, pb.r) == (n + k, n + k)
                assert all(not cell for row in pb.ints for cell in row)
                # the anchor permutes the coordinate fields
                cols = {column(pb.anchor, i) for i in range(pb.r)}
                ident = {column(Matrix.identity(n + k), i) for i in range(n + k)}
                assert cols == ident

    def test_q_family_rank_five(self):
        a = q_family(1, 2, 3, 4)
        pb = pullback_algebroid(a, 2)
        assert (pb.n, pb.r) == (2, 5)
        assert pb.den == a.den
        for i in range(3):
            for j in range(3):
                assert pb.ints[2 + i][2 + j] == tuple((2 + m, x, y) for m, x, y in a.ints[i][j])
        assert all(not cell for row in pb.ints[:2] for cell in row)
        assert all(not cell for row in pb.ints for cell in row[:2])
        assert validate_algebroid(pb) == []

    def test_validity_preserved(self):
        rng = random.Random(61)
        for _ in range(8):
            a = rand_algebroid(rng)
            k = rng.randint(1, 2)
            pb = pullback_algebroid(a, k)
            assert validate_algebroid(pb) == []
        # pullback_algebroid does not check its result either
        for n in (1, 2):
            for a in (
                direct_product(tangent_torus(n), rand_q_family(rng)),
                direct_product(rand_q_family(rng, trace_zero=True), tangent_torus(n)),
            ):
                for k in (1, 2):
                    pb = pullback_algebroid(a, k)
                    assert (pb.n, pb.r) == (n + k, k + n + 3)
                    assert validate_algebroid(pb) == []


class TestPullbackData:
    def test_zero_form(self):
        a = q_family(1, 0, 0, 1)
        assert pullback_form(a, 1, AlgebroidForm(3, 2)).is_zero()

    def test_frame_covector(self):
        a = q_family(1, 0, 0, 1)
        pulled = pullback_form(a, 1, basis_form(3, (0,)))
        assert pulled == basis_form(4, (1,))

    def test_form_rank_enforced(self):
        # an explicit check, so it also runs under python -O
        a = q_family(1, 0, 0, 1)
        with pytest.raises(ValueError, match="the form lives on rank 2, not on the base rank 3"):
            pullback_form(a, 1, basis_form(2, (0,)))

    def test_cs1_naturality(self):
        rng = random.Random(62)
        for _ in range(5):
            a = rand_algebroid(rng)
            k = rng.randint(1, 2)
            b = rand_bundle(rng)
            basis = boundary_commutant(b)
            c0 = rand_connection(a, b, rng, basis)
            c1 = rand_connection(a, b, rng, basis)
            pb = pullback_algebroid(a, k)
            lhs = cs_cochains(
                [
                    pullback_connection(a, k, c0, pb),
                    pullback_connection(a, k, c1, pb),
                ],
                1,
            )[1]
            rhs = pullback_form(a, k, cs_cochains([c0, c1], 1)[1])
            assert lhs == rhs


class TestSubmersionRecipe:
    def test_g_v_shape_enforced(self):
        # an explicit check, so it also runs under python -O
        a = q_family(1, 2, 3, 4)
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        with pytest.raises(ValueError, match="g_v must be 2 x 2, got 1 x 1"):
            submersion_recipe(a, 2, [], g, Matrix.identity(1))

    def test_lie_algebra_block_structure(self):
        for g in (heisenberg(), q_family(1, 2, 3, 4)):
            recipe = submersion_recipe(
                g,
                1,
                [],
                adjoint_metric(g, Matrix.identity(3), Matrix.identity(0)),
                Matrix.identity(1),
            )
            base = adjoint_setup(g, [])
            # vertical section acts by zero; horizontal lifts act by ad
            assert recipe.basic.omega[0].is_zero()
            for i in range(3):
                om = recipe.basic.omega[1 + i].ee
                for p in range(4):
                    for q in range(4):
                        want = base.omega[i].ee[p - 1, q - 1] if p and q else ZERO
                        assert om[p, q] == want

    def test_tangent_torus_all_zero(self):
        for n in (1, 2):
            a = tangent_torus(n)
            recipe = submersion_recipe(
                a,
                1,
                [Matrix.zeros(n, n)] * n,
                adjoint_metric(a, Matrix.identity(n), Matrix.identity(n)),
                Matrix.identity(1),
            )
            assert all(om.is_zero() for om in recipe.basic.omega)

    def test_vertical_subconnection_is_metric(self):
        rng = random.Random(63)
        a = q_family(1, 2, 3, 4)
        g_v = rand_pd_matrix(2, rng, real=True)
        g = adjoint_metric(a, rand_pd_matrix(3, rng, real=True), Matrix.identity(0))
        recipe = submersion_recipe(a, 2, [], g, g_v)
        dual = h_dual(recipe.basic, recipe.metric)
        for j in range(2):  # vertical frame sections
            assert recipe.basic.omega[j].is_zero()
            assert dual.omega[j].is_zero()


    def test_dual_is_metric_dual_of_basic(self):
        rng = random.Random(65)
        a = q_family(1, 2, 3, 4)
        g = adjoint_metric(a, rand_pd_matrix(3, rng), Matrix.identity(0))
        recipe = submersion_recipe(a, 1, [], g, Matrix.identity(1))
        assert recipe.dual == h_dual(recipe.basic, recipe.metric)

    def test_tm_conn_iterator_same_as_list(self):
        rng = random.Random(67)
        a = tangent_torus(2)
        tm = rand_tm_conn(a, rng)
        g = adjoint_metric(a, rand_pd_matrix(2, rng), rand_pd_matrix(2, rng))
        g_v = rand_pd_matrix(1, rng)
        want = submersion_recipe(a, 1, tm, g, g_v)
        got = submersion_recipe(a, 1, iter(tm), g, g_v)
        for field in ("algebroid", "tm_conn", "basic", "dual", "base", "base_dual"):
            assert getattr(got, field) == getattr(want, field)
        for block in ("bundle", "h_even", "h_odd"):
            assert getattr(got.metric, block) == getattr(want.metric, block)

    def test_base_data(self):
        rng = random.Random(66)
        a = tangent_torus(1)
        tm = rand_tm_conn(a, rng)
        g_a, g_m = rand_pd_matrix(1, rng), rand_pd_matrix(1, rng)
        recipe = submersion_recipe(a, 1, tm, adjoint_metric(a, g_a, g_m), Matrix.identity(1))
        base = adjoint_setup(a, tm)
        assert recipe.base == base
        assert recipe.base_dual == h_dual(base, HermitianMetric(base.bundle, g_a, g_m))


class TestBasicSplittingFailures:
    """The splitting identity raises IdentityFailure, also under -O."""

    def recipe(self):
        rng = random.Random(67)
        a = q_family(1, 2, 3, 4)
        g = adjoint_metric(a, rand_pd_matrix(3, rng, real=True), Matrix.identity(0))
        return submersion_recipe(a, 1, [], g, Matrix.identity(1))

    def test_wrong_base_connection(self):
        r = self.recipe()
        other = adjoint_setup(q_family(1, 0, 0, 1), [])
        with pytest.raises(IdentityFailure, match="even block of hor") as info:
            _check_basic_splitting(1, other, r.basic)
        assert info.value.identity == "basic splitting"

    def test_wrong_odd_block(self):
        a = tangent_torus(1)
        g = Matrix.identity(1)
        r = submersion_recipe(a, 1, [Matrix.identity(1)], adjoint_metric(a, g, g), g)
        # the base connection with its odd blocks moved, its even ones kept
        other = Connection(r.base.algebroid, r.base.bundle, [
            GradedEndo(om.ee, om.oo + Matrix.identity(1)) for om in r.base.omega
        ])
        with pytest.raises(IdentityFailure, match="odd block of hor"):
            _check_basic_splitting(1, other, r.basic)

    def test_vertical_section_acting(self):
        a = tangent_torus(1)
        g = Matrix.identity(1)
        r = submersion_recipe(a, 1, [Matrix.zeros(1, 1)], adjoint_metric(a, g, g), g)
        # let the vertical coordinate field move v_1: the basic
        # connection of the pullback then acts along v_1
        nabla = list(r.tm_conn)
        nabla[1] = Matrix([[ONE, ZERO], [ZERO, ZERO]])
        bad = adjoint_setup(r.algebroid, nabla)
        with pytest.raises(IdentityFailure, match="vertical section v_1"):
            _check_basic_splitting(1, r.base, bad)


class TestDualSplitting:
    """The g-bar dual splits as zero (+) the base dual by block algebra,
    so submersion_recipe does not check it; these tests do, on the
    frames and against metric inverses taken by the reference
    elimination."""

    @staticmethod
    def gaussian_recipe(a, k, rng):
        tm = rand_tm_conn(a, rng)
        g = adjoint_metric(a, rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))
        return submersion_recipe(a, k, tm, g, rand_pd_matrix(k, rng))

    def test_dual_is_zero_plus_base_dual(self):
        rng = random.Random(70)
        nonzero = 0
        for name, a in small_corpus().items():
            for k in (1, 2):
                r = self.gaussian_recipe(a, k, rng)
                vertical = Matrix.zeros(k, k)
                want_base = reference_h_dual(r.base, r.base_dual.dual_metric)
                want = reference_h_dual(r.basic, r.metric)
                for i, om in enumerate(r.dual.omega):
                    assert [ring_matrix(om.ee), ring_matrix(om.oo)] == want[i], (name, k, i)
                    if i < k:
                        assert om.is_zero(), (name, k, i)
                        continue
                    bom = r.base_dual.omega[i - k]
                    assert [ring_matrix(bom.ee), ring_matrix(bom.oo)] == want_base[i - k]
                    assert om.ee == Matrix.block_diag(vertical, bom.ee), (name, k, i)
                    assert om.oo == Matrix.block_diag(bom.oo, vertical), (name, k, i)
                    nonzero += not bom.is_zero() and bom.ee.im is not None
        assert nonzero > 0

    def test_morita_check_builds_dual_frames_only_for_the_chain(self, monkeypatch):
        built = []
        dual_frames = connections._dual_frames

        def recorded(c, h):
            built.append(1)
            return dual_frames(c, h)

        monkeypatch.setattr(connections, "_dual_frames", recorded)
        rng = random.Random(71)
        for name in ("heisenberg", "tt1", "tt1_x_so3"):
            a = small_corpus()[name]
            tm = rand_tm_conn(a, rng)
            g = adjoint_metric(a, rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))
            for k in (1, 2):
                g_v = rand_pd_matrix(k, rng)
                built.clear()
                assert morita_check(a, k, tm, g, g_v, max_q=2).passed, (name, k)
                assert built == [], (name, k)
            # the chain at max_q 3 reads the duals' frames
            assert morita_check(a, 1, tm, g, rand_pd_matrix(1, rng), max_q=3).passed, name
            assert built, name


class TestMoritaCheck:
    def test_q_family_nonzero_class(self):
        a = q_family(1, 0, 0, 1)  # Tr Q = 2
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        report = morita_check(a, 1, [], g, Matrix.identity(1), max_q=1)
        assert report.passed
        assert report.per_q[1]["equal"] and not report.per_q[1]["both_zero"]
        # the shared q=1 form is a nonzero class upstairs
        base = adjoint_setup(a, [])
        form = pullback_form(a, 1, cs_cochains([base, h_dual(base, g)], 1)[1])
        pb = pullback_algebroid(a, 1)
        assert coboundary_witness(pb, form) is None

    def test_tangent_torus_both_zero(self):
        a = tangent_torus(2)
        report = morita_check(
            a,
            1,
            [Matrix.zeros(2, 2)] * 2,
            adjoint_metric(a, Matrix.identity(2), Matrix.identity(2)),
            Matrix.identity(1),
            max_q=2,
        )
        assert report.passed
        assert all(v["both_zero"] for v in report.per_q.values())

    def test_so3_invariant_metric_both_zero(self):
        a = so3()
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        report = morita_check(a, 2, [], g, Matrix.identity(2), max_q=2)
        assert report.passed
        assert all(v["both_zero"] for v in report.per_q.values())

    def test_perturbed_metric_cohomologous(self):
        rng = random.Random(64)
        a = q_family(1, 2, 3, 4)
        pb = pullback_algebroid(a, 1)
        bundle = GradedBundle(pb.r, pb.n, d01=pb.anchor)
        alt = HermitianMetric(
            bundle, rand_pd_matrix(pb.r, rng, real=True), rand_pd_matrix(pb.n, rng, real=True)
        )
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        report = morita_check(a, 1, [], g, Matrix.identity(1), max_q=2, alt_metric=alt)
        assert report.passed
        assert all(report.cohomologous.values())


class TestMoritaReport:
    def test_passed_needs_every_verdict(self):
        ok, differ = {"equal": True, "both_zero": False}, {"equal": False, "both_zero": False}
        assert MoritaReport({1: ok, 2: ok}, {}).passed
        assert MoritaReport({1: ok}, {1: True}).passed
        assert not MoritaReport({1: ok, 2: differ}, {}).passed
        assert not MoritaReport({1: ok, 2: ok}, {1: True, 2: False}).passed


class TestMoritaAgainstReference:
    """morita_check computes each pair's cochains once and reuses the
    base pair's; the oracle recomputes every cochain per q."""

    def test_corpus_verdicts(self):
        rng = random.Random(68)
        for name, a in small_corpus().items():
            tm = rand_tm_conn(a, rng, real=True)
            g_a = rand_pd_matrix(a.r, rng)
            g_m = rand_pd_matrix(a.n, rng, real=True)
            g = adjoint_metric(a, g_a, g_m)
            g_v = Matrix.identity(1)
            anchor = pullback_anchor(a, 1)
            alt = HermitianMetric(
                GradedBundle(anchor.ncols, anchor.nrows, d01=anchor),
                rand_pd_matrix(anchor.ncols, rng),
                rand_pd_matrix(anchor.nrows, rng, real=True),
            )
            report = morita_check(a, 1, tm, g, g_v, max_q=2, alt_metric=alt)
            per_q, cohomologous = reference_morita_verdicts(a, 1, tm, g, g_v, 2, alt)
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
        anchor = pullback_anchor(a, 1)
        alt = HermitianMetric(
            GradedBundle(anchor.ncols, anchor.nrows, d01=anchor),
            rand_pd_matrix(anchor.ncols, rng),
            rand_pd_matrix(anchor.nrows, rng),
        )
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        morita_check(a, 1, [], g, Matrix.identity(1), max_q=3, alt_metric=alt)
        # base and pullback setups; base, pullback and alternative duals
        assert counts == {"adjoint_setup": 2, "h_dual": 3}
