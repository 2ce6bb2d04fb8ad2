import random
from fractions import Fraction

import pytest

from algch.scalars import ZERO, ONE, I, Scalar
from algch.linalg import Matrix
from algch.algebroid import (
    AlgebroidForm,
    validate_algebroid,
    coboundary_witness,
    direct_product,
)
from algch.connections import Connection, GradedEndo, HermitianMetric, h_dual
from algch.transgression import cs_cochains
from algch.charclasses import adjoint_setup
from algch import cli, connections, pullback
from algch.pullback import (
    pullback_algebroid,
    pullback_form,
    morita_check,
    MoritaReport,
)
from algch.library import tangent_torus, heisenberg, so3, q_family

from helpers import (
    SplittingFailure,
    check_basic_splitting,
    submersion_recipe,
    basis_form,
    rand_scalar,
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
    count_calls,
    cs_family,
    reference_h_dual,
    ring_matrix,
)


class TestPullbackAlgebroid:
    def test_lie_algebra_is_product_with_torus(self):
        # every corpus algebroid, over a base or not: p^!(A) = TT^k x A,
        # base coordinates (y, x) in the order of the frame (v, hor(e))
        for name, a in small_corpus().items():
            for k in (1, 2):
                assert pullback_algebroid(a, k) == direct_product(tangent_torus(k), a), (name, k)

    def test_tangent_torus_pulls_back_to_tangent_torus(self):
        for n in (1, 2):
            for k in (1, 2):
                pb = pullback_algebroid(tangent_torus(n), k)
                assert (pb.n, pb.r) == (n + k, n + k)
                assert all(not cell for row in pb.ints for cell in row)
                # v_j |-> d/dy_j and hor(e_i) |-> d/dx_i, fibre first
                assert pb.anchor == Matrix.identity(n + k)

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
            lhs = cs_family(
                [
                    pullback_connection(a, k, c0, pb),
                    pullback_connection(a, k, c1, pb),
                ],
                1,
            )[1]
            rhs = pullback_form(a, k, cs_family([c0, c1], 1)[1])
            assert lhs == rhs


class TestSubmersionRecipe:
    """The connection and metric that morita_check builds on the
    pullback, as the test helper submersion_recipe rebuilds them."""

    def test_lie_algebra_block_structure(self):
        for g in (heisenberg(), q_family(1, 2, 3, 4)):
            recipe = submersion_recipe(g, 1, [], adjoint_metric(g, Matrix.identity(3), Matrix.identity(0)))
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
                a, 1, [Matrix.zeros(n, n)] * n, adjoint_metric(a, Matrix.identity(n), Matrix.identity(n))
            )
            assert all(om.is_zero() for om in recipe.basic.omega)

    def test_vertical_subconnection_is_metric(self):
        rng = random.Random(63)
        a = q_family(1, 2, 3, 4)
        g = adjoint_metric(a, rand_pd_matrix(3, rng, real=True), Matrix.identity(0))
        recipe = submersion_recipe(a, 2, [], g)
        dual = h_dual(recipe.basic, recipe.metric)
        for j in range(2):  # vertical frame sections
            assert recipe.basic.omega[j].is_zero()
            assert dual.omega[j].is_zero()


    def test_tm_conn_iterator_same_as_list(self):
        rng = random.Random(67)
        a = tangent_torus(2)
        tm = rand_tm_conn(a, rng)
        g = adjoint_metric(a, rand_pd_matrix(2, rng), rand_pd_matrix(2, rng))
        want = submersion_recipe(a, 1, tm, g)
        got = submersion_recipe(a, 1, iter(tm), g)
        for field in ("algebroid", "tm_conn", "basic", "base"):
            assert getattr(got, field) == getattr(want, field)
        for block in ("bundle", "h_even", "h_odd"):
            assert getattr(got.metric, block) == getattr(want.metric, block)

    def test_base_data(self):
        rng = random.Random(66)
        a = tangent_torus(1)
        tm = rand_tm_conn(a, rng)
        g_a, g_m = rand_pd_matrix(1, rng), rand_pd_matrix(1, rng)
        recipe = submersion_recipe(a, 1, tm, adjoint_metric(a, g_a, g_m))
        assert recipe.base == adjoint_setup(a, tm)


class TestBasicSplitting:
    """adjoint_setup on a product TT^k x A under nabla-bar splits as zero
    beside the base's basic connection: the identity on which
    morita_check's equal verdicts rest, held by construction."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["absent", "zero", "real", "gaussian"])
    def test_adjoint_setup_on_products(self, k, kind):
        # absent: the zero tm_conn a document without one gets; zero:
        # zero matrices over 7; real and gaussian: random entries
        rng = random.Random(f"{kind}/{k}")
        imaginary = 0
        for name, a in small_corpus().items():
            tm = {
                "absent": lambda: cli._tm_conn({}, a),
                "zero": lambda: [Matrix.zeros(a.r, a.r).scale(Fraction(1, 7)) for _ in range(a.n)],
                "real": lambda: rand_tm_conn(a, rng, real=True),
                "gaussian": lambda: rand_tm_conn(a, rng, real=False),
            }[kind]()
            g = adjoint_metric(a, rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))
            r = submersion_recipe(a, k, tm, g)
            check_basic_splitting(k, r.base, r.basic)
            imaginary += any(om.oo.im is not None for om in r.basic.omega)
        # a Gaussian tm_conn over a base gives the pullback imaginary rows
        assert (imaginary > 0) == (kind == "gaussian"), kind


class TestBasicSplittingFailures:
    """check_basic_splitting rejects each mutation, also under -O."""

    def recipe(self):
        rng = random.Random(67)
        a = q_family(1, 2, 3, 4)
        g = adjoint_metric(a, rand_pd_matrix(3, rng, real=True), Matrix.identity(0))
        return submersion_recipe(a, 1, [], g)

    def test_wrong_base_connection(self):
        r = self.recipe()
        other = adjoint_setup(q_family(1, 0, 0, 1), [])
        with pytest.raises(SplittingFailure, match="even block of hor"):
            check_basic_splitting(1, other, r.basic)

    def test_wrong_odd_block(self):
        a = tangent_torus(1)
        g = Matrix.identity(1)
        r = submersion_recipe(a, 1, [Matrix.identity(1)], adjoint_metric(a, g, g))
        # the base connection with its odd blocks moved, its even ones kept
        other = Connection(r.base.algebroid, r.base.bundle, [
            GradedEndo(om.ee, om.oo + Matrix.identity(1)) for om in r.base.omega
        ])
        with pytest.raises(SplittingFailure, match="odd block of hor"):
            check_basic_splitting(1, other, r.basic)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("where", ["vertical row", "vertical column"])
    @pytest.mark.parametrize("value", [ONE, Scalar(Fraction(1, 3))], ids=["same den", "den times 3"])
    def test_even_block_with_one_vertical_entry(self, k, where, value):
        rng = random.Random(68)
        a = q_family(1, 2, 3, 4)
        g = adjoint_metric(a, rand_pd_matrix(3, rng, real=True), Matrix.identity(0))
        r = submersion_recipe(a, k, rand_tm_conn(a, rng), g)
        # hor(e_2)'s even block is block_diag(0_k, the base block) but for
        # one entry that couples v_k to hor(e_3)
        omega = list(r.basic.omega)
        rows = [list(row) for row in omega[k + 1].ee.rows]
        i, j = (k - 1, k + 2) if where == "vertical row" else (k + 2, k - 1)
        rows[i][j] = value
        omega[k + 1] = GradedEndo(Matrix(rows), omega[k + 1].oo)
        assert (omega[k + 1].ee.den == r.base.omega[1].ee.den) == (value == ONE)
        bad = Connection(r.basic.algebroid, r.basic.bundle, omega)
        with pytest.raises(SplittingFailure, match="even block of hor\\(e_2\\)"):
            check_basic_splitting(k, r.base, bad)

    @pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
    def test_odd_block_differs_in_imaginary_part(self, gaussian):
        # the base's odd blocks moved by i, their real parts kept; with a
        # Gaussian tm_conn both sides have imaginary parts, which differ
        a = tangent_torus(1)
        g = Matrix.identity(1)
        tm = Matrix([[Scalar(Fraction(1, 2), 2 if gaussian else 0)]])
        r = submersion_recipe(a, 1, [tm], adjoint_metric(a, g, g))
        assert (r.base.omega[0].oo.im is not None) == gaussian
        other = Connection(r.base.algebroid, r.base.bundle, [
            GradedEndo(om.ee, om.oo + Matrix([[I]])) for om in r.base.omega
        ])
        with pytest.raises(SplittingFailure, match="odd block of hor"):
            check_basic_splitting(1, other, r.basic)

    def test_splits_across_denominators(self):
        # equal values over other denominators: the pullback's frames over
        # 101 times theirs (a sum with a zero over 101 is not reduced), and
        # the base's over 103 times theirs, under a Gaussian tm_conn
        a = small_corpus()["tt1_x_so3"]
        rng = random.Random(69)
        tm = [Matrix([[rand_scalar(rng) for _ in range(a.r)] for _ in range(a.r)]) for _ in range(a.n)]
        g = adjoint_metric(a, rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))

        def over(c, d):
            z = [Matrix.zeros(n, n).scale(Fraction(1, d)) for n in (c.bundle.rank_even, c.bundle.rank_odd)]
            return Connection(c.algebroid, c.bundle, [GradedEndo(om.ee + z[0], om.oo + z[1]) for om in c.omega])

        for k in (1, 2):
            r = submersion_recipe(a, k, tm, g)
            basic101, base103 = over(r.basic, 101), over(r.base, 103)
            assert any(om.oo.im is not None for om in r.base.omega)
            assert all(om.ee.den == 101 * bom.ee.den for om, bom in zip(basic101.omega[k:], r.base.omega))
            assert all(om.oo.den == 103 * bom.oo.den for om, bom in zip(base103.omega, r.basic.omega[k:]))
            check_basic_splitting(k, r.base, basic101)
            check_basic_splitting(k, base103, r.basic)
            check_basic_splitting(k, base103, basic101)

    @pytest.mark.parametrize("k", [1, 2])
    def test_odd_block_in_base_first_layout(self, k):
        # hor(e_i)'s odd blocks as block_diag(the base block, 0_k), the
        # layout with the base coordinates x before the fibre's y
        rng = random.Random(72)
        a = small_corpus()["tt1_x_so3"]
        g = adjoint_metric(a, rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))
        r = submersion_recipe(a, k, rand_tm_conn(a, rng), g)
        assert any(not bom.oo.is_zero() for bom in r.base.omega)
        vertical = Matrix.zeros(k, k)
        omega = list(r.basic.omega[:k]) + [
            GradedEndo(om.ee, Matrix.block_diag(bom.oo, vertical))
            for om, bom in zip(r.basic.omega[k:], r.base.omega)
        ]
        bad = Connection(r.basic.algebroid, r.basic.bundle, omega)
        with pytest.raises(SplittingFailure, match="odd block of hor"):
            check_basic_splitting(k, r.base, bad)

    def test_vertical_section_acting(self):
        a = tangent_torus(1)
        g = Matrix.identity(1)
        r = submersion_recipe(a, 1, [Matrix.zeros(1, 1)], adjoint_metric(a, g, g))
        # let the vertical coordinate field, the first, move v_1: the
        # basic connection of the pullback then acts along v_1
        nabla = list(r.tm_conn)
        nabla[0] = Matrix([[ONE, ZERO], [ZERO, ZERO]])
        bad = adjoint_setup(r.algebroid, nabla)
        with pytest.raises(SplittingFailure, match="vertical section v_1"):
            check_basic_splitting(1, r.base, bad)


class TestDualSplitting:
    """The g-bar dual splits as zero (+) the base dual by block algebra,
    so morita_check does not check it; these tests do, on the
    frames and against metric inverses taken by the reference
    elimination."""

    def test_dual_is_zero_plus_base_dual(self):
        rng = random.Random(70)
        nonzero = 0
        for name, a in small_corpus().items():
            for k in (1, 2):
                tm = rand_tm_conn(a, rng)
                g = adjoint_metric(a, rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))
                r = submersion_recipe(a, k, tm, g)
                vertical = Matrix.zeros(k, k)
                want_base = reference_h_dual(r.base, g)
                want = reference_h_dual(r.basic, r.metric)
                base_dual = h_dual(r.base, g)
                for i, om in enumerate(h_dual(r.basic, r.metric).omega):
                    assert [ring_matrix(om.ee), ring_matrix(om.oo)] == want[i], (name, k, i)
                    if i < k:
                        assert om.is_zero(), (name, k, i)
                        continue
                    bom = base_dual.omega[i - k]
                    assert [ring_matrix(bom.ee), ring_matrix(bom.oo)] == want_base[i - k]
                    assert om.ee == Matrix.block_diag(vertical, bom.ee), (name, k, i)
                    assert om.oo == Matrix.block_diag(vertical, bom.oo), (name, k, i)
                    nonzero += not bom.is_zero() and bom.ee.im is not None
        assert nonzero > 0

    def test_morita_check_builds_dual_frames_only_for_the_chain(self, monkeypatch):
        built = count_calls(monkeypatch, connections.h_dual)
        rng = random.Random(71)
        for name in ("heisenberg", "tt1", "tt1_x_so3"):
            a = small_corpus()[name]
            tm = rand_tm_conn(a, rng)
            g = adjoint_metric(a, rand_pd_matrix(a.r, rng), rand_pd_matrix(a.n, rng))
            for k in (1, 2):
                built.clear()
                assert morita_check(a, k, tm, g, max_q=2, seed=k).passed, (name, k)
                assert built == [], (name, k)
            # the chain at max_q 3 reads the duals' frames: base, g-bar
            # and the perturbed metric
            assert morita_check(a, 1, tm, g, max_q=3).passed, name
            assert len(built) == 3, name


class TestFibreMetric:
    """The vertical block of a metric block_diag(V, g) on the pullback
    reaches no cochain: the basic connection is zero on the k vertical
    rows and columns of every frame, so the metric term reads g's block
    alone, and at max_q >= 3 the dual's -H^-1 Omega* H cancels V.  This
    is why morita_check's g-bar takes V = I_k."""

    @pytest.mark.parametrize("max_q", [2, 3])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "gaussian"])
    def test_fibre_block_reaches_no_cochain(self, real, max_q):
        rng = random.Random(f"fibre/{real}/{max_q}")
        for name, a in small_corpus().items():
            tm = rand_tm_conn(a, rng, real=real)
            g = adjoint_metric(a, rand_pd_matrix(a.r, rng, real), rand_pd_matrix(a.n, rng, real))
            for k in (1, 2):
                r = submersion_recipe(a, k, tm, g)
                want = cs_cochains(r.basic, r.metric, max_q)
                for _ in range(2):
                    v = rand_pd_matrix(k, rng, real) + Matrix.identity(k)  # not I_k
                    h = HermitianMetric(
                        r.basic.bundle, Matrix.block_diag(v, g.h_even), Matrix.block_diag(v, g.h_odd)
                    )
                    assert cs_cochains(r.basic, h, max_q) == want, (name, k)


class TestMoritaCheck:
    def test_q_family_nonzero_class(self):
        a = q_family(1, 0, 0, 1)  # Tr Q = 2
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        report = morita_check(a, 1, [], g, max_q=1)
        assert report.passed
        assert report.per_q[1]["equal"] and not report.per_q[1]["both_zero"]
        # the shared q=1 form is a nonzero class upstairs
        base = adjoint_setup(a, [])
        form = pullback_form(a, 1, cs_cochains(base, g, 1)[1])
        pb = pullback_algebroid(a, 1)
        assert coboundary_witness(pb, form) is None

    def test_tangent_torus_both_zero(self):
        a = tangent_torus(2)
        report = morita_check(
            a, 1, [Matrix.zeros(2, 2)] * 2, adjoint_metric(a, Matrix.identity(2), Matrix.identity(2)), max_q=2
        )
        assert report.passed
        assert all(v["both_zero"] for v in report.per_q.values())

    def test_so3_invariant_metric_both_zero(self):
        a = so3()
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        report = morita_check(a, 2, [], g, max_q=2)
        assert report.passed
        assert all(v["both_zero"] for v in report.per_q.values())

    def test_perturbed_metric_cohomologous(self):
        # a verdict for every q under each seed's perturbed metric
        a = q_family(1, 2, 3, 4)
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        for seed in range(4):
            report = morita_check(a, 1, [], g, max_q=2, seed=seed)
            assert report.passed
            assert report.cohomologous == {1: True, 2: True}


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
        for seed, (name, a) in enumerate(small_corpus().items()):
            tm = rand_tm_conn(a, rng, real=True)
            g_a = rand_pd_matrix(a.r, rng)
            g_m = rand_pd_matrix(a.n, rng, real=True)
            g = adjoint_metric(a, g_a, g_m)
            report = morita_check(a, 1, tm, g, max_q=2, seed=seed)
            per_q, cohomologous = reference_morita_verdicts(a, 1, tm, g, 2, seed)
            assert report.per_q == per_q, name
            assert report.cohomologous == cohomologous, name
            assert report.passed == (
                all(v["equal"] for v in per_q.values()) and all(cohomologous.values())
            )

    def test_setups_and_duals_built_once(self, monkeypatch):
        setups = count_calls(monkeypatch, pullback.adjoint_setup)
        duals = count_calls(monkeypatch, connections.h_dual)
        a = heisenberg()
        g = adjoint_metric(a, Matrix.identity(3), Matrix.identity(0))
        # base and pullback setups; no dual up to max_q 2, and from
        # max_q 3 one per cochain: base, pullback and perturbed
        for max_q, want in ((2, 0), (3, 3)):
            setups.clear()
            duals.clear()
            morita_check(a, 1, [], g, max_q=max_q, seed=69)
            assert (len(setups), len(duals)) == (2, want), max_q

