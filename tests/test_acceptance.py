"""Acceptance gate: one test per headline claim, exact arithmetic only.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS line
per criterion.
"""

import random
import sys

from algch.scalars import Scalar
from algch.linalg import Matrix
from algch.algebroid import ce_differential, coboundary_witness
from algch.connections import (
    GradedBundle,
    GradedEndo,
    Connection,
    HermitianMetric,
    h_dual,
)
from algch.transgression import cs_cochain
from algch.charclasses import (
    KAPPA,
    chern_character,
    secondary_class,
    adjoint_setup,
    intrinsic_char,
    default_max_q,
)
from algch.pullback import (
    SubmersionSpec,
    pullback_algebroid,
    pullback_form,
    morita_check,
)
from algch.library import tangent_torus, q_family, so3, lie_algebra

from helpers import (
    direct_sum_connections,
    rand_bundle,
    rand_connection,
    rand_metric,
    rand_matrix,
    rand_pd_matrix,
    rand_algebroid,
    rand_tm_conn,
    rand_q_family,
    boundary_commutant,
    small_corpus,
    pullback_connection,
    supertrace_curvature_power,
    trace_character,
)
from test_transgression import check_cs_axioms


def report(line):
    print(line, file=sys.stderr)


def identity_adjoint_metric(a):
    bundle = GradedBundle(a.r, a.n, d01=a.anchor)
    return HermitianMetric(bundle, Matrix.identity(a.r), Matrix.identity(a.n))


def balanced_connection(a, m, rng, real=False):
    """Connection on an (m|m) bundle with zero boundary whose even and
    odd blocks coincide, so every supertraced curvature power vanishes
    identically and the secondary classes are defined."""
    b = GradedBundle(m, m)
    omega = []
    for _ in range(a.r):
        mat = rand_matrix(m, m, rng, real)
        omega.append(GradedEndo(mat, mat))
    return Connection(a, b, omega), b


def test_q_family_dichotomy():
    rng = random.Random(101)
    for _ in range(20):
        a = rand_q_family(rng)
        while trace_character(a).is_zero():
            a = rand_q_family(rng)
        rep = intrinsic_char(a, [], identity_adjoint_metric(a), max_q=1)[0]
        assert not rep.is_zero_class and rep.witness is None
    for _ in range(20):
        a = rand_q_family(rng, trace_zero=True)
        rep = intrinsic_char(a, [], identity_adjoint_metric(a), max_q=1)[0]
        assert rep.is_zero_class and rep.witness is not None
        assert ce_differential(a, rep.witness) == rep.representative
    report("PASS q-family dichotomy: q=1 class is nonzero iff the trace is")


def test_tangent_algebroid_vanishing():
    for n in (1, 2, 3):
        a = tangent_torus(n)
        tm = [Matrix.zeros(n, n)] * n
        for rep in intrinsic_char(a, tm, identity_adjoint_metric(a)):
            assert rep.representative.is_zero()
            assert rep.is_zero_class
    report("PASS tangent algebroids: all classes identically zero, n <= 3")


def test_cs_axiom_suite():
    rng = random.Random(103)
    for _ in range(100):
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
    report("PASS transgression axioms: 100 randomized instances")


def test_primary_classes():
    rng = random.Random(104)
    for _ in range(50):
        a = rand_algebroid(rng)
        c0 = rand_connection(a, rand_bundle(rng), rng)
        c1 = rand_connection(a, rand_bundle(rng), rng)
        ch0 = chern_character(c0, 3)
        for entry in ch0:
            assert ce_differential(a, entry).is_zero()
        # additivity under direct sum
        ch_sum = chern_character(direct_sum_connections(c0, c1), 3)
        ch1 = chern_character(c1, 3)
        for q in range(4):
            assert ch_sum[q] == ch0[q] + ch1[q]
        # over a Lie algebra every positive entry is exact
        if a.n == 0:
            for q in range(1, 4):
                assert coboundary_witness(a, ch0[q]) is not None
        # naturality under pullback
        s = SubmersionSpec(rng.randint(1, 2))
        pb = pullback_algebroid(a, s)
        ch_pulled = chern_character(pullback_connection(a, s, c0, pb), 3)
        for q in range(4):
            assert ch_pulled[q] == pullback_form(a, s, ch0[q])
    report("PASS primary classes: closed, additive, exact over algebras, natural")


def test_secondary_classes():
    rng = random.Random(105)
    for trial in range(50):
        a = rand_algebroid(rng)
        real = trial % 2 == 0
        c, b = balanced_connection(a, rng.randint(1, 2), rng, real=real)
        h0 = rand_metric(b, rng, real=real)
        h1 = rand_metric(b, rng, real=real)
        r0 = secondary_class(c, h0, 2)
        r1 = secondary_class(c, h1, 2)
        for rep0, rep1 in zip(r0, r1):
            # reality of the representatives
            for v in rep0.representative.comps.values():
                assert v.is_real()
            # metric independence with an explicit witness
            diff = rep0.representative - rep1.representative
            w = coboundary_witness(a, diff)
            assert w is not None
            assert ce_differential(a, w) == diff
            # even powers die for real data
            if real and rep0.q % 2 == 0:
                assert rep0.is_zero_class
    report("PASS secondary classes: real, metric-independent, even-q real vanishing")


def test_main_example_equivalence():
    rng = random.Random(106)
    for name, a in small_corpus().items():
        tm = rand_tm_conn(a, rng)
        setup = adjoint_setup(a, tm)
        b = setup.bundle
        for i in range(a.r):
            delta = setup.adjoint.omega[i] - setup.basic.omega[i]
            assert delta == setup.theta[i].anticommutator_with_boundary(b), name
        for q in (1, 2, 3):
            lhs = supertrace_curvature_power(setup.basic, q)
            rhs = supertrace_curvature_power(setup.adjoint, q)
            assert lhs == rhs, name
    report("PASS adjoint equivalence: theta witnesses and matching traces, full corpus")


def test_morita_invariance():
    rng = random.Random(107)
    for name, a in small_corpus().items():
        tm = rand_tm_conn(a, rng, real=True)
        g_a = rand_pd_matrix(a.r, rng, real=True)
        g_m = rand_pd_matrix(a.n, rng, real=True)
        for k in (1, 2):
            s = SubmersionSpec(k)
            pb = pullback_algebroid(a, s)
            bundle = GradedBundle(pb.r, pb.n, d01=pb.anchor)
            alt = HermitianMetric(
                bundle,
                rand_pd_matrix(pb.r, rng, real=True),
                rand_pd_matrix(pb.n, rng, real=True),
            )
            rep = morita_check(a, s, tm, g_a, g_m, max_q=2, alt_metric=alt)
            assert rep.passed, (name, k)
            assert all(v["equal"] for v in rep.per_q.values())
            assert all(rep.cohomologous.values())
    report("PASS morita invariance: bit-exact equality and perturbed-metric witnesses")


def test_so3_triviality():
    a = so3()
    bundle = GradedBundle(3, 0)
    from algch.charclasses import adjoint_connection

    c = adjoint_connection(a, bundle)
    h = HermitianMetric.identity(bundle)
    for rep in secondary_class(c, h, 2):
        assert rep.representative.is_zero()
        assert rep.is_zero_class
    report("PASS so(3): invariant metric kills every secondary representative")


def test_kappa_universality():
    rng = random.Random(109)
    algebras = [
        q_family(1, 0, 0, 1),
        q_family(2, 1, -1, 3),
        q_family(-1, 0, 0, 3),
        lie_algebra(2, {(0, 1): [1, 0]}),
        lie_algebra(3, {(0, 2): [1, 0, 0], (1, 2): [0, 2, 0]}),
    ]
    for a in algebras:
        tc = trace_character(a)
        assert not tc.is_zero()
        for _ in range(3):
            bundle = GradedBundle(a.r, 0)
            g = HermitianMetric(bundle, rand_pd_matrix(a.r, rng), Matrix.identity(0))
            rep = intrinsic_char(a, [], g, max_q=1)[0].representative
            assert rep == tc.scale(KAPPA)
    assert KAPPA == Scalar(2)
    report("PASS kappa universality: q=1 representative = 2 * trace character")
