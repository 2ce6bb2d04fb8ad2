"""Acceptance gate: one test per headline claim, exact arithmetic only.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS line
per criterion.
"""

import importlib.util
import random
import sys
from pathlib import Path

from algch import cli
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
from algch.charclasses import (
    KAPPA,
    adjoint_setup,
    intrinsic_char,
)
from algch.scalars import I
from algch.transgression import cs_cochains
from algch.pullback import (
    pullback_algebroid,
    pullback_form,
    morita_check,
)
from algch.library import tangent_torus, q_family, so3, lie_algebra

from helpers import (
    adjoint_connection,
    boundary_commutator,
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
    chern_character,
    cs_family,
    small_corpus,
    pullback_connection,
    secondary_class,
    supertrace_curvature_power,
    trace_character,
    adjoint_metric,
    tm_theta,
    Endo,
)
from test_transgression import check_cs_axioms


def report(line):
    print(line, file=sys.stderr)


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
        rep = intrinsic_char(a, max_q=1)[0]
        assert not rep.is_zero_class and rep.witness is None
    for _ in range(20):
        a = rand_q_family(rng, trace_zero=True)
        rep = intrinsic_char(a, max_q=1)[0]
        assert rep.is_zero_class and rep.witness is not None
        assert ce_differential(a, rep.witness) == rep.representative
    report("PASS q-family dichotomy: q=1 class is nonzero iff the trace is")


def test_tangent_algebroid_vanishing():
    for n in (1, 2, 3):
        a = tangent_torus(n)
        for rep in intrinsic_char(a):
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
        k = rng.randint(1, 2)
        pb = pullback_algebroid(a, k)
        ch_pulled = chern_character(pullback_connection(a, k, c0, pb), 3)
        for q in range(4):
            assert ch_pulled[q] == pullback_form(a, k, ch0[q])
    report("PASS primary classes: closed, additive, exact over algebras, natural")


def test_secondary_classes():
    rng = random.Random(105)
    for trial in range(50):
        a = rand_algebroid(rng)
        real = trial % 2 == 0
        c, b = balanced_connection(a, rng.randint(1, 2), rng, real=real)
        reports = secondary_class(c, 2)
        for h in (rand_metric(b, rng, real=real), rand_metric(b, rng, real=real)):
            pair = cs_family([c, h_dual(c, h)], 2)
            for rep in reports:
                # reality of the representatives
                for v in rep.representative.comps.values():
                    assert v.im == 0
                # the pair route under the metric h has the same class,
                # with an explicit witness
                diff = pair[rep.q].scale(I ** (rep.q + 1)) - rep.representative
                w = coboundary_witness(a, diff)
                assert w is not None
                assert ce_differential(a, w) == diff
                # even powers die for real data
                if real and rep.q % 2 == 0:
                    assert rep.is_zero_class
    report("PASS secondary classes: real, metric-free, pair route cohomologous, even-q real vanishing")


def test_main_example_equivalence():
    rng = random.Random(106)
    for name, a in small_corpus().items():
        tm = rand_tm_conn(a, rng)
        basic = adjoint_setup(a, tm)
        b = basic.bundle
        ad = adjoint_connection(a, b)
        for i, theta in enumerate(tm_theta(a, tm)):
            delta = Endo.of(ad.omega[i]) - basic.omega[i]
            assert delta == boundary_commutator(theta, b), name
        for q in (1, 2, 3):
            lhs = supertrace_curvature_power(basic, q)
            rhs = supertrace_curvature_power(ad, q)
            assert lhs == rhs, name
    report("PASS adjoint equivalence: theta witnesses and matching traces, full corpus")


def test_morita_invariance():
    rng = random.Random(107)
    for name, a in small_corpus().items():
        tm = rand_tm_conn(a, rng, real=True)
        g_a = rand_pd_matrix(a.r, rng, real=True)
        g_m = rand_pd_matrix(a.n, rng, real=True)
        g = adjoint_metric(a, g_a, g_m)
        for k in (1, 2):
            rep = morita_check(a, k, tm, g, max_q=2, seed=rng.randrange(2**32))
            assert rep.passed, (name, k)
            assert all(v["equal"] for v in rep.per_q.values())
            assert all(rep.cohomologous.values())
    report("PASS morita invariance: bit-exact equality and perturbed-metric witnesses")


def test_so3_triviality():
    a = so3()
    bundle = GradedBundle(3, 0)
    c = adjoint_connection(a, bundle)
    for rep in secondary_class(c, 2):
        assert rep.representative.is_zero()
        assert rep.is_zero_class
    report("PASS so(3): invariant metric kills every secondary representative")


def test_kappa_universality():
    rng = random.Random(109)
    algebras = [
        q_family(1, 0, 0, 1),
        q_family(2, 1, -1, 3),
        q_family(-1, 0, 0, 3),
        lie_algebra(2, {(0, 1): {0: 1}}),
        lie_algebra(3, {(0, 2): {0: 1}, (1, 2): {1: 2}}),
    ]
    for a in algebras:
        tc = trace_character(a)
        assert not tc.is_zero()
        rep = intrinsic_char(a, max_q=1)[0].representative
        assert rep == tc.scale(KAPPA)
        for _ in range(3):
            # the pair route gives it on the nose under any metric
            bundle = GradedBundle(a.r, 0)
            g = HermitianMetric(bundle, rand_pd_matrix(a.r, rng), Matrix.identity(0))
            assert -cs_cochains(adjoint_setup(a, []), g, 1)[1] == rep
    assert KAPPA == Scalar(2)
    report("PASS kappa universality: q=1 representative = 2 * trace character")


def test_benchmark_tracer_names_present():
    # perfbench/spans.py patches algch functions and methods by name:
    # both of its instruments must find every name they patch, and
    # restore must put every original back
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def attributes():
        """Every attribute of an algch module and of a class defined in
        one, and the function of each cli command."""
        out = {("cli", "COMMANDS", k): fn for k, (fn, _) in cli.COMMANDS.items()}
        for name, mod in list(sys.modules.items()):
            if name != "algch" and not name.startswith("algch."):
                continue
            for key, value in vars(mod).items():
                out[name, key] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update(((name, key, a), v) for a, v in vars(value).items())
        return out

    before = attributes()
    for instrument in (spans.SpanTracer(), spans.Counters()):
        try:
            instrument.install()
        finally:
            instrument.restore()
        after = attributes()
        assert after.keys() == before.keys(), type(instrument).__name__
        moved = [k for k, v in before.items() if after[k] is not v]
        assert moved == [], (type(instrument).__name__, moved)
    report("PASS benchmark tracer: every patched name present and restored")
