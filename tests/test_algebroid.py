import random
from itertools import combinations

import pytest

from algch.scalars import Scalar, ZERO, ONE
from algch.linalg import Matrix
from algch.algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    basis_form,
    validate_algebroid,
    ce_differential,
    betti_number,
    coboundary_witness,
    direct_product,
    _diff_matrix,
)
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family, lie_algebra

from helpers import (
    small_corpus,
    rand_algebroid,
    rand_q_family,
    rand_scalar,
    dense_validate_algebroid,
    dense_ce_differential,
)


def rand_form(a, degree, rng):
    f = AlgebroidForm(a.r, degree)
    from itertools import combinations

    for idx in combinations(range(a.r), degree):
        f = f + basis_form(a.r, idx, rand_scalar(rng))
    return f


class TestValidate:
    def test_abelian_passes(self):
        assert validate_algebroid(abelian(2)) == []

    def test_q_family_passes(self):
        rng = random.Random(1)
        for _ in range(10):
            from helpers import rand_q_family

            assert validate_algebroid(rand_q_family(rng)) == []

    def test_lie_algebra_checks_its_brackets(self):
        # an explicit check, so it also runs under python -O
        with pytest.raises(ValueError, match=r"Jacobi broken at \(i,j,k,l\)=\(1,2,3,1\)"):
            lie_algebra(3, {(0, 1): [0, 0, 1], (1, 2): [0, 0, 1], (0, 2): [1, 0, 0]})

    def test_anchor_compatibility_failure(self):
        # [e_1,e_2] = e_3 with rho(e_3) = d/dx: constant fields commute,
        # so the anchor must kill the bracket
        c = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = ONE, -ONE
        a = ConstantAlgebroid(1, 3, Matrix([[ZERO, ZERO, ONE]], ncols=3), c)
        bad = validate_algebroid(a)
        assert any("anchor" in v for v in bad)

    def test_corpus_passes(self):
        for a in small_corpus().values():
            assert validate_algebroid(a) == []

    def test_antisymmetry_mutations_fail(self):
        base = so3()
        for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            c = [
                [[base.brackets[x][y][z] for z in range(3)] for y in range(3)]
                for x in range(3)
            ]
            c[i][j][k] = c[i][j][k] + ONE  # break c[i][j][k] = -c[j][i][k]
            mutated = ConstantAlgebroid(0, 3, Matrix.zeros(0, 3), c)
            bad = validate_algebroid(mutated)
            assert any("antisym" in v for v in bad)


class TestDifferential:
    def test_abelian_zero(self):
        rng = random.Random(2)
        a = abelian(3)
        for deg in range(3):
            assert ce_differential(a, rand_form(a, deg, rng)).is_zero()

    def test_q_family_degree_one(self):
        # d e1* (x, y) = -e1*([x, y]) picks out the e_1 coefficients
        a = q_family(Scalar(2), Scalar(3), Scalar(5), Scalar(7))
        d = ce_differential(a, basis_form(3, (0,)))
        assert d == basis_form(3, (0, 2), Scalar(-2)) + basis_form(3, (1, 2), Scalar(-5))

    def test_tangent_torus_zero(self):
        rng = random.Random(3)
        a = tangent_torus(2)
        for deg in range(3):
            assert ce_differential(a, rand_form(a, deg, rng)).is_zero()

    def test_d_squared_zero(self):
        rng = random.Random(4)
        for _ in range(20):
            a = rand_algebroid(rng)
            deg = rng.randint(0, max(0, a.r - 1))
            f = rand_form(a, deg, rng)
            assert ce_differential(a, ce_differential(a, f)).is_zero()

    def test_degree_overflow_clamps_to_zero(self):
        a = so3()
        top = basis_form(3, (0, 1, 2))
        assert ce_differential(a, top).is_zero()


class TestBetti:
    def test_abelian_rank_two(self):
        a = abelian(2)
        assert [betti_number(a, k) for k in range(3)] == [1, 2, 1]

    def test_q_family_invertible(self):
        assert betti_number(q_family(1, 0, 0, 1), 1) == 1

    def test_so3(self):
        a = so3()
        assert [betti_number(a, k) for k in range(4)] == [1, 0, 0, 1]

    def test_b0_is_one_on_corpus(self):
        for a in small_corpus().values():
            assert betti_number(a, 0) == 1


class TestCoboundaryWitness:
    def test_zero_form(self):
        a = heisenberg()
        w = coboundary_witness(a, AlgebroidForm(3, 2))
        assert w is not None and w.is_zero()

    def test_q_family_trace_not_exact(self):
        # d vanishes in degree 0, so no closed 1-form can be exact
        a = q_family(1, 2, 3, 4)
        assert coboundary_witness(a, basis_form(3, (2,))) is None

    def test_constructed_coboundary(self):
        a = q_family(1, 2, 3, 4)
        omega = ce_differential(a, basis_form(3, (0,)))
        w = coboundary_witness(a, omega)
        assert w is not None
        assert ce_differential(a, w) == omega

    def test_rejects_non_closed(self):
        a = q_family(1, 0, 0, 1)
        with pytest.raises(ValueError):
            coboundary_witness(a, basis_form(3, (0,)))

    def test_witness_random(self):
        rng = random.Random(5)
        for _ in range(15):
            a = rand_algebroid(rng)
            deg = rng.randint(0, max(0, a.r - 1))
            omega = ce_differential(a, rand_form(a, deg, rng))
            w = coboundary_witness(a, omega)
            assert w is not None
            assert ce_differential(a, w) == omega


class TestDirectProduct:
    def test_tt1_times_q_family(self):
        q = q_family(1, 2, 3, 4)
        prod = direct_product(tangent_torus(1), q)
        assert (prod.n, prod.r) == (1, 4)
        assert prod.anchor.column(0) == (ONE,)
        assert all(prod.anchor[0, i].is_zero() for i in range(1, 4))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert prod.brackets[1 + i][1 + j][1 + k] == q.brackets[i][j][k]
        assert validate_algebroid(prod) == []
        # direct_product does not check its result: products of valid
        # factors with a torus factor on either side come out valid
        rng = random.Random(12)
        for k in (1, 2):
            for q in (rand_q_family(rng), rand_q_family(rng, trace_zero=True)):
                for prod in (direct_product(tangent_torus(k), q), direct_product(q, tangent_torus(k))):
                    assert (prod.n, prod.r) == (k, k + 3)
                    assert validate_algebroid(prod) == dense_validate_algebroid(prod) == []

    def test_abelian_product(self):
        prod = direct_product(abelian(2), abelian(3))
        assert prod == abelian(5)

    def test_kunneth_tt1_so3(self):
        prod = direct_product(tangent_torus(1), so3())
        tt1_betti = [betti_number(tangent_torus(1), k) for k in range(2)]
        so3_betti = [betti_number(so3(), k) for k in range(4)]
        for d in range(5):
            expected = sum(
                tt1_betti[i] * so3_betti[d - i]
                for i in range(2)
                if 0 <= d - i < 4
            )
            assert betti_number(prod, d) == expected


def wide_products(rng):
    """Valid products of rank 4-6, some with a base, from random q-family
    factors and the fixed corpus."""
    return [
        direct_product(tangent_torus(1), direct_product(rand_q_family(rng), abelian(1))),
        direct_product(rand_q_family(rng), rand_q_family(rng, trace_zero=True)),
        direct_product(rand_q_family(rng), so3()),
        direct_product(heisenberg(), rand_q_family(rng)),
        direct_product(tangent_torus(1), rand_q_family(rng)),
        direct_product(tangent_torus(2), heisenberg()),
        direct_product(so3(), direct_product(abelian(1), tangent_torus(1))),
    ]


def with_brackets(a, c, anchor=None):
    return ConstantAlgebroid(a.n, a.r, a.anchor if anchor is None else anchor, c)


def mutable_brackets(a):
    return [[list(plane) for plane in rows] for rows in a.brackets]


class TestSparseAgainstDense:
    """validate_algebroid and ce_differential walk the nonzero bracket
    index; the dense loops in helpers read every coefficient."""

    def test_index_lists_exactly_the_nonzero_coefficients(self):
        for a in list(small_corpus().values()) + wide_products(random.Random(10)):
            for i in range(a.r):
                for j in range(a.r):
                    want = [
                        (k, v) for k, v in enumerate(a.brackets[i][j]) if not v.is_zero()
                    ]
                    assert list(a.nonzero_brackets[i][j]) == want

    def test_validate_on_valid_algebroids(self):
        rng = random.Random(11)
        for a in list(small_corpus().values()) + wide_products(rng):
            assert validate_algebroid(a) == dense_validate_algebroid(a) == []

    def test_anchor_compatible_by_cancellation(self):
        # [e_1,e_3] = [e_2,e_3] = e_1 + e_2, and rho(e_1) = -rho(e_2):
        # the anchor kills each bracket only through a sum of two terms
        q = q_family(1, 1, 1, 1)
        a = ConstantAlgebroid(1, 3, Matrix([[ONE, -ONE, ZERO]], ncols=3), q.brackets)
        assert validate_algebroid(a) == dense_validate_algebroid(a) == []
        b = ConstantAlgebroid(1, 3, Matrix([[ONE, ONE, ZERO]], ncols=3), q.brackets)
        assert validate_algebroid(b) == dense_validate_algebroid(b) != []

    def test_validate_on_broken_antisymmetry(self):
        rng = random.Random(12)
        seen = 0
        for a in [so3(), heisenberg(), rand_q_family(rng)] + wide_products(rng)[:3]:
            for _ in range(3):
                c = mutable_brackets(a)
                i, j, k = (rng.randrange(a.r) for _ in range(3))
                c[i][j][k] = c[i][j][k] + rand_scalar(rng) + ONE
                b = with_brackets(a, c)
                bad = validate_algebroid(b)
                assert bad == dense_validate_algebroid(b)
                seen += any("antisymmetry" in v for v in bad)
        assert seen > 0

    def test_validate_on_broken_jacobi(self):
        # an antisymmetric perturbation keeps antisymmetry, so whatever
        # fails is Jacobi (or anchor compatibility)
        rng = random.Random(13)
        seen = 0
        for a in [so3(), heisenberg(), rand_q_family(rng)] + wide_products(rng)[:3]:
            for _ in range(3):
                c = mutable_brackets(a)
                i, j = rng.sample(range(a.r), 2)
                k = rng.randrange(a.r)
                x = rand_scalar(rng, real=rng.random() < 0.5)
                c[i][j][k] = c[i][j][k] + x
                c[j][i][k] = c[j][i][k] - x
                b = with_brackets(a, c)
                bad = validate_algebroid(b)
                assert bad == dense_validate_algebroid(b)
                assert not any("antisymmetry" in v for v in bad)
                seen += any("Jacobi" in v for v in bad)
        assert seen > 0

    def test_validate_on_broken_anchor(self):
        rng = random.Random(14)
        seen = 0
        for a in (direct_product(tangent_torus(1), so3()),
                  direct_product(tangent_torus(2), heisenberg()),
                  direct_product(tangent_torus(1), rand_q_family(rng))):
            for _ in range(4):
                rows = [list(row) for row in a.anchor.rows]
                rows[rng.randrange(a.n)][rng.randrange(a.r)] = rand_scalar(rng) + ONE
                b = with_brackets(a, a.brackets, Matrix(rows, ncols=a.r))
                bad = validate_algebroid(b)
                assert bad == dense_validate_algebroid(b)
                seen += any("anchor" in v for v in bad)
        assert seen > 0

    def test_ce_differential_matches_dense(self):
        rng = random.Random(15)
        for a in wide_products(rng):
            for deg in range(a.r + 1):
                f = rand_form(a, deg, rng)
                assert ce_differential(a, f) == dense_ce_differential(a, f)

    def test_diff_matrix_matches_dense_columns(self):
        rng = random.Random(16)
        for a in wide_products(rng)[:4]:
            for k in range(a.r):
                cod = list(combinations(range(a.r), k + 1))
                cols = [
                    dense_ce_differential(a, basis_form(a.r, idx))
                    for idx in combinations(range(a.r), k)
                ]
                want = Matrix(
                    [[col.get(c) for col in cols] for c in cod], ncols=len(cols)
                )
                assert _diff_matrix(a, k) == want

    def test_d_squared_zero_on_wide_products(self):
        rng = random.Random(17)
        for a in wide_products(rng):
            if a.r < 5:
                continue
            for k in range(a.r - 1):
                assert (_diff_matrix(a, k + 1) * _diff_matrix(a, k)).is_zero()
