import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from algch import algebroid
from algch.scalars import Scalar, ZERO, ONE, I
from algch.linalg import Matrix
from algch.algebroid import (
    ConstantAlgebroid,
    AlgebroidForm,
    validate_algebroid,
    ce_differential,
    betti_numbers,
    coboundary_witness,
    direct_product,
)
from algch.library import abelian, tangent_torus, heisenberg, so3, q_family, lie_algebra, sl3_r3

from helpers import (
    diff_matrix,
    small_corpus,
    rand_algebroid,
    rand_q_family,
    rand_scalar,
    dense_validate_algebroid,
    dense_ce_differential,
    dense_brackets,
    from_dense,
    basis_form,
    reference_betti_number,
    reference_nullspace,
    reference_solve,
    sympy_solve,
    column,
    isl2,
    imaginary_trace,
    trace_character,
    twisted_ce_differential,
    twisted_betti_numbers,
)


# factors of the random products, each drawn from an rng; q both with and
# without trace zero, real and Gaussian brackets, n = 0 and n > 0
PROPERTY_FACTORS = {
    "q": lambda rng: rand_q_family(rng),
    "q trace 0": lambda rng: rand_q_family(rng, trace_zero=True),
    "isl2": lambda rng: isl2(),
    "imaginary trace": lambda rng: imaginary_trace(),
    "so3": lambda rng: so3(),
    "heisenberg": lambda rng: heisenberg(),
    "abelian": lambda rng: abelian(rng.randint(1, 2)),
    "tt": lambda rng: tangent_torus(rng.randint(1, 2)),
}


def shuffled(a, perm):
    """a in another order of its frame: index i of a becomes perm[i]."""
    brackets = {
        (perm[i], perm[j]): {perm[k]: v for k, v in a.bracket(i, j)}
        for i in range(a.r) for j in range(a.r) if a.ints[i][j]
    }
    inv = sorted(range(a.r), key=perm.__getitem__)
    anchor = Matrix([[row[i] for i in inv] for row in a.anchor.rows], ncols=a.r)
    return ConstantAlgebroid(a.n, a.r, anchor, brackets)


def convolution(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for p, u in enumerate(x):
        for q, v in enumerate(y):
            out[p + q] += u * v
    return out


def rand_form(a, degree, rng, real=False):
    f = AlgebroidForm(a.r, degree)
    for idx in combinations(range(a.r), degree):
        f = f + basis_form(a.r, idx, rand_scalar(rng, real))
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
            lie_algebra(3, {(0, 1): {2: 1}, (1, 2): {2: 1}, (0, 2): {0: 1}})

    def test_anchor_shape_enforced(self):
        # an explicit check, so it also runs under python -O
        with pytest.raises(ValueError, match="anchor must be 1 x 3, got 1 x 2"):
            ConstantAlgebroid(1, 3, Matrix.zeros(1, 2), {})

    def test_anchor_compatibility_failure(self):
        # [e_1,e_2] = e_3 with rho(e_3) = d/dx: constant fields commute,
        # so the anchor must kill the bracket
        a = ConstantAlgebroid(1, 3, Matrix([[ZERO, ZERO, ONE]], ncols=3), {(0, 1): {2: ONE}})
        bad = validate_algebroid(a)
        assert any("anchor" in v for v in bad)

    def test_corpus_passes(self):
        for a in small_corpus().values():
            assert validate_algebroid(a) == []

    def test_antisymmetry_mutations_fail(self):
        base = so3()
        for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            c = dense_brackets(base)
            c[i][j][k] = c[i][j][k] + ONE  # break c[i][j][k] = -c[j][i][k]
            mutated = from_dense(0, 3, Matrix.zeros(0, 3), c)
            bad = validate_algebroid(mutated)
            assert any("antisym" in v for v in bad)


class TestConstructor:
    """ConstantAlgebroid takes {(i, j): {k: c_ij^k}} (0-based)."""

    def test_fills_partner_of_one_orientation(self):
        a = ConstantAlgebroid(0, 3, Matrix.zeros(0, 3), {(2, 0): {1: Scalar(3), 0: ONE}})
        assert a.den == 1
        assert a.ints[2][0] == ((0, 1, 0), (1, 3, 0))
        assert a.ints[0][2] == ((0, -1, 0), (1, -3, 0))
        assert validate_algebroid(a) == []

    def test_drops_explicit_zeros(self):
        a = ConstantAlgebroid(0, 2, Matrix.zeros(0, 2), {(0, 1): {0: ZERO, 1: 0}})
        assert a.ints == (((), ()), ((), ()))
        assert a.den == 1
        assert a == abelian(2)

    def test_keeps_both_orientations_as_given(self):
        # [e_1,e_2] = e_2 and [e_2,e_1] = e_2: stored as given, and the
        # check names the broken antisymmetry
        a = ConstantAlgebroid(0, 2, Matrix.zeros(0, 2), {(0, 1): {1: ONE}, (1, 0): {1: ONE}})
        assert a.ints[0][1] == a.ints[1][0] == ((1, 1, 0),)
        bad = validate_algebroid(a)
        assert bad == dense_validate_algebroid(a)
        assert [v for v in bad if "antisymmetry" in v] == [
            "antisymmetry broken at (i,j,k)=(1,2,2)",
            "antisymmetry broken at (i,j,k)=(2,1,2)",
        ]

    def test_equality_by_value(self):
        def heis(c, partner=None):
            """[e_1, e_2] = c e_3, and [e_2, e_1] = partner e_3 if given."""
            brackets = {(0, 1): {2: c}}
            if partner is not None:
                brackets[1, 0] = {2: partner}
            return ConstantAlgebroid(0, 3, Matrix.zeros(0, 3), brackets)

        # int, Fraction and Scalar coefficients that agree
        assert heis(2) == heis(Fraction(4, 2)) == heis(Scalar(2)) == heis(Scalar(2, 0))
        assert heis(Fraction(1, 2)) == heis(Scalar(Fraction(1, 2)))
        assert heis(Scalar(Fraction(1, 2), Fraction(-3, 4))) == heis(Scalar(Fraction(2, 4), Fraction(-6, 8)))
        # one orientation and both consistent orientations
        assert heis(Fraction(1, 2)) == heis(Fraction(1, 2), Fraction(-1, 2))
        assert heis(I) == heis(I, -I)
        # a different imaginary part, or the same numerators over another den
        assert heis(Scalar(1, 1)) != heis(Scalar(1, 2))
        assert heis(ONE) != heis(Scalar(1, 1))
        assert heis(Fraction(1, 2)) != heis(Fraction(1, 3))
        assert heis(Scalar(0, Fraction(1, 2))) != heis(Scalar(0, Fraction(1, 3)))
        # inconsistent orientations differ from the consistent ones
        assert heis(ONE) != heis(ONE, ONE)

    @pytest.mark.parametrize("brackets", [
        {(0, 3): {0: ONE}},
        {(-1, 0): {0: ONE}},
        {(3, 1): {}},
        {(0, 1): {3: ONE}},
        {(0, 1): {-1: ONE}},
    ])
    def test_out_of_range_index_raises(self, brackets):
        # an explicit check, so it also runs under python -O
        with pytest.raises(ValueError, match="out of range 0..2"):
            ConstantAlgebroid(0, 3, Matrix.zeros(0, 3), brackets)

    @pytest.mark.parametrize("value", ["1/2", 0.5])
    def test_inexact_coefficient_raises(self, value):
        # a string is never parsed here, a float never rounded
        with pytest.raises(TypeError, match="expected a Scalar, int or Fraction"):
            ConstantAlgebroid(0, 2, Matrix.zeros(0, 2), {(0, 1): {1: value}})


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


class TestFormShapes:
    def test_sum_of_different_degrees_refused(self):
        # an explicit check, so it also runs under python -O
        one, two = basis_form(3, (0,)), basis_form(3, (0, 1))
        with pytest.raises(ValueError, match="cannot add a degree-1 form on rank 3 and a degree-2"):
            one + two
        with pytest.raises(ValueError, match="rank 3 and a degree-1 form on rank 4"):
            one - basis_form(4, (0,))


class TestBetti:
    def test_abelian_rank_two(self):
        a = abelian(2)
        assert betti_numbers(a) == [1, 2, 1]

    def test_q_family_invertible(self):
        assert betti_numbers(q_family(1, 0, 0, 1))[1] == 1

    def test_so3(self):
        a = so3()
        assert betti_numbers(a) == [1, 0, 0, 1]

    def test_b0_is_one_on_corpus(self):
        for a in small_corpus().values():
            assert betti_numbers(a)[0] == 1

    def test_matches_reference_on_corpus(self):
        for a in small_corpus().values():
            assert betti_numbers(a) == [reference_betti_number(a, k) for k in range(a.r + 1)]

    def test_matches_reference_on_rank_6_to_8_products(self):
        rng = random.Random(18)
        for a in (
            direct_product(rand_q_family(rng), rand_q_family(rng, trace_zero=True)),
            direct_product(tangent_torus(1), direct_product(rand_q_family(rng), so3())),
            direct_product(heisenberg(), direct_product(rand_q_family(rng), abelian(2))),
        ):
            assert a.r in (6, 7, 8)
            assert betti_numbers(a) == [reference_betti_number(a, k) for k in range(a.r + 1)]

    def test_gaussian_brackets(self):
        a = isl2()
        assert betti_numbers(a) == [reference_betti_number(a, k) for k in range(4)] == [1, 0, 0, 1]

    @pytest.mark.parametrize(
        "factors, unimodular",
        [
            pytest.param((isl2(), heisenberg()), True, id="isl2 x heisenberg"),
            pytest.param((imaginary_trace(),), False, id="imaginary trace"),
            pytest.param((imaginary_trace(), abelian(1)), False, id="imaginary trace x abelian1"),
            pytest.param((q_family(1, 0, 0, 1), so3()), False, id="q trace 2 x so3"),
            pytest.param((q_family(1, 0, 0, 1), so3(), abelian(1)), False, id="q trace 2 x so3 x abelian1"),
            pytest.param((q_family(1, 2, 3, -1), so3(), abelian(1)), True, id="q trace 0 x so3 x abelian1"),
            pytest.param((tangent_torus(2), so3()), True, id="tt2 x so3"),
            pytest.param((abelian(0),), True, id="rank 0"),
            pytest.param((abelian(1),), True, id="rank 1"),
            pytest.param((lie_algebra(2, {(0, 1): {1: 1}}),), False, id="rank 2 affine"),
        ],
    )
    def test_matches_reference_on_both_branches(self, factors, unimodular):
        # b_r = 1 exactly when every tr ad e_i is zero: then the upper
        # half of the ranks is mirrored, otherwise rank d_(r-1) is 1
        a = reduce(direct_product, factors)
        got = betti_numbers(a)
        assert got == [reference_betti_number(a, k) for k in range(a.r + 1)]
        assert got[-1] == unimodular

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(sorted(PROPERTY_FACTORS)), min_size=1, max_size=3))
    def test_duality_on_random_products(self, seed, names):
        rng = random.Random(seed)
        a = None
        for name in names:
            f = PROPERTY_FACTORS[name](rng)
            if a is not None and a.r + f.r > 6:
                break
            a = f if a is None else direct_product(a, f)
        c = dense_brackets(a)
        unimodular = all(sum((c[i][j][j] for j in range(a.r)), ZERO).is_zero() for i in range(a.r))
        got = betti_numbers(a)
        assert got == [reference_betti_number(a, k) for k in range(a.r + 1)]
        if unimodular:
            assert got == got[::-1] and got[-1] == 1
        else:
            assert got[-1] == 0

    def test_twisted_sign_pinned_on_q_family(self):
        # by hand: [e1, e3] = e1 and [e2, e3] = e2 give d e^1 = -e^13,
        # d e^2 = -e^23, d e^12 = 2 e^123, and theta = tr ad = -2 e^3;
        # with d + theta ^ the twisted e^12 is closed, so b_3(A; theta)
        # = 1 = b_0(A); with d - theta ^ it is not
        a = q_family(1, 0, 0, 1)
        theta = trace_character(a)
        assert theta == basis_form(3, (2,), Scalar(-2))
        assert betti_numbers(a) == [1, 1, 0, 0]
        one = AlgebroidForm(3, 0, {(): ONE})
        assert twisted_ce_differential(a, one, theta) == theta
        assert twisted_ce_differential(a, basis_form(3, (0,)), theta) == basis_form(3, (0, 2))
        assert twisted_ce_differential(a, basis_form(3, (0, 1)), theta).is_zero()
        assert twisted_ce_differential(a, basis_form(3, (0, 1)), -theta) == basis_form(3, (0, 1, 2), Scalar(4))
        assert twisted_betti_numbers(a, theta) == [0, 0, 1, 1]
        assert twisted_betti_numbers(a, -theta) == [0, 0, 0, 0]
        # d_theta squares to zero: d theta = 0, since tr ad [x, y] = 0
        for idx in [(), (0,), (1,), (2,), (0, 2), (1, 2)]:
            once = twisted_ce_differential(a, basis_form(3, idx), theta)
            assert twisted_ce_differential(a, once, theta).is_zero()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(sorted(PROPERTY_FACTORS)), max_size=2))
    def test_twisted_poincare_duality(self, seed, names):
        # b_k(A) = b_(r-k)(A; theta) with theta = tr ad, the module
        # Lambda^r (Evens, Lu and Weinstein 1999): an identity that
        # betti_numbers never uses, here on products with a q factor of
        # nonzero trace, so that its non-unimodular branch runs
        rng = random.Random(seed)
        a = rand_q_family(rng)
        while trace_character(a).is_zero():
            a = rand_q_family(rng)
        for name in names:
            f = PROPERTY_FACTORS[name](rng)
            if a.r + f.r <= 6:
                a = direct_product(f, a) if rng.random() < 0.5 else direct_product(a, f)
        got = betti_numbers(a)
        assert got[-1] == 0
        assert got == twisted_betti_numbers(a, trace_character(a))[::-1]

    @staticmethod
    def rank_calls(monkeypatch, algebras) -> int:
        """The _rank calls of betti_numbers over the algebras."""
        counted = []
        rank = algebroid._rank

        def counting(vectors, real):
            counted.append(1)
            return rank(vectors, real)

        monkeypatch.setattr(algebroid, "_rank", counting)
        for a in algebras:
            betti_numbers(a)
        monkeypatch.setattr(algebroid, "_rank", rank)
        return len(counted)

    @pytest.mark.parametrize(
        "a, calls",
        [(so3(), 2), (sl3_r3(), 6), (q_family(1, 0, 0, 1), 2), (lie_algebra(2, {(0, 1): {1: 1}}), 1)],
        ids=["unimodular rank 3", "unimodular rank 11", "not unimodular rank 3", "not unimodular rank 2"],
    )
    def test_rank_calls_on_one_block(self, monkeypatch, a, calls):
        # d_0..d_((r-1)//2) on a unimodular bracket, and d_0..d_(r-2)
        # otherwise, d_(r-1) from the trace
        assert algebroid._blocks(a) == [list(range(a.r))]
        assert self.rank_calls(monkeypatch, [a]) == calls

    @pytest.mark.parametrize(
        "factors, calls",
        [
            ((so3(), so3(), abelian(2)), 4),
            ((q_family(1, 0, 0, 1), so3()), 4),
            ((heisenberg(), abelian(1), isl2()), 4),
        ],
        ids=["unimodular rank 8", "not unimodular rank 6", "gaussian rank 7"],
    )
    def test_rank_calls(self, monkeypatch, factors, calls):
        # a product ranks its blocks one by one: a singleton takes no
        # rank, a larger block the ranks it takes alone
        assert self.rank_calls(monkeypatch, factors) == calls
        assert self.rank_calls(monkeypatch, [reduce(direct_product, factors)]) == calls

    def test_sl3_r3(self):
        # one block of rank 11; H*(sl3) (x) (Lambda R^3*)^sl3 (Hochschild
        # and Serre 1953) gives (1 + t^3)(1 + t^5)(1 + t^3).  The dense
        # reference is checked where it is quick: b_4 alone takes it
        # about 45 s, and b_3 or b_9 several seconds
        a = sl3_r3()
        assert algebroid._blocks(a) == [list(range(11))]
        got = betti_numbers(a)
        assert got == [1, 0, 0, 2, 0, 1, 1, 0, 2, 0, 0, 1]
        assert got == convolution(convolution([1, 0, 0, 1], [1, 0, 0, 0, 0, 1]), [1, 0, 0, 1])
        for k in (0, 1, 2, 10, 11):
            assert got[k] == reference_betti_number(a, k)

    def test_sl3_r3_times_abelian2(self):
        a = direct_product(sl3_r3(), abelian(2))
        assert algebroid._blocks(a) == [list(range(11)), [11], [12]]
        assert betti_numbers(a) == [1, 2, 1, 2, 4, 3, 3, 3, 3, 4, 2, 1, 2, 1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(sorted(PROPERTY_FACTORS)), min_size=1, max_size=3))
    def test_blocks_of_shuffled_products(self, seed, names):
        # the frame is shuffled, so that the factors' blocks interleave;
        # the whole table ranked at once is the oracle of the split
        rng = random.Random(seed)
        a = reduce(direct_product, [PROPERTY_FACTORS[name](rng) for name in names])
        perm = list(range(a.r))
        rng.shuffle(perm)
        b = shuffled(a, perm)
        assert validate_algebroid(b) == []
        blocks = algebroid._blocks(b)
        assert sorted(i for block in blocks for i in block) == list(range(b.r))
        for i in range(b.r):
            for j in range(b.r):
                for k, _, _ in b.ints[i][j]:
                    assert any({i, j, k} <= set(block) for block in blocks)
        got = betti_numbers(b)
        assert got == betti_numbers(a) == algebroid._ranked_betti(b)
        if b.r <= 6:
            assert got == [reference_betti_number(b, k) for k in range(b.r + 1)]

    @pytest.mark.parametrize(
        "factors",
        [
            (q_family(1, 2, 3, 4),) * 2 + (heisenberg(),) * 2 + (abelian(2),),
            (so3(),) * 4 + (abelian(3),),
        ],
        ids=["rank 14", "rank 15"],
    )
    def test_kunneth_on_rank_14_and_15_products(self, factors):
        a = factors[0]
        want = [reference_betti_number(a, k) for k in range(a.r + 1)]
        for f in factors[1:]:
            a = direct_product(a, f)
            b = [reference_betti_number(f, k) for k in range(f.r + 1)]
            want = [
                sum(want[i] * b[d - i] for i in range(len(want)) if 0 <= d - i < len(b))
                for d in range(len(want) + len(b) - 1)
            ]
        assert a.r in (14, 15)
        assert betti_numbers(a) == want


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
        # d e^1 = -e^1 ^ e^3: a form that is not closed has no primitive
        a = q_family(1, 0, 0, 1)
        assert not ce_differential(a, basis_form(3, (0,))).is_zero()
        assert coboundary_witness(a, basis_form(3, (0,))) is None

    def test_witness_random(self):
        rng = random.Random(5)
        for _ in range(15):
            a = rand_algebroid(rng)
            deg = rng.randint(0, max(0, a.r - 1))
            omega = ce_differential(a, rand_form(a, deg, rng))
            w = coboundary_witness(a, omega)
            assert w is not None
            assert ce_differential(a, w) == omega

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(sorted(PROPERTY_FACTORS)), min_size=2, max_size=4),
        st.sampled_from(["exact", "closed", "not closed"]),
        st.booleans(),
    )
    def test_witness_equals_dense_solve(self, seed, names, kind, real):
        # the witness is the dense solve's own answer, zero off the pivot
        # columns of d_(k-1), not merely some eta with d eta = omega
        rng = random.Random(seed)
        a = None
        for name in names:
            f = PROPERTY_FACTORS[name](rng)
            if a is not None and a.r + f.r > 8:
                break
            a = f if a is None else direct_product(a, f)
        k = rng.randint(1, a.r)
        cod = list(combinations(range(a.r), k))
        if kind == "exact":
            omega = ce_differential(a, rand_form(a, k - 1, rng, real))
        elif kind == "closed":
            # a combination of a basis of ker d_k: closed, and not exact
            # unless its class happens to vanish
            comps = {}
            for v in reference_nullspace(diff_matrix(a, k)):
                c = rand_scalar(rng, real)
                for idx, x in zip(cod, v):
                    comps[idx] = comps.get(idx, ZERO) + c * x
            omega = AlgebroidForm(a.r, k, comps)
        else:
            omega = rand_form(a, k, rng, real)
        want = reference_solve(diff_matrix(a, k - 1), [omega.get(idx) for idx in cod])
        got = coboundary_witness(a, omega)
        if want is None:
            assert got is None
        else:
            assert got == AlgebroidForm(a.r, k - 1, dict(zip(combinations(range(a.r), k - 1), want)))

    @pytest.mark.parametrize("real", [True, False])
    def test_witness_equals_dense_solve_sl3_r3(self, real):
        # degree 5 on sl3_r3 x abelian1, rank 12: d_4 is 792 x 495, past
        # the Scalar row reduction, so sympy's rref gives the dense solve
        rng = random.Random(30)
        a = direct_product(sl3_r3(), abelian(1))
        dom = list(combinations(range(a.r), 4))
        beta = AlgebroidForm(a.r, 4, {idx: rand_scalar(rng, real) for idx in rng.sample(dom, 12)})
        omega = ce_differential(a, beta)
        want = sympy_solve(diff_matrix(a, 4), [omega.get(idx) for idx in combinations(range(a.r), 5)])
        assert want is not None
        assert coboundary_witness(a, omega) == AlgebroidForm(a.r, 4, dict(zip(dom, want)))


class TestDirectProduct:
    def test_tt1_times_q_family(self):
        q = q_family(1, 2, 3, 4)
        prod = direct_product(tangent_torus(1), q)
        assert (prod.n, prod.r) == (1, 4)
        assert column(prod.anchor, 0) == (ONE,)
        assert all(prod.anchor[0, i].is_zero() for i in range(1, 4))
        assert prod.den == q.den
        for i in range(3):
            for j in range(3):
                assert prod.ints[1 + i][1 + j] == tuple((1 + k, x, y) for k, x, y in q.ints[i][j])
        assert all(not cell for cell in prod.ints[0]) and all(not row[0] for row in prod.ints)
        assert validate_algebroid(prod) == []
        # direct_product does not check its result: products of valid
        # factors with a torus factor on either side come out valid
        rng = random.Random(12)
        for k in (1, 2):
            for q in (rand_q_family(rng), rand_q_family(rng, trace_zero=True)):
                for prod in (direct_product(tangent_torus(k), q), direct_product(q, tangent_torus(k))):
                    assert (prod.n, prod.r) == (k, k + 3)
                    assert validate_algebroid(prod) == dense_validate_algebroid(prod) == []

    def test_factors_over_different_denominators(self):
        # each factor's integers are brought to the lcm of the two
        # denominators; the oracle is the constructor on the factors'
        # Scalar brackets with the second factor's indices shifted
        half, third = Fraction(1, 2), Fraction(1, 3)
        a, b = q_family(half, 1, 2, -half), q_family(third, -1, 0, -third)
        prod = direct_product(a, b)
        brackets = {}
        for x, off in ((a, 0), (b, a.r)):
            for i in range(x.r):
                for j in range(x.r):
                    brackets[i + off, j + off] = {k + off: v for k, v in x.bracket(i, j)}
        assert (a.den, b.den, prod.den) == (2, 3, 6)
        assert prod == ConstantAlgebroid(0, 6, Matrix.zeros(0, 6), brackets)
        assert validate_algebroid(prod) == []

    def test_abelian_product(self):
        prod = direct_product(abelian(2), abelian(3))
        assert prod == abelian(5)

    def test_kunneth_tt1_so3(self):
        prod = direct_product(tangent_torus(1), so3())
        tt1_betti = betti_numbers(tangent_torus(1))
        so3_betti = betti_numbers(so3())
        prod_betti = betti_numbers(prod)
        for d in range(5):
            expected = sum(
                tt1_betti[i] * so3_betti[d - i]
                for i in range(2)
                if 0 <= d - i < 4
            )
            assert prod_betti[d] == expected


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
    return from_dense(a.n, a.r, a.anchor if anchor is None else anchor, c)


class TestSparseAgainstDense:
    """validate_algebroid and ce_differential walk the sparse bracket
    table; the dense loops in helpers read every coefficient."""

    def test_index_lists_exactly_the_nonzero_coefficients(self):
        # random constructor input with explicit zeros, some pairs given
        # in one orientation and some in both
        rng = random.Random(10)
        for _ in range(40):
            r = rng.randint(1, 5)
            given = {}
            for i in range(r):
                for j in range(r):
                    if rng.random() < 0.4:
                        ks = rng.sample(range(r), rng.randint(0, r))
                        given[i, j] = {
                            k: ZERO if rng.random() < 0.3 else rand_scalar(rng) for k in ks
                        }
            a = ConstantAlgebroid(0, r, Matrix.zeros(0, r), given)
            wants = {}
            for i in range(r):
                for j in range(r):
                    if (i, j) in given:
                        want = sorted((k, v) for k, v in given[i, j].items() if not v.is_zero())
                    elif (j, i) in given:
                        want = sorted((k, -v) for k, v in given[j, i].items() if not v.is_zero())
                    else:
                        want = []
                    wants[i, j] = want
            # one den, the lcm of the denominators of every nonzero part
            parts = [x for want in wants.values() for _, v in want for x in (v.re, v.im)]
            assert a.den == lcm(*(x.denominator for x in parts))
            for (i, j), want in wants.items():
                assert [k for k, _, _ in a.ints[i][j]] == [k for k, _ in want]
                assert [(x, y) for _, x, y in a.ints[i][j]] == [(v.re * a.den, v.im * a.den) for _, v in want]

    def test_validate_on_valid_algebroids(self):
        rng = random.Random(11)
        for a in list(small_corpus().values()) + wide_products(rng):
            assert validate_algebroid(a) == dense_validate_algebroid(a) == []

    def test_anchor_compatible_by_cancellation(self):
        # [e_1,e_3] = [e_2,e_3] = e_1 + e_2, and rho(e_1) = -rho(e_2):
        # the anchor kills each bracket only through a sum of two terms
        q = q_family(1, 1, 1, 1)
        a = from_dense(1, 3, Matrix([[ONE, -ONE, ZERO]], ncols=3), dense_brackets(q))
        assert validate_algebroid(a) == dense_validate_algebroid(a) == []
        b = from_dense(1, 3, Matrix([[ONE, ONE, ZERO]], ncols=3), dense_brackets(q))
        assert validate_algebroid(b) == dense_validate_algebroid(b) != []

    def test_validate_on_broken_antisymmetry(self):
        rng = random.Random(12)
        seen = 0
        for a in [so3(), heisenberg(), rand_q_family(rng)] + wide_products(rng)[:3]:
            for _ in range(3):
                c = dense_brackets(a)
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
                c = dense_brackets(a)
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
                b = with_brackets(a, dense_brackets(a), Matrix(rows, ncols=a.r))
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
                assert diff_matrix(a, k) == want

    def test_d_squared_zero_on_wide_products(self):
        rng = random.Random(17)
        rank_8 = direct_product(so3(), direct_product(heisenberg(), abelian(2)))
        for a in wide_products(rng) + [rank_8]:
            if a.r < 5:
                continue
            for k in range(a.r - 1):
                assert (diff_matrix(a, k + 1) * diff_matrix(a, k)).is_zero()
