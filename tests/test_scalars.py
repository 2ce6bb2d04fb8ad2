import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algch.linalg import Matrix
from algch.scalars import Scalar, ZERO, ONE, I

from helpers import PairScalar, SimplexPolynomial, conj, simplex_integrate

fractions_st = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
scalars_st = st.builds(Scalar, fractions_st, fractions_st)
# real values are drawn twice as often as Gaussian ones, since the fast
# path only applies to them; zeros show up through the fraction strategy
real_st = st.builds(Scalar, fractions_st)
operands_st = st.one_of(real_st, real_st, scalars_st)
rights_st = st.one_of(
    real_st, scalars_st, st.integers(-4, 4), fractions_st
)

BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def as_pair(x) -> PairScalar:
    if isinstance(x, Scalar):
        return PairScalar(x.re, x.im)
    return PairScalar(x)


def assert_matches(got, want: PairScalar):
    """got is a Scalar with Fraction parts equal to the oracle's, and it
    compares and hashes like the same value built by the constructor."""
    assert type(got) is Scalar
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)
    built = Scalar(want.re, want.im)
    assert got == built and built == got
    assert hash(got) == hash(built)


def check_op(op, x, y):
    try:
        want = op(as_pair(x), as_pair(y))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    assert_matches(op(x, y), want)


def iterated_integral(f: SimplexPolynomial, p: int) -> Scalar:
    """Independent oracle: integrate monomials over the simplex by the
    iterated 1-d antiderivative, substituting the upper limit
    t_i <= 1 - t_1 - ... - t_{i-1} symbolically."""

    def integrate_var(terms, var, p):
        # terms: dict exps -> Scalar in t_1..t_p keyed by exponent
        # position (position m holds t_{m+1}); integrate out the
        # variable at position var from 0 to 1 - sum of the earlier ones
        out = {}
        for exps, c in terms.items():
            a = exps[var]
            c2 = c / Scalar(a + 1)
            # antiderivative evaluated at the upper limit, expanded
            # by brute force
            upper = SimplexPolynomial.constant(p, ONE)
            lin = SimplexPolynomial.constant(p, ONE)
            for j in range(var):
                lin = lin - SimplexPolynomial.variable(j + 1, p)
            for _ in range(a + 1):
                upper = upper * lin
            rest = tuple(e if j != var else 0 for j, e in enumerate(exps))
            for uexps, uc in upper.terms.items():
                key = tuple(x + y for x, y in zip(rest, uexps))
                out[key] = out.get(key, ZERO) + c2 * uc
        return {k: v for k, v in out.items() if not v.is_zero()}

    terms = dict(f.terms)
    for var in reversed(range(p)):
        terms = integrate_var(terms, var, p)
    assert all(all(e == 0 for e in k) for k in terms)
    return sum(terms.values(), ZERO)


class TestScalar:
    def test_field_ops(self):
        a = Scalar(Fraction(1, 2), Fraction(-3))
        b = Scalar(2, Fraction(1, 5))
        assert a + b == Scalar(Fraction(5, 2), Fraction(-14, 5))
        assert a * b - b * a == ZERO
        assert (a / b) * b == a
        assert I * I == Scalar(-1)
        assert conj(conj(a)) == a
        assert (a * conj(a)).im == 0

    def test_pow_and_zero(self):
        assert I ** 4 == ONE
        assert Scalar(0).is_zero()
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    @given(scalars_st, scalars_st, scalars_st)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars_st, scalars_st)
    def test_conj_multiplicative(self, a, b):
        assert conj(a * b) == conj(a) * conj(b)


class TestScalarOracle:
    """The real-only fast paths against the Fraction-pair formulas."""

    @given(operands_st, rights_st)
    def test_binary_ops(self, x, y):
        for op in BINARY_OPS:
            check_op(op, x, y)

    @given(rights_st, operands_st)
    def test_reflected_ops(self, x, y):
        # an int or Fraction on the left dispatches to __radd__ etc.
        for op in BINARY_OPS:
            check_op(op, x, y)

    @given(operands_st)
    def test_neg_and_conj(self, x):
        assert_matches(-x, -as_pair(x))
        assert_matches(conj(x), PairScalar(x.re, -x.im))

    @given(operands_st, st.integers(-3, 4))
    def test_pow(self, x, n):
        try:
            want = as_pair(x) ** n
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                x ** n
            return
        assert_matches(x ** n, want)

    @given(operands_st)
    def test_zero_divisors(self, x):
        for zero in (ZERO, Scalar(0, 0), 0, Fraction(0), x - x):
            with pytest.raises(ZeroDivisionError, match="division by zero Scalar"):
                x / zero
        with pytest.raises(ZeroDivisionError, match="division by zero Scalar"):
            1 / ZERO

    @given(operands_st, rights_st)
    def test_results_are_immutable(self, x, y):
        for s in (x + y, x * y, -x, Scalar(x.re, x.im)):
            with pytest.raises(AttributeError):
                s.re = Fraction(1)
            with pytest.raises(AttributeError):
                s.im = Fraction(1)

    def test_foreign_operands_are_not_implemented(self):
        # a Matrix on the right gets its own reflected method; a string
        # is refused instead of parsed
        m = Matrix.identity(2)
        assert Scalar(2) * m == 2 * m == Matrix([[2, 0], [0, 2]])
        assert I * m == m * I
        for op in BINARY_OPS:
            with pytest.raises(TypeError):
                op(ONE, "1/2")
            with pytest.raises(TypeError):
                op("1/2", ONE)
            with pytest.raises(TypeError):
                op(ONE, 0.5)
        assert Scalar(Fraction(1, 2)) + ONE == Scalar.exact(Fraction(3, 2))

    @pytest.mark.parametrize("parts", [("1/2",), (0.5,), (1, "1"), (ONE,)])
    def test_constructor_takes_int_and_fraction_parts_only(self, parts):
        # strings are parsed only where documents are read
        with pytest.raises(TypeError, match="expected an int or Fraction"):
            Scalar(*parts)
        assert not hasattr(Scalar, "coerce")

    def test_real_results_have_zero_imaginary_fraction(self):
        a, b = Scalar(Fraction(1, 3)), Scalar(Fraction(-2, 5))
        for s in (a + b, a - b, a * b, a / b, -a, a * 3, 2 - a, 1 / b, a ** 3):
            assert s.im == Fraction(0) and type(s.im) is Fraction
            assert s.im == 0
            assert s == s.re and hash(s) == hash(Scalar(s.re))


polys_st = st.integers(0, 2).flatmap(
    lambda p: st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * p), operands_st, max_size=4
    ).map(lambda terms: SimplexPolynomial(p, terms))
)


class TestPolynomialArithmetic:
    """Sums and products skip the validating constructor; rebuilding
    them through it must change nothing."""

    @staticmethod
    def assert_canonical(f: SimplexPolynomial):
        assert all(len(e) == f.p for e in f.terms)
        assert all(type(c) is Scalar and not c.is_zero() for c in f.terms.values())
        assert f.terms == SimplexPolynomial(f.p, f.terms).terms

    @given(polys_st, st.data())
    def test_sum_product_negation(self, f, data):
        g = data.draw(polys_st.filter(lambda g: g.p == f.p))
        total, prod = {}, {}
        for e, c in f.terms.items():
            total[e] = total.get(e, ZERO) + c
        for e, c in g.terms.items():
            total[e] = total.get(e, ZERO) + c
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod[e] = prod.get(e, ZERO) + c1 * c2
        for got, want in ((f + g, total), (f * g, prod), (f - f, {})):
            self.assert_canonical(got)
            assert got == SimplexPolynomial(f.p, want)
        self.assert_canonical(-f)
        self.assert_canonical(conj(f))

    def test_product_cancellation_drops_term(self):
        # (1 + t1)(1 - t1): the two t1 terms cancel
        one = SimplexPolynomial.constant(2, ONE)
        t1 = SimplexPolynomial.variable(1, 2)
        got = (one + t1) * (one - t1)
        self.assert_canonical(got)
        assert got.terms == {(0, 0): ONE, (2, 0): -ONE}

    @given(polys_st, rights_st)
    def test_scaling(self, f, c):
        got = f * c
        self.assert_canonical(got)
        assert got == SimplexPolynomial(f.p, {e: v * c for e, v in f.terms.items()})


class TestSimplexIntegration:
    def test_constant_on_point(self):
        one = SimplexPolynomial.constant(0, ONE)
        assert simplex_integrate(one, 0) == ONE

    def test_t1_squared_on_interval(self):
        t1 = SimplexPolynomial.variable(1, 1)
        assert simplex_integrate(t1 * t1, 1) == Scalar(Fraction(1, 3))

    def test_t0_t1_on_interval(self):
        t0 = SimplexPolynomial.variable(0, 1)  # comes back as 1 - t1
        t1 = SimplexPolynomial.variable(1, 1)
        assert simplex_integrate(t0 * t1, 1) == Scalar(Fraction(1, 6))

    def test_t1_squared_on_triangle(self):
        t1 = SimplexPolynomial.variable(1, 2)
        assert simplex_integrate(t1 * t1, 2) == Scalar(Fraction(1, 12))

    def test_t1_t2_on_triangle(self):
        t1 = SimplexPolynomial.variable(1, 2)
        t2 = SimplexPolynomial.variable(2, 2)
        # 1/(a1! a2! / (a1+a2+2)!) route gives 1/24; volume-normalized
        # value from the factorial formula is 1!1!/4! = 1/24
        assert simplex_integrate(t1 * t2, 2) == Scalar(Fraction(1, 24))

    def test_volume(self):
        for p in range(4):
            one = SimplexPolynomial.constant(p, ONE)
            import math

            assert simplex_integrate(one, p) == Scalar(Fraction(1, math.factorial(p)))

    def test_against_iterated_oracle(self):
        rng = random.Random(7)
        for p in (1, 2, 3):
            for _ in range(6):
                f = SimplexPolynomial.constant(p, ZERO)
                for _ in range(4):
                    mono = SimplexPolynomial.constant(
                        p, Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    )
                    for i in range(1, p + 1):
                        for _ in range(rng.randint(0, 2)):
                            mono = mono * SimplexPolynomial.variable(i, p)
                    f = f + mono
                assert simplex_integrate(f, p) == iterated_integral(f, p)

    @settings(max_examples=40)
    @given(st.integers(1, 3), scalars_st, scalars_st, st.data())
    def test_linearity(self, p, c0, c1, data):
        def rand_poly():
            f = SimplexPolynomial.constant(p, data.draw(scalars_st))
            for i in range(1, p + 1):
                f = f + SimplexPolynomial.variable(i, p) * SimplexPolynomial.constant(
                    p, data.draw(scalars_st)
                )
            return f

        f, g = rand_poly(), rand_poly()
        lhs = simplex_integrate(
            f * SimplexPolynomial.constant(p, c0)
            + g * SimplexPolynomial.constant(p, c1),
            p,
        )
        assert lhs == c0 * simplex_integrate(f, p) + c1 * simplex_integrate(g, p)

    def test_permutation_symmetry(self):
        # the Dirichlet weight only depends on the multiset of exponents
        t1 = SimplexPolynomial.variable(1, 3)
        t2 = SimplexPolynomial.variable(2, 3)
        t3 = SimplexPolynomial.variable(3, 3)
        assert simplex_integrate(t1 * t1 * t2, 3) == simplex_integrate(t3 * t3 * t1, 3)

    def test_conjugation_commutes(self):
        t1 = SimplexPolynomial.variable(1, 2)
        f = t1 * SimplexPolynomial.constant(2, Scalar(1, 2)) + SimplexPolynomial.constant(
            2, Scalar(0, -1)
        )
        assert simplex_integrate(conj(f), 2) == conj(simplex_integrate(f, 2))
