"""Exact coefficient arithmetic.

Two rings live here: Gaussian rationals (the coefficient field of every
complex in this package) and polynomials in the barycentric coordinates
t_0, ..., t_p of the standard p-simplex, together with exact integration
over the simplex.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


_FZERO = Fraction(0)


class Scalar:
    """A Gaussian rational re + im*i with exact rational parts.

    Most data in practice is real, so every operation first checks the
    imaginary parts and, when they are all zero, does rational arithmetic
    on the real parts only.  A real result carries im == Fraction(0), so
    values built here and through the constructor compare and hash alike.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _frac(re))
        _set_im(self, _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return _real(_frac(x))

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        if self.im or other.im:
            return _make(self.re + other.re, self.im + other.im)
        return _real(self.re + other.re)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        if self.im or other.im:
            return _make(self.re - other.re, self.im - other.im)
        return _real(self.re - other.re)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        if self.im:
            return _make(-self.re, -self.im)
        return _real(-self.re)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if isinstance(other, (int, Fraction)):
                if self.im:
                    return _make(self.re * other, self.im * other)
                return _real(self.re * other)
            other = Scalar.coerce(other)
        if other.im:
            if self.im:
                return _make(
                    self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re,
                )
            return _make(self.re * other.re, self.re * other.im)
        if self.im:
            return _make(self.re * other.re, self.im * other.re)
        return _real(self.re * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Scalar")
            if self.im:
                return _make(self.re / other.re, self.im / other.re)
            return _real(self.re / other.re)
        d = other.re * other.re + other.im * other.im
        return _make(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return ONE / self ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "Scalar":
        if self.im:
            return _make(self.re, -self.im)
        return self

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i"


# Results are built by writing the slots directly, which skips __init__'s
# coercion and the immutability guard in __setattr__.
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__
_new = object.__new__


def _real(re: Fraction) -> Scalar:
    s = _new(Scalar)
    _set_re(s, re)
    _set_im(s, _FZERO)
    return s


def _make(re: Fraction, im: Fraction) -> Scalar:
    s = _new(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


class SimplexPolynomial:
    """Polynomial in t_1, ..., t_p on the standard p-simplex.

    t_0 is always eliminated through t_0 = 1 - t_1 - ... - t_p, so the
    term map keyed by length-p exponent tuples is a canonical form: two
    polynomials agree on the simplex iff their term maps are equal.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                assert len(exps) == p and all(e >= 0 for e in exps)
                coeff = Scalar.coerce(coeff)
                if not coeff.is_zero():
                    clean[exps] = clean.get(exps, ZERO) + coeff
                    if clean[exps].is_zero():
                        del clean[exps]
        self.terms = clean

    @staticmethod
    def constant(p: int, c) -> "SimplexPolynomial":
        c = Scalar.coerce(c)
        if c.is_zero():
            return SimplexPolynomial(p)
        return SimplexPolynomial(p, {(0,) * p: c})

    @staticmethod
    def variable(i: int, p: int) -> "SimplexPolynomial":
        """The coordinate t_i; t_0 comes back as 1 - t_1 - ... - t_p."""
        if not 0 <= i <= p:
            raise ValueError(f"t_{i} is not a coordinate on the {p}-simplex")
        if i == 0:
            terms = {(0,) * p: ONE}
            for m in range(p):
                e = [0] * p
                e[m] = 1
                terms[tuple(e)] = -ONE
            return SimplexPolynomial(p, terms)
        e = [0] * p
        e[i - 1] = 1
        return SimplexPolynomial(p, {tuple(e): ONE})

    @staticmethod
    def _from_terms(p: int, terms: dict) -> "SimplexPolynomial":
        """Wrap a term map that is already canonical: right-length
        exponent tuples and nonzero Scalar coefficients."""
        out = object.__new__(SimplexPolynomial)
        out.p = p
        out.terms = terms
        return out

    def __add__(self, other):
        assert self.p == other.p
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = terms[e] + c
                if s.is_zero():
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return SimplexPolynomial._from_terms(self.p, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SimplexPolynomial._from_terms(
            self.p, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.coerce(other)
            if c.is_zero():
                return SimplexPolynomial(self.p)
            return SimplexPolynomial._from_terms(
                self.p, {e: v * c for e, v in self.terms.items()}
            )
        assert self.p == other.p
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = c1 * c2
                terms[e] = terms[e] + v if e in terms else v
        return SimplexPolynomial._from_terms(
            self.p, {e: c for e, c in terms.items() if not c.is_zero()}
        )

    __rmul__ = __mul__

    def conj(self) -> "SimplexPolynomial":
        return SimplexPolynomial._from_terms(
            self.p, {e: c.conj() for e, c in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = SimplexPolynomial.constant(self.p, other)
        if not isinstance(other, SimplexPolynomial):
            return NotImplemented
        return self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"t{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"({c})" + ("*" + mono if mono else ""))
        return " + ".join(bits)


def simplex_integrate(f: SimplexPolynomial, p: int) -> Scalar:
    """Integrate f over the standard p-simplex, exactly.

    The simplex is oriented by the chart (t_1, ..., t_p).  Since t_0 is
    already eliminated, each monomial t_1^a1 ... t_p^ap contributes the
    Dirichlet value a1! ... ap! / (a1 + ... + ap + p)!.
    """
    if f.p != p:
        raise ValueError(f"polynomial lives on a {f.p}-simplex, not {p}")
    total = ZERO
    for exps, coeff in f.terms.items():
        num = 1
        for a in exps:
            num *= factorial(a)
        total = total + coeff * Fraction(num, factorial(sum(exps) + p))
    return total
