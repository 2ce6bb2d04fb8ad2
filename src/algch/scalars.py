"""Exact coefficient arithmetic: the Gaussian rationals, the coefficient
field of every complex in this package."""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {x!r}")


_FZERO = Fraction(0)


class Scalar:
    """A Gaussian rational re + im*i with exact rational parts.

    Most data in practice is real, so every operation first checks the
    imaginary parts and, when they are all zero, does rational arithmetic
    on the real parts only.  A real result carries im == Fraction(0), so
    values built here and through the constructor compare and hash alike.
    The parts must be int or Fraction (TypeError otherwise: only fileio
    parses strings).  + - * / take Scalar, int and Fraction operands and
    return NotImplemented for any other (a Matrix scales, a string fails).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _frac(re))
        _set_im(self, _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def exact(x) -> "Scalar":
        """x as a Scalar if it is a Scalar, int or Fraction; TypeError for
        anything else, a string in particular."""
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _real(Fraction(x))
        raise TypeError(f"expected a Scalar, int or Fraction, got {x!r}")

    def __add__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _real(Fraction(other))
        if self.im or other.im:
            return _make(self.re + other.re, self.im + other.im)
        return _real(self.re + other.re)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _real(Fraction(other))
        if self.im or other.im:
            return _make(self.re - other.re, self.im - other.im)
        return _real(self.re - other.re)

    def __rsub__(self, other):
        return (-self).__add__(other)

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
            return NotImplemented
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
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _real(Fraction(other))
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
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _real(Fraction(other)) / self

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

    def is_zero(self) -> bool:
        return not self.re and not self.im

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
# type check and the immutability guard in __setattr__.
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
