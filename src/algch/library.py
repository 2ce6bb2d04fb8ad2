"""Ready-made constant algebroids used by the CLI examples and tests."""

from __future__ import annotations

from .scalars import Scalar, ZERO, ONE
from .linalg import Matrix
from .algebroid import ConstantAlgebroid, validate_algebroid


def _empty_brackets(r: int):
    return [[[ZERO] * r for _ in range(r)] for _ in range(r)]


def _set_bracket(c, i, j, coeffs):
    """[e_i, e_j] = sum coeffs[k] e_k, antisymmetrized (0-based)."""
    for k, v in enumerate(coeffs):
        v = Scalar.coerce(v)
        c[i][j][k] = v
        c[j][i][k] = -v


def lie_algebra(r: int, brackets: dict) -> ConstantAlgebroid:
    """brackets maps (i, j) with i < j (0-based) to coefficient lists."""
    c = _empty_brackets(r)
    for (i, j), coeffs in brackets.items():
        _set_bracket(c, i, j, coeffs)
    out = ConstantAlgebroid(0, r, Matrix.zeros(0, r), c)
    bad = validate_algebroid(out)
    if bad:
        raise ValueError("not a Lie algebra: " + "; ".join(bad))
    return out


def abelian(r: int) -> ConstantAlgebroid:
    return ConstantAlgebroid(0, r, Matrix.zeros(0, r), _empty_brackets(r))


def tangent_torus(n: int) -> ConstantAlgebroid:
    """TT^n: rank n, identity anchor, zero brackets."""
    return ConstantAlgebroid(n, n, Matrix.identity(n), _empty_brackets(n))


def heisenberg() -> ConstantAlgebroid:
    return lie_algebra(3, {(0, 1): [0, 0, 1]})


def so3() -> ConstantAlgebroid:
    return lie_algebra(
        3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (2, 0): [0, 1, 0]}
    )


def q_family(a, b, c, d) -> ConstantAlgebroid:
    """[e_1,e_2] = 0, [e_1,e_3] = a e_1 + b e_2, [e_2,e_3] = c e_1 + d e_2."""
    return lie_algebra(3, {(0, 2): [a, b, 0], (1, 2): [c, d, 0]})
