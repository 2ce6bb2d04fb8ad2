"""Ready-made constant algebroids used by the CLI examples and tests."""

from __future__ import annotations

from .linalg import Matrix
from .algebroid import ConstantAlgebroid, validate_algebroid


def lie_algebra(r: int, brackets: dict) -> ConstantAlgebroid:
    """brackets maps (i, j) (0-based) to {k: c_ij^k}, the ConstantAlgebroid
    input; the result is checked."""
    out = ConstantAlgebroid(0, r, Matrix.zeros(0, r), brackets)
    bad = validate_algebroid(out)
    if bad:
        raise ValueError("not a Lie algebra: " + "; ".join(bad))
    return out


def abelian(r: int) -> ConstantAlgebroid:
    return ConstantAlgebroid(0, r, Matrix.zeros(0, r), {})


def tangent_torus(n: int) -> ConstantAlgebroid:
    """TT^n: rank n, identity anchor, zero brackets."""
    return ConstantAlgebroid(n, n, Matrix.identity(n), {})


def heisenberg() -> ConstantAlgebroid:
    return lie_algebra(3, {(0, 1): {2: 1}})


def so3() -> ConstantAlgebroid:
    return lie_algebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})


def q_family(a, b, c, d) -> ConstantAlgebroid:
    """[e_1,e_2] = 0, [e_1,e_3] = a e_1 + b e_2, [e_2,e_3] = c e_1 + d e_2."""
    return lie_algebra(3, {(0, 2): {0: a, 1: b}, (1, 2): {0: c, 1: d}})
