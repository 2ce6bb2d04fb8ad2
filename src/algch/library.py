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


def sl3_r3() -> ConstantAlgebroid:
    """sl3(R) semidirect R^3, rank 11, in the basis E_12, E_13, E_21, E_23,
    E_31, E_32, H_1 = E_11 - E_22, H_2 = E_22 - E_33, v_1, v_2, v_3: the
    matrix commutator on sl3, [X, v_l] = X v_l and [v_l, v_m] = 0.  It is
    unimodular and has no direct-sum split."""
    units = [(i, j) for i in range(3) for j in range(3) if i != j]
    mats = [[[int((p, q) == u) for q in range(3)] for p in range(3)] for u in units]
    mats += [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]]]

    def coords(m):
        """{index: coefficient} of a traceless 3 x 3 matrix."""
        out = {n: m[i][j] for n, (i, j) in enumerate(units)}
        out[6], out[7] = m[0][0], m[0][0] + m[1][1]
        return out

    brackets = {}
    for n, x in enumerate(mats):
        for p, y in enumerate(mats[n + 1:], n + 1):
            brackets[n, p] = coords([
                [sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)
            ])
        for l in range(3):
            brackets[n, 8 + l] = {8 + k: x[k][l] for k in range(3)}
    return lie_algebra(11, brackets)
