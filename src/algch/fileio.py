"""JSON interchange: exact rationals as strings, never floats.

An algebroid document looks like

    {
      "base_dim": 1,
      "rank": 3,
      "anchor": [["1", "0", "0"]],            # row-major, n rows of r
      "brackets": [{"i": 1, "j": 3, "coeffs": ["1", "0", "0"]}],
      "metric": {"g_A": [[...]], "g_M": [[...]], "g_V": [[...]]},
      "connection": {"tm_conn": [[[...]]]}     # n matrices, r x r
    }

Bracket indices are 1-based (e_1.. e_r); only i < j entries are needed,
the antisymmetric partner is filled in.  Scalar entries are rational
strings like "3/2" or {"re": "...", "im": "..."} for Gaussian values.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .scalars import Scalar, ZERO
from .linalg import Matrix
from .algebroid import ConstantAlgebroid, AlgebroidForm, validate_algebroid


class ParseError(ValueError):
    pass


def scalar_from_json(v) -> Scalar:
    try:
        if isinstance(v, dict):
            return Scalar(Fraction(v.get("re", "0")), Fraction(v.get("im", "0")))
        if isinstance(v, (str, int)):
            return Scalar(Fraction(v))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {v!r}: {e}") from None
    raise ParseError(f"bad scalar entry {v!r} (floats are not accepted)")


def scalar_to_json(s: Scalar):
    if s.im == 0:
        return str(s.re)
    return {"re": str(s.re), "im": str(s.im)}


def matrix_from_json(rows, nrows: int, ncols: int, what: str) -> Matrix:
    if (
        not isinstance(rows, list)
        or len(rows) != nrows
        or any(not isinstance(r, list) or len(r) != ncols for r in rows)
    ):
        raise ParseError(f"{what} must be {nrows} x {ncols}")
    return Matrix(
        [[scalar_from_json(v) for v in row] for row in rows], ncols=ncols
    )


def _int_field(obj: dict, key: str, what: str) -> int:
    if key not in obj:
        raise ParseError(f"{what}: missing field {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{what}: {key} must be an integer, got {v!r}")
    return v


def matrix_to_json(m: Matrix):
    return [[scalar_to_json(v) for v in row] for row in m.rows]


def parse_algebroid(doc: dict) -> tuple[ConstantAlgebroid, dict]:
    """Returns the algebroid plus the optional metric/connection blocks."""
    if not isinstance(doc, dict):
        raise ParseError("an algebroid document must be a JSON object")
    n = _int_field(doc, "base_dim", "algebroid")
    r = _int_field(doc, "rank", "algebroid")
    if n < 0 or r < 0:
        raise ParseError("base_dim and rank must be non-negative")
    anchor = matrix_from_json(doc.get("anchor", [[ "0"] * r] * n), n, r, "anchor")
    c = [[[ZERO] * r for _ in range(r)] for _ in range(r)]
    given = set()
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list")
    for entry in brackets:
        if not isinstance(entry, dict):
            raise ParseError(f"bracket entry {entry!r} is not an object")
        i = _int_field(entry, "i", "bracket entry") - 1
        j = _int_field(entry, "j", "bracket entry") - 1
        if not (0 <= i < r and 0 <= j < r):
            raise ParseError(f"bracket index ({i+1},{j+1}) out of range 1..{r}")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list):
            raise ParseError(f"bracket ({i+1},{j+1}) needs a coeffs list")
        if len(coeffs) != r:
            raise ParseError(f"bracket ({i+1},{j+1}) needs {r} coefficients")
        given.add((i, j))
        for k, v in enumerate(coeffs):
            c[i][j][k] = scalar_from_json(v)
    # fill antisymmetric partners where only one direction was written;
    # explicitly inconsistent pairs are left for validation to flag
    for i, j in list(given):
        if (j, i) not in given:
            for k in range(r):
                c[j][i][k] = -c[i][j][k]
    a = ConstantAlgebroid(n, r, anchor, c)
    violations = validate_algebroid(a)
    if violations:
        raise ParseError("; ".join(violations))

    extras = {}
    metric = doc.get("metric", {})
    if "g_A" in metric:
        extras["g_A"] = matrix_from_json(metric["g_A"], r, r, "g_A")
    if "g_M" in metric:
        extras["g_M"] = matrix_from_json(metric["g_M"], n, n, "g_M")
    if "g_V" in metric:
        gv = metric["g_V"]
        extras["g_V"] = matrix_from_json(gv, len(gv), len(gv), "g_V")
    conn = doc.get("connection", {})
    if "tm_conn" in conn:
        mats = conn["tm_conn"]
        if len(mats) != n:
            raise ParseError(f"tm_conn needs {n} matrices")
        extras["tm_conn"] = [
            matrix_from_json(m, r, r, f"tm_conn[{i}]") for i, m in enumerate(mats)
        ]
    return a, extras


def serialize_algebroid(a: ConstantAlgebroid, extras: dict = None) -> dict:
    doc = {
        "base_dim": a.n,
        "rank": a.r,
        "anchor": matrix_to_json(a.anchor),
        "brackets": [
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": [scalar_to_json(a.brackets[i][j][k]) for k in range(a.r)],
            }
            for i in range(a.r)
            for j in range(i + 1, a.r)
            if a.nonzero_brackets[i][j]
        ],
    }
    if extras:
        metric = {}
        for key in ("g_A", "g_M", "g_V"):
            if key in extras:
                metric[key] = matrix_to_json(extras[key])
        if metric:
            doc["metric"] = metric
        if "tm_conn" in extras:
            doc["connection"] = {
                "tm_conn": [matrix_to_json(m) for m in extras["tm_conn"]]
            }
    return doc


def form_to_json(omega: AlgebroidForm):
    return [
        {"indices": [i + 1 for i in idx], "value": scalar_to_json(v)}
        for idx, v in sorted(omega.comps.items())
    ]


def load_algebroid(path: str) -> tuple[ConstantAlgebroid, dict]:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from None
    return parse_algebroid(doc)
