"""JSON interchange: exact rationals as strings, never floats.

An algebroid document looks like

    {
      "base_dim": 1,
      "rank": 3,
      "anchor": [["1", "0", "0"]],            # row-major, n rows of r
      "brackets": [{"i": 1, "j": 3, "coeffs": ["1", "0", "0"]}],
      "metric": {"g_A": [[...]], "g_M": [[...]]},   # r x r and n x n
      "connection": {"tm_conn": [[[...]]]}     # n matrices, r x r
    }

Bracket indices are 1-based (e_1.. e_r).  Only i < j entries are needed:
a pair given in one orientation gets its antisymmetric partner, a pair
given in both is kept as given and checked, and a pair given twice is
an error, as is any key not shown above.  Scalar entries are integers,
strings matching [+-]?[0-9]+(/[0-9]+)? like "-3/2", or {"re": x, "im": y}.
"""

from __future__ import annotations

import json
import re
from math import gcd

from .scalars import Scalar, ZERO
from .linalg import Matrix, _cleared, _matrix
from .algebroid import ConstantAlgebroid, AlgebroidForm, validate_algebroid, _algebroid, _table
from .connections import check_metric_block


class ParseError(ValueError):
    pass


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational(v) -> tuple:
    """(numerator, denominator) in lowest terms of a JSON integer or a
    string matching [+-]?[0-9]+(/[0-9]+)?; floats, booleans and decimal
    or exponent notation are refused."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    m = _RATIONAL.fullmatch(v) if isinstance(v, str) else None
    if not m:
        raise ParseError(f'bad rational {v!r} (integers or strings like "-3/2"; floats are not accepted)')
    try:  # int() refuses more digits than its limit
        x, u = int(m[1]), int(m[2] or 1)
    except ValueError as e:
        raise ParseError(f"bad rational {v!r}: {e}") from None
    if not u:  # in the words Fraction uses for a zero denominator
        raise ParseError(f"bad rational {v!r}: Fraction({x}, 0)")
    g = gcd(x, u)
    return x // g, u // g


def _entry(v) -> tuple:
    """(x, u, y, w) of a scalar entry x/u + i y/w, each part in lowest terms."""
    if isinstance(v, dict):
        if not v.keys() <= {"re", "im"}:
            _known_keys(v, ("re", "im"), f"bad scalar entry {v!r}")
        return _rational(v.get("re", 0)) + _rational(v.get("im", 0))
    return _rational(v) + (0, 1)


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
    re, im, den = _cleared([[_entry(v) for v in row] for row in rows])
    return _matrix(re, im, den, ncols)


def _int_field(obj: dict, key: str, what: str) -> int:
    if key not in obj:
        raise ParseError(f"{what}: missing field {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{what}: {key} must be an integer, got {v!r}")
    return v


def _known_keys(obj: dict, known, what: str):
    """A misspelt key would otherwise be ignored and its default used."""
    unknown = set(obj) - set(known)
    if unknown:
        raise ParseError(f"{what}: unknown keys {sorted(unknown)}")


def matrix_to_json(m: Matrix):
    return [[scalar_to_json(v) for v in row] for row in m.rows]


def parse_algebroid(doc: dict) -> tuple[ConstantAlgebroid, dict]:
    """Returns the algebroid plus the optional metric/connection blocks."""
    if not isinstance(doc, dict):
        raise ParseError("an algebroid document must be a JSON object")
    _known_keys(
        doc, ("base_dim", "rank", "anchor", "brackets", "metric", "connection"), "algebroid"
    )
    n = _int_field(doc, "base_dim", "algebroid")
    r = _int_field(doc, "rank", "algebroid")
    if n < 0 or r < 0:
        raise ParseError("base_dim and rank must be non-negative")
    anchor = matrix_from_json(doc.get("anchor", [[0] * r] * n), n, r, "anchor")
    c = {}
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list")
    for entry in brackets:
        if not isinstance(entry, dict):
            raise ParseError(f"bracket entry {entry!r} is not an object")
        _known_keys(entry, ("i", "j", "coeffs"), "bracket entry")
        i = _int_field(entry, "i", "bracket entry") - 1
        j = _int_field(entry, "j", "bracket entry") - 1
        if not (0 <= i < r and 0 <= j < r):
            raise ParseError(f"bracket index ({i+1},{j+1}) out of range 1..{r}")
        if (i, j) in c:
            raise ParseError(f"bracket ({i+1},{j+1}) is given twice")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list):
            raise ParseError(f"bracket ({i+1},{j+1}) needs a coeffs list")
        if len(coeffs) != r:
            raise ParseError(f"bracket ({i+1},{j+1}) needs {r} coefficients")
        c[i, j] = [(k, *e) for k, e in enumerate(map(_entry, coeffs)) if e[0] or e[2]]
    a = _algebroid(n, r, anchor, *_table(r, c))
    violations = validate_algebroid(a)
    if violations:
        raise ParseError("; ".join(violations))

    extras = {}
    metric = doc.get("metric", {})
    if not isinstance(metric, dict):
        raise ParseError("metric must be an object")
    _known_keys(metric, ("g_A", "g_M"), "metric")
    if "g_A" in metric:
        extras["g_A"] = matrix_from_json(metric["g_A"], r, r, "g_A")
    if "g_M" in metric:
        extras["g_M"] = matrix_from_json(metric["g_M"], n, n, "g_M")
    for key, h in extras.items():
        try:
            check_metric_block(h)
        except ValueError as e:
            raise ParseError(f"{key}: {e}") from None
    conn = doc.get("connection", {})
    if not isinstance(conn, dict):
        raise ParseError("connection must be an object")
    _known_keys(conn, ("tm_conn",), "connection")
    if "tm_conn" in conn:
        mats = conn["tm_conn"]
        if not isinstance(mats, list) or len(mats) != n:
            raise ParseError(f"tm_conn needs a list of {n} matrices")
        extras["tm_conn"] = [
            matrix_from_json(m, r, r, f"tm_conn[{i}]") for i, m in enumerate(mats)
        ]
    return a, extras


def serialize_algebroid(a: ConstantAlgebroid, extras: dict = None) -> dict:
    doc = {"base_dim": a.n, "rank": a.r, "anchor": matrix_to_json(a.anchor), "brackets": []}
    for i in range(a.r):
        for j in range(i + 1, a.r):
            if a.ints[i][j]:
                row = dict(a.bracket(i, j))
                coeffs = [scalar_to_json(row.get(k, ZERO)) for k in range(a.r)]
                doc["brackets"].append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    if extras:
        metric = {}
        for key in ("g_A", "g_M"):
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


def load_json(path: str):
    """The JSON document in a file; ParseError naming the file if it is
    not UTF-8 JSON, nests too deep or has too long an integer."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from None
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{path}: {e}") from None


def load_algebroid(path: str) -> tuple[ConstantAlgebroid, dict]:
    return parse_algebroid(load_json(path))
