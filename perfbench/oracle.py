"""Checks of each report that do not use ``algch`` code.

* ``cohomology``: the Betti vector of a direct product is the
  convolution of its factors' Betti vectors (Kunneth).  The factors'
  Betti numbers (rank <= 3) come from their structure constants with
  sympy's exact rank.
* ``validate``: the verdict is VALID with the generated shape.
* ``cs``: every cochain is closed under a Chevalley-Eilenberg
  differential written here from the structure constants, in exact
  Gaussian rationals.
* ``morita-check``: every per-q and perturbed-metric verdict holds.

Each check returns a list of problems; an empty list means the report
passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _gaussian(v):
    """A JSON scalar as an exact (re, im) pair."""
    if isinstance(v, dict):
        return Fraction(v.get("re", "0")), Fraction(v.get("im", "0"))
    return Fraction(v), Fraction(0)


def _brackets(doc):
    """{(i, j): {k: (re, im)}} for i < j, 0-based, zero entries left out."""
    out = {}
    for entry in doc.get("brackets", []):
        i, j = entry["i"] - 1, entry["j"] - 1
        coeffs = {
            k: c for k, v in enumerate(entry["coeffs"]) if (c := _gaussian(v)) != (0, 0)
        }
        if i > j:
            i, j = j, i
            coeffs = {k: (-re, -im) for k, (re, im) in coeffs.items()}
        out[(i, j)] = coeffs
    return out


def _sorted_sign(idx):
    """(sorted tuple, sign of the sorting permutation), or (None, 0)."""
    if len(set(idx)) != len(idx):
        return None, 0
    inversions = sum(1 for a, b in combinations(idx, 2) if a > b)
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


def ce_differential(rank, brackets, form):
    """d of a constant form {sorted index tuple: (re, im)}.

    (d w)(e_0..e_k) = sum_{s<t} (-1)^(s+t) w([e_s, e_t], e_0..^s..^t..e_k);
    the anchor terms vanish on constant forms.
    """
    degree = len(next(iter(form))) if form else 0
    out = {}
    for idx in combinations(range(rank), degree + 1):
        re_acc, im_acc = Fraction(0), Fraction(0)
        for s, t in combinations(range(degree + 1), 2):
            coeffs = brackets.get((idx[s], idx[t]), {})
            rest = idx[:s] + idx[s + 1:t] + idx[t + 1:]
            sign = -1 if (s + t) % 2 else 1
            for m, (cre, cim) in coeffs.items():
                key, perm = _sorted_sign((m,) + rest)
                if key not in form:
                    continue
                wre, wim = form[key]
                f = sign * perm
                re_acc += f * (cre * wre - cim * wim)
                im_acc += f * (cre * wim + cim * wre)
        if re_acc or im_acc:
            out[idx] = (re_acc, im_acc)
    return out


def _structure_matrix_betti(doc):
    """Betti numbers of one factor from its structure constants (sympy)."""
    import sympy

    rank = doc["rank"]
    brackets = _brackets(doc)
    dims = []
    ranks = []
    for k in range(rank + 1):
        dom = list(combinations(range(rank), k))
        cod = list(combinations(range(rank), k + 1))
        dims.append(len(dom))
        if not cod or not dom:
            ranks.append(0)
            continue
        pos = {idx: i for i, idx in enumerate(cod)}
        m = sympy.zeros(len(cod), len(dom))
        for col, idx in enumerate(dom):
            d = ce_differential(rank, brackets, {idx: (Fraction(1), Fraction(0))})
            for cidx, (re, im) in d.items():
                m[pos[cidx], col] = sympy.Rational(re) + sympy.I * sympy.Rational(im)
        ranks.append(m.rank())
    # b_k = dim C^k - rank d_k - rank d_{k-1}
    return [dims[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(rank + 1)]


def kunneth_betti(factor_docs):
    out = [1]
    for doc in factor_docs:
        b = _structure_matrix_betti(doc)
        conv = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        out = conv
    return out


def check(job, report) -> list[str]:
    command = job["command"]
    doc = job["doc"]
    if report.get("command") != command:
        return [f"report is for {report.get('command')!r}, not {command!r}"]
    if "error" in report:
        return [f"report carries an error: {report['error']}"]
    if command == "validate":
        want = {"verdict": "VALID", "base_dim": doc["base_dim"], "rank": doc["rank"]}
        got = {k: report.get(k) for k in want}
        return [] if got == want else [f"validate reported {got}, expected {want}"]
    if command == "cohomology":
        want = job["kunneth"]
        got = report.get("betti")
        return [] if got == want else [f"Betti {got} != Kunneth {want}"]
    if command == "cs":
        brackets = _brackets(doc)
        problems = []
        qs = [c["q"] for c in report.get("cochains", [])]
        if qs != list(range(1, len(qs) + 1)) or not qs:
            problems.append(f"cochain degrees {qs}")
        for entry in report.get("cochains", []):
            form = {
                tuple(i - 1 for i in c["indices"]): _gaussian(c["value"])
                for c in entry["form"]
            }
            if ce_differential(doc["rank"], brackets, form):
                problems.append(f"cs^{entry['q']} is not closed")
        return problems
    if command == "morita-check":
        problems = []
        if report.get("passed") is not True:
            problems.append("morita check did not pass")
        for q, res in report.get("per_q", {}).items():
            if res.get("equal") is not True:
                problems.append(f"q={q}: representatives differ")
        for q, ok in report.get("cohomologous", {}).items():
            if ok is not True:
                problems.append(f"q={q}: perturbed metric not cohomologous")
        if not report.get("cohomologous"):
            problems.append("no perturbed-metric verdicts")
        return problems
    return [f"no check for command {command!r}"]
