"""Seeded job lists for the three benchmark workloads.

A job is one CLI call: a command, its options and one generated input
document.  Every job list is built from ``algch.library`` factors joined
with ``direct_product`` and written with ``fileio.serialize_algebroid``;
the seed only chooses coefficients (q-family brackets, metrics and the
TM connection) and the ``--seed`` of each Morita check, never the
shapes, so every seed asks for the same kind and amount of work.
"""

from __future__ import annotations

import random
from fractions import Fraction

from algch import library
from algch.algebroid import direct_product
from algch.fileio import serialize_algebroid
from algch.linalg import Matrix
from algch.scalars import Scalar

DEFAULT_SEED = 0

# Factor names understood by _factor; the product's rank is the sum of
# the factor ranks (tt<n> and abelian<n> have rank n, the others 3).
# Each list has a third of its jobs clearly below and a third clearly
# above the middle third, so that the median job time is taken inside a
# group of jobs of similar cost and does not jump between groups.
CS_PRODUCTS = [
    ("heisenberg", "abelian1"),
    ("q", "abelian1"),
    ("so3", "abelian1"),
    ("heisenberg", "abelian2"),
    ("tt1", "so3"),
    ("tt1", "q"),
    ("tt1", "heisenberg"),
    ("q", "abelian2"),
    ("so3", "abelian2"),
    ("heisenberg", "heisenberg"),
]
MORITA_BASES = [
    (("tt2",), 1),
    (("heisenberg",), 1),
    (("tt2",), 2),
    (("q",), 1),
    (("so3",), 1),
    (("heisenberg",), 2),
    (("so3",), 2),
    (("q",), 2),
    (("heisenberg", "abelian1"), 1),
]
# (factors, commands).  The median sits among the six rank-6 jobs; the
# rank-8 product brings 70 x 56 differentials to the row reduction.
COHOMOLOGY_PRODUCTS = [
    (("so3", "heisenberg"), ("validate", "cohomology")),
    (("q", "heisenberg"), ("validate", "cohomology")),
    (("heisenberg", "heisenberg"), ("validate", "cohomology")),
    (("q", "so3", "abelian1"), ("validate", "cohomology")),
    (("so3", "so3", "abelian2"), ("cohomology",)),
]

WORKLOADS = ("cs-products", "morita-pullback", "cohomology-wide")


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 2))


def _scalar(rng: random.Random, gaussian: bool) -> Scalar:
    return Scalar(_rational(rng), _rational(rng) if gaussian else 0)


def _matrix(rng, nrows, ncols, gaussian=False) -> Matrix:
    return Matrix(
        [[_scalar(rng, gaussian) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


def _positive_definite(rng, n, gaussian=False) -> Matrix:
    m = _matrix(rng, n, n, gaussian)
    return m.conj_transpose() * m + Matrix.identity(n)


_Q_VALUES = [Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2")]


def _q_coeffs(rng: random.Random):
    """Nonzero coefficients a, b, c, d of the solvable family."""
    return [rng.choice(_Q_VALUES) for _ in range(4)]


def _factor(name: str, rng: random.Random):
    if name == "q":
        return library.q_family(*_q_coeffs(rng))
    if name == "so3":
        return library.so3()
    if name == "heisenberg":
        return library.heisenberg()
    if name.startswith("tt"):
        return library.tangent_torus(int(name[2:]))
    if name.startswith("abelian"):
        return library.abelian(int(name[7:]))
    raise ValueError(f"unknown factor {name!r}")


def product(names, rng: random.Random):
    """The algebroid and its factors, left to right."""
    factors = [_factor(n, rng) for n in names]
    out = factors[0]
    for f in factors[1:]:
        out = direct_product(out, f)
    return out, factors


def _extras(a, rng: random.Random, gaussian_metric: bool) -> dict:
    return {
        "g_A": _positive_definite(rng, a.r, gaussian_metric),
        "g_M": _positive_definite(rng, a.n),
        "tm_conn": [_matrix(rng, a.r, a.r) for _ in range(a.n)],
    }


def jobs(workload: str, seed: int) -> list[dict]:
    """Job dicts with keys name, command, flags (further CLI arguments)
    and doc, plus factors (the factor documents, for the Kunneth oracle)
    on the cohomology workload."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    if workload == "cs-products":
        for names in CS_PRODUCTS:
            a, _ = product(names, rng)
            doc = serialize_algebroid(a, _extras(a, rng, gaussian_metric=False))
            out.append(_job(names, "cs", ["--max-q", "2"], doc))
    elif workload == "morita-pullback":
        for names, k in MORITA_BASES:
            a, _ = product(names, rng)
            doc = serialize_algebroid(a, _extras(a, rng, gaussian_metric=True))
            flags = ["--k", str(k), "--max-q", "2", "--seed", str(rng.randrange(1000))]
            out.append(_job(names, "morita-check", flags, doc, suffix=f"k{k}"))
    elif workload == "cohomology-wide":
        for names, commands in COHOMOLOGY_PRODUCTS:
            a, factors = product(names, rng)
            doc = serialize_algebroid(a)
            factor_docs = [serialize_algebroid(f) for f in factors]
            for command in commands:
                job = _job(names, command, [], doc)
                job["factors"] = factor_docs
                out.append(job)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _job(names, command, flags, doc, suffix=""):
    name = "x".join(names) + (f"-{suffix}" if suffix else "") + f"-{command}"
    return {"name": name, "command": command, "flags": flags, "doc": doc}
