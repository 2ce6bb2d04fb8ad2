"""Command-line front end.

    algch <command> [--max-q N] [--k K] [--seed S] [--out report.json] inputs...

Commands: validate, cohomology, char, modular, cs, morita-check,
product, batch.  Reports go to stdout as text and, with --out, to a
JSON file that mirrors the verdicts with exact rational strings.  Exit
status is 0 iff every asserted identity held.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from operator import mul

from .linalg import Matrix, _reduced
from .algebroid import betti_numbers
from .connections import HermitianMetric
from .charclasses import (
    DomainError,
    IdentityFailure,
    adjoint_bundle,
    basic_cochains,
    intrinsic_char,
    modular_class,
    default_max_q,
)
from .pullback import pullback_algebroid, morita_check
from . import fileio
from .fileio import ParseError


def _metric(extras, bundle):
    """The document's metric on the adjoint bundle: g_A and g_M,
    identity where not given."""
    return HermitianMetric(
        bundle,
        extras.get("g_A", Matrix.identity(bundle.rank_even)),
        extras.get("g_M", Matrix.identity(bundle.rank_odd)),
    )


def _tm_conn(extras, a):
    return extras.get("tm_conn", [Matrix.zeros(a.r, a.r) for _ in range(a.n)])


def _count_option(opts, name: str, default: int) -> int:
    """A positive integer option; default only when it was not given."""
    v = opts.get(name)
    if v is None:
        return default
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        flag = "--" + name.replace("_", "-")
        raise ParseError(f"{flag} must be an integer >= 1, got {v!r}")
    return v


def _random_pd(n: int, rng: random.Random) -> Matrix:
    """m^H m + 1 for an n x n matrix m of entries x/u + i y/v, the four
    drawn in that order per entry, held as integer rows over 6.  Entry
    (i, j) over 36 is conj(column i) . column j; it is taken on the
    upper triangle and mirrored, as m^H m is Hermitian."""
    draws = [
        [(rng.randint(-2, 2), rng.randint(1, 3), rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(n)
    ]
    a = list(zip(*[[x * (6 // u) for x, u, _, _ in row] for row in draws]))
    b = list(zip(*[[y * (6 // v) for _, _, y, v in row] for row in draws]))
    re, im = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            re[i][j] = re[j][i] = sum(map(mul, a[i], a[j])) + sum(map(mul, b[i], b[j])) + 36 * (i == j)
            im[i][j] = sum(map(mul, a[i], b[j])) - sum(map(mul, b[i], a[j]))
            im[j][i] = -im[i][j]
    return _reduced(re, im, 36, n)


def cmd_validate(job):
    try:
        a, _ = fileio.load_algebroid(job["inputs"][0])
    except ParseError as e:
        return {"verdict": "INVALID", "violations": str(e), "error": str(e)}, 1, [f"INVALID: {e}"]
    return (
        {"verdict": "VALID", "base_dim": a.n, "rank": a.r},
        0,
        [f"VALID (base_dim={a.n}, rank={a.r})"],
    )


def cmd_cohomology(job):
    a, _ = fileio.load_algebroid(job["inputs"][0])
    betti = betti_numbers(a)
    return {"betti": betti}, 0, ["Betti: " + " ".join(map(str, betti))]


def cmd_char(job):
    a, _ = fileio.load_algebroid(job["inputs"][0])
    max_q = _count_option(job["options"], "max_q", default_max_q(a))
    reports = intrinsic_char(a, max_q)
    lines, out = [], []
    for rep in reports:
        verdict = "ZERO" if rep.is_zero_class else "NONZERO"
        lines.append(f"char^{rep.q}: {verdict}")
        out.append(
            {
                "q": rep.q,
                "is_zero_class": rep.is_zero_class,
                "representative": fileio.form_to_json(rep.representative),
                "witness": fileio.form_to_json(rep.witness)
                if rep.witness is not None
                else None,
            }
        )
    return {"classes": out}, 0, lines


def cmd_modular(job):
    a, _ = fileio.load_algebroid(job["inputs"][0])
    result = modular_class(a)
    rep = result.report
    verdict = "ZERO" if rep.is_zero_class else "NONZERO"
    return (
        {
            "is_zero_class": rep.is_zero_class,
            "representative": fileio.form_to_json(rep.representative),
            "normalized": fileio.form_to_json(result.normalized),
        },
        0,
        [
            f"modular class: {verdict}",
            "normalized: " + json.dumps(fileio.form_to_json(result.normalized)),
        ],
    )


def cmd_cs(job):
    """cs^q(basic connection, its metric dual) for q = 1..max_q."""
    a, extras = fileio.load_algebroid(job["inputs"][0])
    max_q = _count_option(job["options"], "max_q", default_max_q(a))
    forms = basic_cochains(a, _tm_conn(extras, a), _metric(extras, adjoint_bundle(a.anchor)), max_q)
    out, lines = [], []
    for q in range(1, max_q + 1):
        comps = fileio.form_to_json(forms[q])
        out.append({"q": q, "form": comps})
        lines.append(f"cs^{q}: " + (json.dumps(comps) if comps else "0"))
    return {"cochains": out}, 0, lines


def cmd_morita_check(job):
    a, extras = fileio.load_algebroid(job["inputs"][0])
    opts = job["options"]
    k = _count_option(opts, "k", 1)
    max_q = _count_option(opts, "max_q", 2)
    seed = opts.get("seed")
    if seed is None:
        seed = 0
    elif isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError(f"--seed must be an integer, got {seed!r}")
    rng = random.Random(seed)
    tm = _tm_conn(extras, a)
    g = _metric(extras, adjoint_bundle(a.anchor))
    g_v = extras.get("g_V", Matrix.identity(k))
    if g_v.nrows != k:
        raise ParseError(f"g_V must be {k} x {k} for k={k}")
    anchor = pullback_algebroid(a, k).anchor
    alt = HermitianMetric(
        adjoint_bundle(anchor), _random_pd(anchor.ncols, rng), _random_pd(anchor.nrows, rng)
    )
    report = morita_check(a, k, tm, g, g_v, max_q=max_q, alt_metric=alt)
    lines = []
    for q, res in report.per_q.items():
        verdict = "EQUAL" if res["equal"] else "DIFFER"
        suffix = " (both zero)" if res["both_zero"] else ""
        lines.append(f"q={q}: {verdict}{suffix}")
    for q, ok in report.cohomologous.items():
        lines.append(f"q={q} perturbed metric: {'cohomologous' if ok else 'NOT cohomologous'}")
    status = 0 if report.passed else 1
    return (
        {
            "k": k,
            "max_q": max_q,
            "seed": seed,
            "per_q": report.per_q,
            "cohomologous": report.cohomologous,
            "passed": report.passed,
        },
        status,
        lines,
    )


def cmd_product(job):
    from .algebroid import direct_product

    a, _ = fileio.load_algebroid(job["inputs"][0])
    b, _ = fileio.load_algebroid(job["inputs"][1])
    prod = direct_product(a, b)
    doc = fileio.serialize_algebroid(prod)
    return {"product": doc}, 0, [json.dumps(doc, indent=2)]


COMMANDS = {
    "validate": (cmd_validate, 1),
    "cohomology": (cmd_cohomology, 1),
    "char": (cmd_char, 1),
    "modular": (cmd_modular, 1),
    "cs": (cmd_cs, 1),
    "morita-check": (cmd_morita_check, 1),
    "product": (cmd_product, 2),
}

OPTIONS = ("max_q", "k", "seed")

# built once per process, so that every call of main pays only for parse_args
PARSER = argparse.ArgumentParser(
    prog="algch",
    description="Exact characteristic classes of constant-coefficient Lie algebroids",
)
PARSER.add_argument("command", choices=list(COMMANDS) + ["batch"])
PARSER.add_argument("inputs", nargs="+", help="input JSON file(s)")
PARSER.add_argument("--max-q", type=int, default=None)
PARSER.add_argument("--k", type=int, default=None, help="fibre coordinates for morita-check")
PARSER.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
PARSER.add_argument("--out", default=None, help="write the JSON report here")


def run(job: dict):
    """Dispatch one job: {'command', 'inputs', 'options'}.

    A job that cannot run (unknown command or option, wrong number of
    inputs, unreadable or malformed input, an algebroid that is not real
    for a class command) gets an error report and status 1.
    """
    command = job["command"]
    try:
        if command not in COMMANDS:
            raise ParseError(f"unknown command {command!r}")
        for name in job["options"]:
            if name not in OPTIONS:
                raise ParseError(f"unknown option {name!r}; options are {', '.join(OPTIONS)}")
        fn, arity = COMMANDS[command]
        if len(job["inputs"]) != arity:
            raise ParseError(f"{command} takes {arity} input file(s)")
        payload, status, lines = fn(job)
    except (ParseError, OSError, DomainError) as e:
        return {"command": command, "inputs": job["inputs"], "error": str(e)}, 1, [f"error: {e}"]
    except IdentityFailure as e:
        # a failed identity is a verdict: reported like any other, exit 1
        failure = {"kind": "IdentityFailure", "identity": e.identity}
        report = {"command": command, "inputs": job["inputs"], "error": str(e), "failure": failure}
        return report, 1, [f"FAILED: {e}"]
    report = {
        "command": command,
        "inputs": job["inputs"],
        "options": job["options"],
        **payload,
    }
    return report, status, lines


def _batch_jobs(doc) -> list[dict]:
    """The jobs of a batch document; ParseError if any is malformed."""
    if not isinstance(doc, list):
        raise ParseError("a batch document must be a list of jobs")
    jobs = []
    for n, j in enumerate(doc, 1):
        if not isinstance(j, dict):
            raise ParseError(f"batch job {n} is not an object")
        job = {
            "command": j.get("command"),
            "inputs": j.get("inputs", []),
            "options": j.get("options", {}),
        }
        if not isinstance(job["command"], str):
            raise ParseError(f"batch job {n}: command must be a string")
        if not isinstance(job["inputs"], list) or not all(
            isinstance(f, str) for f in job["inputs"]
        ):
            raise ParseError(f"batch job {n}: inputs must be a list of file names")
        if not isinstance(job["options"], dict):
            raise ParseError(f"batch job {n}: options must be an object")
        jobs.append(job)
    return jobs


def cmd_batch(path: str):
    """Run the jobs in input order; a job that fails fails only itself."""
    jobs = _batch_jobs(fileio.load_json(path))
    reports, status, lines = [], 0, []
    for job in jobs:
        report, st, ls = run(job)
        reports.append(report)
        status = max(status, st)
        lines.append(f"== {job['command']} {' '.join(job['inputs'])}")
        lines.extend(ls)
    return {"batch": reports}, status, lines


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)

    lines, failure = [], None
    try:
        if args.command == "batch":
            report, status, lines = cmd_batch(args.inputs[0])
        else:
            job = {
                "command": args.command,
                "inputs": args.inputs,
                "options": {"max_q": args.max_q, "k": args.k, "seed": args.seed},
            }
            report, status, lines = run(job)
        # written first, since a reader that stops early (head) cuts the printing short
        if args.out:
            text = json.dumps(report, indent=2)  # a failed encoding leaves no file
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ParseError, OSError) as e:
        failure = e
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the run keeps its status; stdout goes to devnull, so that the
        # flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
